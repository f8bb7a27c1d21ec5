"""Deterministic (D0L) L-systems: grammar parsing, parallel rewriting, and
turtle interpretation of derivation strings into branching skeletons.

Grammar text is line oriented (``;`` also separates declarations, so a whole
grammar fits on one line)::

    # comment
    vars: g
    consts: d
    axiom: g
    rule: g -> d(d)+d)[d(d)+d)

Turtle semantics. Parentheses are decorative and ignored. A ``]`` must close
an earlier ``[``; a ``[`` with no matching ``]`` is implicitly closed at the
end of the string and acts as a plain sibling separator. Only an explicitly
closed ``[...]`` group nests: the branch symbols inside it become children of
the branch emitted just before the group. Every top-level branch symbol
becomes a first-level branch on the trunk, which is what makes the flat
production strings above yield single-level fans (6 branches for the rule
shown). ``+``/``-`` turn an azimuth cursor that phases the fan of any nested
group opened afterwards. ``interpret_turtle(texts, cfgs, trunk_specs,
uniforms)`` interprets a stack of trees at once, reading every jittered fan
from one pre-drawn (rows, 2) block of uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transform as tf

CONTROL_SYMBOLS = frozenset("()+-[]")
BRANCH_SYMBOL = "d"

# rewrite refuses a derivation whose levels after the axiom hold more than
# this many symbols in all, the work it would do. On a 2-vCPU host doubling
# (g -> gg) writes 19 levels within it in 0.04 s; the slowest derivation
# within it, a fixed point (g -> g) iterated 2**20 times, takes 0.9 s.
MAX_DERIVATION_SYMBOLS = 1 << 20

# child attachments span this fraction of the parent axis, lowest to highest
_STATION_LO = 0.30
_STATION_HI = 0.95


class LSystemError(Exception):
    """Base error for this module."""


class GrammarError(LSystemError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TurtleError(LSystemError):
    """Raised when a derivation cannot be interpreted: the ']' at
    ``position`` closes no '['."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class LSystem:
    """A D0L system: the declared symbols (control characters ()+-[] are
    not among them), the axiom and one successor per rewritten variable.
    A symbol without a rule, variable or constant, rewrites to itself."""

    alphabet: frozenset[str]
    axiom: str
    rules: dict[str, str]


@dataclass
class TurtleConfig:
    step_length: float = 1.0
    yaw_angle: float = 60.0       # degrees turned by '+' / '-'
    branch_pitch: float = 40.0    # tilt of a child off its parent axis
    jitter_range: float = 0.0     # degrees; fans jitter exactly when > 0

    def __post_init__(self):
        for name in ("step_length", "yaw_angle", "jitter_range"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.branch_pitch <= 180.0:
            raise ValueError("branch_pitch must be within [0, 180] degrees")
        if self.jitter_range < 0.0:
            raise ValueError("jitter_range must be non-negative")
        if self.step_length <= 0.0:
            raise ValueError("step_length must be positive")


@dataclass
class Skeleton:
    """Skeleton nodes in string order, the trunk first, as parallel arrays:
    attachment ``points`` (n, 3), unit ``directions`` (n, 3), ``depths`` (n,),
    ``lengths`` (n,) and ``parents`` (n,), -1 for the trunk. A stack of
    trees holds each tree's nodes in turn, with parent rows into the stack."""

    points: np.ndarray
    directions: np.ndarray
    depths: np.ndarray
    lengths: np.ndarray
    parents: np.ndarray

    def __len__(self) -> int:
        return len(self.depths)

    def at_depth(self, depth: int) -> np.ndarray:
        """Rows of the nodes at ``depth``, ascending."""
        return (self.depths == depth).nonzero()[0]

    def trees(self) -> list[Skeleton]:
        """The skeleton of each tree of a stack (see interpret_turtle), tree
        after tree: views of these arrays, each tree starting at its trunk,
        with parent rows local to the tree."""
        starts = self.at_depth(0)
        if len(starts) == 1:
            return [self]
        sizes = np.diff(starts, append=len(self))
        parents = self.parents - np.repeat(starts, sizes) * (self.parents >= 0)
        return [Skeleton(self.points[a:b], self.directions[a:b], self.depths[a:b],
                         self.lengths[a:b], parents[a:b])
                for a, b in zip(starts.tolist(), (starts + sizes).tolist())]


# ---------------------------------------------------------------------------
# grammar parsing

def parse_lsystem(spec_text: str) -> LSystem:
    """Parse grammar text into an LSystem, enforcing D0L determinism."""
    variables: list[str] = []
    constants: list[str] = []
    axiom: str | None = None
    rules: list[tuple[str, str, int]] = []

    for lineno, stmt in _declarations(spec_text):
        key, _, rest = stmt.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key == "vars":
            variables.extend(_symbol_list(rest, lineno))
        elif key == "consts":
            constants.extend(_symbol_list(rest, lineno))
        elif key == "axiom":
            if axiom is not None:
                raise GrammarError("duplicate axiom declaration", lineno)
            axiom = "".join(rest.split())
        elif key == "rule":
            pred, _, succ = rest.partition("->")
            pred = pred.strip()
            succ = "".join(succ.split())
            if len(pred) != 1:
                raise GrammarError(f"rule predecessor must be a single symbol, got '{pred}'", lineno)
            rules.append((pred, succ, lineno))
        else:
            raise GrammarError(f"unknown declaration '{stmt}'", lineno)

    declared = set(variables) | set(constants)
    overlap = set(variables) & set(constants)
    if overlap:
        raise GrammarError(f"symbols declared both variable and constant: {sorted(overlap)}")
    if not axiom:
        raise GrammarError("axiom is empty or missing")
    _check_symbols(axiom, declared, "axiom", None)

    productions: dict[str, str] = {}
    rule_lines: dict[str, int] = {}
    for pred, succ, lineno in rules:
        if pred in constants:
            raise GrammarError(f"constant '{pred}' cannot have a production", lineno)
        if pred not in variables:
            raise GrammarError(f"rule predecessor '{pred}' is not a declared variable", lineno)
        if pred in productions:
            raise GrammarError(
                f"duplicate production for '{pred}' (first at line {rule_lines[pred]})", lineno)
        if not succ:
            raise GrammarError(f"successor for '{pred}' is empty", lineno)
        _check_symbols(succ, declared, f"successor of '{pred}'", lineno)
        try:
            # square brackets must never underflow; an unclosed '[' is allowed
            _match_brackets(succ)
        except TurtleError as exc:
            raise GrammarError(f"successor of '{pred}' closes ']' at position {exc.position} "
                               f"with no open '['", lineno) from None
        productions[pred] = succ
        rule_lines[pred] = lineno

    return LSystem(frozenset(declared), axiom, productions)


def _declarations(text: str):
    for lineno, raw in enumerate(text.splitlines() or [text], start=1):
        line = raw.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if stmt:
                yield lineno, stmt


def _symbol_list(rest: str, lineno: int) -> list[str]:
    symbols = [s for chunk in rest.split(",") for s in chunk.split()]
    for s in symbols:
        if len(s) != 1 or not s.isascii() or s in CONTROL_SYMBOLS:
            raise GrammarError(f"invalid symbol declaration '{s}'", lineno)
    return symbols


def _check_symbols(text: str, declared: set[str], where: str, lineno: int | None):
    for ch in text:
        if ch not in declared and ch not in CONTROL_SYMBOLS:
            raise GrammarError(f"{where} references undeclared symbol '{ch}'", lineno)


# ---------------------------------------------------------------------------
# rewriting

def rewrite(ls: LSystem, iterations: int) -> str:
    """Apply simultaneous replacement ``iterations`` times to the axiom. A
    derivation whose levels 1 to ``iterations`` hold more than
    MAX_DERIVATION_SYMBOLS symbols in all is an LSystemError. Each level's
    length is counted from the level before it, before it is written, so no
    level past the budget is ever written."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    # a symbol whose successor is k long adds k - 1 to the next level
    growth = [(s, len(succ) - 1) for s, succ in ls.rules.items() if len(succ) != 1]
    table = str.maketrans(ls.rules)
    text = ls.axiom
    written = 0
    for _ in range(iterations):
        written += len(text) + sum(text.count(s) * k for s, k in growth)
        if written > MAX_DERIVATION_SYMBOLS:
            raise LSystemError(f"{iterations} iterations write more than {MAX_DERIVATION_SYMBOLS} "
                               f"symbols, the budget (forestgen.lsystem.MAX_DERIVATION_SYMBOLS)")
        text = text.translate(table)
    return text


def count_branch_symbols(s: str) -> int:
    return s.count(BRANCH_SYMBOL)


# ---------------------------------------------------------------------------
# turtle interpretation

def _match_brackets(text: str) -> set[int]:
    """Indices of '[' that have a matching ']'. Unmatched '[' are legal
    (implicitly closed at end of string); an unmatched ']' is a TurtleError
    with its position, which parse_lsystem re-raises as a GrammarError."""
    stack: list[int] = []
    matched: set[int] = set()
    for i, ch in enumerate(text):
        if ch == "[":
            stack.append(i)
        elif ch == "]":
            if not stack:
                raise TurtleError(f"']' at position {i} has no matching '['", i)
            matched.add(stack.pop())
    return matched


def interpret_turtle(texts, cfgs, trunk_specs, uniforms: np.ndarray) -> Skeleton:
    """Interpret a stack of derivation strings, each with its TurtleConfig
    and trunk spec (height, base point), as one branching skeleton.

    Fans of a tree jitter exactly when its ``jitter_range > 0``; they then
    read one (azimuth, station) pair of uniforms per child in a fixed order
    (parents in row order, children in string order), n - 1 rows for a tree
    of n nodes (the trunk and one node per branch symbol). ``uniforms``
    holds these rows for every jittered tree, tree after tree, as one (rows,
    2) block: what ``seeds.uniform_blocks`` returns. Anything else is a
    ValueError naming the shape needed.

    Each tree walks its own string (see _walk) and reads its own rows, as it
    would alone. Every node of the stack is then placed together, one depth
    at a time. The skeleton holds the trees' rows tree after tree, each
    tree's trunk first, with parent rows pointing into the stack;
    ``Skeleton.trees`` splits it per tree.
    """
    rows = sum(count_branch_symbols(text) for text, cfg in zip(texts, cfgs)
               if cfg.jitter_range > 0)
    if np.shape(uniforms) != (rows, 2):
        raise ValueError(f"need a ({rows}, 2) block of uniforms, got {np.shape(uniforms)}")
    draws = iter(uniforms.tolist())
    parents, depths, lengths, stations, turns, bases, trunks = [], [], [], [], [], [], []
    for text, cfg, (height, base) in zip(texts, cfgs, trunk_specs, strict=True):
        height = float(height)
        if not 0.0 < height < math.inf:
            raise ValueError("trunk height must be positive and finite")
        tree_parents, tree_depths, phases, children = _walk(text, cfg.yaw_angle)
        tree_stations, tree_turns = _fans(children, phases, cfg, draws)
        trunks.append(len(parents))
        parents += tree_parents
        depths += tree_depths
        stations += tree_stations
        turns += tree_turns
        lengths += [height] + [cfg.step_length] * (len(tree_parents) - 1)
        bases.append(base)

    # placed one depth at a time: every node of a depth, over all trees, is
    # computed in one stack from its parents, which are all placed before it
    parents = np.array(parents, dtype=np.int64)
    if len(trunks) > 1:
        # a tree's parent rows count from its trunk's row in the stack
        parents += np.repeat(trunks, np.diff(trunks, append=len(parents))) * (parents >= 0)
    skeleton = Skeleton(np.empty((len(parents), 3)), np.empty((len(parents), 3)),
                        np.array(depths, dtype=np.int64), np.array(lengths, dtype=np.float64),
                        parents)
    points, directions = skeleton.points, skeleton.directions
    points[trunks] = np.array(bases, dtype=np.float64).reshape(-1, 3)
    directions[trunks] = (0.0, 0.0, 1.0)
    station_of, turn_of = np.array(stations), np.array(turns)
    for depth in range(1, max(depths, default=0) + 1):
        rows = skeleton.at_depth(depth)
        up = parents[rows]
        reach = station_of[rows] * skeleton.lengths[up]
        points[rows] = points[up] + reach[:, None] * directions[up]
        turned = np.matmul(tf.z_alignments(directions[up]), turn_of[rows][:, :, None])
        directions[rows] = tf.normalize_rows(turned[:, :, 0])
    return skeleton


def _walk(text: str, yaw_angle: float) -> tuple[list, list, list, list]:
    """One tree's string pass: per node (row 0 is the trunk) its parent row
    in the tree (-1 for the trunk), its depth, the phase of the nested group
    it opens and its child rows. It draws nothing.

    Only a matched '[' (see _match_brackets) makes the latest child of the
    current context the new context; the '+'/'-' cursor at that moment
    becomes the phase of that child's fan.
    """
    matched = _match_brackets(text)
    parents, depths, phases, children = [-1], [0], [0.0], [[]]
    context = [0]                # rows whose children are being emitted
    pushed: list[bool] = []      # per '[': True when it pushed a context
    cursor = 0.0
    for i, ch in enumerate(text):
        if ch == BRANCH_SYMBOL:
            parent = context[-1]
            children[parent].append(len(parents))
            parents.append(parent)
            depths.append(depths[parent] + 1)
            phases.append(0.0)
            children.append([])
        elif ch == "+":
            cursor += yaw_angle
        elif ch == "-":
            cursor -= yaw_angle
        elif ch == "[":
            fan = children[context[-1]]
            pushed.append(i in matched and bool(fan))
            if pushed[-1]:
                if not children[fan[-1]]:
                    phases[fan[-1]] = cursor
                context.append(fan[-1])
        elif ch == "]":
            if pushed.pop():
                context.pop()
    return parents, depths, phases, children


def _fans(children: list, phases: list, cfg: TurtleConfig, draws) -> tuple[list, list]:
    """One tree's fan pass, from its string pass: per node its station on
    the parent axis and its direction in the parent's frame, the parent axis
    along +Z. With jitter, the tree's n - 1 (azimuth, station) rows are
    taken from the iterator ``draws``; without, it is not read.

    Children of one parent form an evenly spaced fan (360/k apart) offset
    by the parent's phase; stations spread over the upper fraction of the
    parent axis. Jitter adds bounded uniform noise to both, from one
    (azimuth, station) row per child in turn: the same stream as two
    ``rng.uniform`` draws per child. Each child leaves its parent axis at
    the branch pitch, turned to its azimuth.
    """
    n = len(phases)
    stations = [0.0] * n
    turns = [(0.0, 0.0, 1.0)] * n  # the trunk's is never read
    pitch = math.radians(cfg.branch_pitch)
    sin_pitch, cos_pitch = math.sin(pitch), math.cos(pitch)
    j = cfg.jitter_range
    for parent, fan in enumerate(children):
        k = len(fan)
        gap = (_STATION_HI - _STATION_LO) / (k - 1) if k > 1 else 0.0
        for i, row in enumerate(fan):
            azimuth = phases[parent] + i * (360.0 / k)
            station = _STATION_LO + i * gap if k > 1 else _STATION_HI
            if j > 0:
                # rng.uniform(low, high) is low + (high - low) * U[0, 1)
                u_turn, u_shift = next(draws)
                azimuth += -j + (j + j) * u_turn
                span = gap if k > 1 else (_STATION_HI - _STATION_LO)
                wiggle = (-1.0 + 2.0 * u_shift) * 0.25 * span
                station = min(max(station + wiggle, _STATION_LO), _STATION_HI)
            stations[row] = station
            a = math.radians(azimuth)
            turns[row] = (sin_pitch * math.cos(a), sin_pitch * math.sin(a), cos_pitch)
    return stations, turns
