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
group opened afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transform as tf

CONTROL_SYMBOLS = frozenset("()+-[]")
BRANCH_SYMBOL = "d"

REPLACEABLE = "replaceable"
CONSTANT = "constant"

AZIMUTH_POLICIES = ("uniform-spacing", "jittered-uniform")

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
    """Raised when a derivation cannot be interpreted (bracket underflow)."""


@dataclass(frozen=True)
class Symbol:
    """Alphabet member. Control characters ()+-[] are not alphabet symbols;
    they are recognized through CONTROL_SYMBOLS."""

    id: str
    kind: str  # REPLACEABLE or CONSTANT


@dataclass(frozen=True)
class Production:
    predecessor: Symbol
    successor: str


@dataclass(frozen=True)
class LSystem:
    alphabet: frozenset[Symbol]
    axiom: str
    productions: tuple[Production, ...]

    @property
    def rules(self) -> dict[str, str]:
        return {p.predecessor.id: p.successor for p in self.productions}


@dataclass(frozen=True)
class DerivationString:
    symbols: str
    level: int = 0

    def __str__(self) -> str:
        return self.symbols


@dataclass
class TurtleConfig:
    step_length: float = 1.0
    yaw_angle: float = 60.0       # degrees turned by '+' / '-'
    branch_pitch: float = 40.0    # tilt of a child off its parent axis
    azimuth_policy: str = "uniform-spacing"
    jitter_range: float = 0.0     # degrees, jittered-uniform policy only

    def __post_init__(self):
        if not 0.0 <= self.branch_pitch <= 180.0:
            raise ValueError("branch_pitch must be within [0, 180] degrees")
        if self.jitter_range < 0.0:
            raise ValueError("jitter_range must be non-negative")
        if self.step_length <= 0.0:
            raise ValueError("step_length must be positive")
        if self.azimuth_policy not in AZIMUTH_POLICIES:
            raise ValueError(f"azimuth_policy must be one of {AZIMUTH_POLICIES}")


@dataclass
class Skeleton:
    """Skeleton nodes in string order, the trunk first, as parallel arrays:
    attachment ``points`` (n, 3), unit ``directions`` (n, 3), ``depths`` (n,),
    ``lengths`` (n,) and ``parents`` (n,), -1 for the trunk."""

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
        _check_brackets(succ, f"successor of '{pred}'", lineno)
        productions[pred] = succ
        rule_lines[pred] = lineno

    symbols = {s: Symbol(s, REPLACEABLE if s in productions else CONSTANT) for s in declared}
    prods = tuple(Production(symbols[p], s) for p, s in productions.items())
    return LSystem(frozenset(symbols.values()), axiom, prods)


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


def _check_brackets(text: str, where: str, lineno: int | None):
    # square brackets must never underflow; an unclosed '[' is allowed
    depth = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise GrammarError(f"{where} closes ']' at position {i} with no open '['", lineno)


# ---------------------------------------------------------------------------
# rewriting

def rewrite(ls: LSystem, iterations: int) -> DerivationString:
    """Apply simultaneous replacement ``iterations`` times to the axiom."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    rules = ls.rules
    text = ls.axiom
    for _ in range(iterations):
        text = "".join(rules.get(ch, ch) for ch in text)
    return DerivationString(text, iterations)


def count_branch_symbols(s, symbol: str = BRANCH_SYMBOL) -> int:
    text = s.symbols if isinstance(s, DerivationString) else s
    return text.count(symbol)


# ---------------------------------------------------------------------------
# turtle interpretation

@dataclass
class _Emission:
    parent: "_Emission | None"
    depth: int
    children: list = field(default_factory=list)
    # geometry assigned once sibling counts are known
    order: int = 0
    azimuth: float = 0.0
    station: float = 0.0
    group_phase: float = 0.0   # cursor captured when this node's child group opened
    node_index: int = -1


def _match_brackets(text: str) -> set[int]:
    """Indices of '[' that have a matching ']'. Unmatched '[' are legal
    (implicitly closed at end of string); unmatched ']' is an error."""
    stack: list[int] = []
    matched: set[int] = set()
    for i, ch in enumerate(text):
        if ch == "[":
            stack.append(i)
        elif ch == "]":
            if not stack:
                raise TurtleError(f"']' at position {i} has no matching '['")
            matched.add(stack.pop())
    return matched


def interpret_turtle(s, cfg: TurtleConfig, trunk_spec, rng: np.random.Generator,
                     branch_symbol: str = BRANCH_SYMBOL) -> Skeleton:
    """Interpret a derivation string as a branching skeleton.

    ``trunk_spec`` is (height, base point). The result is deterministic in
    (s, cfg, trunk_spec, seed): jitter draws, consumed only under the
    jittered-uniform policy, happen in a fixed order (parents in emission
    order; per child an azimuth then a station offset).
    """
    text = s.symbols if isinstance(s, DerivationString) else s
    height, base = trunk_spec
    height = float(height)
    if height <= 0.0:
        raise ValueError("trunk height must be positive")
    base = np.asarray(base, dtype=np.float64)

    root = _Emission(parent=None, depth=0)
    emissions = _emit(text, root, branch_symbol, cfg.yaw_angle)
    _assign_fan_geometry(root, emissions, cfg, rng)
    return _to_skeleton(root, emissions, cfg, height, base)


def _emit(text: str, root: _Emission, branch_symbol: str,
          yaw_angle: float) -> list[_Emission]:
    """Walk the string, building the emission tree and tracking the
    '+'/'-' azimuth cursor. Only a matched '[' (see _match_brackets) pushes
    the latest emission as the new attachment context; the cursor at that
    moment becomes the phase of the nested fan."""
    matched = _match_brackets(text)
    emissions: list[_Emission] = []
    context = [root]             # whose children we are currently emitting
    open_kinds: list[bool] = []  # per '[': True when it pushed a context
    cursor = 0.0
    for i, ch in enumerate(text):
        if ch == branch_symbol:
            parent = context[-1]
            node = _Emission(parent=parent, depth=parent.depth + 1)
            parent.children.append(node)
            emissions.append(node)
        elif ch == "+":
            cursor += yaw_angle
        elif ch == "-":
            cursor -= yaw_angle
        elif ch == "[":
            if i in matched and context[-1].children:
                child = context[-1].children[-1]
                if not child.children:
                    child.group_phase = cursor
                context.append(child)
                open_kinds.append(True)
            else:
                open_kinds.append(False)
        elif ch == "]":
            if open_kinds.pop():
                context.pop()
    return emissions


def _assign_fan_geometry(root: _Emission, emissions: list[_Emission],
                         cfg: TurtleConfig, rng: np.random.Generator):
    """Give every emission an azimuth and an attachment station.

    Children of one parent form an evenly spaced fan (360/k apart) offset by
    the parent's group phase; stations spread over the upper fraction of the
    parent axis. The jittered-uniform policy adds bounded uniform noise to
    both, drawn as one (children, 2) block of (azimuth, station) rows: the
    same stream as two ``rng.uniform`` draws per child in turn.
    """
    jittered = cfg.azimuth_policy == "jittered-uniform"
    if jittered:
        draws = iter(rng.random((len(emissions), 2)).tolist())
        j = cfg.jitter_range
    for parent in [root] + emissions:
        k = len(parent.children)
        if k == 0:
            continue
        gap = (_STATION_HI - _STATION_LO) / (k - 1) if k > 1 else 0.0
        for i, child in enumerate(parent.children):
            child.order = i
            child.azimuth = parent.group_phase + i * (360.0 / k)
            if k == 1:
                child.station = _STATION_HI
            else:
                child.station = _STATION_LO + i * gap
            if jittered:
                # rng.uniform(low, high) is low + (high - low) * U[0, 1)
                u_turn, u_shift = next(draws)
                child.azimuth += -j + (j + j) * u_turn
                span = gap if k > 1 else (_STATION_HI - _STATION_LO)
                wiggle = (-1.0 + 2.0 * u_shift) * 0.25 * span
                child.station = min(max(child.station + wiggle, _STATION_LO), _STATION_HI)


def _to_skeleton(root: _Emission, emissions: list[_Emission], cfg: TurtleConfig,
                 height: float, base: np.ndarray) -> Skeleton:
    """Nodes in string order (the trunk first), placed one depth at a time:
    every node of a depth is computed in one stack from its parents."""
    points = np.empty((len(emissions) + 1, 3))
    directions = np.empty((len(emissions) + 1, 3))
    lengths = [height] + [cfg.step_length] * len(emissions)
    points[0] = base
    directions[0] = (0.0, 0.0, 1.0)
    root.node_index = 0
    by_depth: dict[int, list[_Emission]] = {}
    for i, em in enumerate(emissions, start=1):
        em.node_index = i
        by_depth.setdefault(em.depth, []).append(em)
    pitch = math.radians(cfg.branch_pitch)
    sin_pitch, cos_pitch = math.sin(pitch), math.cos(pitch)
    for depth in sorted(by_depth):  # a depth's parents are all placed before it
        level = by_depth[depth]
        rows = np.array([em.node_index for em in level])
        parents = np.array([em.parent.node_index for em in level])
        reach = [[em.station * lengths[em.parent.node_index]] for em in level]
        points[rows] = points[parents] + reach * directions[parents]
        local = [[sin_pitch * math.cos(a), sin_pitch * math.sin(a), cos_pitch]
                 for a in (math.radians(em.azimuth) for em in level)]
        turned = np.matmul(tf.z_alignments(directions[parents]), np.array(local)[:, :, None])
        directions[rows] = tf.normalize_rows(turned[:, :, 0])
    return Skeleton(points, directions, np.array([0] + [em.depth for em in emissions]),
                    np.array(lengths), np.array([-1] + [em.parent.node_index for em in emissions]))
