"""Deterministic (D0L) L-systems: grammar parsing, parallel rewriting, and
the branching skeletons of trees, in closed form by tree shape.

Grammar text is line oriented (``;`` also separates declarations, so a whole
grammar fits on one line)::

    # comment
    vars: g
    consts: d
    axiom: g
    rule: g -> d(d)+d)[d(d)+d)

Skeletons. A tree of b branches with s sub-branches each is the turtle
reading (Prusinkiewicz & Lindenmayer, "The Algorithmic Beauty of Plants",
1990, section 1.5-1.6) of the bracketed string ``d[dd..d][d[dd..d]...``:
b branches on the trunk, each holding a bracketed group of s sub-branches.
``interpret_turtle(shapes, heights, lengths, jitters, uniforms)`` writes
that reading in closed form, by shape, for a stack of trees at once,
reading every jittered fan from one pre-drawn (rows, 2) block of uniforms.
No grammar reaches a tree: ``forestgen rewrite`` prints its derivation, and
nothing is built from it. Grammar successors may still leave a '[' open;
a ']' that closes none is a GrammarError.
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
# every child leaves its parent axis at this pitch, 40 degrees
_PITCH = math.radians(40.0)


class LSystemError(Exception):
    """Base error for this module."""


class GrammarError(LSystemError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TurtleError(LSystemError):
    """Raised when a bracketed string cannot be read: the ']' at
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
# brackets and skeletons

def _match_brackets(text: str):
    """Check that every ']' closes an earlier '['. Unmatched '[' are legal
    (implicitly closed at end of string); an unmatched ']' is a TurtleError
    with its position, which parse_lsystem re-raises as a GrammarError."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            raise TurtleError(f"']' at position {i} has no matching '['", i)


def interpret_turtle(shapes, heights, lengths, jitters, uniforms: np.ndarray) -> Skeleton:
    """The skeletons of a stack of trees, tree i of shape ``shapes[i]`` =
    (b, s): b branches of s sub-branches each, a trunk ``heights[i]`` long
    standing at the origin, and branches and sub-branches ``lengths[i]``
    long, as the turtle reads the tree's string.

    A tree's row 0 is its trunk, branch i is row 1 + i(s + 1) and its
    sub-branch j row 2 + i(s + 1) + j, with parent rows into the stack. The
    children of one parent form a fan 360/k degrees apart, stations spread
    over the parent axis, each child leaving it at the branch pitch. A
    tree's fans jitter exactly when its ``jitters[i] > 0``; branch i then
    reads its (azimuth, station) pair of uniforms from row i of the tree's
    block and sub-branch j of branch i from row b + i*s + j: parents in row
    order, children in string order. ``uniforms`` holds the b(s + 1) rows of
    every jittered tree, tree after tree, as one (rows, 2) block: what
    ``seeds.uniform_blocks`` returns. Anything else is a ValueError naming
    the shape needed. Every node of the stack is placed together, one depth
    at a time.
    """
    b, s = np.array(shapes, dtype=np.int64).reshape(-1, 2).T
    jitters = np.asarray(jitters, dtype=np.float64)
    drawn = np.where(jitters > 0, b * (s + 1), 0)
    if np.shape(uniforms) != (int(drawn.sum()), 2):
        raise ValueError(f"need a ({drawn.sum()}, 2) block of uniforms, got {np.shape(uniforms)}")
    size = 1 + b * (s + 1)
    trunks = np.cumsum(size) - size
    tree = np.repeat(np.arange(len(size)), size)
    b, s, first = b[tree], s[tree], trunks[tree]
    # a trunk row reads i = -1; row 1 + i(s + 1) + j is branch i for j = 0,
    # and its sub-branch j - 1 otherwise
    i, j = np.divmod(np.arange(len(tree)) - first - 1, s + 1)
    trunk, sub = i < 0, (j > 0) & (i >= 0)
    parents = np.where(trunk, -1, first + sub * (1 + i * (s + 1)))
    fan = np.where(sub, j - 1, i)            # the child's place in its parent's fan
    k = np.where(sub, s, b)                  # the size of that fan
    gap = (_STATION_HI - _STATION_LO) / np.maximum(k - 1, 1)
    stations = np.where(k > 1, _STATION_LO + fan * gap, _STATION_HI)
    azimuths = fan * (360.0 / k)
    # the rows of jittered trees, each reading its pair from the tree's block;
    # rng.uniform(low, high) is low + (high - low) * U[0, 1)
    jit = (jitters[tree] > 0) & ~trunk
    draw = (np.cumsum(drawn) - drawn)[tree] + np.where(sub, b + i * s + j - 1, i)
    u_turn, u_shift = uniforms[draw[jit]].T
    w = jitters[tree][jit]
    azimuths[jit] += -w + (w + w) * u_turn
    wiggle = (-1.0 + 2.0 * u_shift) * 0.25 * gap[jit]  # a lone child's gap is the whole span
    stations[jit] = np.minimum(np.maximum(stations[jit] + wiggle, _STATION_LO), _STATION_HI)
    a = list(map(math.radians, azimuths.tolist()))
    turns = np.column_stack([math.sin(_PITCH) * np.array(list(map(math.cos, a))),
                             math.sin(_PITCH) * np.array(list(map(math.sin, a))),
                             np.full(len(a), math.cos(_PITCH))])
    lengths = np.where(trunk, np.asarray(heights, dtype=np.float64)[tree],
                       np.asarray(lengths, dtype=np.float64)[tree])
    skeleton = Skeleton(np.zeros((len(tree), 3)), np.empty((len(tree), 3)),
                        np.where(trunk, 0, 1 + sub), lengths, parents)
    points, directions = skeleton.points, skeleton.directions
    directions[trunks] = (0.0, 0.0, 1.0)
    # placed one depth at a time: every node of a depth, over all trees, is
    # computed in one stack from its parents, which are all placed before it
    for depth in range(1, int(skeleton.depths.max(initial=0)) + 1):
        rows = skeleton.at_depth(depth)
        up = parents[rows]
        reach = stations[rows] * skeleton.lengths[up]
        points[rows] = points[up] + reach[:, None] * directions[up]
        turned = np.matmul(tf.z_alignments(directions[up]), turns[rows][:, :, None])
        directions[rows] = tf.normalize_rows(turned[:, :, 0])
    return skeleton
