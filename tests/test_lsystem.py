import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestgen import lsystem as lsys
from forestgen import seeds as sd
from forestgen import transform as tf

import scalar_reference as ref

RULE1 = "vars: g; consts: d; axiom: g; rule: g -> d(d)+d)[d(d)+d)"
RULE1_DERIVATION = "d(d)+d)[d(d)+d)"
RULE2_DERIVATION = "d(d)+d)[d(d)+d)[d(d)+d)"

def rewrite_length_oracle(rules: dict, text: str, n: int) -> int:
    """Naive recursive expansion length, independent of rewrite()."""
    if n == 0:
        return len(text)
    return sum(rewrite_length_oracle(rules, rules.get(ch, ch), n - 1) for ch in text)


def azimuth_of(direction) -> float:
    return math.degrees(math.atan2(direction[1], direction[0])) % 360.0


# ---------------------------------------------------------------------------
# parsing

def test_parse_rule1_grammar():
    ls = lsys.parse_lsystem(RULE1)
    assert ls.alphabet == frozenset({"g", "d"})
    assert ls.axiom == "g"
    assert ls.rules == {"g": RULE1_DERIVATION}


def test_parse_multiline_with_comments():
    text = """
    # branching grammar
    vars: g
    consts: d
    axiom: g
    rule: g -> d[d   # trailing comment
    """
    ls = lsys.parse_lsystem(text)
    assert ls.rules == {"g": "d[d"}


def test_parse_no_rules_is_valid_fixed_point():
    ls = lsys.parse_lsystem("vars: g; consts: d; axiom: g")
    assert lsys.rewrite(ls, 5) == "g"
    # a declared variable without a production is effectively constant
    assert ls.alphabet == frozenset({"g", "d"})
    assert ls.rules == {}


def test_parse_duplicate_production_rejected():
    with pytest.raises(lsys.GrammarError, match="duplicate production"):
        lsys.parse_lsystem("vars: g; axiom: g; rule: g -> g; rule: g -> gg")


@pytest.mark.parametrize("text, match", [
    ("vars: g; consts: d; axiom:", "axiom"),
    ("vars: g; consts: d", "axiom"),
    ("vars: g; axiom: g; rule: g -> gx", "undeclared symbol 'x'"),
    ("vars: g; axiom: x", "undeclared symbol 'x'"),
    ("vars: g; consts: d; axiom: g; rule: d -> dd", "constant 'd' cannot"),
    ("vars: g; axiom: g; rule: x -> g", "not a declared variable"),
    ("vars: g; axiom: g; rule: g -> g]g", "no open"),
    ("vars: g; consts: g; axiom: g", "both variable and constant"),
    ("vars: g; axiom: g; rule: g ->", "empty"),
])
def test_parse_errors(text, match):
    with pytest.raises(lsys.GrammarError, match=match):
        lsys.parse_lsystem(text)


_DECLARATION = st.one_of(
    st.sampled_from(["vars: g", "consts: d", "axiom: g"]),
    st.builds("{} {}".format,
              st.sampled_from(["vars:", "consts:", "axiom:", "rule: g ->", "rule: d ->"]),
              st.text(alphabet="gd[]()+-", max_size=8)),
    st.builds("{}:{}".format,
              st.sampled_from(["vars", "consts", "axiom", "rule", " Rule ", "bogus", ""]),
              st.text(alphabet="gdx []()+-,>#", max_size=8)))


@given(declarations=st.lists(_DECLARATION, max_size=6), sep=st.sampled_from([";", "\n"]),
       noise=st.one_of(st.just(""), st.text(max_size=8)))
@settings(max_examples=200, deadline=None)
def test_parse_any_grammar_like_text_returns_or_raises_grammar_error(declarations, sep, noise):
    try:
        ls = lsys.parse_lsystem(sep.join(declarations + [noise]))
    except lsys.GrammarError:
        return
    assert isinstance(ls, lsys.LSystem)


def test_parse_allows_unclosed_square_bracket():
    # the production strings of interest leave '[' open; that must parse
    ls = lsys.parse_lsystem(RULE1)
    assert ls.rules["g"].count("[") == 1
    assert "]" not in ls.rules["g"]


def test_symbol_kinds_follow_productions():
    ls = lsys.parse_lsystem(RULE1)
    # the rewritten symbols are the rule keys; the rest of the alphabet is constant
    assert set(ls.rules) == {"g"}
    assert ls.alphabet - set(ls.rules) == {"d"}


# ---------------------------------------------------------------------------
# rewriting

def test_rewrite_rule1_once():
    ls = lsys.parse_lsystem(RULE1)
    assert lsys.rewrite(ls, 1) == RULE1_DERIVATION


def test_rewrite_zero_iterations_is_identity():
    ls = lsys.parse_lsystem(RULE1)
    assert lsys.rewrite(ls, 0) == ls.axiom


def test_rewrite_doubling_three_iterations():
    # hand expansion: g -> gg -> gggg -> gggggggg
    ls = lsys.parse_lsystem("vars: g; axiom: g; rule: g -> gg")
    assert lsys.rewrite(ls, 3) == "gggggggg"


@given(successor=st.text(alphabet="gd()+-[", min_size=1, max_size=6),
       n=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_rewrite_length_matches_recursive_oracle(successor, n):
    ls = lsys.parse_lsystem(f"vars: g; consts: d; axiom: g; rule: g -> {successor}")
    assert len(lsys.rewrite(ls, n)) == rewrite_length_oracle(ls.rules, "g", n)


@given(axiom=st.text(alphabet="ghd[+", min_size=1, max_size=4),
       g=st.text(alphabet="ghd()+-[", min_size=1, max_size=4),
       h=st.text(alphabet="ghd[", min_size=1, max_size=3),
       n=st.integers(0, 6), budget=st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_rewrite_refuses_past_the_sum_of_level_lengths(axiom, g, h, n, budget):
    ls = lsys.LSystem(frozenset("ghd"), axiom, {"g": g, "h": h})
    written = sum(rewrite_length_oracle(ls.rules, axiom, level) for level in range(1, n + 1))
    with mock.patch.object(lsys, "MAX_DERIVATION_SYMBOLS", budget):
        if written <= budget:
            assert len(lsys.rewrite(ls, n)) == rewrite_length_oracle(ls.rules, axiom, n)
        else:
            with pytest.raises(lsys.LSystemError, match="MAX_DERIVATION_SYMBOLS"):
                lsys.rewrite(ls, n)


def test_rewrite_budget_is_exact():
    ls = lsys.parse_lsystem("vars: g; axiom: g; rule: g -> gg")
    # levels 1 to n of doubling hold 2**(n + 1) - 2 symbols: 2**20 - 2 for 19
    assert len(lsys.rewrite(ls, 19)) == 2 ** 19
    with pytest.raises(lsys.LSystemError, match="20 iterations write more than"):
        lsys.rewrite(ls, 20)
    # refused at level 20, long before the 10**12th
    with pytest.raises(lsys.LSystemError, match="MAX_DERIVATION_SYMBOLS"):
        lsys.rewrite(ls, 10 ** 12)


def test_fixed_point_counts_one_symbol_per_level():
    ls = lsys.parse_lsystem("vars: g; axiom: g; rule: g -> g")
    with mock.patch.object(lsys, "MAX_DERIVATION_SYMBOLS", 1000):
        assert lsys.rewrite(ls, 1000) == "g"
        with pytest.raises(lsys.LSystemError, match="1001 iterations write more than 1000"):
            lsys.rewrite(ls, 1001)


@given(text=st.text(alphabet="d()+-[]", max_size=20), n=st.integers(0, 4))
@settings(max_examples=50, deadline=None)
def test_constants_and_controls_are_fixed_points(text, n):
    ls = lsys.parse_lsystem("vars: g; consts: d; axiom: g; rule: g -> dd")
    rules = ls.rules
    rewritten = text
    for _ in range(n):
        rewritten = "".join(rules.get(ch, ch) for ch in rewritten)
    assert rewritten == text


@given(n=st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_branch_count_monotone_when_successor_keeps_d(n):
    ls = lsys.parse_lsystem("vars: g; consts: d; axiom: g; rule: g -> d[g")
    counts = [lsys.count_branch_symbols(lsys.rewrite(ls, k)) for k in range(n + 1)]
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# counting

def test_count_rule1_is_six():
    assert lsys.count_branch_symbols(RULE1_DERIVATION) == 6


def test_count_empty_is_zero():
    assert lsys.count_branch_symbols("") == 0


def test_count_rule2_token_count_is_nine():
    # literal token count; the source figures use counts unreachable from
    # the printed rules, so the builder takes branch count directly instead
    assert lsys.count_branch_symbols(RULE2_DERIVATION) == 9


# ---------------------------------------------------------------------------
# bracket underflow, found when a grammar is parsed

def test_interpret_bracket_underflow_raises():
    for succ, position in [("g]g", 1), ("]d", 0), ("d[d]]d", 4), ("[[d]]]", 5)]:
        with pytest.raises(lsys.GrammarError) as grammar:
            lsys.parse_lsystem(f"vars: g; consts: d; axiom: g; rule: g -> {succ}")
        assert f"closes ']' at position {position} with no open '['" in str(grammar.value)
        assert grammar.value.line == 1 and grammar.value.__cause__ is None
    # an unclosed '[' is a sibling separator, not an error
    assert lsys.parse_lsystem("vars: g; consts: d; axiom: g; rule: g -> d[d[[d").rules


def test_bracket_underflow_texts_are_pinned():
    with pytest.raises(lsys.GrammarError) as grammar:
        lsys.parse_lsystem("vars: g; axiom: g; rule: g -> g]g")
    assert str(grammar.value) == ("line 1: successor of 'g' closes ']' at position 1 "
                                  "with no open '['")
    with pytest.raises(lsys.GrammarError) as underflow:
        lsys.parse_lsystem("vars: g; consts: d\naxiom: g\nrule: g -> ]d")
    assert str(underflow.value) == ("line 3: successor of 'g' closes ']' at position 0 "
                                    "with no open '['")


# ---------------------------------------------------------------------------
# the closed-form skeleton

def turtle(b, s, jitter, rng, height=10.0, length=5.0):
    """One tree of b branches with s sub-branches each through
    interpret_turtle, its block of uniforms drawn from ``rng`` as one
    ``rng.random((b * (s + 1), 2))`` when it jitters."""
    rows = b * (s + 1) if jitter > 0 else 0
    return lsys.interpret_turtle([(b, s)], [height], [length], [jitter], rng.random((rows, 2)))


def read_string(text, jitter, rng, height=10.0, length=5.0):
    """One string through the one-string turtle of the tests."""
    cfg = ref.TurtleConfig(step_length=length, jitter_range=jitter)
    return ref.interpret_turtle(text, cfg, height, (0, 0, 0), rng)


def assert_same_skeleton(got, want):
    for name in ("points", "directions", "depths", "lengths", "parents"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_interpret_rule1_gives_six_depth1_fan():
    # rule 1's derivation reads as six branches and no group: shape (6, 0)
    sk = turtle(6, 0, 0.0, np.random.default_rng(0))
    assert_same_skeleton(sk, read_string(RULE1_DERIVATION, 0.0, np.random.default_rng(0)))
    ones = sk.at_depth(1)
    assert len(ones) == 6
    assert sk.at_depth(2).tolist() == []
    azimuths = sorted(azimuth_of(sk.directions[i]) for i in ones)
    assert np.allclose(azimuths, [0, 60, 120, 180, 240, 300], atol=1e-9)


def test_interpret_single_symbol():
    sk = turtle(1, 0, 0.0, np.random.default_rng(0))
    assert len(sk) == 2
    i = sk.at_depth(1)[0]
    assert azimuth_of(sk.directions[i]) == pytest.approx(0.0, abs=1e-9)
    # attachment on the trunk axis
    assert sk.points[i][0] == pytest.approx(0.0, abs=1e-12)
    assert sk.points[i][1] == pytest.approx(0.0, abs=1e-12)
    assert 0.0 <= sk.points[i][2] <= 10.0


def test_interpret_is_deterministic_per_seed():
    a = turtle(2, 2, 10.0, np.random.default_rng(33))
    b = turtle(2, 2, 10.0, np.random.default_rng(33))
    assert_same_skeleton(a, b)


def test_interpret_matched_groups_nest():
    # each branch's closed group of sub-branches nests under it
    sk = turtle(2, 2, 0.0, np.random.default_rng(0))
    assert_same_skeleton(sk, read_string("d[dd][d[dd]", 0.0, np.random.default_rng(0)))
    assert len(sk.at_depth(1)) == 2
    assert sk.parents[sk.at_depth(2)].tolist() == [1, 1, 4, 4]


def test_interpret_unclosed_brackets_stay_flat():
    # sibling-separator chains must not nest
    sk = turtle(4, 0, 0.0, np.random.default_rng(0))
    assert_same_skeleton(sk, read_string("d[d[d[d", 0.0, np.random.default_rng(0)))
    assert len(sk.at_depth(1)) == 4
    assert sk.at_depth(2).tolist() == []


def test_interpret_rows_follow_the_shape():
    # branch i is row 1 + i(s + 1), its sub-branch j row 2 + i(s + 1) + j
    sk = turtle(3, 2, 10.0, np.random.default_rng(0), height=7.0, length=2.0)
    assert sk.depths.tolist() == [0, 1, 2, 2, 1, 2, 2, 1, 2, 2]
    assert sk.parents.tolist() == [-1, 0, 1, 1, 0, 4, 4, 0, 7, 7]
    assert sk.lengths.tolist() == [7.0] + [2.0] * 9


def test_skeleton_invariants():
    trunk_len = 12.0
    sk = turtle(3, 3, 10.0, np.random.default_rng(7), height=trunk_len, length=4.0)
    assert len(sk.at_depth(0)) == 1
    for i in range(len(sk)):
        assert np.linalg.norm(sk.directions[i]) == pytest.approx(1.0, abs=1e-9)
        parent = sk.parents[i]
        if parent == -1:
            continue
        rel = sk.points[i] - sk.points[parent]
        along = float(np.dot(rel, sk.directions[parent]))
        off_axis = np.linalg.norm(rel - along * sk.directions[parent])
        assert off_axis <= 1e-6 * trunk_len
        assert -1e-9 <= along <= sk.lengths[parent] + 1e-9


@pytest.mark.parametrize("k", [2, 3, 5, 8, 13])
def test_uniform_fan_azimuths_are_multiples_of_360_over_k(k):
    for b, s, depth in [(k, 0, 1), (1, k, 2)]:
        sk = turtle(b, s, 0.0, np.random.default_rng(0))
        fan = sk.at_depth(depth)
        assert len(fan) == k
        # each direction in its parent's frame, the parent axis along +Z
        frames = tf.z_alignments(sk.directions[sk.parents[fan]])
        azimuths = [azimuth_of(q.T @ sk.directions[i]) for q, i in zip(frames, fan)]
        unit = 360.0 / k
        for i in range(k):
            for j in range(i + 1, k):
                ratio = (azimuths[i] - azimuths[j]) / unit
                assert abs(ratio - round(ratio)) < 1e-9


# ---------------------------------------------------------------------------
# a stack of closed forms against the one-string turtle, tree by tree

def _turtle_outcome(sk, rng):
    """Skeleton arrays (floats as their bits) and the generator's end state."""
    return ([sk.points.view(np.int64).tolist(), sk.directions.view(np.int64).tolist(),
             sk.depths.tolist(), sk.lengths.view(np.int64).tolist(), sk.parents.tolist()],
            rng.bit_generator.state)


# stacks above seeds._BATCH_MIN whose blocks are drawn by seeds.uniform_blocks:
# every stream short, so the blocks come by jump-ahead, and one stream of 17
# rows (34 values, past seeds._JUMP_VALUES), so they come from generators
SHORT_STACK = [(shape, 10.0 * (i % 4), 5.0 + i, 1.0 + i, 1000 + i) for i, shape in
               enumerate([(1, 0), (2, 1), (1, 2), (3, 0)] * 5)]
LONG_STACK = [((17, 0), 30.0, 7.5, 2.0, 99)] + SHORT_STACK[1:]


@given(trees=st.lists(st.tuples(
    st.tuples(st.integers(1, 19), st.integers(0, 4)),
    st.one_of(st.just(0.0), st.sampled_from([10.0, 359.0]), st.floats(0.5, 360.0)),
    st.floats(0.5, 20.0), st.floats(0.1, 30.0), st.integers(0, 2 ** 32 - 1)),
    min_size=1, max_size=6))
@example(trees=SHORT_STACK)
@example(trees=LONG_STACK)
@settings(max_examples=80, deadline=None)
def test_turtle_stack_matches_each_tree_alone(trees):
    shapes = [shape for shape, *_ in trees]
    jitters = [jitter for _, jitter, *_ in trees]
    heights = [height for *_, height, _, _ in trees]
    lengths = [length for *_, length, _ in trees]
    seeds = [seed for *_, seed in trees]
    alone = []
    for (b, s), jitter, height, length, seed in trees:
        rng = np.random.default_rng(seed)
        sk = read_string(ref.synthesize_derivation(b, s), jitter, rng, height, length)
        alone.append(_turtle_outcome(sk, rng))
    # each jittered tree's (b(s + 1), 2) block, stacked as uniform_blocks draws
    # them; each generator is advanced past its block, as drawing from it would
    counts = [b * (s + 1) if jitter > 0 else 0 for (b, s), jitter in zip(shapes, jitters)]
    uniforms = sd.uniform_blocks(seeds, counts, 2)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    for rng, k in zip(rngs, counts):
        rng.random((k, 2))
    stack = lsys.interpret_turtle(shapes, heights, lengths, jitters, uniforms)
    # every parent row of the stack points into its own tree's rows
    starts = stack.at_depth(0)
    first_row = np.repeat(starts, np.diff(starts, append=len(stack)))
    assert ((stack.parents == -1) == (stack.depths == 0)).all()
    assert (stack.parents[stack.depths > 0] >= first_row[stack.depths > 0]).all()
    got = [_turtle_outcome(sk, rng) for sk, rng in zip(ref.split_skeleton(stack), rngs)]
    assert got == alone


def test_turtle_refuses_a_block_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"need a \(3, 2\) block of uniforms, got \(2, 2\)"):
        lsys.interpret_turtle([(1, 2)], [7.0], [1.0], [5.0], np.zeros((2, 2)))
    # a stack needs every jittered tree's rows, 3 + 2 here, and no others
    shapes, jitters = [(1, 2), (3, 0), (2, 0)], [5.0, 0.0, 5.0]
    for block, shape in [(np.zeros((4, 2)), r"\(4, 2\)"), (np.zeros((6, 2)), r"\(6, 2\)"),
                         (np.zeros((5, 3)), r"\(5, 3\)"), (np.random.default_rng(0), r"\(\)")]:
        with pytest.raises(ValueError, match=r"need a \(5, 2\) block of uniforms, got " + shape):
            lsys.interpret_turtle(shapes, [7.0] * 3, [1.0] * 3, jitters, block)
    # without jitter no row is read
    sk = lsys.interpret_turtle([(1, 2)], [7.0], [1.0], [0.0], np.zeros((0, 2)))
    assert len(sk) == 4
