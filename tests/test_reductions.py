from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from gbs.generators import equivalent_pair, gen_bits, gen_family, inequivalent_pair
from gbs.ordinals import OMEGA, OMEGA_SQ, ZERO, Ordinal, iter_below, nat, omega_times
from gbs.patterns import PatternMap, pm_eval, pm_support_analysis, pm_write_finite
from gbs.reductions import (
    ReductionError,
    red_E0_to_E1,
    red_E0_to_idplus,
    red_E1_to_E0,
)
from gbs.relations import decide_E0, decide_E1, decide_idplus, rel_e1
from gbs.spaces import (
    BITS,
    Bits,
    Family,
    SpaceError,
    diff_map,
    grid_ordvals,
    point_code,
    word_from_bits,
    word_to_bits,
    xor_prefix,
    zeros,
)

L = OMEGA_SQ


def pt(*vals) -> Bits:
    return word_to_bits(word_from_bits(list(vals)), L)


def fam(comps, assignment) -> Family:
    return Family(comps, assignment)


# ---------------------------------------------------------------------------
# E1 -> E0
# ---------------------------------------------------------------------------


def test_e1_to_e0_equal_inputs():
    rng = random.Random(0xE1E0)
    for _ in range(10):
        x, _ = equivalent_pair(rng, rel_e1())
        assert red_E1_to_E0(x) == red_E1_to_E0(x)


def test_e1_to_e0_equivalent_pairs_share_a_tail():
    rng = random.Random(0xE1E1)
    for _ in range(50):
        x, y = equivalent_pair(rng, rel_e1())
        fx, fy = red_E1_to_E0(x), red_E1_to_E0(y)
        assert decide_E0(fx, fy)
        # a disagreement bound for the inputs bounds the code disagreements
        info = pm_support_analysis(diff_map(x, y))
        assert info.bounded_by is not None
        block = info.bounded_by.block_index().to_nat()
        for q in range(block + 2, block + 8):
            a = omega_times(q)
            assert pm_eval(fx.seq, a) == pm_eval(fy.seq, a)


def test_e1_to_e0_inequivalent_pairs_differ_cofinally():
    rng = random.Random(0xE1E2)
    for _ in range(50):
        x, y = inequivalent_pair(rng, rel_e1())
        assert not decide_E0(red_E1_to_E0(x), red_E1_to_E0(y))


def test_e1_to_e0_limit_only_disagreement():
    # same successor content everywhere, different values on the limits: the
    # class codes must still separate the pair at every level
    c0 = Bits(PatternMap.constant(L, 0))
    c1 = Bits(PatternMap.constant(L, 1))
    x = Family([c0, c1], PatternMap.constant(L, 0))
    y = Family([c0, c1], PatternMap.build(L, [(ZERO, L, 1, (0,))]))
    assert not decide_E1(x, y)
    fx, fy = red_E1_to_E0(x), red_E1_to_E0(y)
    assert not decide_E0(fx, fy)
    for q in range(1, 8):
        assert pm_eval(fx.seq, omega_times(q)) != pm_eval(fy.seq, omega_times(q))


def test_e1_to_e0_successor_content_separates():
    c0 = Bits(PatternMap.constant(L, 0))
    c1 = Bits(PatternMap.constant(L, 1))
    x = Family([c0, c1], PatternMap.constant(L, 0))
    z = Family([c0, c1], PatternMap.build(L, [(ZERO, L, 0, (0, 1))]))
    assert not decide_E1(x, z)
    assert not decide_E0(red_E1_to_E0(x), red_E1_to_E0(z))


def test_e1_to_e0_prefix_noise_is_forgotten():
    c0 = Bits(PatternMap.constant(L, 0))
    c1 = Bits(PatternMap.constant(L, 1))
    x = Family([c0, c1], PatternMap.constant(L, 0))
    noisy = Family([c0, c1], pm_write_finite(PatternMap.constant(L, 0), [1, 1, 0, 1]))
    assert decide_E1(x, noisy)
    fx, fn = red_E1_to_E0(x), red_E1_to_E0(noisy)
    assert decide_E0(fx, fn)
    # only the level covering the edits can tell the two apart
    assert pm_eval(fx.seq, OMEGA) != pm_eval(fn.seq, OMEGA)
    for q in range(2, 8):
        assert pm_eval(fx.seq, omega_times(q)) == pm_eval(fn.seq, omega_times(q))


def test_e1_to_e0_output_shape():
    rng = random.Random(0xE1E3)
    x, _ = equivalent_pair(rng, rel_e1())
    f = red_E1_to_E0(x)
    assert pm_eval(f.seq, ZERO) == ZERO
    assert pm_eval(f.seq, nat(4)) == ZERO
    assert pm_eval(f.seq, OMEGA + 3) == ZERO
    assert pm_eval(f.seq, OMEGA) != ZERO


def test_e1_to_e0_space_mismatch():
    with pytest.raises(SpaceError):
        red_E1_to_E0(pt(1, 0))


# crc32 of the serials of red_E1_to_E0 on 100 generated families per bound,
# from Random(4310) at each; a raised error counts as its
# "<type>: <message>" line.  At w*3 and w*7 most families raise, because the
# grid would need a level at or past the bound.
E1_TO_E0_PINS = {
    "w*3": 0x36B1E415,
    "w*7": 0x4FE5C91F,
    "w^2": 0x4FB0A143,
    "w^3": 0xD6EC8171,
    "w^2*2+w*3": 0x6A709188,
}
PIN_BOUNDS = [omega_times(3), omega_times(7), L, Ordinal([(3, 1)]), Ordinal([(2, 2), (1, 3)])]


def _map_or_error(x) -> str:
    try:
        return red_E1_to_E0(x).serial()
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_e1_to_e0_outputs_are_pinned():
    got = {}
    for bound in PIN_BOUNDS:
        rng = random.Random(4310)
        outs = [_map_or_error(gen_family(rng, BITS, bound)) for _ in range(100)]
        got[str(bound)] = zlib.crc32("\n".join(outs).encode())
    assert got == E1_TO_E0_PINS


# --- the one-level-at-a-time map against the old definition ---------------
# red_E1_to_E0 restricts the assignment once per level and then only the
# components the tail class names.  The old definition, kept here as the
# oracle, restricted and canonicalised the whole family at every level and
# built the representative from the restricted family's final piece.


def _tail_class_rep_by_family(xa: Family, q: int) -> Family:
    final = xa.assignment.pieces[-1]
    anchor = pm_eval(xa.assignment, omega_times(q - 1))
    asg = PatternMap.build(xa.bound, [(ZERO, xa.bound, anchor, final.word)])
    return Family(xa.components, asg)


def red_E1_to_E0_by_family(x: Family):
    top = max(x.stab_block(), 2)
    vals = [0]
    for q in range(1, top + 1):
        vals.append(point_code(_tail_class_rep_by_family(x.restrict(omega_times(q)), q)))
    return grid_ordvals(x.bound, vals)


def _outcome(f, x) -> str:
    try:
        return f(x).serial()
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


OMEGA_CUBE = Ordinal(((3, 1),))
# w*3 and w*2+3 are too short for most grids; the rest have pieces at
# non-natural block indices (w^2+w*2+3 sits in block w+2)
E1_BOUNDS = [
    omega_times(3),
    omega_times(2, 3),
    L,
    L + omega_times(1, 2),
    OMEGA_CUBE,
    OMEGA_CUBE + omega_times(2),
    Ordinal(((2, 2), (1, 3))),
]
E1_GRID = {b: [o for o in iter_below(b, 3) if not o.is_zero()] for b in E1_BOUNDS}


def _clip(raw, cut):
    return [(lo, min(hi, cut), lv, w) for lo, hi, lv, w in raw if lo < cut]


@st.composite
def _raw(draw, bound, alphabet, max_cuts=4):
    cuts = draw(st.sets(st.sampled_from(E1_GRID[bound]), max_size=max_cuts))
    edges = [ZERO] + sorted(cuts) + [bound]
    values = st.sampled_from(alphabet)
    return [
        (lo, hi, draw(values), tuple(draw(st.lists(values, min_size=1, max_size=3))))
        for lo, hi in zip(edges, edges[1:])
    ]


@st.composite
def raw_families(draw):
    """Families built from raw pieces.  Each component is a shared base cut
    at a drawn position and continued by its own raw pieces, so components
    often agree below some level and merge in its restriction."""
    bound = draw(st.sampled_from(E1_BOUNDS))
    base = draw(_raw(bound, (0, 1)))
    comps = []
    for _ in range(draw(st.integers(2, 4))):
        cut = draw(st.sampled_from(E1_GRID[bound] + [bound]))
        own = [p for p in draw(_raw(bound, (0, 1))) if cut < p[1]]
        raw = _clip(base, cut) + [(max(lo, cut), hi, lv, w) for lo, hi, lv, w in own]
        comps.append(Bits(PatternMap.build(bound, raw)))
    asg = PatternMap.build(bound, draw(_raw(bound, range(len(comps)))))
    return Family(comps, asg)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(x=raw_families())
def test_e1_to_e0_matches_the_whole_family_definition(x):
    assert _outcome(red_E1_to_E0, x) == _outcome(red_E1_to_E0_by_family, x)


# ---------------------------------------------------------------------------
# E0 -> E1
# ---------------------------------------------------------------------------


def test_e0_to_e1_biconditional_sampled():
    rng = random.Random(0xE0E1)
    for _ in range(150):
        a, b = gen_bits(rng), gen_bits(rng)
        assert decide_E0(a, b) == decide_E1(red_E0_to_E1(a), red_E0_to_E1(b))


def test_e0_to_e1_constructed_equivalents():
    rng = random.Random(0xE0E2)
    for _ in range(60):
        a = gen_bits(rng)
        word = word_from_bits([rng.randint(0, 1) for _ in range(rng.randint(1, 6))])
        b = xor_prefix(word, a)
        assert decide_E0(a, b)
        assert decide_E1(red_E0_to_E1(a), red_E0_to_E1(b))


def test_e0_to_e1_frozen():
    eta = pt(1, 0, 1)
    assert red_E0_to_E1(eta) == red_E0_to_E1(pt(1, 0, 1))
    flipped = Bits(PatternMap.build(L, [(ZERO, L, 0, (1,))]))  # complement off 0
    x, y = red_E0_to_E1(zeros(L)), red_E0_to_E1(flipped)
    assert not decide_E1(x, y)
    # the family literally spreads the bits
    assert x.components[pm_eval(x.assignment, nat(3))] == zeros(L)


# ---------------------------------------------------------------------------
# E0 -> id+
# ---------------------------------------------------------------------------


def _agree_off(support, a: Bits, b: Bits) -> bool:
    d = diff_map(a, b)
    hits = {i for i in support if pm_eval(d.seq if isinstance(d, Bits) else d, nat(i)) == 1}
    expect = [0] * (max(support) + 1 if support else 0)
    for i in hits:
        expect[i] = 1
    masked = pm_write_finite(PatternMap.constant(L, 0), expect) if expect else PatternMap.constant(L, 0)
    return d == masked


@pytest.mark.parametrize("support", [[2], [0, 3], [1, 2, 4]])
def test_e0_to_idplus_subgroup_orbit(support):
    rng = random.Random(0xE0 + len(support))
    for _ in range(12):
        eta = gen_bits(rng)
        base = red_E0_to_idplus(support, eta)
        assert len(base.components) == 1 << len(support)
        # every supported flip lands in the same orbit
        for mask in range(1 << len(support)):
            raw = [0] * (max(support) + 1)
            for bit, pos in enumerate(support):
                if mask >> bit & 1:
                    raw[pos] = 1
            xi = xor_prefix(word_from_bits(raw), eta)
            assert _agree_off(support, eta, xi)
            assert decide_idplus(base, red_E0_to_idplus(support, xi))


@pytest.mark.parametrize("support", [[2], [0, 3], [1, 2, 4]])
def test_e0_to_idplus_off_support_flip_separates(support):
    rng = random.Random(0xE1 + len(support))
    off = max(support) + 1
    for _ in range(12):
        eta = gen_bits(rng)
        raw = [0] * (off + 1)
        raw[off] = 1
        xi = xor_prefix(word_from_bits(raw), eta)
        assert not _agree_off(support, eta, xi)
        assert not decide_idplus(
            red_E0_to_idplus(support, eta), red_E0_to_idplus(support, xi)
        )


def test_e0_to_idplus_random_pairs_relative_contract():
    support = [0, 2]
    rng = random.Random(0xE01D)
    for _ in range(80):
        a, b = gen_bits(rng), gen_bits(rng)
        want = _agree_off(support, a, b)
        got = decide_idplus(red_E0_to_idplus(support, a), red_E0_to_idplus(support, b))
        assert got == want


def test_e0_to_idplus_edges():
    eta = pt(1, 1, 0)
    single = red_E0_to_idplus([], eta)
    assert single.components == (eta,)
    assert decide_idplus(single, red_E0_to_idplus([], pt(1, 1, 0)))
    assert not decide_idplus(single, red_E0_to_idplus([], pt(0, 1)))
    with pytest.raises(ReductionError, match="exceeds"):
        red_E0_to_idplus(range(7), eta)
    with pytest.raises(ReductionError, match="natural"):
        red_E0_to_idplus([-2], eta)
