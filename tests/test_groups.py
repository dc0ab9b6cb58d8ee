from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from gbs.groups import (
    ChainSchedule,
    CylinderEnumeration,
    FiniteGroup,
    GroupAction,
    GroupError,
    PermuteCoords,
    XorMasks,
    ac1_criterion,
    cyclic_group,
    cylinder_enumeration,
    default_chain,
    orbit_decide,
    orbit_witness,
    red_ac1,
    red_ac3_selector,
    red_action_to_E0,
    subgroup_closure,
    symmetric_group,
    trace_right_mul,
)
from gbs.ordinals import OMEGA, OMEGA_SQ, ZERO, nat, omega_times
from gbs.patterns import PatternMap, pm_eval, pm_write_finite
from gbs.relations import decide, rel_e0
from gbs.spaces import ORDS, Bits, iter_words, starts_with, word_values, zeros

L = OMEGA_SQ
E0_ORDS = rel_e0(ORDS)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
S3, S3_PERMS = symmetric_group(3)

FLIP0 = GroupAction(Z2, XorMasks(((0,), (1,)), 1))
ROT4 = GroupAction(Z4, PermuteCoords(tuple(tuple((i + g) % 4 for i in range(4)) for g in range(4)), 4))
PERM3 = GroupAction(S3, PermuteCoords(S3_PERMS, 3))


def pt(bits) -> Bits:
    return Bits(pm_write_finite(zeros(L).seq, list(bits)))


def carrier(k: int) -> list:
    return [pt([(n >> i) & 1 for i in range(k)]) for n in range(1 << k)]


def ind_omega() -> Bits:
    # 1 exactly at position w
    return Bits(PatternMap.build(L, [
        (ZERO, OMEGA, 0, (0,)),
        (OMEGA, omega_times(2), 1, (0,)),
        (omega_times(2), L, 0, (0,)),
    ]))


# --- finite groups ---------------------------------------------------------------


def test_cyclic_and_symmetric_construction():
    assert Z4.order == 4
    assert Z4.identity == 0
    assert Z4.inv(1) == 3
    assert S3.order == 6
    assert subgroup_closure(S3, S3.generators) == frozenset(range(6))
    for a in range(4):
        for b in range(4):
            assert Z4.mul(a, b) == (a + b) % 4


def test_group_validation():
    # order-5 loop: latin square with identity and inverses, not associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError, match="associative"):
        FiniteGroup(loop)
    with pytest.raises(GroupError, match="identity"):
        FiniteGroup([[1, 1], [1, 1]])
    with pytest.raises(GroupError, match="generate"):
        FiniteGroup(Z4.table, (2,))
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 0], [0, 1]])


# --- actions ---------------------------------------------------------------------


def test_action_validation():
    with pytest.raises(GroupError, match="trivially"):
        GroupAction(Z2, XorMasks(((1,), (0,)), 1))
    with pytest.raises(GroupError, match="group law"):
        GroupAction(Z2, PermuteCoords(((0, 1, 2), (1, 2, 0)), 3))
    with pytest.raises(GroupError, match="bit tuples"):
        GroupAction(Z2, XorMasks(((0,), (1, 0)), 1))
    with pytest.raises(GroupError, match="permutation"):
        GroupAction(Z2, PermuteCoords(((0, 1), (1, 1)), 2))
    with pytest.raises(GroupError, match="per group element"):
        GroupAction(Z4, XorMasks(((0,), (1,)), 1))


def test_apply_matches_manual_permutation():
    rng = random.Random(96)
    for _ in range(120):
        bits = [rng.randint(0, 1) for _ in range(4)]
        g = rng.randrange(4)
        moved = [0] * 4
        for j in range(4):
            moved[(j + g) % 4] = bits[j]  # value travels with its coordinate
        assert ROT4.apply(g, pt(bits)) == pt(moved)
    for _ in range(120):
        bits = [rng.randint(0, 1) for _ in range(3)]
        g = rng.randrange(6)
        moved = [0] * 3
        for j in range(3):
            moved[S3_PERMS[g][j]] = bits[j]
        assert PERM3.apply(g, pt(bits)) == pt(moved)


def test_action_laws_on_carrier_sample():
    rng = random.Random(97)
    for act, k in ((FLIP0, 4), (ROT4, 4), (PERM3, 3)):
        for _ in range(60):
            x = pt([rng.randint(0, 1) for _ in range(k)])
            assert act.apply(act.group.identity, x) == x
            g = rng.randrange(act.group.order)
            h = rng.randrange(act.group.order)
            assert act.apply(g, act.apply(h, x)) == act.apply(act.group.mul(g, h), x)


def test_orbit_frozen_examples():
    x = zeros(L)
    assert orbit_witness(FLIP0, x, x) == 0
    assert orbit_decide(FLIP0, x, pt([1]))
    assert orbit_witness(FLIP0, x, pt([1])) == 1
    assert not orbit_decide(FLIP0, x, ind_omega())


# --- cylinder enumeration and Ac1 --------------------------------------------------


def test_cylinder_enumeration_shape():
    enum = cylinder_enumeration(4)
    assert len(enum.words) == 15
    assert enum.delta == 4
    assert word_values(enum.words[0]) == ()
    assert word_values(enum.words[1]) == (0,)
    assert word_values(enum.words[2]) == (1,)
    assert word_values(enum.words[7]) == (0, 0, 0)
    doms = [w.dom.to_nat() for w in enum.words]
    assert doms == sorted(doms)
    with pytest.raises(GroupError, match="repeats"):
        CylinderEnumeration((enum.words[1], enum.words[1]))


def test_ac1_trace_frozen():
    enum = cylinder_enumeration(4)
    x = zeros(L)
    y = FLIP0.apply(1, x)
    tx = red_ac1(FLIP0, enum, x)
    ty = red_ac1(FLIP0, enum, y)
    assert tx[0] == frozenset({0, 1})  # empty cylinder holds everything
    assert tx[2] == frozenset({1})  # <1>: only the flip moves zeros there
    assert ty[2] == frozenset({0})
    assert tx == trace_right_mul(Z2, ty, 1)  # Z(x) = Z(y).f
    assert red_ac1(FLIP0, enum, x) == tx
    assert ac1_criterion(FLIP0, enum, x, x)


def test_ac1_separation_checked():
    # flipping bit 4 is invisible to cylinders with dom < 4
    act = GroupAction(Z2, XorMasks(((0, 0, 0, 0, 0), (0, 0, 0, 0, 1)), 5))
    with pytest.raises(GroupError, match="enumeration bound too small"):
        red_ac1(act, cylinder_enumeration(4), zeros(L))
    # a wider enumeration separates the same orbit
    assert len(red_ac1(act, cylinder_enumeration(7), zeros(L))) == 127


def test_ac1_criterion_matches_orbits_exhaustively():
    cases = (
        (FLIP0, carrier(4), cylinder_enumeration(6)),
        (ROT4, carrier(3), cylinder_enumeration(6)),
        (PERM3, carrier(6), cylinder_enumeration(7)),
    )
    for act, pts, enum in cases:
        for i, a in enumerate(pts):
            for b in pts[i:]:
                assert ac1_criterion(act, enum, a, b) == orbit_decide(act, a, b)


# The trace reads each moved point's head once and compares prefixes; the old
# definition, kept as the oracle, asked starts_with for every (word, element).


def trace_by_starts_with(act, enum, x):
    return tuple(
        frozenset(g for g in act.group.elements() if starts_with(act.apply(g, x), w))
        for w in enum.words
    )


ACTIONS = [
    FLIP0,
    ROT4,
    PERM3,
    GroupAction(Z2, XorMasks(((0, 0, 0), (1, 0, 1)), 3)),
    GroupAction(Z2, XorMasks(((0, 0, 0, 0, 0), (0, 0, 0, 0, 1)), 5)),
]
CUTS = [nat(n) for n in range(1, 9)] + [OMEGA, omega_times(2, 3)]


@st.composite
def bit_points(draw):
    cuts = draw(st.sets(st.sampled_from(CUTS), max_size=4))
    edges = [ZERO] + sorted(cuts) + [L]
    bit = st.sampled_from((0, 1))
    raw = [
        (lo, hi, draw(bit), tuple(draw(st.lists(bit, min_size=1, max_size=3))))
        for lo, hi in zip(edges, edges[1:])
    ]
    return Bits(PatternMap.build(L, raw))


@st.composite
def enumerations(draw, k):
    """A cylinder enumeration separating orbits of an action on k coordinates:
    some words of dom < delta in any order, one of them as long as delta - 1."""
    delta = draw(st.integers(k + 1, 7))
    words = list(iter_words(delta))
    longest = draw(st.sampled_from([w for w in words if w.dom == nat(delta - 1)]))
    rest = draw(st.lists(st.sampled_from(words), unique=True, max_size=12))
    chosen = [longest] + [w for w in rest if w != longest]
    return CylinderEnumeration(tuple(draw(st.permutations(chosen))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), x=bit_points())
def test_trace_matches_starts_with(data, x):
    act = data.draw(st.sampled_from(ACTIONS))
    enum = data.draw(enumerations(act.rule.k))
    assert enum.delta - 1 == max(len(word_values(w)) for w in enum.words)
    assert red_ac1(act, enum, x) == trace_by_starts_with(act, enum, x)


# --- chain schedules and the selector ----------------------------------------------


def test_chain_schedule_validation():
    full = frozenset(range(4))
    ChainSchedule(Z4, (frozenset({0}), frozenset({0, 2}), full))
    with pytest.raises(GroupError, match="not a subgroup"):
        ChainSchedule(Z4, (frozenset({0, 1}), full))
    with pytest.raises(GroupError, match="nondecreasing"):
        ChainSchedule(Z4, (frozenset({0, 2}), frozenset({0}), full))
    with pytest.raises(GroupError, match="exhaust"):
        ChainSchedule(Z4, (frozenset({0}), frozenset({0, 2})))
    chain = default_chain(S3)
    assert chain.steps[0] == frozenset({S3.identity})
    assert chain.steps[-1] == frozenset(range(6))
    assert chain.at(100) == chain.steps[-1]


def test_selector_frozen_examples():
    sched = default_chain(Z2)
    hx = red_ac3_selector(FLIP0, sched, zeros(L))
    hy = red_ac3_selector(FLIP0, sched, pt([1]))
    assert hx == hy  # shared orbit minimum at every level
    hw = red_ac3_selector(FLIP0, sched, ind_omega())
    assert pm_eval(hx.seq, OMEGA) == pm_eval(hw.seq, OMEGA)  # restrictions to w agree
    for q in (2, 3, 5, 9):
        assert pm_eval(hx.seq, omega_times(q)) != pm_eval(hw.seq, omega_times(q))
    assert not decide(E0_ORDS, hx, hw)
    assert decide(E0_ORDS, hx, hy)
    # successors carry 0
    assert pm_eval(hx.seq, nat(7)) == ZERO
    assert pm_eval(hx.seq, OMEGA.succ()) == ZERO
    with pytest.raises(GroupError, match="different groups"):
        red_ac3_selector(FLIP0, default_chain(Z4), zeros(L))


def test_selector_biconditional_s3():
    pts = carrier(6)
    sched = default_chain(S3)
    outs = [red_ac3_selector(PERM3, sched, p) for p in pts]
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            assert decide(E0_ORDS, outs[i], outs[j]) == orbit_decide(PERM3, pts[i], pts[j])


# --- the composite reduction -------------------------------------------------------


def test_action_to_e0_same_point():
    out1 = red_action_to_E0(PERM3, pt([1, 0, 1]))
    out2 = red_action_to_E0(PERM3, pt([1, 0, 1]))
    assert out1 == out2
    assert decide(E0_ORDS, out1, out2)


@pytest.mark.parametrize(
    "act,k,delta",
    [(FLIP0, 4, 6), (ROT4, 3, 6), (PERM3, 6, 7)],
    ids=["z2-flip", "z4-rot", "s3-perm"],
)
def test_action_to_e0_biconditional(act, k, delta):
    pts = carrier(k)
    enum = cylinder_enumeration(delta)
    sched = default_chain(act.group)
    outs = [red_action_to_E0(act, p, sched, enum) for p in pts]
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            want = orbit_decide(act, pts[i], pts[j])
            assert decide(E0_ORDS, outs[i], outs[j]) == want
