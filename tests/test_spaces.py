from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from gbs.ordinals import OMEGA, OMEGA_SQ, ZERO, Ordinal, nat, omega_times
from gbs.patterns import PatternMap, pm_eval, pm_restrict, pm_splice, pm_write_finite, pm_zip
from gbs.spaces import (
    BITS,
    Bits,
    Family,
    FamilyOf,
    FiniteWord,
    Ords,
    SpaceError,
    Tagged,
    TaggedSum,
    TowerSum,
    canonical_key,
    canonical_min,
    diff_map,
    family_power,
    iter_words,
    point_bound,
    point_code,
    point_eval,
    point_in_space,
    restrict_point,
    serialize_point,
    starts_with,
    validate_point,
    word_from_bits,
    word_to_bits,
    word_values,
    xor_prefix,
    zero_pad_embed,
    zeros,
)

L = OMEGA_SQ


def bits(*pieces) -> Bits:
    return Bits(PatternMap.build(L, list(pieces)))


def indicator(points) -> Bits:
    # finite-support indicator over small naturals
    top = max(points) + 1 if points else 1
    raw = [1 if n in points else 0 for n in range(top)]
    return Bits(pm_write_finite(PatternMap.constant(L, 0), raw))


def test_bits_validation():
    with pytest.raises(SpaceError):
        Bits(PatternMap.constant(L, 7))
    Bits(PatternMap.constant(L, 1))


def test_ords_validation():
    with pytest.raises(SpaceError):
        Ords(PatternMap.constant(L, 3))
    Ords(PatternMap.constant(L, nat(3)))


# --- canonical order -----------------------------------------------------------


def test_canonical_min_prefers_zero_leading():
    zero = zeros(L)
    one_at_zero = indicator({0})
    assert canonical_min({zero, one_at_zero}) == zero
    assert canonical_key(zero) < canonical_key(one_at_zero)


def test_canonical_min_singleton_and_membership():
    rng = random.Random(1)
    pool = [indicator({rng.randrange(8) for _ in range(3)}) for _ in range(20)]
    m = canonical_min(pool)
    assert m in pool
    k = canonical_key(m)
    assert all(k <= canonical_key(p) for p in pool)
    assert canonical_min([m]) == m
    with pytest.raises(SpaceError):
        canonical_min([])


def test_serialization_is_injective_on_samples():
    rng = random.Random(2)
    seen = {}
    for _ in range(200):
        x = indicator({rng.randrange(10) for _ in range(rng.randint(0, 4))})
        s = serialize_point(x)
        if s in seen:
            assert seen[s] == x
        seen[s] = x
    distinct = {serialize_point(p) for p in (zeros(L), indicator({0}), indicator({1}))}
    assert len(distinct) == 3


def test_point_code_distinguishes_and_stabilizes():
    a, b = indicator({2}), indicator({3})
    assert point_code(a) != point_code(b)
    # content constant from some level on: open-ended codes of restrictions agree
    x = indicator({1, 4})
    c3 = point_code(restrict_point(x, omega_times(3)))
    c5 = point_code(restrict_point(x, omega_times(5)))
    assert c3 == c5
    assert point_code(restrict_point(x, L)) == c3


# --- family canonicalization ----------------------------------------------------


def fam(comps, assign_raw) -> Family:
    return Family(comps, PatternMap.build(L, assign_raw))


def test_family_drops_unreferenced_components():
    a, b = zeros(L), indicator({0})
    f = fam([a, b], [(ZERO, L, 0, (0,))])  # never mentions component 1
    assert f.components == (a,)


def test_family_dedups_and_remaps():
    a = indicator({1})
    f = fam([a, zeros(L), Bits(PatternMap.constant(L, 0))], [(ZERO, OMEGA, 0, (1,)), (OMEGA, L, 2, (0,))])
    # components 1 and 2 are equal; they merge and the assignment follows
    assert len(f.components) == 2
    assert point_eval(f, nat(1)) == zeros(L)
    assert point_eval(f, OMEGA) == zeros(L)
    assert point_eval(f, OMEGA + 1) == a


def test_family_sorts_components_canonically():
    a, b = zeros(L), indicator({0})
    f1 = fam([a, b], [(ZERO, OMEGA, 0, (1,)), (OMEGA, L, 1, (0,))])
    f2 = fam([b, a], [(ZERO, OMEGA, 1, (0,)), (OMEGA, L, 0, (1,))])
    assert f1 == f2
    assert hash(f1) == hash(f2)
    assert [canonical_key(c) for c in f1.components] == sorted(
        canonical_key(c) for c in f1.components
    )


def test_family_rejects_bad_assignments():
    with pytest.raises(SpaceError):
        fam([zeros(L)], [(ZERO, L, 0, (1,))])  # index out of range
    with pytest.raises(SpaceError):
        Family([zeros(L)], PatternMap.constant(OMEGA, 0))  # bound mismatch


# --- spaces ----------------------------------------------------------------------


def test_point_in_space():
    f = fam([zeros(L)], [(ZERO, L, 0, (0,))])
    assert point_in_space(zeros(L), BITS)
    assert point_in_space(f, FamilyOf(BITS))
    assert not point_in_space(f, BITS)
    t = Tagged(nat(1), f)
    assert point_in_space(t, TaggedSum((BITS, FamilyOf(BITS))))
    assert not point_in_space(t, TaggedSum((BITS, BITS)))
    assert point_in_space(Tagged(nat(1), f), TowerSum(BITS))
    assert not point_in_space(Tagged(nat(2), f), TowerSum(BITS))
    validate_point(t, TaggedSum((BITS, FamilyOf(BITS))))
    with pytest.raises(SpaceError):
        validate_point(t, TaggedSum((BITS, BITS)))
    assert family_power(BITS, 2) == FamilyOf(FamilyOf(BITS))


# --- restriction ------------------------------------------------------------------


def test_restrict_identity_and_coherence():
    x = indicator({0, 3, 5})
    assert restrict_point(x, L) == x
    r1 = restrict_point(restrict_point(x, omega_times(3)), OMEGA)
    assert r1 == restrict_point(x, OMEGA)


def test_restrict_family_truncates_everything():
    a, b = indicator({1}), indicator({3})
    f = fam([a, b], [(ZERO, OMEGA, 0, (1,)), (OMEGA, L, 1, (0,))])
    r = restrict_point(f, OMEGA)
    assert point_bound(r) == OMEGA
    for c in r.components:
        assert point_bound(c) == OMEGA
    for i in range(5):
        assert point_eval(r, nat(i)) == restrict_point(point_eval(f, nat(i)), OMEGA)
    with pytest.raises(SpaceError):
        restrict_point(f, OMEGA + 1)  # family levels are limits


def test_restrict_family_can_collapse_components():
    # two components that agree below w but differ above it
    a = indicator({1})
    b = Bits(pm_splice(PatternMap.build(L, [(ZERO, L, 1, (0,))]), OMEGA, pm_restrict(a.seq, OMEGA)))
    f = fam([a, b], [(ZERO, OMEGA, 0, (1,)), (OMEGA, L, 0, (0,))])
    assert len(f.components) == 2
    r = restrict_point(f, OMEGA)
    assert len(r.components) == 1


# --- words, padding, xor -----------------------------------------------------------


def test_word_roundtrip_and_enumeration():
    w = word_from_bits([1, 0, 1])
    assert word_values(w) == (1, 0, 1)
    assert w.dom == nat(3)
    words = list(iter_words(3))
    assert [word_values(w) for w in words] == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(set(map(canonical_key, words))) == len(words)


def test_zero_pad_embed():
    w = word_from_bits([0, 1])
    p = zero_pad_embed(w, OMEGA)
    assert p.dom == OMEGA
    assert pm_eval(p.bits, nat(1)) == 1
    assert pm_eval(p.bits, nat(5)) == 0
    assert zero_pad_embed(w, w.dom) == w
    assert pm_restrict(p.bits, nat(2)) == w.bits
    with pytest.raises(SpaceError):
        zero_pad_embed(p, nat(1))


def test_starts_with():
    x = indicator({1})
    assert starts_with(x, word_from_bits([0, 1]))
    assert starts_with(x, word_from_bits([]))
    assert not starts_with(x, word_from_bits([1]))


def test_xor_prefix_involution_and_values():
    rng = random.Random(3)
    for _ in range(50):
        x = indicator({rng.randrange(9) for _ in range(rng.randint(0, 4))})
        w = word_from_bits([rng.randint(0, 1) for _ in range(rng.randint(0, 5))])
        y = xor_prefix(w, x)
        assert xor_prefix(w, y) == x
        for i in range(8):
            want = pm_eval(x.seq, nat(i))
            if nat(i) < w.dom:
                want ^= pm_eval(w.bits, nat(i))
            assert pm_eval(y.seq, nat(i)) == want
    assert xor_prefix(word_from_bits([]), x) == x


def test_xor_prefix_frozen_example():
    # 1-constant word on [0,3) against all zeros: indicator of [0,3)
    w = word_from_bits([1, 1, 1])
    y = xor_prefix(w, zeros(L))
    assert y == indicator({0, 1, 2})


# --- cylinders and prefix flips against their definitions ----------------------
# The oracles are the definitions by whole maps: restrict then compare, and
# pad the word with zeros then zip.


def starts_with_by_restrict(x, w):
    if x.bound < w.dom:
        raise SpaceError("cylinder word longer than the sequence")
    return pm_restrict(x.seq, w.dom) == w.bits


def xor_prefix_by_zip(w, x):
    if x.bound < w.dom:
        raise SpaceError("xor prefix longer than the sequence")
    mask = zero_pad_embed(w, x.bound)
    return Bits(pm_zip(x.seq, mask.bits, lambda a, b: a ^ b))


PREFIX_BOUNDS = [nat(3), nat(7), OMEGA, omega_times(2, 3), L, Ordinal(((3, 1), (1, 2)))]


@st.composite
def bit_points(draw):
    bound = draw(st.sampled_from(PREFIX_BOUNDS))
    grid = [o for o in [nat(n) for n in range(1, 9)] + [OMEGA, omega_times(1, 2), L] if o < bound]
    cuts = sorted(draw(st.sets(st.sampled_from(grid), max_size=4)))
    edges = [ZERO] + cuts + [bound]
    bit = st.integers(0, 1)
    raw = [
        (lo, hi, draw(bit), tuple(draw(st.lists(bit, min_size=1, max_size=3))))
        for lo, hi in zip(edges, edges[1:])
    ]
    return Bits(PatternMap.build(bound, raw))


@st.composite
def cylinder_words(draw, x):
    """A word of dom <= 9: x's own head (so that x extends it), x's head
    with one bit flipped, or any bits; sometimes zero-padded to w or w*2."""
    top = x.bound.to_nat() if x.bound.is_nat() else 9
    k = draw(st.integers(0, min(top, 8)))
    head = [pm_eval(x.seq, nat(i)) for i in range(k)]
    how = draw(st.sampled_from(["head", "flip", "any"]))
    if how == "flip" and head:
        i = draw(st.integers(0, k - 1))
        head[i] ^= 1
    elif how == "any":
        head = draw(st.lists(st.integers(0, 1), max_size=9))
    w = word_from_bits(head)
    pad = draw(st.sampled_from([None, OMEGA, omega_times(2)]))
    return w if pad is None else zero_pad_embed(w, pad)


PREFIX_PROPS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@PREFIX_PROPS
@given(data=st.data())
def test_starts_with_matches_restrict_then_compare(data):
    x = data.draw(bit_points())
    w = data.draw(cylinder_words(x))
    if x.bound < w.dom:
        with pytest.raises(SpaceError):
            starts_with(x, w)
        return
    assert starts_with(x, w) == starts_with_by_restrict(x, w)


@PREFIX_PROPS
@given(data=st.data())
def test_xor_prefix_matches_pad_then_zip(data):
    x = data.draw(bit_points())
    w = data.draw(cylinder_words(x))
    if x.bound < w.dom:
        with pytest.raises(SpaceError):
            xor_prefix(w, x)
        return
    y = xor_prefix(w, x)
    assert y == xor_prefix_by_zip(w, x)
    # y is zero below dom(w) exactly where x extends w
    assert starts_with(y, zero_pad_embed(word_from_bits([]), w.dom)) == starts_with(x, w)


def test_word_to_bits():
    b = word_to_bits(word_from_bits([1]), L)
    assert b == indicator({0})


# --- diff map ---------------------------------------------------------------------


def test_diff_map_properties():
    rng = random.Random(4)
    for _ in range(60):
        x = indicator({rng.randrange(9) for _ in range(rng.randint(0, 3))})
        y = indicator({rng.randrange(9) for _ in range(rng.randint(0, 3))})
        d = diff_map(x, y)
        assert d == diff_map(y, x)
        assert (d == PatternMap.constant(L, 0)) == (x == y)
        for i in range(10):
            assert pm_eval(d, nat(i)) == (
                0 if pm_eval(x.seq, nat(i)) == pm_eval(y.seq, nat(i)) else 1
            )


def test_diff_map_frozen_successor_example():
    x = zeros(L)
    y = Bits(PatternMap.build(L, [(ZERO, L, 0, (1,))]))
    d = diff_map(x, y)
    assert pm_eval(d, ZERO) == 0
    assert pm_eval(d, OMEGA) == 0
    assert pm_eval(d, OMEGA + 4) == 1
    assert pm_eval(d, nat(2)) == 1


def test_diff_map_on_families_compares_components():
    a, b = indicator({1}), indicator({2})
    f1 = fam([a], [(ZERO, L, 0, (0,))])
    f2 = fam([a, b], [(ZERO, OMEGA, 0, (0,)), (OMEGA, L, 1, (1,))])
    d = diff_map(f1, f2)
    assert pm_eval(d, nat(3)) == 0
    assert pm_eval(d, OMEGA + 3) == 1
    with pytest.raises(SpaceError):
        diff_map(f1, a)


def test_point_eval_variants():
    x = indicator({2})
    assert point_eval(x, nat(2)) == 1
    o = Ords(PatternMap.constant(L, OMEGA))
    assert point_eval(o, nat(5)) == OMEGA
    with pytest.raises(SpaceError):
        point_eval(Tagged(ZERO, x), ZERO)
