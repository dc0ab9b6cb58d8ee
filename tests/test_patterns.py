from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gbs.ordinals import (
    OMEGA,
    OMEGA_SQ,
    ONE,
    ZERO,
    Ordinal,
    nat,
    omega_times,
)
from gbs.patterns import (
    INFINITE,
    PatternError,
    PatternMap,
    Piece,
    _describe,
    pm_eval,
    pm_head,
    pm_map,
    pm_restrict,
    pm_serial,
    pm_splice,
    pm_value_census,
    pm_value_set,
    pm_write_finite,
    pm_zip,
)
from gbs.spaces import word_from_bits, word_values

from _oracles import describe_by_cut_blocks, pm_support_analysis
from _strategies import GRID, OMEGA_CUBE, WRITE_BOUNDS, raw_pieces

L = OMEGA_SQ


# ---------------------------------------------------------------------------
# Oracle: evaluate a raw (pre-canonical) piece list directly from the
# definition.  At w*q + n the value is the piece's limit value when n = 0,
# otherwise word[(n-1) mod len(word)] of the covering piece.
# ---------------------------------------------------------------------------


def eval_raw(raw, alpha):
    for lo, hi, lv, word in raw:
        if lo <= alpha and alpha < hi:
            n = alpha.nat_part()
            return lv if n == 0 else word[(n - 1) % len(word)]
    raise AssertionError(f"{alpha} outside domain")


# Random raw piece lists.  Boundary nat parts stay <= 8 and words stay short
# (<= 3); the probe windows below are sized against these caps.


def rand_raw(rng: random.Random, bound: Ordinal, alphabet=(0, 1, 2)):
    blk = bound.block_index()
    bq = blk.to_nat() if blk.is_nat() else 8
    bn = bound.nat_part()
    cand = []
    for q in range(bq + 1):
        top = 9 if q < bq else min(9, bn)
        for n in range(top):
            o = omega_times(q, n)
            if ZERO < o and o < bound:
                cand.append(o)
    k = rng.randint(0, min(5, len(cand)))
    cuts = sorted(rng.sample(cand, k), key=lambda o: o.terms)
    edges = [ZERO] + cuts + [bound]
    raw = []
    for lo, hi in zip(edges, edges[1:]):
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        raw.append((lo, hi, rng.choice(alphabet), word))
    return raw


def probe_grid(bound, *maps):
    """Positions that pin down a map built from capped raw pieces: a window
    after every piece boundary plus windows at the surrounding block starts."""
    points = set()
    edges = {ZERO}
    for m in maps:
        edges.update(p.lo for p in m.pieces)
    for b in edges:
        blk = b.block_index()
        bases = (
            b,
            Ordinal.block_start(blk),
            Ordinal.block_start(blk.succ()),
            Ordinal.block_start(blk.succ().succ()),
        )
        for base in bases:
            for k in range(13):
                a = base + k
                if a < bound:
                    points.add(a)
    return sorted(points, key=lambda o: o.terms)


def test_eval_matches_raw_definition():
    rng = random.Random(101)
    for _ in range(300):
        raw = rand_raw(rng, L)
        m = PatternMap.build(L, raw)
        for a in probe_grid(L, m):
            assert pm_eval(m, a) == eval_raw(raw, a)


def test_canonical_form_invariant_under_refinement():
    # splitting a piece anywhere preserves the function exactly (the word is
    # indexed by the global successor offset), so builds must coincide.
    rng = random.Random(102)
    for _ in range(300):
        raw = rand_raw(rng, L)
        m1 = PatternMap.build(L, raw)
        refined = []
        for lo, hi, lv, word in raw:
            mids = [
                o
                for o in (lo + rng.randint(1, 6), omega_times(lo.block_index().to_nat() + 1, rng.randint(0, 5)))
                if lo < o and o < hi and rng.random() < 0.7
            ]
            edges = [lo] + sorted(set(mids), key=lambda o: o.terms) + [hi]
            for a, b in zip(edges, edges[1:]):
                refined.append((a, b, lv, word))
        m2 = PatternMap.build(L, refined)
        assert m1 == m2
        assert hash(m1) == hash(m2)


def test_canonical_equality_is_extensional_equality():
    # two maps agree at every probe-grid position iff their canonical forms
    # are structurally equal.
    rng = random.Random(103)
    agree_seen = differ_seen = 0
    for _ in range(400):
        raw1 = rand_raw(rng, L)
        raw2 = rand_raw(rng, L) if rng.random() < 0.5 else list(raw1)
        if raw2 is not raw1 and rng.random() < 0.5 and raw2:
            # small perturbation of a copy: tweak one piece's limit value
            i = rng.randrange(len(raw2))
            lo, hi, lv, word = raw2[i]
            raw2[i] = (lo, hi, lv + 1, word)
        m1 = PatternMap.build(L, raw1)
        m2 = PatternMap.build(L, raw2)
        same = all(pm_eval(m1, a) == pm_eval(m2, a) for a in probe_grid(L, m1, m2))
        assert same == (m1 == m2)
        agree_seen += same
        differ_seen += not same
    assert agree_seen > 50 and differ_seen > 50


def test_canonicalization_idempotent():
    rng = random.Random(104)
    for _ in range(200):
        m = PatternMap.build(L, rand_raw(rng, L))
        assert PatternMap.build(L, m.pieces) == m


def test_build_validation():
    with pytest.raises(PatternError):
        PatternMap.build(L, [(ZERO, OMEGA, 0, (0,))])  # gap above w
    with pytest.raises(PatternError):
        PatternMap.build(L, [(ZERO, L, 0, (0,)), (OMEGA, L, 1, (1,))])  # overlap
    with pytest.raises(PatternError):
        PatternMap.build(L, [(ZERO, L, 0, ())])  # empty word
    with pytest.raises(PatternError):
        PatternMap.build(L, [(OMEGA, OMEGA, 0, (0,)), (ZERO, L, 0, (0,))])  # empty piece
    with pytest.raises(PatternError):
        PatternMap(L, (), _canonical=False)
    assert PatternMap.build(ZERO, []).pieces == ()


def test_eval_outside_domain_raises():
    m = PatternMap.constant(OMEGA, 1)
    with pytest.raises(PatternError):
        pm_eval(m, OMEGA)
    with pytest.raises(PatternError):
        pm_eval(PatternMap.build(ZERO, []), ZERO)


# --- frozen examples ----------------------------------------------------------


def test_frozen_two_piece_example():
    m = PatternMap.build(L, [(ZERO, OMEGA, 1, (0,)), (OMEGA, L, 0, (1,))])
    assert pm_eval(m, ZERO) == 1
    assert pm_eval(m, nat(3)) == 0
    assert pm_eval(m, OMEGA) == 0
    assert pm_eval(m, OMEGA + 9) == 1
    assert pm_eval(m, omega_times(7, 2)) == 1


def test_frozen_merge_of_agreeing_pieces():
    a = PatternMap.build(
        L,
        [
            (ZERO, nat(3), 9, (9,)),
            (nat(3), nat(8), 9, (9,)),
            (nat(8), L, 0, (0,)),
        ],
    )
    b = PatternMap.build(L, [(ZERO, nat(8), 9, (9,)), (nat(8), L, 0, (0,))])
    assert a == b
    assert [str(p.lo) for p in b.pieces] == ["0", "8", "w"]


def test_frozen_periodic_absorption():
    # a prefix that already follows the periodic pattern is absorbed
    a = PatternMap.build(L, [(ZERO, OMEGA + 3, 1, (0, 7)), (OMEGA + 3, L, 1, (0, 7))])
    b = PatternMap.build(L, [(ZERO, L, 1, (0, 7))])
    assert a == b
    assert len(b.pieces) == 1


def test_frozen_support_bounded_indicator():
    m = PatternMap.build(L, [(ZERO, OMEGA, 1, (1,)), (OMEGA, L, 0, (0,))])
    info = pm_support_analysis(m)
    assert not info.unbounded
    assert info.bounded_by == OMEGA
    assert not info.final_limit_segment


def test_frozen_support_limit_indicator():
    # characteristic map of the limit ordinals; 0 itself is not a limit
    m = PatternMap.build(L, [(ZERO, ONE, 0, (0,)), (ONE, L, 1, (0,))])
    assert pm_eval(m, ZERO) == 0
    assert pm_eval(m, OMEGA) == 1
    assert pm_eval(m, OMEGA + 1) == 0
    info = pm_support_analysis(m)
    assert info.unbounded
    assert info.bounded_by is None
    assert info.final_limit_segment
    assert info.final_segment_start == ZERO


def test_frozen_support_odd_positions():
    # {w*q + n : n odd}: unbounded but misses every limit
    m = PatternMap.build(L, [(ZERO, L, 0, (1, 0))])
    assert pm_eval(m, OMEGA + 1) == 1
    assert pm_eval(m, OMEGA + 2) == 0
    info = pm_support_analysis(m)
    assert info.unbounded
    assert not info.final_limit_segment
    assert info.final_segment_start is None


def test_frozen_census():
    one_point = PatternMap.build(L, [(ZERO, ONE, 1, (1,)), (ONE, L, 0, (0,))])
    assert pm_value_census(one_point) == {1: 1, 0: INFINITE}
    assert pm_value_set(one_point) == frozenset({0, 1})
    assert pm_value_census(PatternMap.constant(L, 4)) == {4: INFINITE}
    finite = PatternMap.build(nat(5), [(ZERO, nat(5), 3, (2, 3))])
    assert pm_value_census(finite) == {3: 3, 2: 2}


# --- support analysis against a brute-force oracle ----------------------------


def limit_positions(bound):
    bq = bound.block_index().to_nat()
    bn = bound.nat_part()
    out = [omega_times(q) for q in range(1, bq)]
    if bn > 0 and bq >= 1:
        out.append(omega_times(bq))
    return out


def support_oracle(raw, bound):
    # window sizes rely on the rand_raw caps: transients end by n = 9 and the
    # tail word period is at most 3, so n in [9, 12) sees every residue.
    best = ZERO
    bq = bound.block_index().to_nat()
    for q in range(bq):
        start = omega_times(q)
        last = None
        for n in range(12):
            if eval_raw(raw, start + n) == 1:
                last = n
        if last is None:
            continue
        if last >= 9:
            best = max(best, omega_times(q + 1))
        else:
            best = max(best, start + (last + 1))
    for n in range(bound.nat_part()):
        a = omega_times(bq) + n
        if eval_raw(raw, a) == 1:
            best = max(best, a.succ())
    return best


def census_oracle(raw, bound):
    census: dict = {}
    infinite = set()
    bq = bound.block_index().to_nat()
    for q in range(bq):
        start = omega_times(q)
        for n in range(9):
            v = eval_raw(raw, start + n)
            census[v] = census.get(v, 0) + 1
        for n in range(9, 12):
            infinite.add(eval_raw(raw, start + n))
    for n in range(bound.nat_part()):
        v = eval_raw(raw, omega_times(bq) + n)
        census[v] = census.get(v, 0) + 1
    for v in infinite:
        census[v] = INFINITE
    return census


def test_support_analysis_matches_oracle():
    rng = random.Random(105)
    bounds = [omega_times(q, n) for q in (1, 2, 4, 6) for n in (0, 1, 5)]
    for _ in range(400):
        bound = rng.choice(bounds)
        raw = rand_raw(rng, bound, alphabet=(0, 1))
        m = PatternMap.build(bound, raw)
        info = pm_support_analysis(m)
        best = support_oracle(raw, bound)
        if best == bound:
            assert info.unbounded and info.bounded_by is None
        else:
            assert not info.unbounded and info.bounded_by == best
        bads = [a for a in limit_positions(bound) if eval_raw(raw, a) != 1]
        assert info.final_limit_segment
        want = bads[-1].succ() if bads else ZERO
        assert info.final_segment_start == want


def test_census_matches_oracle():
    rng = random.Random(106)
    bounds = [omega_times(q, n) for q in (1, 3, 5) for n in (0, 2, 7)]
    for _ in range(300):
        bound = rng.choice(bounds)
        raw = rand_raw(rng, bound)
        assert pm_value_census(PatternMap.build(bound, raw)) == census_oracle(raw, bound)


# --- combinators ---------------------------------------------------------------


def test_zip_pointwise():
    rng = random.Random(107)
    for _ in range(150):
        raw1, raw2 = rand_raw(rng, L), rand_raw(rng, L)
        m1, m2 = PatternMap.build(L, raw1), PatternMap.build(L, raw2)
        z = pm_zip(m1, m2, lambda x, y: (x + 2 * y) % 5)
        for a in probe_grid(L, m1, m2, z):
            assert pm_eval(z, a) == (eval_raw(raw1, a) + 2 * eval_raw(raw2, a)) % 5
    with pytest.raises(PatternError):
        pm_zip(PatternMap.constant(OMEGA, 0), PatternMap.constant(L, 0), min)


def test_map_pointwise():
    rng = random.Random(108)
    for _ in range(100):
        raw = rand_raw(rng, L)
        m = PatternMap.build(L, raw)
        mm = pm_map(m, lambda v: v * v + 1)
        for a in probe_grid(L, m):
            assert pm_eval(mm, a) == eval_raw(raw, a) ** 2 + 1


def test_restrict_agrees_below():
    rng = random.Random(109)
    cuts = [nat(4), OMEGA, OMEGA + 3, omega_times(3), omega_times(5, 2)]
    for _ in range(150):
        raw = rand_raw(rng, L)
        m = PatternMap.build(L, raw)
        a = rng.choice(cuts)
        r = pm_restrict(m, a)
        assert r.bound == a
        for p in probe_grid(a, r):
            assert pm_eval(r, p) == eval_raw(raw, p)
    with pytest.raises(PatternError):
        pm_restrict(PatternMap.constant(OMEGA, 0), L)


def test_restrict_to_zero():
    assert pm_restrict(PatternMap.constant(L, 3), ZERO).pieces == ()


def test_splice_glues_the_two_sides():
    rng = random.Random(110)
    for _ in range(150):
        raw = rand_raw(rng, L)
        m = PatternMap.build(L, raw)
        at = rng.choice([OMEGA, omega_times(2), omega_times(4)])
        head_raw = rand_raw(rng, at)
        head = PatternMap.build(at, head_raw)
        s = pm_splice(m, at, head)
        for p in probe_grid(L, s, m):
            want = eval_raw(head_raw, p) if p < at else eval_raw(raw, p)
            assert pm_eval(s, p) == want


def test_write_finite_overwrites_a_prefix():
    rng = random.Random(111)
    for _ in range(100):
        raw = rand_raw(rng, L)
        m = PatternMap.build(L, raw)
        vals = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
        w = pm_write_finite(m, vals)
        for i, v in enumerate(vals):
            assert pm_eval(w, nat(i)) == v
        for p in probe_grid(L, m, w):
            if nat(len(vals)) <= p:
                assert pm_eval(w, p) == eval_raw(raw, p)
    assert pm_write_finite(m, []) == m


def test_restriction_of_equal_maps_is_equal():
    # restriction respects canonical equality (used by level grids everywhere)
    rng = random.Random(112)
    for _ in range(100):
        raw = rand_raw(rng, L)
        m1 = PatternMap.build(L, raw)
        m2 = PatternMap.build(L, list(reversed(raw)))
        assert m1 == m2
        for a in (OMEGA, omega_times(2), omega_times(3, 4)):
            assert pm_restrict(m1, a) == pm_restrict(m2, a)


# --- canonical fast paths against PatternMap.build ------------------------------
# pm_restrict, pm_value_set and pm_map read or copy canonical pieces instead of
# canonicalising again; each is compared with the build-based definition on
# bounds past w^2 and cuts at non-natural block indices.

PROPS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def canonical_maps(alphabet=(0, 1, 2)):
    return raw_pieces(alphabet=alphabet).map(lambda br: PatternMap.build(*br))


def restrict_by_build(m, a):
    kept = [Piece(p.lo, min(a, p.hi), p.limit_value, p.word) for p in m.pieces if p.lo < a]
    return PatternMap.build(a, kept)


def map_by_build(m, f):
    return PatternMap.build(
        m.bound, [Piece(p.lo, p.hi, f(p.limit_value), tuple(map(f, p.word))) for p in m.pieces]
    )


CUT_KINDS = {
    "zero": lambda b: [ZERO],
    "limit": lambda b: [o for o in GRID[b] if o.is_limit()],
    "successor": lambda b: [o for o in GRID[b] if o.is_successor()],
    "bound": lambda b: [b],
}


@pytest.mark.parametrize("kind", sorted(CUT_KINDS))
@PROPS
@given(m=canonical_maps(), data=st.data())
def test_restrict_matches_build(kind, m, data):
    cuts = CUT_KINDS[kind](m.bound)
    assume(cuts)
    a = data.draw(st.sampled_from(cuts))
    r = pm_restrict(m, a)
    assert r.bound == a
    assert r == restrict_by_build(m, a)


def test_restrict_at_non_natural_block_index():
    # w^2+w*2+3 sits in block w+2; pieces crossing w^2+w*2, a prefix block at
    # w^2+w*2 and a run merged across w^2 are all cut there
    a = L + omega_times(2, 3)
    raws = [
        [(ZERO, OMEGA_CUBE, 1, (0, 1))],
        [(ZERO, L, 0, (1,)), (L, L + OMEGA, 0, (1,)), (L + OMEGA, OMEGA_CUBE, 1, (0,))],
        [(ZERO, L + omega_times(2, 2), 0, (0,)), (L + omega_times(2, 2), OMEGA_CUBE, 1, (1, 0, 0))],
        [(ZERO, L + omega_times(2, 5), 2, (2, 1)), (L + omega_times(2, 5), OMEGA_CUBE, 0, (0,))],
    ]
    for raw in raws:
        m = PatternMap.build(OMEGA_CUBE, raw)
        r = pm_restrict(m, a)
        assert r == restrict_by_build(m, a)
        for p in probe_grid(a, r):
            assert pm_eval(r, p) == eval_raw(raw, p)


@PROPS
@given(m=canonical_maps())
def test_value_set_matches_census(m):
    assert pm_value_set(m) == frozenset(pm_value_census(m))


ONE_TO_ONE = [lambda v: v + 1, lambda v: 2 - v, lambda v: (v, "tag")]
MANY_TO_ONE = [lambda v: v % 2, lambda v: 0, lambda v: min(v, 1)]


@PROPS
@given(m=canonical_maps(), f=st.sampled_from(ONE_TO_ONE + MANY_TO_ONE))
def test_map_matches_build(m, f):
    mm = pm_map(m, f)
    assert mm == map_by_build(m, f)
    assert pm_value_set(mm) == frozenset(f(v) for v in pm_value_set(m))


@PROPS
@given(m=canonical_maps(), data=st.data())
def test_head_matches_eval(m, data):
    top = m.bound.to_nat() if m.bound.is_nat() else 12
    k = data.draw(st.integers(0, top))
    assert pm_head(m, k) == tuple(pm_eval(m, nat(i)) for i in range(k))
    if m.bound.is_nat():
        with pytest.raises(PatternError):
            pm_head(m, top + 1)


# --- build-free finite writes against PatternMap.build ----------------------------
# pm_write_finite rebuilds block 0 only, pm_splice at a natural cut is such a
# write, and word_from_bits makes its one piece directly; each is compared with
# the build of the written raw pieces, on bounds from 1 to w^3 and cuts at
# non-natural block indices (w^2+w*j+n).


def written_raw(raw, head_raw, k):
    """head_raw on [0, k), then raw's pieces cut to start at k."""
    kk = nat(k)
    tail = [(max(lo, kk), hi, lv, word) for lo, hi, lv, word in raw if kk < hi]
    return head_raw + tail


def head_pieces(values):
    k = len(values)
    head = [(ZERO, ONE, values[0], (values[0],))]
    if k > 1:
        head.append((ONE, nat(k), 0, tuple(values[1:])))
    return head


@PROPS
@given(br=raw_pieces(bounds=WRITE_BOUNDS, alphabet=(0, 1)), data=st.data())
def test_write_finite_matches_build(br, data):
    bound, raw = br
    m = PatternMap.build(bound, raw)
    top = bound.to_nat() if bound.is_nat() else 12
    values = data.draw(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=top))
    if not bound.is_nat() and data.draw(st.booleans()):
        # successor values that follow block 0's tail (raw words have at most
        # 3 letters and cuts nat parts at most 3): the written block has no
        # prefix and may join the run at w
        values[1:] = [pm_eval(m, nat(n + 12)) for n in range(1, len(values))]
    w = pm_write_finite(m, values)
    want = PatternMap.build(bound, written_raw(raw, head_pieces(values), len(values)))
    assert (w.bound, w.pieces) == (want.bound, want.pieces)


@PROPS
@given(br=raw_pieces(bounds=WRITE_BOUNDS, alphabet=(0, 1)), data=st.data())
def test_splice_at_a_natural_cut_matches_build(br, data):
    bound, raw = br
    m = PatternMap.build(bound, raw)
    k = data.draw(st.integers(0, bound.to_nat() if bound.is_nat() else 12))
    head_raw = []
    if k:
        cuts = data.draw(st.sets(st.integers(1, k), max_size=3)) - {k}
        edges = [0] + sorted(cuts) + [k]
        for lo, hi in zip(edges, edges[1:]):
            lv = data.draw(st.sampled_from((0, 1, 2)))
            word = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=3))
            head_raw.append((nat(lo), nat(hi), lv, tuple(word)))
    s = pm_splice(m, nat(k), PatternMap.build(nat(k), head_raw))
    want = PatternMap.build(bound, written_raw(raw, head_raw, k))
    assert (s.bound, s.pieces) == (want.bound, want.pieces)


@PROPS
@given(values=st.lists(st.sampled_from((0, 1)), max_size=12))
def test_word_from_bits_matches_build(values):
    w = word_from_bits(values)
    want = PatternMap.build(nat(len(values)), head_pieces(values) if values else [])
    assert (w.bits.bound, w.bits.pieces) == (want.bound, want.pieces)
    assert word_values(w) == tuple(values)
    # the word is the shortest that repeats the successor values
    succ = values[1:]
    if succ:
        periods = range(1, len(succ) + 1)
        period = min(p for p in periods if all(v == succ[i % p] for i, v in enumerate(succ)))
        assert w.bits.pieces[0].word == tuple(succ[:period])


@PROPS
@given(br=raw_pieces(bounds=WRITE_BOUNDS), data=st.data())
def test_build_matches_refined_build_and_raw_values(br, data):
    bound, raw = br
    m = PatternMap.build(bound, raw)
    # splitting pieces anywhere leaves the function, so the build, unchanged
    grid = GRID[bound]
    splits = data.draw(st.sets(st.sampled_from(grid), max_size=4)) if grid else set()
    refined = []
    for lo, hi, lv, word in raw:
        mids = sorted((o for o in splits if lo < o and o < hi), key=lambda o: o.terms)
        edges = [lo] + mids + [hi]
        refined += [(a, b, lv, word) for a, b in zip(edges, edges[1:])]
    assert PatternMap.build(bound, refined).pieces == m.pieces
    assert PatternMap.build(bound, m.pieces).pieces == m.pieces
    for a in probe_grid(bound, m):
        assert pm_eval(m, a) == eval_raw(raw, a)


def test_write_finite_joins_only_a_run_at_omega():
    # block 0 becomes lim 0, all ones; at w sits a run, a prefix piece or a
    # partial piece with that same limit value and word
    w2 = omega_times(2)
    cases = [
        ((w2, [(ZERO, OMEGA, 1, (1,)), (OMEGA, w2, 0, (1,))]), [(ZERO, w2, 0, (1,))]),
        (
            (w2, [(ZERO, OMEGA, 1, (1,)), (OMEGA, OMEGA + 2, 0, (1,)), (OMEGA + 2, w2, 0, (0,))]),
            [(ZERO, OMEGA, 0, (1,)), (OMEGA, OMEGA + 2, 0, (1,)), (OMEGA + 2, w2, 0, (0,))],
        ),
        (
            (OMEGA + 3, [(ZERO, OMEGA, 1, (1,)), (OMEGA, OMEGA + 3, 0, (1,))]),
            [(ZERO, OMEGA, 0, (1,)), (OMEGA, OMEGA + 3, 0, (1,))],
        ),
    ]
    for (bound, raw), pieces in cases:
        w = pm_write_finite(PatternMap.build(bound, raw), [0])
        assert w.pieces == tuple(Piece(*p) for p in pieces)
        assert w == PatternMap.build(bound, written_raw(raw, head_pieces([0]), 1))


# --- the kept open serial ----------------------------------------------------
# pm_serial keeps the open-ended serial (every point key is built on it) in
# the map and renders it once; ordinals keep their text in a bounded cache.
# Both are checked against the rendering written out from its definition.


def text_by_definition(v) -> str:
    if not isinstance(v, Ordinal):
        return str(v)
    if v.is_zero():
        return "0"
    parts = []
    for e, c in v.terms:
        if e == 0:
            parts.append(str(c))
        else:
            base = "w" if e == 1 else f"w^{e}"
            parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def serial_by_definition(m: PatternMap, open_ended: bool) -> str:
    t = text_by_definition
    last = len(m.pieces) - 1
    return ";".join(
        f"{t(p.limit_value)}:{','.join(map(t, p.word))}@{t(p.lo)}.."
        + ("" if open_ended and i == last else t(p.hi))
        for i, p in enumerate(m.pieces)
    )


ORD_ALPHABET = (nat(0), nat(3), OMEGA, omega_times(2, 1), L)


@PROPS
@given(br=st.one_of(raw_pieces(), raw_pieces(alphabet=ORD_ALPHABET)))
def test_open_serial_is_kept_faithfully(br):
    closed_first, open_first = PatternMap.build(*br), PatternMap.build(*br)
    assert closed_first is not open_first
    closed = pm_serial(closed_first)
    key = pm_serial(open_first, True)
    assert pm_serial(closed_first, True) == key == serial_by_definition(open_first, True)
    assert closed == pm_serial(open_first) == serial_by_definition(closed_first, False)
    assert pm_serial(open_first, True) is key


# --- the one-pass block description --------------------------------------------
# _describe reads the sorted pieces once; the old definition, kept in
# _oracles as the oracle, read them again from the start for every cut
# block.  Both are compared on raw piece lists and on canonical ones.


@PROPS
@given(br=st.one_of(raw_pieces(bounds=WRITE_BOUNDS), raw_pieces(bounds=WRITE_BOUNDS, alphabet=ORD_ALPHABET)))
def test_one_pass_describe_matches_the_cut_block_definition(br):
    bound, raw = br
    pieces = tuple(Piece(*p) for p in raw)
    assert _describe(bound, pieces) == describe_by_cut_blocks(bound, pieces)
    canonical = PatternMap.build(bound, raw).pieces
    assert _describe(bound, canonical) == describe_by_cut_blocks(bound, canonical)
    assert _describe(ZERO, ()) == describe_by_cut_blocks(ZERO, ())
