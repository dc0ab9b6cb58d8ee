"""Hypothesis strategies shared by the property tests: maps, pairs of maps
and families built from raw (pre-canonical) pieces, with cuts anywhere on
the coefficient-3 grid, so at non-natural block indices past w^2 too."""

from __future__ import annotations

from typing import Iterator

from hypothesis import strategies as st

from gbs.ordinals import OMEGA, OMEGA_SQ, ZERO, Ordinal, nat, omega_times
from gbs.patterns import PatternMap
from gbs.spaces import Bits, Family


def iter_below(bound: Ordinal, coeff_cap: int) -> Iterator[Ordinal]:
    """Enumerate the finite grid of ordinals below `bound` whose CNF
    coefficients are all <= coeff_cap and exponents <= bound's lead exponent.

    The full set below a transfinite bound is infinite; this is the standard
    desk-scale subgrid used by exhaustive arithmetic checks.
    """
    if bound.is_zero():
        return
    max_e = bound[0][0]

    def build(e: int, acc: tuple) -> Iterator[Ordinal]:
        if e < 0:
            o = Ordinal(acc)
            if o < bound:
                yield o
            return
        yield from build(e - 1, acc)
        for c in range(1, coeff_cap + 1):
            yield from build(e - 1, acc + ((e, c),))

    yield from build(max_e, ())


L = OMEGA_SQ
OMEGA_CUBE = Ordinal(((3, 1),))
FAST_BOUNDS = [
    nat(5),
    OMEGA,
    omega_times(2, 3),
    omega_times(4),
    L,
    L + 3,
    L + OMEGA + 2,
    OMEGA_CUBE,
    OMEGA_CUBE + omega_times(2),
]
# the finite writes also meet w+n and w^2+w*2 as bounds
WRITE_BOUNDS = FAST_BOUNDS + [nat(1), OMEGA + 2, L + omega_times(2)]
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
# the tail deciders meet every bound shape: successor, w*gamma with gamma a
# successor, and w*gamma with gamma a limit (w^2, w^2*2, w^3)
PAIR_BOUNDS = FAST_BOUNDS + [Ordinal(((2, 2),))]
# positions below each bound with every CNF coefficient <= 3, zero excluded
GRID = {
    b: [o for o in iter_below(b, 3) if not o.is_zero()]
    for b in set(WRITE_BOUNDS + E1_BOUNDS + PAIR_BOUNDS)
}


@st.composite
def raw_pieces(draw, bounds=FAST_BOUNDS, alphabet=(0, 1, 2)):
    """(bound, raw piece list) with cuts anywhere on the coefficient-3 grid."""
    bound = draw(st.sampled_from(bounds))
    grid = GRID[bound]
    cuts = draw(st.sets(st.sampled_from(grid), max_size=5)) if grid else set()
    edges = [ZERO] + sorted(cuts, key=lambda o: o.terms) + [bound]
    raw = []
    for lo, hi in zip(edges, edges[1:]):
        lv = draw(st.sampled_from(alphabet))
        word = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=3))
        raw.append((lo, hi, lv, tuple(word)))
    return bound, raw


def _clip(raw, cut):
    """The raw pieces below cut."""
    return [(lo, min(hi, cut), lv, w) for lo, hi, lv, w in raw if lo < cut]


def _above(raw, cut):
    """The raw pieces from cut up."""
    return [(max(lo, cut), hi, lv, w) for lo, hi, lv, w in raw if cut < hi]


@st.composite
def _raw(draw, bound, alphabet, max_cuts=4):
    cuts = draw(st.sets(st.sampled_from(GRID[bound]), max_size=max_cuts))
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
        cut = draw(st.sampled_from(GRID[bound] + [bound]))
        own = draw(_raw(bound, (0, 1)))
        comps.append(Bits(PatternMap.build(bound, _clip(base, cut) + _above(own, cut))))
    asg = PatternMap.build(bound, draw(_raw(bound, range(len(comps)))))
    return Family(comps, asg)


@st.composite
def _raw_pair(draw, bound, alphabet):
    """Two raw piece lists: the second is drawn on its own, or keeps the
    first on one side of a drawn cut and has its own pieces on the other."""
    x = draw(_raw(bound, alphabet))
    own = draw(_raw(bound, alphabet))
    cut = draw(st.sampled_from(GRID[bound] + [bound]))
    shape = draw(st.sampled_from(("own", "head", "tail")))
    if shape == "own":
        return x, own
    if shape == "head":
        return x, _clip(x, cut) + _above(own, cut)
    return x, _clip(own, cut) + _above(x, cut)


@st.composite
def raw_point_pairs(draw, point, alphabet):
    """(x, y) of one sequence shape from a raw pair at a PAIR_BOUNDS bound."""
    bound = draw(st.sampled_from(PAIR_BOUNDS))
    x, y = draw(_raw_pair(bound, alphabet))
    return point(PatternMap.build(bound, x)), point(PatternMap.build(bound, y))


@st.composite
def raw_family_pairs(draw):
    """(x, y) families over one pool of raw bit components; y lists the pool
    in reverse, so equal components sit at different indices."""
    bound = draw(st.sampled_from(PAIR_BOUNDS))
    k = draw(st.integers(2, 3))
    comps = [Bits(PatternMap.build(bound, draw(_raw(bound, (0, 1))))) for _ in range(k)]
    ax, ay = draw(_raw_pair(bound, range(k)))
    ay = [(lo, hi, k - 1 - lv, tuple(k - 1 - i for i in w)) for lo, hi, lv, w in ay]
    return (
        Family(comps, PatternMap.build(bound, ax)),
        Family(comps[::-1], PatternMap.build(bound, ay)),
    )
