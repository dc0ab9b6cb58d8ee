"""Seeded random generation of points, and the relation-aware pair builders.

The raw material is here: ordinals, pattern maps, words and points of every
space, drawn from a `random.Random`.  Each relation kind in `relations`
builds its own equivalent point (`edit`) and separated pair (`separated`)
from it.  The three pair builders dispatch to the kind: `equivalent_pair`
produces pairs that are equivalent by construction, `inequivalent_pair`
pairs that are inequivalent by construction, and `sample_pair` mixes both
with fully independent draws.  No builder consults a decider, so tests
comparing them against `decide` are honest two-route checks.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Tuple

from .ordinals import OMEGA_SQ, ZERO, Ordinal, nat, omega_times
from .patterns import PatternMap, pm_write_finite
from .spaces import (
    BitSpace,
    Bits,
    Family,
    FamilyOf,
    FiniteWord,
    OrdSpace,
    Ords,
    Point,
    SpaceDescriptor,
    Tagged,
    TaggedSum,
    TowerSum,
    family_power,
    word_from_bits,
)


# ---------------------------------------------------------------------------
# raw material
# ---------------------------------------------------------------------------


def gen_ordinal(rng: random.Random, qcap: int = 8, ncap: int = 8) -> Ordinal:
    return omega_times(rng.randint(0, qcap), rng.randint(0, ncap))


def gen_limit(rng: random.Random, qcap: int = 6) -> Ordinal:
    return omega_times(rng.randint(1, qcap))


@lru_cache(maxsize=64)
def _cut_candidates(bound: Ordinal) -> Tuple[Ordinal, ...]:
    """The positions w*q + n strictly between 0 and bound with n below 9 and
    q at most 8 (or bound's block index, when that is finite)."""
    blk = bound.block_index()
    bq = blk.to_nat() if blk.is_nat() else 8
    cand = []
    for q in range(bq + 1):
        top = 9 if q < bq else min(9, bound.nat_part())
        for n in range(top):
            o = omega_times(q, n)
            if ZERO < o and o < bound:
                cand.append(o)
    return tuple(cand)


def gen_pattern(rng: random.Random, bound: Ordinal, alphabet, max_pieces: int = 5) -> PatternMap:
    """Random canonical map: a handful of pieces with short words, boundary
    nat parts below 9."""
    alphabet = list(alphabet)
    cand = _cut_candidates(bound)
    k = rng.randint(0, min(max_pieces - 1, len(cand)))
    cuts = sorted(rng.sample(cand, k))
    edges = [ZERO] + cuts + [bound]
    raw = []
    for lo, hi in zip(edges, edges[1:]):
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        raw.append((lo, hi, rng.choice(alphabet), word))
    return PatternMap.build(bound, raw)


def gen_bits(rng: random.Random, bound: Ordinal = OMEGA_SQ) -> Bits:
    return Bits(gen_pattern(rng, bound, (0, 1)))


ORD_VALUES = (nat(0), nat(1), nat(2), nat(5), omega_times(1), omega_times(1, 1), omega_times(2))


def gen_ords(rng: random.Random, bound: Ordinal = OMEGA_SQ) -> Ords:
    return Ords(gen_pattern(rng, bound, ORD_VALUES))


def gen_word(rng: random.Random, max_dom: int = 7) -> FiniteWord:
    return word_from_bits([rng.randint(0, 1) for _ in range(rng.randint(0, max_dom - 1))])


def gen_family(
    rng: random.Random,
    inner: SpaceDescriptor,
    bound: Ordinal = OMEGA_SQ,
    max_components: int = 3,
) -> Family:
    k = rng.randint(1, max_components)
    comps = [gen_point(rng, inner, bound) for _ in range(k)]
    return Family(comps, gen_pattern(rng, bound, range(k)))


def gen_point(rng: random.Random, sd: SpaceDescriptor, bound: Ordinal = OMEGA_SQ) -> Point:
    if isinstance(sd, BitSpace):
        return gen_bits(rng, bound)
    if isinstance(sd, OrdSpace):
        return gen_ords(rng, bound)
    if isinstance(sd, FamilyOf):
        return gen_family(rng, sd.inner, bound)
    if isinstance(sd, TaggedSum):
        tag = rng.randrange(len(sd.parts))
        return Tagged(nat(tag), gen_point(rng, sd.parts[tag], bound))
    if isinstance(sd, TowerSum):
        tag = rng.randint(0, 2)
        return Tagged(nat(tag), gen_point(rng, family_power(sd.base, tag), bound))
    raise TypeError(f"no generator for space {sd!r}")


def covering_assignment(rng: random.Random, bound: Ordinal, count: int) -> PatternMap:
    """Random assignment referencing every index in range(count)."""
    base = gen_pattern(rng, bound, range(count))
    prefix = list(range(count))
    rng.shuffle(prefix)
    return pm_write_finite(base, prefix)


def fresh_point(rng: random.Random, sd: SpaceDescriptor, avoid, bound: Ordinal = OMEGA_SQ) -> Point:
    """A random point of sd equal to none in avoid."""
    while True:
        c = gen_point(rng, sd, bound)
        if all(c != a for a in avoid):
            return c


# ---------------------------------------------------------------------------
# certified pairs
# ---------------------------------------------------------------------------


def equivalent_pair(rng: random.Random, rel) -> Tuple[Point, Point]:
    x = gen_point(rng, rel.space)
    return x, rel.kind.edit(rng, rel.space, x)


def related_triple(rng: random.Random, rel) -> Tuple[Point, Point, Point]:
    x = gen_point(rng, rel.space)
    y = rel.kind.edit(rng, rel.space, x)
    z = rel.kind.edit(rng, rel.space, y)
    return x, y, z


def inequivalent_pair(rng: random.Random, rel) -> Tuple[Point, Point]:
    """A pair that rel separates, by construction."""
    return rel.kind.separated(rng, rel.space)


def sample_pair(rng: random.Random, rel) -> Tuple[Point, Point]:
    r = rng.random()
    if r < 0.4:
        return equivalent_pair(rng, rel)
    if r < 0.7:
        return inequivalent_pair(rng, rel)
    return gen_point(rng, rel.space), gen_point(rng, rel.space)
