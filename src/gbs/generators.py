"""Seeded random generation of points and relation-aware pairs.

Three pair builders per relation: `equivalent_pair` produces pairs that are
equivalent by construction (via `equivalence_edit`), `inequivalent_pair`
produces pairs that are inequivalent by construction, and `sample_pair`
mixes both with fully independent draws.  The certified builders never
consult the deciders, so tests comparing them against `decide` are honest
two-route checks.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .ordinals import OMEGA_SQ, ZERO, Ordinal, nat, omega_times
from .patterns import (
    PatternMap,
    pm_eval,
    pm_map,
    pm_restrict,
    pm_splice,
    pm_write_finite,
    pm_zip,
)
from .relations import (
    Cub,
    E0,
    E1,
    E1Approx,
    EqRelHandle,
    Id,
    IdPlus,
    IdPlusStar,
    Join,
    Jump,
    TowerJoin,
    make_tower,
)
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
    xor_prefix,
)


# ---------------------------------------------------------------------------
# raw material
# ---------------------------------------------------------------------------


def gen_ordinal(rng: random.Random, qcap: int = 8, ncap: int = 8) -> Ordinal:
    return omega_times(rng.randint(0, qcap), rng.randint(0, ncap))


def gen_limit(rng: random.Random, qcap: int = 6) -> Ordinal:
    return omega_times(rng.randint(1, qcap))


def gen_pattern(rng: random.Random, bound: Ordinal, alphabet, max_pieces: int = 5) -> PatternMap:
    """Random canonical map: a handful of pieces with short words, boundary
    nat parts below 9."""
    alphabet = list(alphabet)
    blk = bound.block_index()
    bq = blk.to_nat() if blk.is_nat() else 8
    cand = []
    for q in range(bq + 1):
        top = 9 if q < bq else min(9, bound.nat_part())
        for n in range(top):
            o = omega_times(q, n)
            if ZERO < o and o < bound:
                cand.append(o)
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


_ORD_VALUES = (nat(0), nat(1), nat(2), nat(5), omega_times(1), omega_times(1, 1), omega_times(2))


def gen_ords(rng: random.Random, bound: Ordinal = OMEGA_SQ) -> Ords:
    return Ords(gen_pattern(rng, bound, _ORD_VALUES))


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
        tag = rng.randrange(sd.count)
        return Tagged(nat(tag), gen_point(rng, sd.parts[tag], bound))
    if isinstance(sd, TowerSum):
        tag = rng.randint(0, 2)
        return Tagged(nat(tag), gen_point(rng, family_power(sd.base, tag), bound))
    raise TypeError(f"no generator for space {sd!r}")


def _covering_assignment(rng: random.Random, bound: Ordinal, count: int) -> PatternMap:
    """Random assignment referencing every index in range(count)."""
    base = gen_pattern(rng, bound, range(count))
    prefix = list(range(count))
    rng.shuffle(prefix)
    return pm_write_finite(base, prefix)


# ---------------------------------------------------------------------------
# equivalence-preserving edits
# ---------------------------------------------------------------------------


def equivalence_edit(rng: random.Random, rel: EqRelHandle, x: Point) -> Point:
    """A point equivalent to x under rel, by construction."""
    kind = rel.kind
    if isinstance(kind, Id):
        return x
    if isinstance(kind, E0):
        if isinstance(x, Bits):
            return xor_prefix(gen_word(rng), x)
        vals = [rng.choice(_ORD_VALUES) for _ in range(rng.randint(0, 5))]
        return Ords(pm_write_finite(x.seq, vals))
    if isinstance(kind, (E1, E1Approx)):
        return _edit_e1(rng, x, kind.level if isinstance(kind, E1Approx) else None)
    if isinstance(kind, IdPlus):
        k = len(x.components)
        if k == 0:
            return x
        return Family(x.components, _covering_assignment(rng, x.bound, k))
    if isinstance(kind, IdPlusStar):
        m = rng.randint(2, 9)
        vals = [pm_eval(x.assignment, nat(i)) for i in range(m)]
        rng.shuffle(vals)
        return Family(x.components, pm_write_finite(x.assignment, vals))
    if isinstance(kind, Cub):
        return _edit_cub(rng, x, kind.params.mode)
    if isinstance(kind, Jump):
        comps = [equivalence_edit(rng, kind.inner, c) for c in x.components]
        if comps and rng.random() < 0.4:
            comps.append(equivalence_edit(rng, kind.inner, rng.choice(x.components)))
        if not comps:
            return x
        return Family(comps, _covering_assignment(rng, x.bound, len(comps)))
    if isinstance(kind, Join):
        part = kind.parts[x.tag.to_nat()]
        return Tagged(x.tag, equivalence_edit(rng, part, x.payload))
    if isinstance(kind, TowerJoin):
        level = make_tower(kind.base, x.tag)
        return Tagged(x.tag, equivalence_edit(rng, level, x.payload))
    raise TypeError(f"no edit for kind {kind!r}")


def _edit_e1(rng: random.Random, x: Family, level: Optional[Ordinal]) -> Family:
    bound = x.bound
    if level is None:
        cut = gen_limit(rng, 6)
    else:
        # disagreement must stay bounded strictly below the level
        top = level.block_index()
        qcap = top.to_nat() if top.is_nat() else 6
        cut = omega_times(rng.randint(0, max(0, qcap - 1)))
    comps: List[Point] = list(x.components)
    extra = rng.randint(0, 2) if cut > ZERO else 0
    for _ in range(extra):
        comps.append(gen_bits(rng, bound))
    if not comps:
        return x
    assignment = x.assignment
    if cut > ZERO:
        head = gen_pattern(rng, cut, range(len(comps)))
        assignment = pm_splice(assignment, cut, head)
    y = Family(comps, assignment)
    if level is not None and level < bound and rng.random() < 0.5:
        # anything above the approximation level is invisible to it
        comps2 = list(y.components) + [gen_bits(rng, bound)]
        tail = gen_pattern(rng, bound, range(len(comps2)))
        return Family(comps2, pm_splice(tail, level, pm_restrict(y.assignment, level)))
    return y


def _edit_cub(rng: random.Random, x: Point, mode: str):
    # Literal agreement (unbounded set) is only transitive along a shared
    # witness, so Literal edits never touch even successors; Structural
    # edits never touch limits, which chains soundly on its own.
    shape = gen_pattern(rng, x.bound, (0, 1))
    if mode == "Literal":
        pieces = [
            (p.lo, p.hi, rng.randint(0, 1), (rng.randint(0, 1), 0)) for p in shape.pieces
        ]
    else:
        pieces = [(p.lo, p.hi, 0, p.word) for p in shape.pieces]
    noise = PatternMap.build(x.bound, pieces)
    if isinstance(x, Bits):
        return Bits(pm_zip(x.seq, noise, lambda a, b: a ^ b))
    return Ords(pm_zip(x.seq, noise, lambda a, b: a + 1 if b else a))


# ---------------------------------------------------------------------------
# certified pairs
# ---------------------------------------------------------------------------


def equivalent_pair(rng: random.Random, rel: EqRelHandle) -> Tuple[Point, Point]:
    x = gen_point(rng, rel.space)
    return x, equivalence_edit(rng, rel, x)


def related_triple(rng: random.Random, rel: EqRelHandle) -> Tuple[Point, Point, Point]:
    x = gen_point(rng, rel.space)
    y = equivalence_edit(rng, rel, x)
    z = equivalence_edit(rng, rel, y)
    return x, y, z


def _distinct_bits(rng: random.Random, bound: Ordinal, avoid=()) -> Bits:
    while True:
        c = gen_bits(rng, bound)
        if all(c != a for a in avoid):
            return c


def inequivalent_pair(rng: random.Random, rel: EqRelHandle) -> Tuple[Point, Point]:
    """A pair that rel separates, by construction."""
    kind = rel.kind
    bound = OMEGA_SQ
    if isinstance(kind, Id):
        x = gen_point(rng, rel.space)
        while True:
            y = gen_point(rng, rel.space)
            if y != x:
                return x, y
    if isinstance(kind, E0):
        if isinstance(rel.space, BitSpace):
            x = gen_bits(rng, bound)
            every_succ = PatternMap.build(bound, [(ZERO, bound, 0, (1,))])
            return x, Bits(pm_zip(x.seq, every_succ, lambda a, b: a ^ b))
        x = gen_ords(rng, bound)
        return x, Ords(pm_map(x.seq, lambda v: v + 1))
    if isinstance(kind, (E1, E1Approx)):
        c0 = gen_bits(rng, bound)
        # differ already at position 0, so any limit-level restriction keeps
        # the two components distinct
        c1 = xor_prefix(word_from_bits([1]), c0)
        if rng.random() < 0.5:
            x = Family([c0], PatternMap.constant(bound, 0))
            y = Family([c1], PatternMap.constant(bound, 0))
        else:
            # same components, phase-shifted alternation: disagreement at
            # every odd position of every block
            x = Family([c0, c1], PatternMap.build(bound, [(ZERO, bound, 0, (0, 1))]))
            y = Family([c0, c1], PatternMap.build(bound, [(ZERO, bound, 0, (1, 0))]))
        return x, y
    if isinstance(kind, IdPlus):
        x = gen_family(rng, rel.space.inner, bound)
        fresh = _fresh_component(rng, rel.space.inner, x.components, bound)
        comps = list(x.components) + [fresh]
        y = Family(comps, pm_write_finite(x.assignment, [len(comps) - 1]))
        return x, y
    if isinstance(kind, IdPlusStar):
        a = gen_point(rng, rel.space.inner, bound)
        b = _fresh_component(rng, rel.space.inner, (a,), bound)
        hold_b = PatternMap.constant(bound, 1)
        x = Family([a, b], pm_write_finite(hold_b, [0, 0]))
        y = Family([a, b], pm_write_finite(hold_b, [0, 0, 0, 0, 0]))
        return x, y
    if isinstance(kind, Cub):
        if kind.params.value_space == "binary":
            x = gen_bits(rng, bound)
            if kind.params.mode == "Literal":
                return x, Bits(pm_map(x.seq, lambda v: 1 - v))
            limits = PatternMap.build(bound, [(ZERO, bound, 1, (0,))])
            return x, Bits(pm_zip(x.seq, limits, lambda a, b: a ^ b))
        x = gen_ords(rng, bound)
        if kind.params.mode == "Literal":
            return x, Ords(pm_map(x.seq, lambda v: v + 1))
        limits = PatternMap.build(bound, [(ZERO, bound, 1, (0,))])
        return x, Ords(pm_zip(x.seq, limits, lambda a, b: a + 1 if b else a))
    if isinstance(kind, Jump):
        c0, c1 = inequivalent_pair(rng, kind.inner)
        x = Family([c0], PatternMap.constant(bound, 0))
        y = Family([c1], PatternMap.constant(bound, 0))
        return x, y
    if isinstance(kind, Join):
        if len(kind.parts) >= 2:
            i, j = rng.sample(range(len(kind.parts)), 2)
            return (
                Tagged(nat(i), gen_point(rng, kind.parts[i].space)),
                Tagged(nat(j), gen_point(rng, kind.parts[j].space)),
            )
        x0, y0 = inequivalent_pair(rng, kind.parts[0])
        return Tagged(ZERO, x0), Tagged(ZERO, y0)
    if isinstance(kind, TowerJoin):
        i = rng.randint(0, 2)
        j = (i + 1 + rng.randint(0, 1)) % 3
        return (
            Tagged(nat(i), gen_point(rng, family_power(kind.base.space, i))),
            Tagged(nat(j), gen_point(rng, family_power(kind.base.space, j))),
        )
    raise TypeError(f"no separated pair for kind {kind!r}")


def _fresh_component(rng, inner, avoid, bound):
    while True:
        c = gen_point(rng, inner, bound)
        if all(c != a for a in avoid):
            return c


def sample_pair(rng: random.Random, rel: EqRelHandle) -> Tuple[Point, Point]:
    r = rng.random()
    if r < 0.4:
        return equivalent_pair(rng, rel)
    if r < 0.7:
        return inequivalent_pair(rng, rel)
    return gen_point(rng, rel.space), gen_point(rng, rel.space)
