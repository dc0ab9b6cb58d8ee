"""The catalog of equivalence relations, one class per relation kind.

Every relation is a handle: a kind plus the space descriptor its points
inhabit.  Each kind class below is the one definition of its kind:

  name, head  its text in `str(rel)` and its document-language head word
  check       rejects a space the kind does not live on
  decide      its decider, total on valid points and pure
  edit        a point equivalent to a given one, by construction
  separated   a pair the kind separates, by construction
  args        what the document form writes after the head

`edit` and `separated` never call a decider, so tests comparing them with
`decide` are honest two-route checks.  The module-level `decide` validates
both points against the handle's space and against each other's bound, once;
nested kinds call the inner kind's decider directly.

Two deciders deserve a note.  E_cub carries a mode: Literal reads the
definition verbatim (the agreement set is unbounded, which at a countable
domain is all a cub can mean), Structural asks for agreement on every limit
position above some bound, which is how the cub filter behaves over a
regular uncountable domain.  id+* matches component index sets by
cardinality class (equal finite count, or both infinite); over a countable
index domain every infinite class has the same size, so a permutation
witness exists exactly when the classes line up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .generators import (
    ORD_VALUES,
    covering_assignment,
    fresh_point,
    gen_bits,
    gen_family,
    gen_limit,
    gen_pattern,
    gen_point,
    gen_word,
)
from .ordinals import OMEGA_SQ, ZERO, Ordinal, nat, omega_times
from .patterns import (
    PatternMap,
    pm_eval,
    pm_map,
    pm_restrict,
    pm_splice,
    pm_support_analysis,
    pm_value_census,
    pm_write_finite,
    pm_zip,
)
from .spaces import (
    BITS,
    ORDS,
    Bits,
    Family,
    FamilyOf,
    Ords,
    Point,
    SpaceDescriptor,
    SpaceError,
    Tagged,
    TaggedSum,
    TowerSum,
    diff_map,
    family_power,
    validate_point,
    word_from_bits,
    xor_prefix,
)

L = OMEGA_SQ  # the bound of every separated pair


class RelationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------


class RelKind:
    """A relation kind; the subclasses below are the catalogue."""

    name = ""
    head = ""

    def __str__(self) -> str:
        return self.name

    def check(self, space: SpaceDescriptor) -> None:
        pass

    def args(self, space: SpaceDescriptor) -> tuple:
        return ()


@dataclass(frozen=True)
class EqRelHandle:
    kind: RelKind
    space: SpaceDescriptor

    def __post_init__(self):
        self.kind.check(self.space)

    def __str__(self) -> str:
        return f"{self.kind} on {self.space}"


def check_pair(rel: EqRelHandle, x, y) -> None:
    """The points inhabit the relation's space and share one bound."""
    validate_point(x, rel.space)
    validate_point(y, rel.space)
    if x.bound != y.bound:
        raise SpaceError(f"points with unequal bounds {x.bound} and {y.bound}")


def decide(rel: EqRelHandle, x, y) -> bool:
    check_pair(rel, x, y)
    return rel.kind.decide(x, y)


def _unless_bits(space: SpaceDescriptor) -> tuple:
    """The space as a document argument, left out when it is bits."""
    return () if space == BITS else (space,)


# ---------------------------------------------------------------------------
# the kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Id(RelKind):
    name = head = "id"

    def decide(self, x, y) -> bool:
        return x == y

    def edit(self, rng, space, x):
        return x

    def separated(self, rng, space):
        x = gen_point(rng, space)
        return x, fresh_point(rng, space, (x,))

    def args(self, space):
        return _unless_bits(space)


def rel_id(space: SpaceDescriptor = BITS) -> EqRelHandle:
    return EqRelHandle(Id(), space)


@dataclass(frozen=True)
class E0(RelKind):
    name = head = "e0"

    def check(self, space):
        if space not in (BITS, ORDS):
            raise RelationError(f"e0 lives on bits or ords, not {space}")

    def decide(self, x, y) -> bool:
        return not pm_support_analysis(diff_map(x, y)).unbounded

    def edit(self, rng, space, x):
        if space == BITS:
            return xor_prefix(gen_word(rng), x)
        vals = [rng.choice(ORD_VALUES) for _ in range(rng.randint(0, 5))]
        return Ords(pm_write_finite(x.seq, vals))

    def separated(self, rng, space):
        x = gen_point(rng, space)
        if space == BITS:
            every_succ = PatternMap.build(L, [(ZERO, L, 0, (1,))])
            return x, Bits(pm_zip(x.seq, every_succ, lambda a, b: a ^ b))
        return x, Ords(pm_map(x.seq, lambda v: v + 1))

    def args(self, space):
        return _unless_bits(space)


def rel_e0(space: SpaceDescriptor = BITS) -> EqRelHandle:
    return EqRelHandle(E0(), space)


@dataclass(frozen=True)
class E1(RelKind):
    name = head = "e1"

    def decide(self, x, y) -> bool:
        # E0 on the indexed sequences of components
        return decide_E0(x, y)

    def edit(self, rng, space, x):
        return _edit_e1(rng, x, None)

    def separated(self, rng, space):
        return _e1_separated(rng)


def rel_e1() -> EqRelHandle:
    return EqRelHandle(E1(), FamilyOf(BITS))


@dataclass(frozen=True)
class E1Approx(RelKind):
    level: Ordinal
    head = "e1-approx"

    def __post_init__(self):
        if not self.level.is_limit():
            raise RelationError("approximation level must be a limit")

    def __str__(self) -> str:
        return f"e1[{self.level}]"

    def decide(self, x, y) -> bool:
        if x.bound < self.level:
            raise RelationError(f"approximation level {self.level} exceeds the points' bound {x.bound}")
        return decide_E0(x.restrict(self.level), y.restrict(self.level))

    def edit(self, rng, space, x):
        return _edit_e1(rng, x, self.level)

    def separated(self, rng, space):
        return _e1_separated(rng)

    def args(self, space):
        return (self.level,)


def rel_e1_approx(level: Ordinal) -> EqRelHandle:
    return EqRelHandle(E1Approx(level), FamilyOf(BITS))


def _edit_e1(rng, x: Family, level: Optional[Ordinal]) -> Family:
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


def _e1_separated(rng) -> Tuple[Family, Family]:
    c0 = gen_bits(rng, L)
    # differ already at position 0, so any limit-level restriction keeps the
    # two components distinct
    c1 = xor_prefix(word_from_bits([1]), c0)
    if rng.random() < 0.5:
        return Family([c0], PatternMap.constant(L, 0)), Family([c1], PatternMap.constant(L, 0))
    # same components, phase-shifted alternation: disagreement at every odd
    # position of every block
    return (
        Family([c0, c1], PatternMap.build(L, [(ZERO, L, 0, (0, 1))])),
        Family([c0, c1], PatternMap.build(L, [(ZERO, L, 0, (1, 0))])),
    )


@dataclass(frozen=True)
class IdPlus(RelKind):
    name, head = "id+", "idplus"

    def decide(self, x, y) -> bool:
        # components are referenced, deduplicated, and canonically sorted
        return x.components == y.components

    def edit(self, rng, space, x):
        k = len(x.components)
        if k == 0:
            return x
        return Family(x.components, covering_assignment(rng, x.bound, k))

    def separated(self, rng, space):
        x = gen_family(rng, space.inner, L)
        comps = list(x.components) + [fresh_point(rng, space.inner, x.components, L)]
        return x, Family(comps, pm_write_finite(x.assignment, [len(comps) - 1]))

    def args(self, space):
        return _unless_bits(space.inner)


def rel_idplus(inner: SpaceDescriptor = BITS) -> EqRelHandle:
    return EqRelHandle(IdPlus(), FamilyOf(inner))


@dataclass(frozen=True)
class IdPlusStar(RelKind):
    name, head = "id+*", "idplus-star"

    def decide(self, x, y) -> bool:
        if x.components != y.components:
            return False
        cx = pm_value_census(x.assignment)
        cy = pm_value_census(y.assignment)
        return all(cx.get(i, 0) == cy.get(i, 0) for i in range(len(x.components)))

    def edit(self, rng, space, x):
        m = rng.randint(2, 9)
        vals = [pm_eval(x.assignment, nat(i)) for i in range(m)]
        rng.shuffle(vals)
        return Family(x.components, pm_write_finite(x.assignment, vals))

    def separated(self, rng, space):
        a = gen_point(rng, space.inner, L)
        b = fresh_point(rng, space.inner, (a,), L)
        hold_b = PatternMap.constant(L, 1)
        return (
            Family([a, b], pm_write_finite(hold_b, [0, 0])),
            Family([a, b], pm_write_finite(hold_b, [0, 0, 0, 0, 0])),
        )

    def args(self, space):
        return _unless_bits(space.inner)


def rel_idplus_star(inner: SpaceDescriptor = BITS) -> EqRelHandle:
    return EqRelHandle(IdPlusStar(), FamilyOf(inner))


@dataclass(frozen=True)
class CubParams:
    value_space: str = "binary"
    mode: str = "Structural"

    def __post_init__(self):
        if self.value_space not in ("binary", "ordinal"):
            raise RelationError(f"unknown value space {self.value_space!r}")
        if self.mode not in ("Literal", "Structural"):
            raise RelationError(f"unknown cub mode {self.mode!r}")


@dataclass(frozen=True)
class Cub(RelKind):
    params: CubParams
    head = "cub"

    def __str__(self) -> str:
        return f"cub[{self.params.mode.lower()},{self.params.value_space}]"

    def decide(self, x, y) -> bool:
        agreement = pm_map(diff_map(x, y), lambda v: 1 - v)
        info = pm_support_analysis(agreement)
        if self.params.mode == "Literal":
            return info.unbounded
        return info.final_limit_segment

    def _flip(self):
        """A value change that keeps the point in its space."""
        if self.params.value_space == "binary":
            return lambda v: 1 - v
        return lambda v: v + 1

    def edit(self, rng, space, x):
        # Literal agreement (unbounded set) is only transitive along a shared
        # witness, so Literal edits never touch even successors; Structural
        # edits never touch limits, which chains soundly on its own.
        shape = gen_pattern(rng, x.bound, (0, 1))
        if self.params.mode == "Literal":
            pieces = [
                (p.lo, p.hi, rng.randint(0, 1), (rng.randint(0, 1), 0)) for p in shape.pieces
            ]
        else:
            pieces = [(p.lo, p.hi, 0, p.word) for p in shape.pieces]
        noise = PatternMap.build(x.bound, pieces)
        flip = self._flip()
        return type(x)(pm_zip(x.seq, noise, lambda a, b: flip(a) if b else a))

    def separated(self, rng, space):
        x = gen_point(rng, space)
        flip = self._flip()
        if self.params.mode == "Literal":
            return x, type(x)(pm_map(x.seq, flip))
        limits = PatternMap.build(L, [(ZERO, L, 1, (0,))])
        return x, type(x)(pm_zip(x.seq, limits, lambda a, b: flip(a) if b else a))

    def args(self, space):
        return (self.params.mode.lower(), self.params.value_space)


def rel_cub(mode: str = "Structural", value_space: str = "binary") -> EqRelHandle:
    space = BITS if value_space == "binary" else ORDS
    return EqRelHandle(Cub(CubParams(value_space=value_space, mode=mode)), space)


@dataclass(frozen=True)
class Jump(RelKind):
    inner: EqRelHandle
    head = "jump"

    def __str__(self) -> str:
        return f"jump({self.inner.kind})"

    def decide(self, x, y) -> bool:
        # {[c]_E : c component of x} = {[d]_E : d component of y}
        same = self.inner.kind.decide
        return all(any(same(c, d) for d in y.components) for c in x.components) and all(
            any(same(c, d) for c in x.components) for d in y.components
        )

    def edit(self, rng, space, x):
        kind, sd = self.inner.kind, self.inner.space
        comps = [kind.edit(rng, sd, c) for c in x.components]
        if comps and rng.random() < 0.4:
            comps.append(kind.edit(rng, sd, rng.choice(x.components)))
        if not comps:
            return x
        return Family(comps, covering_assignment(rng, x.bound, len(comps)))

    def separated(self, rng, space):
        c0, c1 = self.inner.kind.separated(rng, self.inner.space)
        return Family([c0], PatternMap.constant(L, 0)), Family([c1], PatternMap.constant(L, 0))

    def args(self, space):
        return (self.inner,)


def rel_jump(inner: EqRelHandle) -> EqRelHandle:
    return EqRelHandle(Jump(inner), FamilyOf(inner.space))


@dataclass(frozen=True)
class Join(RelKind):
    parts: Tuple[EqRelHandle, ...]
    head = "join"

    def __str__(self) -> str:
        return "join(" + ",".join(str(p.kind) for p in self.parts) + ")"

    def decide(self, x, y) -> bool:
        return x.tag == y.tag and self.parts[x.tag.to_nat()].kind.decide(x.payload, y.payload)

    def edit(self, rng, space, x):
        part = self.parts[x.tag.to_nat()]
        return Tagged(x.tag, part.kind.edit(rng, part.space, x.payload))

    def separated(self, rng, space):
        if len(self.parts) >= 2:
            i, j = rng.sample(range(len(self.parts)), 2)
            return (
                Tagged(nat(i), gen_point(rng, self.parts[i].space)),
                Tagged(nat(j), gen_point(rng, self.parts[j].space)),
            )
        x0, y0 = self.parts[0].kind.separated(rng, self.parts[0].space)
        return Tagged(ZERO, x0), Tagged(ZERO, y0)

    def args(self, space):
        return self.parts


def rel_join(parts) -> EqRelHandle:
    parts = tuple(parts)
    if not parts:
        raise RelationError("join of no relations")
    return EqRelHandle(Join(parts), TaggedSum(tuple(p.space for p in parts)))


@dataclass(frozen=True)
class TowerJoin(RelKind):
    """Join of the whole finite jump tower over `base`, one part per depth."""

    base: EqRelHandle
    head = "tower-join"

    def __str__(self) -> str:
        return f"tower({self.base.kind})"

    def decide(self, x, y) -> bool:
        return x.tag == y.tag and make_tower(self.base, x.tag).kind.decide(x.payload, y.payload)

    def edit(self, rng, space, x):
        level = make_tower(self.base, x.tag)
        return Tagged(x.tag, level.kind.edit(rng, level.space, x.payload))

    def separated(self, rng, space):
        i = rng.randint(0, 2)
        j = (i + 1 + rng.randint(0, 1)) % 3
        return (
            Tagged(nat(i), gen_point(rng, family_power(self.base.space, i))),
            Tagged(nat(j), gen_point(rng, family_power(self.base.space, j))),
        )

    def args(self, space):
        return (self.base,)


def make_tower(base: EqRelHandle, level) -> EqRelHandle:
    """Jump tower over base: finite levels iterate the jump, level w joins
    them all, and w+k keeps jumping from there.  Stops below w*2."""
    lv = nat(level) if isinstance(level, int) else level
    if not lv < omega_times(2):
        raise RelationError(f"tower level {lv} out of supported range")
    if lv.is_nat():
        rel = base
        for _ in range(lv.to_nat()):
            rel = rel_jump(rel)
        return rel
    rel = EqRelHandle(TowerJoin(base), TowerSum(base.space))
    for _ in range(lv.nat_part()):
        rel = rel_jump(rel)
    return rel


# ---------------------------------------------------------------------------
# the deciders by name, on unvalidated points
# ---------------------------------------------------------------------------

decide_E0 = E0().decide
decide_idplus = IdPlus().decide
decide_idplus_star = IdPlusStar().decide


def decide_E1(x: Family, y: Family, level: Optional[Ordinal] = None) -> bool:
    return (E1() if level is None else E1Approx(level)).decide(x, y)


def decide_cub(params: CubParams, x, y) -> bool:
    return Cub(params).decide(x, y)


def decide_jump(inner: EqRelHandle, x: Family, y: Family) -> bool:
    return Jump(inner).decide(x, y)
