"""Points of the sequence spaces and their structural operations.

Each point shape is one class that owns its operations (`bound`, `serial`,
`restrict`; `stab_block` but for words; `at` for sequences and families):
bit and ordinal sequences, which share `SeqPoint` and differ only in their
value check and serial letter; finite families of points indexed by a
pattern assignment; tagged points of a disjoint sum; and finite bit words.
Each space descriptor owns `contains`.  All points are immutable and canonical on
construction, so structural equality is extensional equality and points can
serve directly as dict keys.

The canonical total order on points is lexicographic on their serialized
form.  Serial strings lead with the value at position 0 and never mention
the domain endpoint of the final piece, which keeps the order stable when
the same content is viewed at different restriction levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from .ordinals import ZERO, Ordinal, nat
from .patterns import (
    PatternMap,
    Piece,
    pm_eval,
    pm_from_values,
    pm_head,
    pm_map,
    pm_restrict,
    pm_serial,
    pm_splice,
    pm_value_set,
    pm_write_finite,
    pm_zip,
)


class SpaceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------


class SpaceDescriptor:
    """A space; each subclass says which points inhabit it (`contains`)."""

    __slots__ = ()


@dataclass(frozen=True)
class BitSpace(SpaceDescriptor):
    def contains(self, p) -> bool:
        return isinstance(p, Bits)

    def __str__(self) -> str:
        return "bits"


@dataclass(frozen=True)
class OrdSpace(SpaceDescriptor):
    def contains(self, p) -> bool:
        return isinstance(p, Ords)

    def __str__(self) -> str:
        return "ords"


@dataclass(frozen=True)
class FamilyOf(SpaceDescriptor):
    inner: SpaceDescriptor

    def contains(self, p) -> bool:
        return isinstance(p, Family) and all(self.inner.contains(c) for c in p.components)

    def __str__(self) -> str:
        return f"family({self.inner})"


@dataclass(frozen=True)
class TaggedSum(SpaceDescriptor):
    parts: Tuple[SpaceDescriptor, ...]

    def contains(self, p) -> bool:
        return (
            isinstance(p, Tagged)
            and p.tag.is_nat()
            and p.tag.to_nat() < len(self.parts)
            and self.parts[p.tag.to_nat()].contains(p.payload)
        )

    def __str__(self) -> str:
        return "sum(" + ", ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class TowerSum(SpaceDescriptor):
    """Disjoint sum of family(...family(base)) over all finite depths."""

    base: SpaceDescriptor

    def contains(self, p) -> bool:
        return (
            isinstance(p, Tagged)
            and p.tag.is_nat()
            and family_power(self.base, p.tag.to_nat()).contains(p.payload)
        )

    def __str__(self) -> str:
        return f"tower({self.base})"


BITS = BitSpace()
ORDS = OrdSpace()


def family_power(sd: SpaceDescriptor, depth: int) -> SpaceDescriptor:
    for _ in range(depth):
        sd = FamilyOf(sd)
    return sd


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


class Point:
    """A point; each subclass is one shape and owns `bound`, `serial` and
    `restrict`."""

    __slots__ = ()

    def at(self, a: Ordinal):
        """Value at position a: a bit, an ordinal, or the indexed component."""
        raise SpaceError("position evaluation needs a sequence or family point")


@dataclass(frozen=True)
class SeqPoint(Point):
    """Values on [0, bound); subclasses add the value check and `letter`."""

    seq: PatternMap

    @property
    def bound(self) -> Ordinal:
        return self.seq.bound

    def serial(self, open_ended: bool = False) -> str:
        return self.letter + "{" + pm_serial(self.seq, open_ended) + "}"

    def at(self, a: Ordinal):
        return pm_eval(self.seq, a)

    def restrict(self, a: Ordinal) -> "SeqPoint":
        return type(self)(pm_restrict(self.seq, a))

    def stab_block(self) -> int:
        return pattern_stab_block(self.seq)


@dataclass(frozen=True)
class Bits(SeqPoint):
    letter = "B"

    def __post_init__(self):
        if not pm_value_set(self.seq) <= {0, 1}:
            raise SpaceError("bit sequence with values outside {0,1}")


@dataclass(frozen=True)
class Ords(SeqPoint):
    letter = "O"

    def __post_init__(self):
        if not all(isinstance(v, Ordinal) for v in pm_value_set(self.seq)):
            raise SpaceError("ordinal sequence with non-ordinal values")


class Family(Point):
    """Finitely many distinct component points plus an index assignment.

    The constructor canonicalizes: components the assignment never mentions
    are dropped, duplicates are merged, and the survivors are sorted in the
    canonical point order with the assignment remapped to match.  Two
    families describing the same indexed function are therefore equal.
    """

    __slots__ = ("components", "assignment", "_hash")

    def __init__(self, components: Sequence[Point], assignment: PatternMap):
        comps = tuple(components)
        refs = pm_value_set(assignment)
        for v in refs:
            if not isinstance(v, int) or not 0 <= v < len(comps):
                raise SpaceError(f"assignment value {v!r} is not a component index")
        bound = assignment.bound
        keyed = {}
        for i in sorted(refs):
            c = comps[i]
            if c.bound != bound:
                raise SpaceError("component bound disagrees with assignment bound")
            keyed[i] = canonical_key(c)
        order = sorted(set(keyed.values()))
        slot = {k: j for j, k in enumerate(order)}
        chosen: dict = {}
        for i, k in keyed.items():
            chosen.setdefault(k, comps[i])
        self.components = tuple(chosen[k] for k in order)
        remap = {i: slot[k] for i, k in keyed.items()}
        if all(i == j for i, j in remap.items()):
            self.assignment = assignment
        else:
            self.assignment = pm_map(assignment, remap.__getitem__)

    @property
    def bound(self) -> Ordinal:
        return self.assignment.bound

    def serial(self, open_ended: bool = False) -> str:
        comps = "&".join(c.serial(open_ended) for c in self.components)
        return "F{" + comps + "|" + pm_serial(self.assignment, open_ended) + "}"

    def at(self, a: Ordinal) -> Point:
        return self.components[pm_eval(self.assignment, a)]

    def restrict(self, a: Ordinal) -> "Family":
        if not (a.is_limit() or a.is_zero()):
            raise SpaceError("family restriction needs a limit level")
        return Family([c.restrict(a) for c in self.components], pm_restrict(self.assignment, a))

    def stab_block(self) -> int:
        return max([c.stab_block() for c in self.components] + [pattern_stab_block(self.assignment)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.components == other.components and self.assignment == other.assignment

    def __hash__(self) -> int:
        # computed on first use and kept, so that families never hashed pay
        # nothing
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.components, self.assignment))
            return self._hash

    def __repr__(self) -> str:
        return f"Family({len(self.components)} components, {self.assignment!r})"


@dataclass(frozen=True)
class Tagged(Point):
    tag: Ordinal
    payload: Point

    @property
    def bound(self) -> Ordinal:
        return self.payload.bound

    def serial(self, open_ended: bool = False) -> str:
        return "T{" + str(self.tag) + "|" + self.payload.serial(open_ended) + "}"

    def restrict(self, a: Ordinal) -> "Tagged":
        return Tagged(self.tag, self.payload.restrict(a))

    def stab_block(self) -> int:
        return self.payload.stab_block()


@dataclass(frozen=True)
class FiniteWord(Point):
    """A bit word on [0, dom); the dom is part of the content, so serials
    always name it and restrictions never reach a stable key."""

    bits: PatternMap

    def __post_init__(self):
        if not pm_value_set(self.bits) <= {0, 1}:
            raise SpaceError("word with values outside {0,1}")

    @property
    def dom(self) -> Ordinal:
        return self.bits.bound

    bound = dom

    def serial(self, open_ended: bool = False) -> str:
        return "W{" + pm_serial(self.bits, False) + "}"

    def restrict(self, a: Ordinal) -> "FiniteWord":
        return FiniteWord(pm_restrict(self.bits, a))


def word_from_bits(values: Sequence[int]) -> FiniteWord:
    return FiniteWord(pm_from_values(values))


def word_values(w: FiniteWord) -> Tuple[int, ...]:
    return pm_head(w.bits, w.dom.to_nat())


def iter_words(max_dom: int) -> Iterable[FiniteWord]:
    """All bit words with natural dom < max_dom, ordered by (dom, lex)."""
    yield word_from_bits([])
    for d in range(1, max_dom):
        for n in range(1 << d):
            yield word_from_bits([(n >> (d - 1 - i)) & 1 for i in range(d)])


# ---------------------------------------------------------------------------
# serialization and the canonical order
# ---------------------------------------------------------------------------


def canonical_key(p: Point) -> str:
    return p.serial(open_ended=True)


def canonical_min(points: Iterable[Point]) -> Point:
    pts = list(points)
    if not pts:
        raise SpaceError("canonical_min of an empty set")
    return min(pts, key=canonical_key)


def point_code(p: Point) -> int:
    """Content-addressed code: the big integer spelled by the canonical key."""
    return int.from_bytes(canonical_key(p).encode("ascii"), "big")


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def validate_point(p: Point, sd: SpaceDescriptor) -> None:
    if not sd.contains(p):
        raise SpaceError(f"point does not inhabit {sd}")


def zero_pad_embed(w: FiniteWord, b: Ordinal) -> FiniteWord:
    """Append zeros: the word agreeing with w below dom(w) and 0 on [dom, b)."""
    if b < w.dom:
        raise SpaceError("padding target below current dom")
    if b == w.dom:
        return w
    return FiniteWord(pm_splice(PatternMap.constant(b, 0), w.dom, w.bits))


def word_to_bits(w: FiniteWord, bound: Ordinal) -> Bits:
    return Bits(zero_pad_embed(w, bound).bits)


def starts_with(x: Bits, w: FiniteWord) -> bool:
    """Cylinder membership: x extends the word w."""
    if x.bound < w.dom:
        raise SpaceError("cylinder word longer than the sequence")
    if not w.dom.is_nat():
        return pm_restrict(x.seq, w.dom) == w.bits
    return pm_head(x.seq, w.dom.to_nat()) == word_values(w)


def xor_prefix(w: FiniteWord, x: Bits) -> Bits:
    """Flip x below dom(w) according to w; leave the tail untouched."""
    if x.bound < w.dom:
        raise SpaceError("xor prefix longer than the sequence")
    if not w.dom.is_nat():
        mask = zero_pad_embed(w, x.bound)
        return Bits(pm_zip(x.seq, mask.bits, lambda a, b: a ^ b))
    head = pm_head(x.seq, w.dom.to_nat())
    flipped = [a ^ b for a, b in zip(head, word_values(w))]
    return Bits(pm_write_finite(x.seq, flipped))


def diff_map(x: Point, y: Point) -> PatternMap:
    """Indicator of pointwise disagreement (families compare components)."""
    if isinstance(x, SeqPoint) and type(x) is type(y):
        return pm_zip(x.seq, y.seq, lambda a, b: 0 if a == b else 1)
    if isinstance(x, Family) and isinstance(y, Family):
        return pm_zip(
            x.assignment,
            y.assignment,
            lambda i, j: 0 if x.components[i] == y.components[j] else 1,
        )
    raise SpaceError("diff_map needs two points of the same sequence shape")


def zeros(bound: Ordinal) -> Bits:
    return Bits(PatternMap.constant(bound, 0))


# ---------------------------------------------------------------------------
# the limit grid
# ---------------------------------------------------------------------------
# Reductions into sequence spaces share one output convention: a value per
# block start w*q, 0 at successors, constant from the last listed value on.


def grid_ordvals(bound: Ordinal, codes: Sequence[int]) -> Ords:
    """The sequence valued nat(codes[q]) at w*q and 0 at successors; limits
    beyond the list keep the final value."""
    if not codes:
        raise SpaceError("empty grid value list")
    from .ordinals import omega_times

    pieces = []
    lo = ZERO
    for q, c in enumerate(codes[:-1]):
        hi = omega_times(q + 1)
        pieces.append(Piece(lo, hi, nat(c), (ZERO,)))
        lo = hi
    pieces.append(Piece(lo, bound, nat(codes[-1]), (ZERO,)))
    return Ords(PatternMap.build(bound, pieces))


def pattern_stab_block(m: PatternMap) -> int:
    """A block index q0 such that open-ended serials of restrictions of m to
    w*q are the same for every q >= q0."""
    q = 1
    for piece in m.pieces:
        blk = piece.lo.block_index()
        if blk.is_nat():
            q = max(q, blk.to_nat() + 1)
    return q

