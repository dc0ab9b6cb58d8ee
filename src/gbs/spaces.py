"""Points of the sequence spaces and their structural operations.

Four point shapes cover everything the deciders consume: bit sequences,
ordinal-valued sequences, finite families of points indexed by a pattern
assignment, and tagged points of a disjoint sum.  All of them are immutable
and canonical on construction, so structural equality is extensional
equality and points can serve directly as dict keys.

The canonical total order on points is lexicographic on their serialized
form.  Serial strings lead with the value at position 0 and never mention
the domain endpoint of the final piece, which keeps the order stable when
the same content is viewed at different restriction levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

from .ordinals import ZERO, Ordinal, nat
from .patterns import (
    PatternMap,
    Piece,
    pm_eval,
    pm_head,
    pm_map,
    pm_restrict,
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


@dataclass(frozen=True)
class BitSpace:
    def __str__(self) -> str:
        return "bits"


@dataclass(frozen=True)
class OrdSpace:
    def __str__(self) -> str:
        return "ords"


@dataclass(frozen=True)
class FamilyOf:
    inner: "SpaceDescriptor"

    def __str__(self) -> str:
        return f"family({self.inner})"


@dataclass(frozen=True)
class TaggedSum:
    parts: Tuple["SpaceDescriptor", ...]

    @property
    def count(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "sum(" + ", ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class TowerSum:
    """Disjoint sum of family(...family(base)) over all finite depths."""

    base: "SpaceDescriptor"

    def __str__(self) -> str:
        return f"tower({self.base})"


SpaceDescriptor = Union[BitSpace, OrdSpace, FamilyOf, TaggedSum, TowerSum]

BITS = BitSpace()
ORDS = OrdSpace()


def family_power(sd: SpaceDescriptor, depth: int) -> SpaceDescriptor:
    for _ in range(depth):
        sd = FamilyOf(sd)
    return sd


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bits:
    seq: PatternMap

    def __post_init__(self):
        if not pm_value_set(self.seq) <= {0, 1}:
            raise SpaceError("bit sequence with values outside {0,1}")

    @property
    def bound(self) -> Ordinal:
        return self.seq.bound


@dataclass(frozen=True)
class Ords:
    seq: PatternMap

    def __post_init__(self):
        if not all(isinstance(v, Ordinal) for v in pm_value_set(self.seq)):
            raise SpaceError("ordinal sequence with non-ordinal values")

    @property
    def bound(self) -> Ordinal:
        return self.seq.bound


class Family:
    """Finitely many distinct component points plus an index assignment.

    The constructor canonicalizes: components the assignment never mentions
    are dropped, duplicates are merged, and the survivors are sorted in the
    canonical point order with the assignment remapped to match.  Two
    families describing the same indexed function are therefore equal.
    """

    __slots__ = ("components", "assignment")

    def __init__(self, components: Sequence["Point"], assignment: PatternMap):
        comps = tuple(components)
        refs = pm_value_set(assignment)
        for v in refs:
            if not isinstance(v, int) or not 0 <= v < len(comps):
                raise SpaceError(f"assignment value {v!r} is not a component index")
        bound = assignment.bound
        keyed = {}
        for i in sorted(refs):
            c = comps[i]
            if point_bound(c) != bound:
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.components == other.components and self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash((self.components, self.assignment))

    def __repr__(self) -> str:
        return f"Family({len(self.components)} components, {self.assignment!r})"


@dataclass(frozen=True)
class Tagged:
    tag: Ordinal
    payload: "Point"

    @property
    def bound(self) -> Ordinal:
        return point_bound(self.payload)


Point = Union[Bits, Ords, Family, Tagged]


@dataclass(frozen=True)
class FiniteWord:
    """A bit word on [0, dom); the dom is part of the content."""

    bits: PatternMap

    def __post_init__(self):
        if not pm_value_set(self.bits) <= {0, 1}:
            raise SpaceError("word with values outside {0,1}")

    @property
    def dom(self) -> Ordinal:
        return self.bits.bound


def word_from_bits(values: Sequence[int]) -> FiniteWord:
    k = len(values)
    if k == 0:
        return FiniteWord(PatternMap.build(ZERO, []))
    pieces = [Piece(ZERO, nat(1), values[0], (values[0],))]
    if k > 1:
        pieces.append(Piece(nat(1), nat(k), 0, tuple(values[1:])))
    return FiniteWord(PatternMap.build(nat(k), pieces))


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


def _pm_serial(m: PatternMap, open_ended: bool) -> str:
    out = []
    last = len(m.pieces) - 1
    for i, p in enumerate(m.pieces):
        hi = "" if (open_ended and i == last) else str(p.hi)
        word = ",".join(map(str, p.word))
        out.append(f"{p.limit_value}:{word}@{p.lo}..{hi}")
    return ";".join(out)


def serialize_point(p: Point, open_ended: bool = False) -> str:
    if isinstance(p, Bits):
        return "B{" + _pm_serial(p.seq, open_ended) + "}"
    if isinstance(p, Ords):
        return "O{" + _pm_serial(p.seq, open_ended) + "}"
    if isinstance(p, Family):
        comps = "&".join(serialize_point(c, open_ended) for c in p.components)
        return "F{" + comps + "|" + _pm_serial(p.assignment, open_ended) + "}"
    if isinstance(p, Tagged):
        return "T{" + str(p.tag) + "|" + serialize_point(p.payload, open_ended) + "}"
    if isinstance(p, FiniteWord):
        return "W{" + _pm_serial(p.bits, False) + "}"
    raise SpaceError(f"not a point: {p!r}")


def canonical_key(p: Point) -> str:
    return serialize_point(p, open_ended=True)


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


def point_bound(p: Point) -> Ordinal:
    if isinstance(p, (Bits, Ords, Family, Tagged)):
        return p.bound
    if isinstance(p, FiniteWord):
        return p.dom
    raise SpaceError(f"not a point: {p!r}")


def point_in_space(p: Point, sd: SpaceDescriptor) -> bool:
    if isinstance(sd, BitSpace):
        return isinstance(p, Bits)
    if isinstance(sd, OrdSpace):
        return isinstance(p, Ords)
    if isinstance(sd, FamilyOf):
        return isinstance(p, Family) and all(
            point_in_space(c, sd.inner) for c in p.components
        )
    if isinstance(sd, TaggedSum):
        return (
            isinstance(p, Tagged)
            and p.tag.is_nat()
            and p.tag.to_nat() < sd.count
            and point_in_space(p.payload, sd.parts[p.tag.to_nat()])
        )
    if isinstance(sd, TowerSum):
        return (
            isinstance(p, Tagged)
            and p.tag.is_nat()
            and point_in_space(p.payload, family_power(sd.base, p.tag.to_nat()))
        )
    raise SpaceError(f"not a space descriptor: {sd!r}")


def validate_point(p: Point, sd: SpaceDescriptor) -> None:
    if not point_in_space(p, sd):
        raise SpaceError(f"point does not inhabit {sd}")


def point_eval(p: Point, a: Ordinal):
    """Value at position a: a bit, an ordinal, or the indexed component."""
    if isinstance(p, (Bits, Ords)):
        return pm_eval(p.seq, a)
    if isinstance(p, Family):
        return p.components[pm_eval(p.assignment, a)]
    raise SpaceError("position evaluation needs a sequence or family point")


def restrict_point(p: Point, a: Ordinal) -> Point:
    if isinstance(p, Bits):
        return Bits(pm_restrict(p.seq, a))
    if isinstance(p, Ords):
        return Ords(pm_restrict(p.seq, a))
    if isinstance(p, Family):
        if not (a.is_limit() or a.is_zero()):
            raise SpaceError("family restriction needs a limit level")
        return Family(
            [restrict_point(c, a) for c in p.components],
            pm_restrict(p.assignment, a),
        )
    if isinstance(p, Tagged):
        return Tagged(p.tag, restrict_point(p.payload, a))
    raise SpaceError(f"not a point: {p!r}")


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
    if isinstance(x, Bits) and isinstance(y, Bits):
        return pm_zip(x.seq, y.seq, lambda a, b: 0 if a == b else 1)
    if isinstance(x, Ords) and isinstance(y, Ords):
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


def point_stab_block(p: Point) -> int:
    """Block index beyond which canonical keys of restrictions stop changing."""
    if isinstance(p, (Bits, Ords)):
        return pattern_stab_block(p.seq)
    if isinstance(p, Family):
        parts = [point_stab_block(c) for c in p.components]
        parts.append(pattern_stab_block(p.assignment))
        return max(parts)
    if isinstance(p, Tagged):
        return point_stab_block(p.payload)
    raise SpaceError(f"no stabilization bound for {p!r}")
