"""Finite groups, their actions on sequence spaces, and the orbit-to-E0
reduction pipeline.

The pipeline has three stages.  `red_ac1` turns a point into its trace: for
every enumerated cylinder, the set of group elements moving the point into
that cylinder.  Two points are orbit-equivalent exactly when their traces
differ by a right translation, provided the cylinder enumeration separates
the orbits involved; that separation is checked at call time rather than
assumed.  `red_ac3_selector` walks the limit grid with a nondecreasing
subgroup chain and records, at each level, the content code of the least
orbit translate of the restricted point.  `red_action_to_E0` composes the
two ideas: the selector runs over right translates of trace prefixes, and
orbit equivalence becomes tail agreement of the resulting ordinal sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ordinals import Ordinal, nat, omega_times
from .patterns import pm_eval, pm_head, pm_write_finite
from .spaces import (
    Bits,
    FiniteWord,
    Ords,
    canonical_key,
    canonical_min,
    grid_ordvals,
    iter_words,
    point_code,
    word_from_bits,
    word_values,
    xor_prefix,
)


class GroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A group given by its Cayley table, verified at construction."""

    __slots__ = ("table", "order", "identity", "inverse", "generators")

    def __init__(self, table: Sequence[Sequence[int]], generators: Optional[Sequence[int]] = None):
        n = len(table)
        tbl = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in tbl):
            raise GroupError("Cayley table is not square")
        if any(not 0 <= v < n for row in tbl for v in row):
            raise GroupError("Cayley table entry out of range")
        identity = None
        for e in range(n):
            if all(tbl[e][x] == x and tbl[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupError("no identity element")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                        raise GroupError("multiplication is not associative")
        inverse = []
        for a in range(n):
            inv = next((b for b in range(n) if tbl[a][b] == identity), None)
            if inv is None or tbl[inv][a] != identity:
                raise GroupError(f"element {a} has no inverse")
            inverse.append(inv)
        self.table = tbl
        self.order = n
        self.identity = identity
        self.inverse = tuple(inverse)
        gens = tuple(generators) if generators is not None else tuple(range(n))
        if subgroup_closure_table(tbl, identity, gens) != frozenset(range(n)):
            raise GroupError("declared generators do not generate the group")
        self.generators = gens

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def subgroup_closure_table(table, identity: int, elems: Iterable[int]) -> frozenset:
    seen = {identity}
    frontier = list(elems)
    while frontier:
        g = frontier.pop()
        if g in seen:
            continue
        seen.add(g)
        frontier.extend(table[g][h] for h in list(seen))
        frontier.extend(table[h][g] for h in list(seen))
    # saturate: products of everything found so far
    changed = True
    while changed:
        changed = False
        for a in list(seen):
            for b in list(seen):
                c = table[a][b]
                if c not in seen:
                    seen.add(c)
                    changed = True
    return frozenset(seen)


def subgroup_closure(group: FiniteGroup, elems: Iterable[int]) -> frozenset:
    return subgroup_closure_table(group.table, group.identity, elems)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group needs order >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, (1 % n,))


def symmetric_group(n: int) -> Tuple[FiniteGroup, Tuple[Tuple[int, ...], ...]]:
    """S_n with its elements as permutation tuples, composition (a*b)(i) = a(b(i))."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(a[b[i]] for i in range(n))] for b in elems] for a in elems
    ]
    gens = []
    if n >= 2:
        gens.append(index[tuple([1, 0] + list(range(2, n)))])
    if n >= 3:
        gens.append(index[tuple(list(range(1, n)) + [0])])
    if not gens:
        gens = [index[tuple(range(n))]]
    return FiniteGroup(table, gens), tuple(elems)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermuteCoords:
    """Element g sends x to i -> x(sigma_g^{-1}(i)) on the first k coordinates."""

    perms: Tuple[Tuple[int, ...], ...]
    k: int


@dataclass(frozen=True)
class XorMasks:
    """Element g xors a fixed bit mask into the first k coordinates."""

    masks: Tuple[Tuple[int, ...], ...]
    k: int


class GroupAction:
    __slots__ = ("group", "rule", "_inv_perms")

    def __init__(self, group: FiniteGroup, rule):
        self.group = group
        self.rule = rule
        if isinstance(rule, PermuteCoords):
            if len(rule.perms) != group.order:
                raise GroupError("one permutation per group element required")
            ident = tuple(range(rule.k))
            for p in rule.perms:
                if tuple(sorted(p)) != ident:
                    raise GroupError("not a permutation of the coordinate block")
            if rule.perms[group.identity] != ident:
                raise GroupError("identity element must act trivially")
            for a in group.elements():
                for b in group.elements():
                    comp = tuple(rule.perms[a][rule.perms[b][i]] for i in range(rule.k))
                    if comp != rule.perms[group.mul(a, b)]:
                        raise GroupError("permutations do not respect the group law")
            inv = []
            for p in rule.perms:
                q = [0] * rule.k
                for i, v in enumerate(p):
                    q[v] = i
                inv.append(tuple(q))
            self._inv_perms = tuple(inv)
        elif isinstance(rule, XorMasks):
            if len(rule.masks) != group.order:
                raise GroupError("one mask per group element required")
            if any(len(mk) != rule.k or not set(mk) <= {0, 1} for mk in rule.masks):
                raise GroupError("masks must be bit tuples of length k")
            if any(rule.masks[group.identity]):
                raise GroupError("identity element must act trivially")
            for a in group.elements():
                for b in group.elements():
                    combined = tuple(
                        rule.masks[a][i] ^ rule.masks[b][i] for i in range(rule.k)
                    )
                    if combined != rule.masks[group.mul(a, b)]:
                        raise GroupError("masks do not respect the group law")
            self._inv_perms = None
        else:
            raise GroupError(f"unknown action rule {rule!r}")

    def apply(self, g: int, x: Bits) -> Bits:
        """g . x; points shorter than the coordinate block are fixed (only the
        level-0 restriction of the grid is ever that short)."""
        k = self.rule.k
        if x.bound < nat(k):
            return x
        if isinstance(self.rule, PermuteCoords):
            sigma_inv = self._inv_perms[g]
            vals = [pm_eval(x.seq, nat(sigma_inv[i])) for i in range(k)]
            return Bits(pm_write_finite(x.seq, vals))
        return xor_prefix(word_from_bits(list(self.rule.masks[g])), x)

    def orbit(self, x: Bits) -> Tuple[Bits, ...]:
        return _orbit(self, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAction):
            return NotImplemented
        return self.group == other.group and self.rule == other.rule

    def __hash__(self) -> int:
        return hash((self.group, self.rule))


@lru_cache(maxsize=512)
def _orbit(act: GroupAction, x: Bits) -> Tuple[Bits, ...]:
    seen: List[Bits] = []
    for g in act.group.elements():
        y = act.apply(g, x)
        if y not in seen:
            seen.append(y)
    return tuple(seen)


def orbit_witness(act: GroupAction, x: Bits, y: Bits) -> Optional[int]:
    for g in act.group.elements():
        if act.apply(g, x) == y:
            return g
    return None


def orbit_decide(act: GroupAction, x: Bits, y: Bits) -> bool:
    return orbit_witness(act, x, y) is not None


# ---------------------------------------------------------------------------
# cylinder enumeration and the Ac1 trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderEnumeration:
    words: Tuple[FiniteWord, ...]

    def __post_init__(self):
        if len(set(map(canonical_key, self.words))) != len(self.words):
            raise GroupError("cylinder enumeration repeats a word")

    @property
    def delta(self) -> int:
        return 1 + max((w.dom.to_nat() for w in self.words), default=0)


def cylinder_enumeration(delta: int = 4) -> CylinderEnumeration:
    """All bit words with dom < delta, ordered by (dom, lex)."""
    return CylinderEnumeration(tuple(iter_words(delta)))


@lru_cache(maxsize=1024)
def _restr_key(p: Point, cut: Ordinal) -> str:
    return canonical_key(p.restrict(cut))


def _check_separation(points: Sequence[Bits], delta: int) -> None:
    cut = nat(delta - 1)
    by_key: Dict[str, Bits] = {}
    for p in points:
        other = by_key.setdefault(_restr_key(p, cut), p)
        if other != p:
            raise GroupError(
                "enumeration bound too small: distinct orbit points agree "
                f"below {delta - 1}"
            )


Trace = Tuple[frozenset, ...]


@lru_cache(maxsize=512)
def _trace_sets(act: GroupAction, enum: CylinderEnumeration, x: Bits) -> Trace:
    """g is in the set of word w iff g.x starts with w: each moved point's
    head is read once, to the longest word's length (below the separation
    cut that `red_ac1` has already restricted to), and compared by prefix."""
    words = [word_values(w) for w in enum.words]
    k = max(map(len, words), default=0)
    heads = {g: pm_head(act.apply(g, x).seq, k) for g in act.group.elements()}
    return tuple(frozenset(g for g, h in heads.items() if h[: len(v)] == v) for v in words)


def red_ac1(act: GroupAction, enum: CylinderEnumeration, x: Bits) -> Trace:
    """The trace (Z_w(x))_w over enumerated cylinders, Z_w(x) = {g : g.x in [w]}."""
    _check_separation(act.orbit(x), enum.delta)
    return _trace_sets(act, enum, x)


def trace_right_mul(group: FiniteGroup, t: Trace, g: int) -> Trace:
    return tuple(frozenset(group.mul(z, g) for z in zs) for zs in t)


def ac1_criterion(act: GroupAction, enum: CylinderEnumeration, x: Bits, y: Bits) -> bool:
    """Exists g with Z(x) = Z(y).g pointwise; equivalent to orbit equivalence
    whenever the enumeration separates both orbits (checked)."""
    pts = act.orbit(x) + act.orbit(y)
    _check_separation(pts, enum.delta)
    tx = red_ac1(act, enum, x)
    ty = red_ac1(act, enum, y)
    return any(tx == trace_right_mul(act.group, ty, g) for g in act.group.elements())


# ---------------------------------------------------------------------------
# subgroup chains and the selector reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSchedule:
    """Subgroup per block index: nondecreasing, eventually the whole group."""

    group: FiniteGroup
    steps: Tuple[frozenset, ...]

    def __post_init__(self):
        if not self.steps:
            raise GroupError("empty chain schedule")
        full = frozenset(self.group.elements())
        prev: Optional[frozenset] = None
        for s in self.steps:
            if subgroup_closure(self.group, s) != s:
                raise GroupError("chain step is not a subgroup")
            if prev is not None and not prev <= s:
                raise GroupError("chain steps must be nondecreasing")
            prev = s
        if self.steps[-1] != full:
            raise GroupError("chain must exhaust the group")

    def at(self, q: int) -> frozenset:
        return self.steps[min(q, len(self.steps) - 1)]

    @property
    def length(self) -> int:
        return len(self.steps)


def default_chain(group: FiniteGroup) -> ChainSchedule:
    steps = [frozenset({group.identity})]
    for i in range(len(group.generators)):
        steps.append(subgroup_closure(group, group.generators[: i + 1]))
    if steps[-1] != frozenset(group.elements()):
        steps.append(frozenset(group.elements()))
    return ChainSchedule(group, tuple(steps))


def red_ac3_selector(act: GroupAction, schedule: ChainSchedule, x: Bits) -> Ords:
    """H(x): at limit w*q, the content code of the least translate of the
    restriction of x under the level's subgroup; 0 at successors.  Orbit
    equivalence is tail agreement (E0) of the outputs."""
    if schedule.group is not act.group:
        raise GroupError("schedule and action use different groups")
    stab = max(
        [schedule.length] + [act.apply(g, x).stab_block() for g in act.group.elements()]
    )
    codes = []
    for q in range(stab + 1):
        level = omega_times(q)
        rx = x.restrict(level)
        best = canonical_min([act.apply(g, rx) for g in schedule.at(q)])
        codes.append(point_code(best))
    return grid_ordvals(x.bound, codes)


def red_action_to_E0(
    act: GroupAction,
    x: Bits,
    schedule: Optional[ChainSchedule] = None,
    enum: Optional[CylinderEnumeration] = None,
) -> Ords:
    """Composite reduction to E0 on ordinal sequences: the Ac1 trace of x,
    run through the selector over right translates of trace prefixes."""
    if enum is None:
        enum = cylinder_enumeration()
    if schedule is None:
        schedule = default_chain(act.group)
    trace = red_ac1(act, enum, x)
    group = act.group
    parts = {
        g: [",".join(str(z) for z in sorted(zs)) for zs in trace_right_mul(group, trace, g)]
        for g in group.elements()
    }
    # level q of the grid sees the trace entries whose cylinder has dom < q
    doms = [w.dom.to_nat() for w in enum.words]
    stab = max(schedule.length, enum.delta)
    codes = []
    for q in range(stab + 1):
        idx = [i for i, d in enumerate(doms) if d < q]
        best = min(
            int.from_bytes(";".join(parts[g][i] for i in idx).encode("ascii"), "big")
            for g in schedule.at(q)
        )
        codes.append(best)
    return grid_ordvals(x.bound, codes)
