"""Membership games on finite labelled trees.

A code is a finite prefix-closed tree whose leaves carry conditions on the
input point (or pair of points).  Player I moves at even depth, Player II at
odd depth; II wins a play iff the leaf it reaches has a satisfied condition.
The denoted set is the set of inputs where II has a winning strategy, and the
finite tree makes every game determined by backward induction.

Restriction prunes nodes with large entries; goodness at a level means every
surviving label only inspects positions below that level, which is what makes
the restricted game a faithful approximation of the full one.  On top of the
raw games sit three constructors closed under approximation (identity up to a
word bound, the jump to families, the join of a tagged sum), a sampled
equivalence-relation certificate, and a class registry that turns level-wise
equivalence classes into stable integer codes.  Feeding those codes onto the
limit grid reduces any certified relation to eventual agreement of ordinal
sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from .generators import gen_bits, gen_point
from .ordinals import OMEGA_SQ, ZERO, Ordinal, nat, omega_times, ord_max
from .patterns import PatternMap, pm_eval, pm_restrict, pm_splice, pm_write_finite
from .spaces import (
    BITS,
    Bits,
    Family,
    FamilyOf,
    FiniteWord,
    Ords,
    Point,
    SpaceDescriptor,
    Tagged,
    TaggedSum,
    canonical_key,
    canonical_min,
    grid_ordvals,
    iter_words,
    point_bound,
    point_code,
    point_eval,
    point_stab_block,
    restrict_point,
    starts_with,
    validate_point,
)


class CodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# leaf conditions
# ---------------------------------------------------------------------------
# Atoms answer a yes/no question about one input point.  The side picks the
# point of a pair ("single" for one-point codes); Tagged wrappers met along
# the way are transparent except to TagEquals, whose unwrap count says which
# tag layer it means.

_SIDES = ("single", "left", "right")


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise CodeError(f"unknown atom side {side!r}")


@dataclass(frozen=True)
class InitialSegment:
    """The point extends the word."""

    word: FiniteWord
    side: str = "single"

    def __post_init__(self):
        _check_side(self.side)


@dataclass(frozen=True)
class ComponentConstraint:
    """The component reached by reading the path positions extends the word."""

    path: Tuple[Ordinal, ...]
    word: FiniteWord
    side: str = "single"

    def __post_init__(self):
        _check_side(self.side)
        if not all(isinstance(a, Ordinal) for a in self.path):
            raise CodeError("component path must list ordinals")


@dataclass(frozen=True)
class TagEquals:
    """After the path walk and `unwrap` explicit layers, the tag is this one."""

    tag: Ordinal
    side: str = "single"
    path: Tuple[Ordinal, ...] = ()
    unwrap: int = 0

    def __post_init__(self):
        _check_side(self.side)
        if not all(isinstance(a, Ordinal) for a in self.path):
            raise CodeError("tag path must list ordinals")
        if self.unwrap < 0:
            raise CodeError("negative unwrap count")


Atom = Union[InitialSegment, ComponentConstraint, TagEquals]


def atom_position_bound(atom: Atom) -> Ordinal:
    """Sup of the positions and tags the atom mentions."""
    if isinstance(atom, InitialSegment):
        return atom.word.dom
    if isinstance(atom, ComponentConstraint):
        b = atom.word.dom
    else:
        b = atom.tag
    for a in atom.path:
        b = ord_max(b, a)
    return b


@dataclass(frozen=True)
class LeafCondition:
    """Guarded conjunction ("all") or side-biconditional ("iff") of atoms.

    A failing guard makes the leaf vacuously true: the branch asks about a
    configuration the input is not in, so the verifier keeps it.
    """

    atoms: Tuple[Atom, ...]
    mode: str = "all"
    guards: Tuple[Atom, ...] = ()

    def __post_init__(self):
        if self.mode not in ("all", "iff"):
            raise CodeError(f"unknown condition mode {self.mode!r}")
        for a in self.atoms + self.guards:
            if not isinstance(a, (InitialSegment, ComponentConstraint, TagEquals)):
                raise CodeError(f"not an atom: {a!r}")


def position_bound(cond: LeafCondition) -> Ordinal:
    b = ZERO
    for a in cond.atoms + cond.guards:
        b = ord_max(b, atom_position_bound(a))
    return b


# ---------------------------------------------------------------------------
# trees and codes
# ---------------------------------------------------------------------------

Node = Tuple[Ordinal, ...]


class CodeTree:
    """Finite prefix-closed set of ordinal sequences; children are derived."""

    __slots__ = ("nodes", "children", "leaves", "by_depth", "_hash")

    def __init__(self, nodes: Iterable[Node]):
        seen = set()
        for n in nodes:
            # type, not isinstance: an Ordinal is a tuple too, and ZERO == ()
            if type(n) is not tuple or not all(isinstance(e, Ordinal) for e in n):
                raise CodeError(f"not an ordinal-sequence node: {n!r}")
            seen.add(n)
        if () not in seen:
            raise CodeError("code tree without a root")
        for n in seen:
            if n and n[:-1] not in seen:
                raise CodeError(f"node {n!r} without its parent")
        kids: Dict[Node, list] = {n: [] for n in seen}
        for n in seen:
            if n:
                kids[n[:-1]].append(n)
        self.children = {n: tuple(sorted(c)) for n, c in kids.items()}
        self.nodes = frozenset(seen)
        self.by_depth = tuple(sorted(seen, key=lambda n: (len(n), n)))
        self.leaves = tuple(n for n in self.by_depth if not kids[n])
        self._hash = hash(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeTree):
            return NotImplemented
        return self.nodes == other.nodes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CodeTree({len(self.nodes)} nodes, {len(self.leaves)} leaves)"


class BorelCode:
    """A labelled game tree denoting a set (arity 1) or relation (arity 2)."""

    __slots__ = (
        "tree", "labels", "space", "arity", "content_bound", "provenance", "_hash", "_plan"
    )

    def __init__(
        self,
        tree: CodeTree,
        labels: Dict[Node, LeafCondition],
        space: SpaceDescriptor,
        arity: int,
        provenance=None,
    ):
        if arity not in (1, 2):
            raise CodeError("arity must be 1 or 2")
        labels = dict(labels)
        leaves = set(tree.leaves)
        for n, cond in labels.items():
            if type(n) is not tuple or n not in leaves:
                raise CodeError(f"label on non-leaf node {n!r}")
            if not isinstance(cond, LeafCondition):
                raise CodeError(f"not a leaf condition: {cond!r}")
            if cond.mode == "iff" and arity != 2:
                raise CodeError("biconditional labels need a pair code")
            for a in cond.atoms + cond.guards:
                if arity == 1 and a.side != "single":
                    raise CodeError("sided atom in a one-point code")
                if arity == 2 and a.side == "single":
                    raise CodeError("unsided atom in a pair code")
        b = ZERO
        for n in tree.nodes:
            for e in n:
                b = ord_max(b, e)
        for cond in labels.values():
            b = ord_max(b, position_bound(cond))
        if not b < OMEGA_SQ:
            raise CodeError("code content reaches the space bound")
        self.tree = tree
        self.labels = labels
        self.space = space
        self.arity = arity
        self.content_bound = b
        self.provenance = provenance
        self._hash = hash((tree, frozenset(labels.items()), space, arity))
        self._plan = None  # compiled on first evaluation, see _compile

    def __eq__(self, other) -> bool:
        if not isinstance(other, BorelCode):
            return NotImplemented
        return (
            self.tree == other.tree
            and self.labels == other.labels
            and self.space == other.space
            and self.arity == other.arity
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BorelCode({len(self.tree.nodes)} nodes, arity {self.arity}, {self.space})"


# ---------------------------------------------------------------------------
# game evaluation
# ---------------------------------------------------------------------------


def _strip(p: Point) -> Point:
    while isinstance(p, Tagged):
        p = p.payload
    return p


@lru_cache(maxsize=262144)
def _atom_on(atom: Atom, p: Point) -> bool:
    """Atom value on an already-resolved point (the side is ignored here)."""
    path = atom.path if not isinstance(atom, InitialSegment) else ()
    for a in path:
        p = _strip(p)
        if not isinstance(p, Family) or not a < p.bound:
            return False
        p = point_eval(p, a)
    if isinstance(atom, TagEquals):
        for _ in range(atom.unwrap):
            if not isinstance(p, Tagged):
                return False
            p = p.payload
        return isinstance(p, Tagged) and p.tag == atom.tag
    p = _strip(p)
    return isinstance(p, Bits) and atom.word.dom <= p.bound and starts_with(p, atom.word)


@dataclass(frozen=True)
class GameOutcome:
    member: bool
    strategy: Tuple[Tuple[Node, Node], ...]


def _as_points(inp, code: BorelCode) -> Tuple[Point, ...]:
    if code.arity == 2:
        if not (isinstance(inp, tuple) and len(inp) == 2):
            raise CodeError("pair codes take a pair of points")
        for p in inp:
            validate_point(p, code.space)
        return inp
    validate_point(inp, code.space)
    return (inp,)


# A code's game plan is compiled once, on its first evaluation, and kept on
# the code.  It holds the code's distinct atoms with the index of the point
# each one reads, and one step per node, aligned with tree.by_depth, so that
# walking the steps backwards meets every child before its parent:
#   (_I_MOVE | _II_MOVE, child step indices, (), ())
#   (_LEAF_ALL, guard atoms, atoms, ())
#   (_LEAF_IFF, guard atoms, left atoms, the other atoms)
#   (_LOST, (), (), ())  -- a leaf without a label is lost for II
# Atoms are referred to by their index in the table.

_I_MOVE, _II_MOVE, _LEAF_ALL, _LEAF_IFF, _LOST = range(5)


def _compile(code: BorelCode):
    tree = code.tree
    index = {n: i for i, n in enumerate(tree.by_depth)}
    table: Dict[Atom, int] = {}

    def refs(atoms) -> Tuple[int, ...]:
        return tuple(table.setdefault(a, len(table)) for a in atoms)

    steps = []
    for n in tree.by_depth:
        kids = tree.children[n]
        cond = code.labels.get(n)
        if kids:
            mover = _II_MOVE if len(n) % 2 else _I_MOVE
            steps.append((mover, tuple(index[k] for k in kids), (), ()))
        elif cond is None:
            steps.append((_LOST, (), (), ()))
        elif cond.mode == "all":
            steps.append((_LEAF_ALL, refs(cond.guards), refs(cond.atoms), ()))
        else:
            left = refs(a for a in cond.atoms if a.side == "left")
            rest = refs(a for a in cond.atoms if a.side != "left")
            steps.append((_LEAF_IFF, refs(cond.guards), left, rest))
    atoms = tuple(table)
    code._plan = (atoms, bytes(a.side == "right" for a in atoms), tuple(steps))
    return code._plan


def _node_values(code: BorelCode, pts: Tuple[Point, ...]) -> list:
    """Every node's value, indexed like tree.by_depth (the root is first)."""
    atoms, sides, steps = code._plan or _compile(code)
    holds = [_atom_on(a, pts[s]) for a, s in zip(atoms, sides)].__getitem__
    value = [False] * len(steps)
    won = value.__getitem__
    for i in range(len(steps) - 1, -1, -1):
        op, x, y, z = steps[i]
        if op == _I_MOVE:
            value[i] = all(map(won, x))
        elif op == _II_MOVE:
            value[i] = any(map(won, x))
        elif op == _LOST:
            continue
        elif not all(map(holds, x)):
            value[i] = True
        elif op == _LEAF_ALL:
            value[i] = all(map(holds, y))
        else:
            value[i] = all(map(holds, y)) == all(map(holds, z))
    return value


def _eval_member(code: BorelCode, pts: Tuple[Point, ...]) -> bool:
    return _node_values(code, pts)[0]


@lru_cache(maxsize=16384)
def _eval(code: BorelCode, pts: Tuple[Point, ...]) -> GameOutcome:
    value = _node_values(code, pts)
    member = value[0]
    # the winner moves where its value is kept: II at odd depth, I at even
    mover = _II_MOVE if member else _I_MOVE
    nodes = code.tree.by_depth
    strategy = []
    for i, (op, kids, _, _) in enumerate(code._plan[2]):
        if op == mover and value[i] == member:
            strategy.append((nodes[i], nodes[next(k for k in kids if value[k] == member)]))
    return GameOutcome(member, tuple(strategy))


def game_eval(inp, code: BorelCode) -> GameOutcome:
    """Backward induction; returns the winner's value and strategy."""
    return _eval(code, _as_points(inp, code))


def game_member(inp, code: BorelCode) -> bool:
    return _eval_member(code, _as_points(inp, code))


# ---------------------------------------------------------------------------
# restriction, goodness, approximation
# ---------------------------------------------------------------------------


def code_restrict(code: BorelCode, a: Ordinal) -> BorelCode:
    """Drop nodes with entries >= a; labels survive only on old leaves.

    Restriction is the identity above the content bound: when
    code.content_bound < a nothing is dropped, and the code itself comes back.
    """
    if code.content_bound < a:
        return code
    keep = [n for n in code.tree.by_depth if all(e < a for e in n)]
    kept = set(keep)
    labels = {n: c for n, c in code.labels.items() if n in kept}
    return BorelCode(CodeTree(keep), labels, code.space, code.arity)


def is_good(code: BorelCode, a: Ordinal) -> bool:
    """Every label surviving restriction to a only inspects positions < a.

    Restriction is the identity above the content bound, so every a above it
    is good.  Below it, the labels that survive are those on leaves whose
    entries are all < a; no restricted copy is built.
    """
    if code.content_bound < a:
        return True
    return all(
        position_bound(c) < a for n, c in code.labels.items() if all(e < a for e in n)
    )


@dataclass(frozen=True)
class ApproxReport:
    member: bool
    closure_bound: Ordinal
    stable: bool
    levels: Tuple[Ordinal, ...]


def approx_lemma_check(code: BorelCode, inp, grid_depth: int = 20) -> ApproxReport:
    """Restricted games above the strategy's closure bound repeat the verdict.

    Checks every good limit w*q (q <= grid_depth) above the closure bound and
    within the input's bound; stable means no level disagreed with the full
    game.
    """
    pts = _as_points(inp, code)
    out = _eval(code, pts)
    b = code.content_bound
    for _, chosen in out.strategy:
        for e in chosen:
            b = ord_max(b, e)
    levels = []
    stable = True
    for q in range(1, grid_depth + 1):
        a = omega_times(q)
        if not b < a or not is_good(code, a):
            continue
        if any(point_bound(p) < a for p in pts):
            continue
        ra = tuple(restrict_point(p, a) for p in pts)
        rc = code_restrict(code, a)
        stable = stable and (_eval_member(rc, ra) == out.member)
        levels.append(a)
    return ApproxReport(out.member, b, stable, tuple(levels))


# ---------------------------------------------------------------------------
# the closed class: identity, jump, join
# ---------------------------------------------------------------------------


def code_id(word_bound: int = 4) -> BorelCode:
    """Player I names a word; II needs both points to answer it the same way.

    Denotes agreement below word_bound - 1 on pairs of bit sequences, which is
    identity on any pool of points determined by that prefix.
    """
    if word_bound < 1:
        raise CodeError("word bound must be positive")
    nodes = [()]
    labels = {}
    for i, w in enumerate(iter_words(word_bound)):
        n = (nat(i),)
        nodes.append(n)
        labels[n] = LeafCondition(
            (InitialSegment(w, "left"), InitialSegment(w, "right")), "iff"
        )
    return BorelCode(CodeTree(nodes), labels, BITS, 2, provenance=("id", word_bound))


def _shift_atom(atom: Atom, left_at: Ordinal, right_at: Ordinal) -> Atom:
    at = left_at if atom.side == "left" else right_at
    if isinstance(atom, InitialSegment):
        return ComponentConstraint((at,), atom.word, atom.side)
    if isinstance(atom, ComponentConstraint):
        return ComponentConstraint((at,) + atom.path, atom.word, atom.side)
    return TagEquals(atom.tag, atom.side, (at,) + atom.path, atom.unwrap)


def code_jump(code_e: BorelCode, index_bound: int = 3) -> BorelCode:
    """Challenge game for the jump of a relation code.

    Player I picks a side and a component position below index_bound, Player
    II answers with a position on the other side, and the inner game runs on
    that component pair.  Membership is mutual coverage of the challenged
    positions, which matches the jump on families whose components all appear
    below the index bound.
    """
    if code_e.arity != 2:
        raise CodeError("jump needs a relation code")
    if index_bound < 1:
        raise CodeError("index bound must be positive")
    nodes = [()]
    labels = {}
    for s in (0, 1):
        for ia in range(index_bound):
            m1 = (nat(s * index_bound + ia),)
            nodes.append(m1)
            for ib in range(index_bound):
                m2 = m1 + (nat(ib),)
                la, ra = (nat(ia), nat(ib)) if s == 0 else (nat(ib), nat(ia))
                for inner in code_e.tree.nodes:
                    nodes.append(m2 + inner)
                for leaf, cond in code_e.labels.items():
                    labels[m2 + leaf] = LeafCondition(
                        tuple(_shift_atom(x, la, ra) for x in cond.atoms),
                        cond.mode,
                        tuple(_shift_atom(x, la, ra) for x in cond.guards),
                    )
    return BorelCode(
        CodeTree(nodes),
        labels,
        FamilyOf(code_e.space),
        2,
        provenance=("jump", code_e, index_bound),
    )


def _bump_tags(atom: Atom) -> Atom:
    # a path walk already strips the new outer layer before its first step,
    # so only walk-free tag atoms need to count one layer more
    if isinstance(atom, TagEquals) and not atom.path:
        return TagEquals(atom.tag, atom.side, atom.path, atom.unwrap + 1)
    return atom


def code_join(codes: Sequence[BorelCode]) -> BorelCode:
    """Tagged sum of relation codes.

    Player I either challenges the tags (a biconditional leaf per tag) or
    opens one part's game; part leaves are guarded by their tag, so a part the
    input does not inhabit is vacuously fine and only the live part decides.
    """
    parts = tuple(codes)
    if not parts:
        raise CodeError("join of no codes")
    n = len(parts)
    nodes = [()]
    labels = {}
    for b in range(n):
        t = (nat(b),)
        nodes.append(t)
        labels[t] = LeafCondition(
            (TagEquals(nat(b), "left"), TagEquals(nat(b), "right")), "iff"
        )
    for b, part in enumerate(parts):
        if part.arity != 2:
            raise CodeError("join needs relation codes")
        d = (nat(n + b), ZERO)
        nodes.append(d[:1])
        nodes.append(d)
        guard = (TagEquals(nat(b), "left"), TagEquals(nat(b), "right"))
        for inner in part.tree.nodes:
            nodes.append(d + inner)
        for leaf, cond in part.labels.items():
            labels[d + leaf] = LeafCondition(
                tuple(_bump_tags(x) for x in cond.atoms),
                cond.mode,
                guard + tuple(_bump_tags(x) for x in cond.guards),
            )
    return BorelCode(
        CodeTree(nodes),
        labels,
        TaggedSum(tuple(p.space for p in parts)),
        2,
        provenance=("join", parts),
    )


# ---------------------------------------------------------------------------
# equivalence certificates and class registry codes
# ---------------------------------------------------------------------------


def _label_cut(code: BorelCode) -> Optional[int]:
    b = ZERO
    for c in code.labels.values():
        b = ord_max(b, position_bound(c))
    return b.to_nat() if b.is_nat() else None


def _related_variant(rng: random.Random, code: BorelCode, x: Point) -> Optional[Point]:
    """A point built to land in x's class, used to de-trivialize sampling."""
    pv = code.provenance
    if pv is not None and pv[0] == "id":
        cut = nat(pv[1] - 1)
        fresh = gen_bits(rng, x.bound)
        return Bits(pm_splice(fresh.seq, cut, pm_restrict(x.seq, cut)))
    if pv is not None and pv[0] == "jump":
        vals = [pm_eval(x.assignment, nat(i)) for i in range(pv[2])]
        vals = vals[1:] + vals[:1]
        return Family(x.components, pm_write_finite(x.assignment, vals))
    if pv is not None and pv[0] == "join":
        part = pv[1][x.tag.to_nat()]
        inner = _related_variant(rng, part, x.payload)
        return Tagged(x.tag, inner) if inner is not None else None
    if isinstance(x, Bits):
        cut = _label_cut(code)
        if cut is None:
            return None
        fresh = gen_bits(rng, x.bound)
        return Bits(pm_splice(fresh.seq, nat(cut), pm_restrict(x.seq, nat(cut))))
    return None


def is_eqrel_on_approx(
    code: BorelCode, a: Ordinal, sample_budget: int = 60, seed: int = 0
) -> bool:
    """Sampled reflexivity/symmetry/transitivity of the denotation at level a."""
    if code.arity != 2:
        raise CodeError("equivalence checks need a pair code")
    if not a.is_limit():
        raise CodeError("approximation level must be a limit")
    if not is_good(code, a):
        raise CodeError(f"{a} is not good for the code")
    rng = random.Random(seed)
    pts = []
    seen = set()

    def push(p):
        if p is None:
            return
        key = canonical_key(p)
        if key not in seen:
            seen.add(key)
            pts.append(p)

    for _ in range(max(3, min(8, sample_budget // 10))):
        push(gen_point(rng, code.space, a))
    for p in list(pts):
        push(_related_variant(rng, code, p))
    rc = code_restrict(code, a)
    m = [[_eval_member(rc, (p, q)) for q in pts] for p in pts]
    k = len(pts)
    for i in range(k):
        if not m[i][i]:
            return False
        for j in range(k):
            if m[i][j] != m[j][i]:
                return False
            for l in range(k):
                if m[i][j] and m[j][l] and not m[i][l]:
                    return False
    return True


def _class_rep(code: BorelCode, a: Ordinal, x: Point, pool: Tuple[Point, ...]) -> Point:
    pv = code.provenance
    if pv is not None and pv[0] == "id":
        cut = nat(pv[1] - 1)
        return Bits(pm_splice(PatternMap.constant(a, 0), cut, pm_restrict(x.seq, cut)))
    if pv is not None and pv[0] == "jump":
        inner, j = pv[1], pv[2]
        comps = {point_eval(x, nat(i)) for i in range(j)}
        reps = {canonical_key(r): r for r in (_class_rep(inner, a, c, pool) for c in comps)}
        ordered = [reps[key] for key in sorted(reps)]
        asg = pm_write_finite(PatternMap.constant(a, 0), list(range(len(ordered))))
        return Family(ordered, asg)
    if pv is not None and pv[0] == "join":
        part = pv[1][x.tag.to_nat()]
        return Tagged(x.tag, _class_rep(part, a, x.payload, pool))
    rc = code_restrict(code, a)
    cands = [q for q in pool if _eval_member(rc, (x, q))]
    return canonical_min(cands) if cands else x


def class_code(code: BorelCode, a: Ordinal, x: Point, pool: Sequence[Point] = ()) -> int:
    """Registry code of the canonical representative of x's class at level a.

    The representative is rebuilt from the data the code actually inspects
    (prefixes below the word cut, component classes below the index bound,
    tags), serialized open-endedly, so equal codes mean same approximate class
    and the codes stabilize once the point's pattern structure does.  Codes
    without construction provenance fall back to the least related member of
    the supplied pool.  The caller is responsible for certifying the level
    via is_eqrel_on_approx first.
    """
    if not a.is_limit():
        raise CodeError("class codes live on the limit grid")
    if not is_good(code, a):
        raise CodeError(f"{a} is not good for the code")
    xa = restrict_point(x, a)
    pa = tuple(restrict_point(p, a) for p in pool)
    return point_code(_class_rep(code, a, xa, pa))


def red_S_to_cub(
    code: BorelCode,
    pool: Sequence[Point] = (),
    sample_budget: int = 40,
    seed: int = 0,
) -> Callable[[Point], Ords]:
    """Reduce a certified relation code to eventual agreement on the grid.

    Certifies the denotation as an equivalence relation on the first two good
    limits past the content bound, then maps x to the sequence of its class
    registry codes: f(x)(w*q) = class_code at good limits, 0 elsewhere.  Two
    points are related iff their outputs agree on a final segment of limits
    (the Structural cub comparison on ordinal sequences).
    """
    if code.arity != 2:
        raise CodeError("the reduction needs a relation code")
    first = code.content_bound.block_index().to_nat() + 1
    levels = [omega_times(q) for q in range(max(1, first), first + 2)]
    for a in levels:
        if not is_good(code, a):
            raise CodeError(f"no good certification level at {a}")
        if not is_eqrel_on_approx(code, a, sample_budget, seed):
            raise CodeError(f"denotation at {a} is not an equivalence relation")

    def f(x: Point) -> Ords:
        validate_point(x, code.space)
        top = max(point_stab_block(x), first + 1, 2)
        vals = [0]
        for q in range(1, top + 1):
            a = omega_times(q)
            vals.append(class_code(code, a, x, pool) if is_good(code, a) else 0)
        return grid_ordvals(point_bound(x), vals)

    return f
