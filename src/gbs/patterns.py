"""Piecewise pattern maps over an ordinal interval [0, bound).

A PatternMap represents a total function on [0, bound) by finitely many
pieces.  A piece covering [lo, hi) carries a limit value and a nonempty
word; at a position alpha = w*beta + n the piece yields the limit value
when n = 0 (position 0 and all limit ordinals) and word[(n-1) % len(word)]
otherwise.  The word is indexed by n globally, not by offset within the
piece, so splitting a piece never changes the function.

Maps are kept in a canonical normal form computed from the semantic
block-level description of the function (per block: limit value plus the
eventually-periodic normal form of the successor values).  Two maps are
extensionally equal iff their canonical forms are structurally equal,
which is what equality decisions, class codes and canonical minima need.
Unobservable payload slots are filled deterministically: a piece with no
limit position gets word[0] as its limit value, and a piece consisting of
a single limit position gets (limit value,) as its word.

Two invariants of the canonical form let restriction, the value set and
one-to-one maps read or copy the pieces without canonicalising again:
every value slot of a canonical piece is observed at some position, and a
canonical piece crosses a block start only inside a run with no prefix.
Put the other way round, a block whose normalised prefix is empty lies
inside a run piece that starts at a block start and ends at one.  So a
finite write rebuilds block 0 alone: it keeps the pieces from w up, starts
the one crossing w at w, and joins block 0 to the piece at w only when
block 0 has no prefix and that piece is a run with the same content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from .ordinals import OMEGA, ONE, ZERO, Ordinal, ord_max

Value = Any
INFINITE = math.inf


class PatternError(ValueError):
    """Malformed piece list or an evaluation outside the domain."""


@dataclass(frozen=True)
class Piece:
    lo: Ordinal
    hi: Ordinal
    limit_value: Value
    word: Tuple[Value, ...]


# content of one full block: limit value, explicit prefix for successor
# indices 1..len(prefix), then the minimal periodic root aligned at n = 1
# (the value at successor index n >= len(prefix)+1 is root[(n-1) % len(root)])
_Content = Tuple[Value, Tuple[Value, ...], Tuple[Value, ...]]


def _min_string_period(vals: Sequence[Value]) -> int:
    for p in range(1, len(vals) + 1):
        if all(vals[i] == vals[i % p] for i in range(len(vals))):
            return p
    return len(vals)


def _min_cyclic_root(word: Tuple[Value, ...]) -> Tuple[Value, ...]:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[:p] * (n // p):
            return word[:p]
    return word


def _window_word(vals: Sequence[Value]) -> Tuple[Value, ...]:
    """Minimal word w with w[(n-1) % len(w)] = vals[n-1] for n = 1..len(vals)."""
    return tuple(vals[: _min_string_period(vals)])


class PatternMap:
    __slots__ = ("bound", "pieces", "_hash", "_open")

    def __init__(self, bound: Ordinal, pieces: Tuple[Piece, ...], _canonical: bool = False):
        if not _canonical:
            raise PatternError("use PatternMap.build")
        self.bound = bound
        self.pieces = pieces
        self._hash = hash((bound, pieces))

    @staticmethod
    def build(bound: Ordinal, pieces: Iterable[Piece | Tuple]) -> "PatternMap":
        plist = []
        for p in pieces:
            if not isinstance(p, Piece):
                lo, hi, lv, word = p
                p = Piece(lo, hi, lv, tuple(word))
            if not p.word:
                raise PatternError("piece word must be nonempty")
            if not p.lo < p.hi:
                raise PatternError(f"empty piece [{p.lo},{p.hi})")
            plist.append(p)
        if bound.is_zero():
            if plist:
                raise PatternError("pieces on an empty domain")
            return PatternMap(bound, (), _canonical=True)
        if not plist:
            raise PatternError("no pieces on a nonempty domain")
        plist.sort(key=lambda p: p.lo)
        cursor = ZERO
        for p in plist:
            if p.lo != cursor:
                raise PatternError(f"pieces do not tile the domain at {cursor}")
            cursor = p.hi
        if cursor != bound:
            raise PatternError(f"pieces stop at {cursor}, bound is {bound}")
        return _canonicalize(bound, plist)

    @staticmethod
    def constant(bound: Ordinal, value: Value) -> "PatternMap":
        if bound.is_zero():
            return PatternMap(bound, (), _canonical=True)
        return PatternMap.build(bound, [Piece(ZERO, bound, value, (value,))])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PatternMap)
            and self.bound == other.bound
            and self.pieces == other.pieces
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(
            f"[{p.lo},{p.hi}) lim={p.limit_value} word={list(p.word)}" for p in self.pieces
        )
        return f"PatternMap<{body}>"


def _render(m: PatternMap, open_ended: bool) -> str:
    out = []
    last = len(m.pieces) - 1
    for i, p in enumerate(m.pieces):
        hi = "" if (open_ended and i == last) else str(p.hi)
        word = ",".join(map(str, p.word))
        out.append(f"{p.limit_value}:{word}@{p.lo}..{hi}")
    return ";".join(out)


def pm_serial(m: PatternMap, open_ended: bool = False) -> str:
    """The pieces as `lv:word@lo..hi`, joined by `;`; open-ended leaves out
    the final piece's hi.  The open-ended serial is the canonical key of
    every point built on m, so it is rendered on first use and kept."""
    if not open_ended:
        return _render(m, False)
    try:
        return m._open
    except AttributeError:
        m._open = _render(m, True)
        return m._open


def pm_eval(m: PatternMap, alpha: Ordinal) -> Value:
    if not alpha < m.bound:
        raise PatternError(f"{alpha} outside [0,{m.bound})")
    piece = None
    for p in m.pieces:  # piece counts are tiny; linear scan beats bisect setup
        if p.lo <= alpha < p.hi:
            piece = p
            break
    assert piece is not None
    n = alpha.nat_part()
    if n == 0:
        return piece.limit_value
    return piece.word[(n - 1) % len(piece.word)]


# ---------------------------------------------------------------------------
# block-level description


@dataclass(frozen=True)
class _BlockRun:
    lo: Ordinal  # block index range [lo, hi)
    hi: Ordinal
    content: _Content


@dataclass(frozen=True)
class _Description:
    bound: Ordinal
    runs: Tuple[_BlockRun, ...]
    # partial final block: (limit value, successor window values), or None
    partial: Optional[Tuple[Value, Tuple[Value, ...]]]


def _piece_at(pieces: Sequence[Piece], alpha: Ordinal) -> Piece:
    for p in pieces:
        if p.lo <= alpha < p.hi:
            return p
    raise PatternError(f"no piece covers {alpha}")


def _block_windows(pieces: Sequence[Piece], beta: Ordinal, upto: Optional[int]):
    """Successor values of block beta as (explicit prefix values, tail word).

    With upto=None the block is full: the returned tail is the word of the
    piece that runs to the block's end (tail values follow the global n-index
    formula).  With a finite upto only positions n in [1, upto) exist and the
    tail is None.  The pieces are sorted; one pass reads their nat parts.
    """
    start = Ordinal.block_start(beta)
    end = Ordinal.block_start(beta.succ())
    vals: list = []
    n = 1
    for p in pieces:
        if p.hi <= start:
            continue
        if upto is None and not p.hi < end:
            return vals, p.word  # piece covers the rest of the block
        stop = p.hi.nat_part() if p.hi < end else upto
        if upto is not None:
            stop = min(stop, upto)
        word = p.word
        while n < stop:
            vals.append(word[(n - 1) % len(word)])
            n += 1
        if n == upto:
            break
    return vals, None


def _normal_content(lv: Value, prefix: Sequence[Value], tail_word: Tuple[Value, ...]) -> _Content:
    root = _min_cyclic_root(tail_word)
    pref = list(prefix)
    while pref and pref[-1] == root[(len(pref) - 1) % len(root)]:
        pref.pop()
    return (lv, tuple(pref), root)


@lru_cache(maxsize=8192)
def _describe(bound: Ordinal, pieces: Tuple[Piece, ...]) -> _Description:
    if bound.is_zero():
        return _Description(bound, (), None)
    b_block = bound.block_index()
    b_n = bound.nat_part()

    cut: set = set()
    for p in pieces:
        if p.lo.nat_part() > 0:
            beta = p.lo.block_index()
            if beta < b_block:
                cut.add(beta)

    # a cut block is never wholly inside a piece (pieces tile the domain), so
    # full-block ranges of pieces and the cut singletons partition the block axis
    runs = []
    for p in pieces:
        f_lo = p.lo.block_index()
        if p.lo.nat_part() > 0:
            f_lo = f_lo.succ()
        f_hi = p.hi.block_index()
        if not f_lo < f_hi:
            continue
        content = (p.limit_value, (), _min_cyclic_root(p.word))
        runs.append(_BlockRun(f_lo, f_hi, content))
    for beta in cut:
        start = Ordinal.block_start(beta)
        lv = _piece_at(pieces, start).limit_value
        vals, tail = _block_windows(pieces, beta, None)
        assert tail is not None
        runs.append(_BlockRun(beta, beta.succ(), _normal_content(lv, vals, tail)))
    runs.sort(key=lambda r: r.lo)

    merged: list = []
    for r in runs:
        if merged and merged[-1].hi == r.lo and merged[-1].content == r.content:
            merged[-1] = _BlockRun(merged[-1].lo, r.hi, r.content)
        else:
            merged.append(r)

    partial = None
    if b_n > 0:
        start = Ordinal.block_start(b_block)
        lv = _piece_at(pieces, start).limit_value
        vals, _ = _block_windows(pieces, b_block, b_n)
        partial = (lv, tuple(vals))
    return _Description(bound, tuple(merged), partial)


def _block_pieces(start: Ordinal, end: Ordinal, content: _Content) -> list:
    """Canonical pieces of [start, end) with this block content: one run piece
    when there is no prefix, else (one block) the prefix piece and the root
    piece."""
    lv, prefix, root = content
    if not prefix:
        return [Piece(start, end, lv, root)]
    mid = start + (len(prefix) + 1)
    return [Piece(start, mid, lv, _window_word(prefix)), Piece(mid, end, root[0], root)]


def _partial_piece(start: Ordinal, end: Ordinal, lv: Value, vals: Sequence[Value]) -> Piece:
    """The canonical piece of a partial block [start, end)."""
    return Piece(start, end, lv, _window_word(vals) or (lv,))


def _rebuild(desc: _Description) -> PatternMap:
    start = Ordinal.block_start
    out = []
    for run in desc.runs:
        if not run.content[1]:
            out += _block_pieces(start(run.lo), start(run.hi), run.content)
            continue
        span = run.lo.left_sub(run.hi)
        for k in range(span.to_nat()):  # prefix runs are finitely many cut blocks
            beta = run.lo + k
            out += _block_pieces(start(beta), start(beta.succ()), run.content)
    if desc.partial is not None:
        lv, vals = desc.partial
        out.append(_partial_piece(start(desc.bound.block_index()), desc.bound, lv, vals))
    return PatternMap(desc.bound, tuple(out), _canonical=True)


def _canonicalize(bound: Ordinal, pieces: Sequence[Piece]) -> PatternMap:
    return _rebuild(_describe(bound, tuple(pieces)))


# ---------------------------------------------------------------------------
# combinators


def pm_zip(m1: PatternMap, m2: PatternMap, f: Callable[[Value, Value], Value]) -> PatternMap:
    if m1.bound != m2.bound:
        raise PatternError("zip of maps with different bounds")
    if m1.bound.is_zero():
        return PatternMap(m1.bound, (), _canonical=True)
    bounds = sorted({p.lo for p in m1.pieces} | {p.lo for p in m2.pieces})
    bounds.append(m1.bound)
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        p1 = _piece_at(m1.pieces, lo)
        p2 = _piece_at(m2.pieces, lo)
        length = math.lcm(len(p1.word), len(p2.word))
        word = tuple(
            f(p1.word[i % len(p1.word)], p2.word[i % len(p2.word)]) for i in range(length)
        )
        out.append(Piece(lo, hi, f(p1.limit_value, p2.limit_value), word))
    return PatternMap.build(m1.bound, out)


def pm_map(m: PatternMap, f: Callable[[Value], Value]) -> PatternMap:
    """Apply f to every value; f is called once per distinct value."""
    if m.bound.is_zero():
        return m
    image = {v: f(v) for v in pm_value_set(m)}
    pieces = tuple(
        Piece(p.lo, p.hi, image[p.limit_value], tuple(image[v] for v in p.word))
        for p in m.pieces
    )
    if len(set(image.values())) == len(image):
        # one-to-one on the values: each run keeps its shape, minimal period
        # and prefix trim, and equal runs stay equal, so the copy is canonical
        return PatternMap(m.bound, pieces, _canonical=True)
    return PatternMap.build(m.bound, pieces)


def pm_restrict(m: PatternMap, a: Ordinal) -> PatternMap:
    """The map on [0, a) agreeing with m, read off m's canonical pieces.

    Below the block start cut = limit_part(a) the canonical pieces of the
    restriction are m's own, with the one piece that crosses cut (a run
    with no prefix, whose content a cut at a block start keeps) ended at
    cut.  A successor a adds the canonical partial piece on [cut, a).
    """
    if m.bound < a:
        raise PatternError(f"restriction bound {a} exceeds domain {m.bound}")
    if a == m.bound:
        return m
    if a.is_zero():
        return PatternMap(a, (), _canonical=True)
    cut = a.limit_part()
    out = []
    for p in m.pieces:
        if not p.lo < cut:
            break
        out.append(p if p.hi <= cut else Piece(p.lo, cut, p.limit_value, p.word))
    n = a.nat_part()
    if n:
        lv = _piece_at(m.pieces, cut).limit_value
        vals, _ = _block_windows(m.pieces, cut.block_index(), n)
        out.append(_partial_piece(cut, a, lv, vals))
    return PatternMap(a, tuple(out), _canonical=True)


def pm_splice(m: PatternMap, at: Ordinal, head: PatternMap) -> PatternMap:
    """The map equal to head on [0, at) and to m on [at, m.bound)."""
    if head.bound != at or m.bound < at:
        raise PatternError("splice bounds disagree")
    if at == m.bound:
        return head
    if at.is_nat():
        return pm_write_finite(m, pm_head(head, at.nat_part()))
    tail = []
    for p in m.pieces:
        if p.hi <= at:
            continue
        tail.append(Piece(at if p.lo < at else p.lo, p.hi, p.limit_value, p.word))
    return PatternMap.build(m.bound, list(head.pieces) + tail)


def pm_head(m: PatternMap, k: int) -> Tuple[Value, ...]:
    """The values at positions 0..k-1, read off the pieces in order."""
    if not Ordinal.from_nat(k) <= m.bound:
        raise PatternError(f"{k} positions exceed domain {m.bound}")
    vals: list = []
    for p in m.pieces:
        stop = min(p.hi.to_nat(), k) if p.hi.is_nat() else k
        for n in range(len(vals), stop):
            vals.append(p.word[(n - 1) % len(p.word)] if n else p.limit_value)
        if len(vals) == k:
            break
    return tuple(vals)


def pm_from_values(values: Sequence[Value]) -> PatternMap:
    """The map on [0, len(values)) with these values: one partial piece."""
    dom = Ordinal.from_nat(len(values))
    if not values:
        return PatternMap(dom, (), _canonical=True)
    return PatternMap(dom, (_partial_piece(ZERO, dom, values[0], values[1:]),), _canonical=True)


def pm_write_finite(m: PatternMap, values: Sequence[Value]) -> PatternMap:
    """Overwrite positions 0..len(values)-1 with the given values.

    Only block 0 changes, so only its canonical pieces are rebuilt, from the
    written values and m's own values and tail word there.  m's pieces from
    w up are kept, the one crossing w (a run with no prefix) starting at w;
    a block 0 with no prefix joins the run at w when their contents agree.
    """
    k = len(values)
    if k == 0:
        return m
    bound = m.bound
    if not Ordinal.from_nat(k) <= bound:
        raise PatternError("finite write exceeds domain")
    old, tail = _block_windows(m.pieces, ZERO, bound.nat_part() if bound.is_nat() else None)
    vals = list(values[1:]) + old[k - 1:]
    if tail is None:  # a finite bound
        return pm_from_values([values[0]] + vals)
    lv, prefix, root = content = _normal_content(values[0], vals, tail)
    rest = [
        p if OMEGA <= p.lo else Piece(OMEGA, p.hi, p.limit_value, p.word)
        for p in m.pieces
        if OMEGA < p.hi
    ]
    if (
        not prefix
        and rest
        and rest[0].hi.nat_part() == 0  # a run piece, not a prefix or partial piece
        and (rest[0].limit_value, rest[0].word) == (lv, root)
    ):
        rest[0] = Piece(ZERO, rest[0].hi, rest[0].limit_value, rest[0].word)
        return PatternMap(bound, tuple(rest), _canonical=True)
    return PatternMap(bound, tuple(_block_pieces(ZERO, OMEGA, content) + rest), _canonical=True)


# ---------------------------------------------------------------------------
# support analysis


@dataclass(frozen=True)
class SupportInfo:
    unbounded: bool
    bounded_by: Optional[Ordinal]  # least B with support in [0, B); None iff unbounded
    final_limit_segment: bool
    final_segment_start: Optional[Ordinal]  # least X: every limit >= X is in the set


def _run_top_bound(run: _BlockRun) -> Optional[Ordinal]:
    """Least upper bound of the 1-positions inside the run, or None."""
    lv, prefix, root = run.content
    hi_pos = Ordinal.block_start(run.hi)
    candidates = []
    if any(v == 1 for v in root):
        candidates.append(hi_pos)
    if any(v == 1 for v in prefix):
        i = max(j for j, v in enumerate(prefix) if v == 1)
        if run.hi.is_successor():
            candidates.append(Ordinal.block_start(run.hi.pred()) + (i + 2))
        else:
            candidates.append(hi_pos)
    if lv == 1:
        if run.hi.is_successor():
            candidates.append(Ordinal.block_start(run.hi.pred()).succ())
        else:
            candidates.append(hi_pos)
    if not candidates:
        return None
    top = candidates[0]
    for c in candidates[1:]:
        top = ord_max(top, c)
    return top


@lru_cache(maxsize=8192)
def pm_support_analysis(m: PatternMap) -> SupportInfo:
    """Boundedness of {alpha : m(alpha) = 1} and its final-limit-segment shape."""
    desc = _describe(m.bound, m.pieces)

    bound: Optional[Ordinal] = None
    if desc.partial is not None:
        lv, vals = desc.partial
        start = Ordinal.block_start(m.bound.block_index())
        ones = [i for i, v in enumerate(vals) if v == 1]
        if ones:
            bound = start + (ones[-1] + 2)
        elif lv == 1:
            bound = start.succ()
    if bound is None:
        for run in reversed(desc.runs):
            bound = _run_top_bound(run)
            if bound is not None:
                break
    if bound is None:
        bound = ZERO
    unbounded = bound == m.bound

    # least X with every limit position >= X valued 1
    seg_start: Optional[Ordinal] = ZERO
    found_bad = False
    if desc.partial is not None and m.bound.block_index() > ZERO:
        if desc.partial[0] != 1:
            seg_start = Ordinal.block_start(m.bound.block_index()).succ()
            found_bad = True
    if not found_bad:
        for run in reversed(desc.runs):
            lo_eff = run.lo if run.lo > ZERO else ONE
            if not lo_eff < run.hi:
                continue  # no limit positions in this run
            if run.content[0] == 1:
                continue
            if run.hi.is_successor():
                seg_start = Ordinal.block_start(run.hi.pred()).succ()
            else:
                seg_start = Ordinal.block_start(run.hi)
                if run.hi == m.bound.block_index() and desc.partial is None:
                    seg_start = None  # bad limits cofinal in the domain
            break
    contains = seg_start is not None
    return SupportInfo(unbounded, None if unbounded else bound, contains, seg_start)


def pm_value_census(m: PatternMap) -> dict:
    """Occurrence count per value: an exact natural or INFINITE."""
    desc = _describe(m.bound, m.pieces)
    census: dict = {}

    def add(v: Value, k) -> None:
        census[v] = census.get(v, 0) + k

    for run in desc.runs:
        lv, prefix, root = run.content
        span = run.lo.left_sub(run.hi)
        nblocks = span.to_nat() if span.is_nat() else INFINITE
        add(lv, nblocks)
        for v in prefix:
            add(v, nblocks)
        for v in set(root):
            add(v, INFINITE)
    if desc.partial is not None:
        lv, vals = desc.partial
        add(lv, 1)
        for v in vals:
            add(v, 1)
    return census


def pm_value_set(m: PatternMap) -> frozenset:
    """Values taken somewhere on the domain: every canonical slot is observed."""
    return frozenset(
        [p.limit_value for p in m.pieces] + [v for p in m.pieces for v in p.word]
    )
