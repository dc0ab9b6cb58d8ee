"""Old definitions kept as test oracles.

The deciders and the canonicaliser in `gbs` no longer go through these:
E0 and cub read the final pieces of the two maps, and `_describe` reads the
pieces in one pass.  The definitions they replaced live on here so that
property tests can compare the two routes:

  diff_map              the zipped indicator of pointwise disagreement
  pm_support_analysis   boundedness and final-limit-segment shape of the
                        1-positions of a map, from its block description
  describe_by_cut_blocks  the block description built per cut block, each
                        one read again from the start of the pieces
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from gbs.ordinals import ONE, ZERO, Ordinal
from gbs.patterns import (
    PatternMap,
    Piece,
    _block_windows,
    _BlockRun,
    _Description,
    _min_cyclic_root,
    _normal_content,
    _piece_at,
    pm_zip,
)
from gbs.spaces import Family, Point, SeqPoint, SpaceError


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


def describe_by_cut_blocks(bound: Ordinal, pieces: Tuple[Piece, ...]) -> _Description:
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
        top = max(top, c)
    return top


def pm_support_analysis(m: PatternMap) -> SupportInfo:
    """Boundedness of {alpha : m(alpha) = 1} and its final-limit-segment shape."""
    desc = describe_by_cut_blocks(m.bound, m.pieces)

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
