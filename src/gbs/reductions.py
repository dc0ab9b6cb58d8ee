"""Reductions between the sequence-space relations.

Each map here carries a biconditional contract: the source relation holds on
a pair iff the target relation holds on the images.  The tail-class map from
families to the grid is total on pattern points; the orbit map into families
is parametric in a finite support set and reduces agreement off that set.
"""

from __future__ import annotations

from typing import Iterable

from .ordinals import ZERO, nat, omega_times
from .patterns import PatternMap, Piece, pm_eval, pm_restrict, pm_write_finite
from .spaces import (
    BITS,
    Bits,
    diff_map,
    Family,
    FamilyOf,
    Ords,
    grid_ordvals,
    point_code,
    validate_point,
    word_from_bits,
    xor_prefix,
    zeros,
)


class ReductionError(ValueError):
    pass


def red_E1_to_E0(x: Family) -> Ords:
    """Tail-class codes on the grid: 0 off the limits, at w*q the registry
    code of the class of the restriction.  Bounded disagreement of families
    becomes bounded disagreement of the codes and conversely.

    The class of the level-w*q restriction is determined by the eventual
    successor content of the last block; its representative also pins the
    value at the block start, which is what separates pairs whose
    disagreements sit only on the limits.  Both come straight off the final
    piece of the restricted assignment (a run or root piece, so its word is
    a minimal root), and only the components they name are restricted.
    """
    validate_point(x, FamilyOf(BITS))
    top = max(x.stab_block(), 2)
    vals = [0]
    for q in range(1, top + 1):
        a = omega_times(q)
        asg = pm_restrict(x.assignment, a)
        anchor = pm_eval(asg, omega_times(q - 1))
        word = asg.pieces[-1].word
        refs = sorted({anchor, *word})
        local = {i: j for j, i in enumerate(refs)}
        tail = Piece(ZERO, a, local[anchor], tuple(local[i] for i in word))
        comps = [x.components[i].restrict(a) for i in refs]
        vals.append(point_code(Family(comps, PatternMap(a, (tail,), _canonical=True))))
    return grid_ordvals(x.bound, vals)


def red_E0_to_E1(eta: Bits) -> Family:
    """Spread each bit into a constant component: the family disagrees with
    another exactly where the sequences do."""
    comps = [zeros(eta.bound), Bits(PatternMap.constant(eta.bound, 1))]
    return Family(comps, eta.seq)


def red_E0_to_idplus(support: Iterable[int], eta: Bits, max_support: int = 6) -> Family:
    """Orbit of eta under prefix flips supported on the given set.

    The component set is the coset of the flip subgroup through eta, so two
    sequences get equal component sets iff they agree off the support; the
    assignment lists the 2^|support| components and then repeats the last.
    """
    positions = sorted(set(support))
    if any(not isinstance(s, int) or s < 0 for s in positions):
        raise ReductionError("support positions must be naturals")
    if len(positions) > max_support:
        raise ReductionError(
            f"support of size {len(positions)} exceeds the bound {max_support}"
        )
    width = positions[-1] + 1 if positions else 0
    comps = []
    for mask in range(1 << len(positions)):
        raw = [0] * width
        for bit, pos in enumerate(positions):
            if mask >> bit & 1:
                raw[pos] = 1
        comps.append(xor_prefix(word_from_bits(raw), eta))
    asg = pm_write_finite(PatternMap.constant(eta.bound, 0), list(range(len(comps))))
    return Family(comps, asg)


def decide_e0_off(support: Iterable[int], x: Bits, y: Bits) -> bool:
    """Agreement off finitely many exempt positions: the relative source
    relation of the subgroup-orbit map.  Empty support means equality."""
    positions = sorted(set(support))
    d = diff_map(x, y)
    width = positions[-1] + 1 if positions else 0
    expect = [0] * width
    for i in positions:
        if pm_eval(d, nat(i)) == 1:
            expect[i] = 1
    masked = PatternMap.constant(d.bound, 0)
    if expect:
        masked = pm_write_finite(masked, expect)
    return d == masked
