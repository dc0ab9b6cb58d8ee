"""Reduction verification.

A ReductionSpec names a map, the relations it is supposed to connect, and a
pair-generation policy.  verify_reduction checks the biconditional
decide(source, x, y) == decide(target, f(x), f(y)) on every generated pair
and shrinks the first violating pair to something small enough to read.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .config import WorkbenchConfig
from .generators import equivalent_pair, gen_bits, inequivalent_pair, sample_pair
from .groups import GroupAction, GroupError, ac1_criterion, cylinder_enumeration, orbit_decide, red_action_to_E0
from .ordinals import OMEGA_SQ, ZERO, Ordinal
from .patterns import PatternMap, pm_write_finite
from .reductions import (
    ReductionError,
    decide_e0_off,
    red_E0_to_E1,
    red_E0_to_idplus,
    red_E1_to_E0,
)
from .relations import E0, E1Approx, EqRelHandle, decide
from .spaces import (
    BITS,
    ORDS,
    Bits,
    Family,
    FamilyOf,
    Ords,
    Point,
    SpaceError,
    Tagged,
    iter_words,
    word_from_bits,
    word_values,
    xor_prefix,
    zeros,
)

__all__ = [
    "GenPolicy",
    "HarnessError",
    "Report",
    "ReductionSpec",
    "verify_orbit",
    "verify_reduction",
]


class HarnessError(ValueError):
    pass


_POLICIES = ("exhaustive", "sampled", "constructed")


@dataclass(frozen=True)
class GenPolicy:
    kind: str
    n: int = 0
    n_eq: int = 0
    n_ineq: int = 0

    def __post_init__(self):
        if self.kind not in _POLICIES:
            raise HarnessError(f"unknown pair policy {self.kind!r}")
        if self.kind == "sampled" and self.n < 1:
            raise HarnessError("sampled policy needs a positive count")
        if self.kind == "constructed" and self.n_eq + self.n_ineq < 1:
            raise HarnessError("constructed policy needs at least one pair")
        if min(self.n, self.n_eq, self.n_ineq) < 0:
            raise HarnessError("pair counts must be naturals")


@dataclass(frozen=True)
class ReductionSpec:
    source: EqRelHandle
    target: EqRelHandle
    map_name: str
    params: Tuple[int, ...] = ()
    generator: GenPolicy = GenPolicy("constructed", n_eq=25, n_ineq=25)

    def __post_init__(self):
        # fail fast on unknown maps and space mismatches; the checks against
        # lambda wait for the run's config
        _resolve(self, None)


@dataclass(frozen=True)
class Report:
    verdict: str  # "pass" | "fail" | "inputError"
    checked: int
    failed: int
    seed: int
    lam: Ordinal
    elapsed_ms: int
    counterexample: Optional[Tuple[Point, Point]] = None
    detail: str = ""

    def to_json(self) -> dict:
        out: dict = {
            "verdict": self.verdict,
            "checked": self.checked,
            "failed": self.failed,
        }
        if self.counterexample is not None:
            from .dsl import print_point

            x, y = self.counterexample
            out["counterexample"] = {"x": print_point(x), "y": print_point(y)}
        if self.detail:
            out["detail"] = self.detail
        out["seed"] = self.seed
        out["lambda"] = str(self.lam)
        out["elapsedMs"] = self.elapsed_ms
        return out


# ---------------------------------------------------------------------------
# the named maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Resolved:
    fn: Callable[[Point], Point]
    src_decide: Optional[Callable[[Point, Point], bool]]
    eq_pair: Optional[Callable[[random.Random], Tuple[Point, Point]]]
    ineq_pair: Optional[Callable[[random.Random], Tuple[Point, Point]]]


def _support(params: Tuple[int, ...]) -> Tuple[int, ...]:
    if any(not isinstance(v, int) or v < 0 for v in params):
        raise HarnessError("support positions must be naturals")
    return tuple(sorted(set(params)))


def _resolve(spec: "ReductionSpec", cfg: Optional[WorkbenchConfig]) -> _Resolved:
    name = spec.map_name
    if name == "e1-to-e0":
        if spec.params:
            raise HarnessError("e1-to-e0 takes no parameters")
        in_space, out_space = FamilyOf(BITS), ORDS
        res = _Resolved(red_E1_to_E0, None, None, None)
    elif name == "e0-to-e1":
        if spec.params:
            raise HarnessError("e0-to-e1 takes no parameters")
        in_space, out_space = BITS, FamilyOf(BITS)
        res = _Resolved(red_E0_to_E1, None, None, None)
    elif name == "e0-to-idplus":
        support = _support(spec.params)
        in_space, out_space = BITS, FamilyOf(BITS)

        def fn(x: Bits) -> Family:
            try:
                return red_E0_to_idplus(support, x)
            except ReductionError as exc:
                raise HarnessError(str(exc)) from None

        def eq_pair(rng: random.Random) -> Tuple[Bits, Bits]:
            x = gen_bits(rng, cfg.lam)
            width = support[-1] + 1 if support else 0
            raw = [0] * width
            for pos in support:
                raw[pos] = rng.randint(0, 1)
            return x, xor_prefix(word_from_bits(raw), x)

        def ineq_pair(rng: random.Random) -> Tuple[Bits, Bits]:
            x = gen_bits(rng, cfg.lam)
            off = (support[-1] + 1 if support else 0) + rng.randrange(3)
            raw = [0] * (off + 1)
            raw[off] = 1
            return x, xor_prefix(word_from_bits(raw), x)

        res = _Resolved(fn, lambda x, y: decide_e0_off(support, x, y), eq_pair, ineq_pair)
    elif name == "broken-constant":
        if spec.params:
            raise HarnessError("broken-constant takes no parameters")
        in_space, out_space = BITS, BITS
        res = _Resolved(lambda x: zeros(cfg.lam), None, None, None)
    else:
        raise HarnessError(f"unknown reduction map {name!r}")
    if spec.source.space != in_space:
        raise HarnessError(
            f"map {name} consumes {in_space}, but the source relation lives on {spec.source.space}"
        )
    if spec.target.space != out_space:
        raise HarnessError(
            f"map {name} produces {out_space}, but the target relation lives on {spec.target.space}"
        )
    for side, rel in (("source", spec.source), ("target", spec.target)):
        level = rel.kind.level if isinstance(rel.kind, E1Approx) else None
        if cfg is not None and level is not None and cfg.lam < level:
            raise HarnessError(
                f"approximation level {level} of the {side} relation exceeds lambda {cfg.lam}"
            )
    return res


# ---------------------------------------------------------------------------
# pair generation
# ---------------------------------------------------------------------------


def _exhaustive_pool(cfg: WorkbenchConfig) -> List[Bits]:
    if not cfg.word_bound.is_nat():
        raise HarnessError("exhaustive generation needs a finite word bound")
    pool = []
    for tail in (0, 1):
        base = PatternMap.constant(cfg.lam, tail)
        for w in iter_words(cfg.word_bound.to_nat()):
            pool.append(Bits(pm_write_finite(base, word_values(w))))
    return pool


def _generate(spec: ReductionSpec, cfg: WorkbenchConfig, res: _Resolved, rng: random.Random):
    pol = spec.generator
    if pol.kind == "exhaustive":
        if spec.source.space != BITS:
            raise HarnessError("exhaustive generation is only supported on the binary sequence space")
        pool = _exhaustive_pool(cfg)
        return list(itertools.combinations_with_replacement(pool, 2))
    pairs: List[Tuple[Point, Point]] = []
    if pol.kind == "sampled":
        want, make = pol.n, [(pol.n, lambda: sample_pair(rng, spec.source))]
    else:
        eq = res.eq_pair or (lambda r: equivalent_pair(r, spec.source))
        ineq = res.ineq_pair or (lambda r: inequivalent_pair(r, spec.source))
        want = pol.n_eq + pol.n_ineq
        make = [(pol.n_eq, lambda: eq(rng)), (pol.n_ineq, lambda: ineq(rng))]
    for count, maker in make:
        for _ in range(count):
            try:
                pairs.append(maker())
            except (TypeError, ValueError):
                break
    if len(pairs) < want:
        raise HarnessError(
            f"pair generator exhausted after {len(pairs)} of {want} requested pairs"
        )
    return pairs


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def _pm_descs(pm: PatternMap) -> List[tuple]:
    k = len(pm.pieces)
    descs: List[tuple] = [("merge", i) for i in range(1, k)]
    if k > 1:
        descs.append(("mergefirst",))
    for i in range(k):
        descs += [("zerolim", i), ("truncword", i), ("zeroword", i)]
    return descs


def _pm_apply(pm: PatternMap, desc: tuple) -> Optional[PatternMap]:
    raw = [(pc.lo, pc.hi, pc.limit_value, pc.word) for pc in pm.pieces]
    zero: object = ZERO if isinstance(raw[0][2], Ordinal) else 0
    kind, idx = desc[0], desc[1] if len(desc) > 1 else 0
    if kind == "merge":
        if not 1 <= idx < len(raw):
            return None
        lo, _, lv, word = raw[idx - 1]
        raw[idx - 1 : idx + 1] = [(lo, raw[idx][1], lv, word)]
    elif kind == "mergefirst":
        if len(raw) < 2:
            return None
        raw[0:2] = [(raw[0][0], raw[1][1], raw[1][2], raw[1][3])]
    elif idx >= len(raw):
        return None
    else:
        lo, hi, lv, word = raw[idx]
        if kind == "zerolim" and lv != zero:
            raw[idx] = (lo, hi, zero, word)
        elif kind == "truncword" and len(word) > 1:
            raw[idx] = (lo, hi, lv, word[:1])
        elif kind == "zeroword" and len(word) == 1 and word[0] != zero:
            raw[idx] = (lo, hi, lv, (zero,))
        else:
            return None
    try:
        out = PatternMap.build(pm.bound, raw)
    except ValueError:
        return None
    return None if out == pm else out


def _pt_descs(p: Point) -> List[tuple]:
    if isinstance(p, (Bits, Ords)):
        return [("seq", d) for d in _pm_descs(p.seq)]
    if isinstance(p, Family):
        descs: List[tuple] = [("dupcomp", j) for j in range(1, len(p.components))]
        for j, comp in enumerate(p.components):
            descs += [("comp", j, d) for d in _pt_descs(comp)]
        descs += [("asg", d) for d in _pm_descs(p.assignment)]
        return descs
    if isinstance(p, Tagged):
        descs = [("payload", d) for d in _pt_descs(p.payload)]
        if p.tag != ZERO:
            descs.append(("zerotag",))
        return descs
    return []


def _pt_apply(p: Point, desc: tuple) -> Optional[Point]:
    try:
        if desc[0] == "seq" and isinstance(p, (Bits, Ords)):
            pm = _pm_apply(p.seq, desc[1])
            return None if pm is None else type(p)(pm)
        if desc[0] == "dupcomp" and isinstance(p, Family):
            j = desc[1]
            if not 1 <= j < len(p.components):
                return None
            comps = list(p.components)
            comps[j] = comps[0]
            out = Family(comps, p.assignment)
            return None if out == p else out
        if desc[0] == "comp" and isinstance(p, Family):
            j, sub = desc[1], desc[2]
            if j >= len(p.components):
                return None
            cand = _pt_apply(p.components[j], sub)
            if cand is None:
                return None
            comps = list(p.components)
            comps[j] = cand
            return Family(comps, p.assignment)
        if desc[0] == "asg" and isinstance(p, Family):
            pm = _pm_apply(p.assignment, desc[1])
            return None if pm is None else Family(p.components, pm)
        if desc[0] == "payload" and isinstance(p, Tagged):
            cand = _pt_apply(p.payload, desc[1])
            return None if cand is None else Tagged(p.tag, cand)
        if desc[0] == "zerotag" and isinstance(p, Tagged):
            return Tagged(ZERO, p.payload) if p.tag != ZERO else None
    except (SpaceError, ValueError):
        return None
    return None


def _shrink_pair(x: Point, y: Point, still_failing) -> Tuple[Point, Point]:
    budget = 600
    changed = True
    while changed and budget > 0:
        changed = False
        # the same structural move on both sides keeps relational witnesses alive
        for desc in _pt_descs(x):
            cx, cy = _pt_apply(x, desc), _pt_apply(y, desc)
            if cx is None and cy is None:
                continue
            cx, cy = cx or x, cy or y
            budget -= 1
            if still_failing(cx, cy):
                x, y, changed = cx, cy, True
                break
            if budget <= 0:
                break
        if changed:
            continue
        for side in (0, 1):
            p = (x, y)[side]
            for desc in _pt_descs(p):
                cand = _pt_apply(p, desc)
                if cand is None:
                    continue
                budget -= 1
                pair = (cand, y) if side == 0 else (x, cand)
                if still_failing(*pair):
                    x, y = pair
                    changed = True
                    break
                if budget <= 0:
                    break
            if changed:
                break
    return x, y


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def verify_reduction(spec: ReductionSpec, config: Optional[WorkbenchConfig] = None) -> Report:
    cfg = config or WorkbenchConfig()
    t0 = time.perf_counter()
    try:
        if cfg.lam != OMEGA_SQ:
            # the pair generators draw below w^2 whatever the bound
            raise HarnessError(f"reductions are checked at lambda w^2 only, not {cfg.lam}")
        res = _resolve(spec, cfg)
        rng = random.Random(cfg.seed)
        pairs = _generate(spec, cfg, res, rng)
    except HarnessError as exc:
        return Report("inputError", 0, 0, cfg.seed, cfg.lam, _ms(t0), detail=str(exc))
    src = res.src_decide or (lambda a, b: decide(spec.source, a, b))
    fmap = functools.lru_cache(maxsize=4096)(res.fn)

    # the stage running when a pair raises: source decider, map, target decider
    stages = (
        f"in the source decider {spec.source}",
        f"under {spec.map_name}",
        f"in the target decider {spec.target}",
    )
    stage = 0

    def mismatch(a: Point, b: Point) -> bool:
        nonlocal stage
        stage = 0
        want = src(a, b)
        stage = 1
        fa, fb = fmap(a), fmap(b)
        stage = 2
        return want != decide(spec.target, fa, fb)

    def still_failing(a: Point, b: Point) -> bool:
        # a shrinking step that makes the map or a decider raise is just a dead end
        try:
            return mismatch(a, b)
        except (ValueError, TypeError):
            return False

    for i, (x, y) in enumerate(pairs):
        try:
            bad = mismatch(x, y)
        except (ValueError, TypeError) as exc:
            return Report(
                "inputError", i, 0, cfg.seed, cfg.lam, _ms(t0),
                detail=f"pair {i + 1} raised {stages[stage]}: {exc}",
            )
        if bad:
            sx, sy = _shrink_pair(x, y, still_failing)
            return Report(
                "fail", i + 1, 1, cfg.seed, cfg.lam, _ms(t0),
                counterexample=(sx, sy),
                detail=f"decide(source) disagrees with decide(target) under {spec.map_name}",
            )
    return Report("pass", len(pairs), 0, cfg.seed, cfg.lam, _ms(t0))


def verify_orbit(action: GroupAction, config: Optional[WorkbenchConfig] = None,
                 base: Optional[Bits] = None, pairs: int = 0) -> Report:
    """Orbit equivalence of a finite action against its E0 image: checks the
    trace criterion and the composite reduction on orbit and non-orbit pairs."""
    cfg = config or WorkbenchConfig()
    t0 = time.perf_counter()
    k = action.rule.k
    try:
        enum = cylinder_enumeration(max(4, k + 1))
    except GroupError as exc:
        return Report("inputError", 0, 0, cfg.seed, cfg.lam, _ms(t0), detail=str(exc))
    rng = random.Random(cfg.seed)
    count = pairs or cfg.sample_count
    checked = 0
    for i in range(count):
        x = base if base is not None and i == 0 else gen_bits(rng, cfg.lam)
        g = rng.randrange(action.group.order)
        mates = [action.apply(g, x)]
        # the trace criterion presumes the enumeration separates the orbits,
        # so resample random mates that collide with an orbit point early on
        for _ in range(8):
            z = gen_bits(rng, cfg.lam)
            try:
                ac1_criterion(action, enum, x, z)
            except GroupError:
                continue
            mates.append(z)
            break
        for y in mates:
            want = orbit_decide(action, x, y)
            try:
                if ac1_criterion(action, enum, x, y) != want:
                    return Report(
                        "fail", checked + 1, 1, cfg.seed, cfg.lam, _ms(t0),
                        counterexample=(x, y), detail="trace criterion disagrees with the orbit",
                    )
                got = E0().decide(red_action_to_E0(action, x, enum), red_action_to_E0(action, y, enum))
            except GroupError as exc:
                return Report("inputError", checked, 0, cfg.seed, cfg.lam, _ms(t0), detail=str(exc))
            if got != want:
                return Report(
                    "fail", checked + 1, 1, cfg.seed, cfg.lam, _ms(t0),
                    counterexample=(x, y), detail="orbit image disagrees under E0",
                )
            checked += 1
    return Report("pass", checked, 0, cfg.seed, cfg.lam, _ms(t0))
