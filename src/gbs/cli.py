"""Command line front end.

Exit codes: 0 when every checked property holds, 1 when a property is
violated (a report is still emitted), 2 for input errors of any kind.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional

from .codes import BorelCode, CodeError, approx_lemma_check, code_id, code_jump, game_eval, is_eqrel_on_approx, is_good
from .config import ConfigError, WorkbenchConfig, load_config_file
from .dsl import ApproxSpec, DslError, GameSpec, OrbitSpec, parse_ordinal_text, parse_spec, print_point
from .generators import gen_point
from .harness import ReductionSpec, Report, verify_orbit, verify_reduction
from .ordinals import omega_times
from .relations import EqRelHandle, RelationError, decide
from .spaces import SpaceError, point_bound, validate_point

__all__ = ["main", "run_command"]


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("workbench options")
    reticent = {"default": argparse.SUPPRESS}
    g.add_argument("--lambda", dest="lam", metavar="ORD", help="working bound, e.g. w^2", **reticent)
    g.add_argument("--seed", type=int, help="generator seed (GBS_SEED is the fallback)", **reticent)
    g.add_argument("--samples", type=int, help="sampling budget for generated inputs", **reticent)
    g.add_argument("--grid-depth", type=int, help="limits checked up to w*depth", **reticent)
    g.add_argument("--config", metavar="FILE", help="INI config file; flags override it", **reticent)
    g.add_argument("--json", action="store_true", help="emit a JSON report on stdout", **reticent)
    ap = argparse.ArgumentParser(
        prog="gbs",
        description="decidable workbench for sequence-space equivalence relations",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", metavar="COMMAND")
    for name, help_text in (
        ("check-reduction", "verify a reduction spec"),
        ("eval-game", "evaluate a coded game on given points"),
        ("approx-lemma", "check restriction stability for a code"),
        ("orbit-e0", "check a finite action against its E0 image"),
    ):
        sub.add_parser(name, help=help_text, parents=[common]).add_argument("file")
    sub.add_parser(
        "jump-tower", help="certify jump iterates of the identity code", parents=[common]
    ).add_argument("level", type=int)
    dec = sub.add_parser("decide", help="decide a relation on two points", parents=[common])
    dec.add_argument("relation")
    dec.add_argument("x")
    dec.add_argument("y")
    return ap


def _fail(msg: str) -> int:
    print(f"gbs: {msg}", file=sys.stderr)
    return 2


def _config(args) -> WorkbenchConfig:
    overrides = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    if args.lam:
        overrides["lam"] = parse_ordinal_text(args.lam)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["sample_count"] = args.samples
    if args.grid_depth is not None:
        overrides["grid_depth"] = args.grid_depth
    return WorkbenchConfig(**overrides)


def _read_doc(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return parse_spec(text)
    except DslError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _check_points(path: str, points, code: BorelCode, cfg: WorkbenchConfig) -> None:
    """Document points must inhabit the code's space at the working bound."""
    for pt in points:
        try:
            validate_point(pt, code.space)
        except SpaceError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if point_bound(pt) != cfg.lam:
            raise ConfigError(f"{path}: point bounded by {point_bound(pt)}, not lambda {cfg.lam}")


def _emit(report: Report, as_json: bool, extra: Optional[dict] = None) -> int:
    if report.verdict == "inputError":
        print(f"gbs: {report.detail}", file=sys.stderr)
    if as_json:
        payload = report.to_json()
        if extra:
            payload.update(extra)
        print(json.dumps(payload))
    else:
        bits = [f"verdict: {report.verdict}", f"checked {report.checked}"]
        if report.failed:
            bits.append(f"failed {report.failed}")
        bits += [f"seed {report.seed}", f"lambda {report.lam}", f"{report.elapsed_ms} ms"]
        print("; ".join(bits))
        if report.detail:
            print(f"  {report.detail}")
        if report.counterexample is not None:
            x, y = report.counterexample
            print(f"  x = {print_point(x)}")
            print(f"  y = {print_point(y)}")
        for k, v in (extra or {}).items():
            print(f"  {k}: {v}")
    return {"pass": 0, "fail": 1}.get(report.verdict, 2)


def _cmd_check_reduction(args, cfg: WorkbenchConfig) -> int:
    doc = _read_doc(args.file)
    if not isinstance(doc, ReductionSpec):
        return _fail(f"{args.file}: expected a reduction document")
    return _emit(verify_reduction(doc, cfg), args.json)


def _cmd_eval_game(args, cfg: WorkbenchConfig) -> int:
    doc = _read_doc(args.file)
    if not isinstance(doc, GameSpec):
        return _fail(f"{args.file}: expected a game document")
    code = doc.code
    if len(doc.points) != code.arity:
        return _fail(f"{args.file}: code of arity {code.arity} got {len(doc.points)} points")
    _check_points(args.file, doc.points, code, cfg)
    t0 = time.perf_counter()
    inp = doc.points[0] if code.arity == 1 else tuple(doc.points)
    out = game_eval(inp, code)
    elapsed = int((time.perf_counter() - t0) * 1000)
    report = Report("pass", 1, 0, cfg.seed, cfg.lam, elapsed)
    if args.json:
        return _emit(report, True, {"member": out.member, "strategyMoves": len(out.strategy)})
    print("member" if out.member else "non-member")
    return 0


def _cmd_approx(args, cfg: WorkbenchConfig) -> int:
    doc = _read_doc(args.file)
    if not isinstance(doc, ApproxSpec):
        return _fail(f"{args.file}: expected an approx document")
    code = doc.code
    t0 = time.perf_counter()
    rng = random.Random(cfg.seed)
    pts = list(doc.points)
    _check_points(args.file, pts, code, cfg)
    need = doc.probes or cfg.sample_count
    while len(pts) < need * code.arity:
        pts.append(gen_point(rng, code.space, cfg.lam))
    inputs = [
        pts[i] if code.arity == 1 else tuple(pts[i : i + 2])
        for i in range(0, len(pts) - code.arity + 1, code.arity)
    ]
    unstable = None
    for inp in inputs:
        rep = approx_lemma_check(code, inp, cfg.grid_depth)
        if not rep.stable:
            unstable = inp
            break
    elapsed = int((time.perf_counter() - t0) * 1000)
    if unstable is None:
        return _emit(Report("pass", len(inputs), 0, cfg.seed, cfg.lam, elapsed), args.json)
    pair = unstable if code.arity == 2 else (unstable, unstable)
    report = Report(
        "fail", inputs.index(unstable) + 1, 1, cfg.seed, cfg.lam, elapsed,
        counterexample=pair, detail="restricted game verdicts do not stabilize",
    )
    return _emit(report, args.json)


def _cmd_orbit(args, cfg: WorkbenchConfig) -> int:
    doc = _read_doc(args.file)
    if not isinstance(doc, OrbitSpec):
        return _fail(f"{args.file}: expected an orbit document")
    return _emit(verify_orbit(doc.action, cfg, base=doc.point, pairs=doc.pairs), args.json)


def _cmd_jump_tower(args, cfg: WorkbenchConfig) -> int:
    if not 0 <= args.level <= 2:
        return _fail("tower levels above 2 exceed the desk-scale budget")
    t0 = time.perf_counter()
    word_bound = cfg.word_bound.to_nat() if cfg.word_bound.is_nat() else 4
    code = code_id(word_bound=word_bound)
    rows = []
    budget = min(cfg.sample_count, 20)
    for lv in range(args.level + 1):
        if lv:
            code = code_jump(code, index_bound=2)
        first = code.content_bound.block_index().to_nat() + 1
        a = omega_times(max(1, first))
        while not is_good(code, a):
            first += 1
            a = omega_times(first)
        ok = is_eqrel_on_approx(code, a, sample_budget=budget, seed=cfg.seed)
        rows.append((lv, len(code.tree.nodes), str(code.content_bound), str(a), ok))
    elapsed = int((time.perf_counter() - t0) * 1000)
    bad = [r for r in rows if not r[4]]
    verdict = "pass" if not bad else "fail"
    report = Report(verdict, len(rows), len(bad), cfg.seed, cfg.lam, elapsed)
    extra = {
        "levels": [
            {"level": lv, "nodes": n, "contentBound": cb, "checkedAt": at, "equivalence": ok}
            for lv, n, cb, at, ok in rows
        ]
    }
    if args.json:
        return _emit(report, True, extra)
    for lv, n, cb, at, ok in rows:
        print(f"level {lv}: {n} nodes, content bound {cb}, eqrel at {at}: {'ok' if ok else 'BAD'}")
    return 0 if not bad else 1


_REL_NAMES = ("id", "e0", "e1", "e1-approx", "idplus", "idplus-star", "cub", "jump", "join", "tower-join")


def _cmd_decide(args, cfg: WorkbenchConfig) -> int:
    rel_text = args.relation if args.relation.startswith("(") else f"({args.relation})"
    try:
        rel = parse_spec(rel_text)
    except DslError as exc:
        raise ConfigError(f"relation: {exc}") from None
    if not isinstance(rel, EqRelHandle):
        return _fail(f"{args.relation!r} is not a relation")

    def load(arg: str):
        if arg.lstrip().startswith(("(", "[")):
            try:
                return parse_spec(arg)
            except DslError as exc:
                raise ConfigError(f"point: {exc}") from None
        return _read_doc(arg)

    t0 = time.perf_counter()
    x, y = load(args.x), load(args.y)
    try:
        validate_point(x, rel.space)
        validate_point(y, rel.space)
        if point_bound(x) != point_bound(y):
            raise SpaceError(f"points with unequal bounds {point_bound(x)} and {point_bound(y)}")
        res = decide(rel, x, y)
    except (SpaceError, RelationError) as exc:
        raise ConfigError(str(exc)) from None
    elapsed = int((time.perf_counter() - t0) * 1000)
    if args.json:
        report = Report("pass", 1, 0, cfg.seed, cfg.lam, elapsed)
        return _emit(report, True, {"result": res})
    print("true" if res else "false")
    return 0


_COMMANDS = {
    "check-reduction": _cmd_check_reduction,
    "eval-game": _cmd_eval_game,
    "approx-lemma": _cmd_approx,
    "orbit-e0": _cmd_orbit,
    "jump-tower": _cmd_jump_tower,
    "decide": _cmd_decide,
}


def run_command(argv) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    for attr, dv in (
        ("lam", None), ("seed", None), ("samples", None),
        ("grid_depth", None), ("config", None), ("json", False),
    ):
        if not hasattr(args, attr):
            setattr(args, attr, dv)
    if not args.command:
        ap.print_usage(sys.stderr)
        return 2
    try:
        cfg = _config(args)
        return _COMMANDS[args.command](args, cfg)
    except (ConfigError, DslError) as exc:
        return _fail(str(exc))
    except CodeError as exc:
        return _fail(str(exc))


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
