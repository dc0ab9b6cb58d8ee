"""Run one gbs benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload game-sweep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (setup_s, run_s, peak_rss_mib); with --trace 1 they are the
per-layer ones, and the spans and the per-module profile are also written
under perfbench/out/.  Times are scaled to the reference speed of
speed.py.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("game-sweep", "cub-tower", "relation-axioms", "check-specs")
RSS_ROUNDS = 2

# The spans a traced run reports, each as <name>.calls and <name>.busy_s.
SPAN_NAMES = (
    "codes.game_member",
    "codes.approx_lemma_check",
    "codes.red_S_to_cub",
    "codes.cub_map",
    "codes.is_eqrel_on_approx",
    "codes.is_good",
    "generators.gen_point",
    "generators.sample_pair",
    "generators.related_triple",
    *(f"relations.decide.{k}" for k in ("id", "e0", "e1", "e1-approx", "idplus", "idplus-star", "cub", "jump", "join")),
    "dsl.parse_spec",
    *(f"cli.{c}" for c in ("check-reduction", "eval-game", "approx-lemma", "orbit-e0", "jump-tower", "decide")),
)


def since_process_start() -> float:
    """Seconds since this process started: field 22 of /proc/self/stat is
    the start time in clock ticks since boot."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def run_rounds(wl, tracer, budget: float, first: int):
    """Whole rounds, starting at round index `first`, until `budget` seconds
    have passed, speed samples included; at least one.

    Returns each round's parts as {name: seconds at reference speed}, the
    results, the speed samples, and the peak resident set after RSS_ROUNDS
    rounds (or all, if fewer): a fixed amount of work, so that caches
    filling with fresh inputs weigh the same in every run.
    """
    parts, results, samples = [], [], []
    rss = None
    end = time.perf_counter() + budget
    while not results or time.perf_counter() < end:
        tracer.parts = []
        with tracer.round_span():
            results.append(wl.round(first + len(results), tracer))
        refs = [ref for _, _, ref in tracer.parts] + [speed.sample()]
        scaled = {}
        for i, (name, dt, _) in enumerate(tracer.parts):
            # a part's speed: the samples just before and just after it
            scaled[name] = scaled.get(name, 0.0) + dt * 2 * speed.REFERENCE_S / (refs[i] + refs[i + 1])
        parts.append(scaled)
        samples += refs
        if len(results) == RSS_ROUNDS:
            rss = peak_rss_mib()
    return parts, results, samples, rss or peak_rss_mib()


def round_seconds(parts) -> float:
    """The median of each part's time at reference speed over the rounds,
    summed over the parts of a round.  A part that straddles a change of
    the machine's speed, or meets an input far costlier than most, moves
    the median of its own part only a little."""
    names = {name for p in parts for name in p}
    return sum(statistics.median(p[name] for p in parts if name in p) for name in names)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # config.default_seed falls back on GBS_SEED; the benchmark seed alone decides
    os.environ.pop("GBS_SEED", None)
    if not (SRC / "gbs" / "cli.py").is_file():
        print(f"perfbench: no gbs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    except (OSError, KeyError, RuntimeError) as exc:
        print(f"perfbench: cannot build the {args.workload} inputs: {exc!r}", file=sys.stderr)
        return 2
    setup_raw = since_process_start()
    setup_s = setup_raw * speed.REFERENCE_S / speed.sample(5)

    budget = args.seconds / 2 if args.trace else args.seconds
    parts, results, samples, rss = run_rounds(wl, spans.Tracer(), budget, 0)
    run_s = round_seconds(parts)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    if args.trace:
        tracer = spans.SpanTracer()
        tparts, tres, tsamples, _ = run_rounds(wl, tracer, args.seconds / 2, len(parts))
        # the profiled round runs whole, between two speed samples
        before = speed.sample()
        prof = cProfile.Profile()
        prof.enable()
        presults = [wl.round(len(parts) + len(tparts), spans.Tracer(reference=None))]
        prof.disable()
        profile_scale = 2 * speed.REFERENCE_S / (before + speed.sample())
        results += tres + presults
        modules = spans.module_profile(prof, SRC / "gbs")
        span_scale = speed.REFERENCE_S / statistics.median(tsamples)
        metrics = layer_metrics(tracer, len(tparts), modules, span_scale, profile_scale)
        metrics["trace.overhead_s"] = (round_seconds(tparts) - run_s, "s")
        write_outputs(args.workload, tracer, prof, metrics)

    attempted = failed = 0
    errors = []
    for res in results:
        a, f, e = wl.check(res)
        attempted, failed = attempted + a, failed + f
        errors += e
    for e in errors[:20]:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(parts)} rounds, setup {setup_raw:.3f} s, "
        f"round times at reference speed {' '.join(f'{sum(p.values()):.3f}' for p in parts)} s, "
        f"median speed sample {statistics.median(samples) * 1e3:.2f} ms, run_s {run_s:.3f} s, "
        f"peak rss {rss:.1f} MiB",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


def layer_metrics(tracer, rounds: int, modules, span_scale: float, module_scale: float) -> dict:
    """Per-round span totals for every named span, then per-module profile;
    times scaled to reference speed by the given factors."""
    totals = tracer.totals()
    out = {}
    for name in SPAN_NAMES:
        calls, busy = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / rounds, "count")
        out[f"{name}.busy_s"] = (busy / rounds * span_scale, "s")
    for mod, (calls, self_s) in modules.items():
        out[f"{mod}.calls"] = (calls, "count")
        out[f"{mod}.self_s"] = (self_s * module_scale, "s")
    return out


def write_outputs(workload: str, tracer, prof, metrics: dict) -> None:
    """Spans as TSV, per-layer numbers as JSON, and the raw profile."""
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}.tsv")
    with open(OUT / f"layers-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({k: v for k, (v, _) in metrics.items()}, fh, indent=1, sort_keys=True)
    prof.dump_stats(OUT / f"profile-{workload}.pstats")


if __name__ == "__main__":
    sys.exit(main())
