"""The benchmark's own checks pass real outputs and flag broken ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gbs.codes import BorelCode, CodeTree, InitialSegment, LeafCondition  # noqa: E402
from gbs.ordinals import OMEGA_SQ, ONE, ZERO  # noqa: E402
from gbs.spaces import BITS, grid_ordvals, word_from_bits  # noqa: E402


@pytest.fixture(scope="module")
def sweep():
    return workloads.GameSweep(7, HERE.parent)


def test_game_sweep_round_passes(sweep):
    assert sweep.check(sweep.round(0, spans.Tracer()))[2] == []


def test_flipped_oracle_verdict_is_flagged(sweep):
    g, verdicts, reports = sweep.round(1, spans.Tracer())
    verdicts[1234] ^= 1
    errors = sweep.check((g, verdicts, reports))[2]
    assert any("disagrees with minimax on 1 inputs" in e for e in errors)


def _asymmetric_mutant() -> BorelCode:
    """The planted asymmetry of acceptance criterion 8."""

    def seg(bits, side):
        return InitialSegment(word_from_bits(bits), side)

    z, o = ZERO, ONE
    tree = CodeTree([(), (z,), (z, z), (z, o)])
    labels = {
        (z, z): LeafCondition((seg([1], "left"), seg([1], "right")), "iff"),
        (z, o): LeafCondition((seg([1, 1], "left"),)),
    }
    return BorelCode(tree, labels, BITS, 2)


def test_cub_tower_round_passes():
    tower = workloads.CubTower(7, HERE.parent)
    tower.codes = tower.codes[:2]
    assert tower.check(tower.round(0, spans.Tracer()))[2] == []


def test_asymmetric_mutant_is_flagged():
    tower = workloads.CubTower(7, HERE.parent)
    tower.codes = [_asymmetric_mutant()]
    errors = tower.check(tower.round(0, spans.Tracer()))[2]
    assert any("not an equivalence relation" in e for e in errors)


def test_constant_map_is_flagged():
    tower = workloads.CubTower(7, HERE.parent)
    tower.codes = tower.codes[:1]
    constant = grid_ordvals(OMEGA_SQ, [0])
    tower.reduce = lambda code, **kw: (lambda x: constant)
    errors = tower.check(tower.round(0, spans.Tracer()))[2]
    assert any("cub agreement True but game membership False" in e for e in errors)


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    modules = {m: [0, 0.0] for m in spans.MODULES}
    emitted = set(run.layer_metrics(spans.SpanTracer(), 1, modules, 1.0, 1.0)) | {"trace.overhead_s"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
