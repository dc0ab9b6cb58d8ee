from __future__ import annotations

import random

import pytest

import _specgen as sg
from gbs.config import WorkbenchConfig
from gbs.groups import GroupAction, PermuteCoords, cyclic_group, symmetric_group
from gbs import harness
from gbs.harness import GenPolicy, HarnessError, ReductionSpec, verify_orbit, verify_reduction
from gbs.ordinals import OMEGA, OMEGA_SQ, Ordinal, nat
from gbs.relations import RelationError, decide, rel_e0, rel_e1, rel_e1_approx, rel_id, rel_idplus
from gbs.spaces import BITS, ORDS, Bits, zeros

FAST = WorkbenchConfig(word_bound=nat(3), sample_count=12, seed=0xBEEF)


def spec_for(map_name, policy, params=()):
    table = {
        "e1-to-e0": (rel_e1(), rel_e0(ORDS)),
        "e0-to-e1": (rel_e0(), rel_e1()),
        "e0-to-idplus": (rel_e0(), rel_idplus()),
        "broken-constant": (rel_e0(), rel_e0()),
    }
    src, tgt = table[map_name]
    return ReductionSpec(src, tgt, map_name, params, policy)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_e1_to_e0_passes_constructed():
    r = verify_reduction(spec_for("e1-to-e0", GenPolicy("constructed", n_eq=8, n_ineq=8)), FAST)
    assert r.verdict == "pass"
    assert r.checked == 16
    assert r.failed == 0
    assert r.counterexample is None


def test_e0_to_e1_passes_sampled_and_exhaustive():
    r = verify_reduction(spec_for("e0-to-e1", GenPolicy("sampled", n=25)), FAST)
    assert (r.verdict, r.checked) == ("pass", 25)
    r = verify_reduction(spec_for("e0-to-e1", GenPolicy("exhaustive")), FAST)
    # 7 words below dom 3, two constant tails each: 14 points, 105 pairs.
    assert (r.verdict, r.checked) == ("pass", 105)


def test_e0_to_idplus_passes_with_support():
    r = verify_reduction(
        spec_for("e0-to-idplus", GenPolicy("constructed", n_eq=10, n_ineq=10), params=(0, 2)),
        FAST,
    )
    assert (r.verdict, r.checked) == ("pass", 20)
    r = verify_reduction(spec_for("e0-to-idplus", GenPolicy("exhaustive"), params=(1,)), FAST)
    assert (r.verdict, r.checked) == ("pass", 105)


def test_broken_map_fails_with_replayable_counterexample():
    r = verify_reduction(spec_for("broken-constant", GenPolicy("constructed", n_eq=2, n_ineq=2)), FAST)
    assert r.verdict == "fail"
    assert r.failed == 1
    x, y = r.counterexample
    # Everything lands on the zero sequence, so any source-inequivalent pair
    # witnesses the break; the pair must replay against the source relation.
    assert decide(rel_e0(), x, y) is False
    assert "broken-constant" in r.detail


def test_counterexample_is_shrunk_small():
    r = verify_reduction(spec_for("broken-constant", GenPolicy("sampled", n=40)), FAST)
    assert r.verdict == "fail"
    for side in r.counterexample:
        assert len(side.seq.pieces) <= 2


def test_exhaustive_failure_is_deterministic():
    spec = spec_for("broken-constant", GenPolicy("exhaustive"))
    a = verify_reduction(spec, FAST).to_json()
    b = verify_reduction(spec, FAST).to_json()
    a.pop("elapsedMs"), b.pop("elapsedMs")
    assert a == b
    assert a["verdict"] == "fail"


def test_same_seed_same_report():
    spec = spec_for("e1-to-e0", GenPolicy("sampled", n=15))
    a = verify_reduction(spec, FAST).to_json()
    b = verify_reduction(spec, FAST).to_json()
    a.pop("elapsedMs"), b.pop("elapsedMs")
    assert a == b


def test_report_json_shape():
    r = verify_reduction(spec_for("e0-to-e1", GenPolicy("sampled", n=5)), FAST)
    j = r.to_json()
    assert set(j) == {"verdict", "checked", "failed", "seed", "lambda", "elapsedMs"}
    assert j["lambda"] == "w^2"
    assert j["seed"] == 0xBEEF
    assert isinstance(j["elapsedMs"], int)


def test_fail_json_carries_printable_counterexample():
    from gbs.dsl import parse_spec

    r = verify_reduction(spec_for("broken-constant", GenPolicy("constructed", n_eq=0, n_ineq=3)), FAST)
    j = r.to_json()
    assert set(j) == {"verdict", "checked", "failed", "seed", "lambda",
                      "elapsedMs", "counterexample", "detail"}
    assert parse_spec(j["counterexample"]["x"]) == r.counterexample[0]
    assert parse_spec(j["counterexample"]["y"]) == r.counterexample[1]


# ---------------------------------------------------------------------------
# input errors and spec validation
# ---------------------------------------------------------------------------


def test_exhaustive_needs_binary_source():
    r = verify_reduction(spec_for("e1-to-e0", GenPolicy("exhaustive")), FAST)
    assert r.verdict == "inputError"
    assert "binary sequence space" in r.detail


def test_exhaustive_needs_finite_word_bound():
    cfg = WorkbenchConfig(word_bound=OMEGA, sample_count=5, seed=1)
    r = verify_reduction(spec_for("e0-to-e1", GenPolicy("exhaustive")), cfg)
    assert r.verdict == "inputError"
    assert "finite word bound" in r.detail


def test_raising_map_is_input_error():
    # a support of 7 positions is over the map's bound of 6, so every call raises
    spec = spec_for("e0-to-idplus", GenPolicy("constructed", n_eq=5, n_ineq=5), params=tuple(range(7)))
    r = verify_reduction(spec, FAST)
    assert (r.verdict, r.checked, r.failed) == ("inputError", 0, 0)
    assert r.counterexample is None
    assert "pair 1 raised under e0-to-idplus" in r.detail
    assert "exceeds the bound 6" in r.detail


def test_approximation_level_above_lambda_is_input_error(monkeypatch):
    # rejected when the spec is resolved against the run's lambda, before any pair is drawn
    monkeypatch.setattr(harness, "_generate", lambda *a: pytest.fail("pairs were drawn"))
    w3 = Ordinal(((3, 1),))
    policy = GenPolicy("sampled", n=4)
    for spec, side in (
        (ReductionSpec(rel_e1_approx(w3), rel_e0(ORDS), "e1-to-e0", (), policy), "source"),
        (ReductionSpec(rel_e0(), rel_e1_approx(w3), "e0-to-e1", (), policy), "target"),
    ):
        r = verify_reduction(spec, FAST)
        assert (r.verdict, r.checked, r.failed) == ("inputError", 0, 0)
        assert r.detail == f"approximation level w^3 of the {side} relation exceeds lambda w^2"


def test_approximation_level_at_lambda_is_checked():
    spec = ReductionSpec(rel_e0(), rel_e1_approx(OMEGA_SQ), "e0-to-e1", (), GenPolicy("sampled", n=6))
    r = verify_reduction(spec, FAST)
    assert (r.verdict, r.checked) == ("pass", 6)


def _raising_decider(monkeypatch, culprit):
    real = harness.decide

    def fake(rel, x, y):
        if rel == culprit:
            raise RelationError("boom")
        return real(rel, x, y)

    monkeypatch.setattr(harness, "decide", fake)


@pytest.mark.parametrize(
    "side, stage",
    [("source", "in the source decider e0 on bits"), ("target", "in the target decider e1 on family(bits)")],
)
def test_a_raising_decider_is_blamed_not_the_map(monkeypatch, side, stage):
    spec = spec_for("e0-to-e1", GenPolicy("sampled", n=5))
    _raising_decider(monkeypatch, getattr(spec, side))
    r = verify_reduction(spec, FAST)
    assert (r.verdict, r.checked, r.failed) == ("inputError", 0, 0)
    assert r.detail == f"pair 1 raised {stage}: boom"


def test_unknown_map_rejected_at_construction():
    with pytest.raises(HarnessError, match="unknown reduction map"):
        ReductionSpec(rel_e0(), rel_e1(), "nosuch", (), GenPolicy("sampled", n=1))


def test_space_mismatch_rejected_at_construction():
    with pytest.raises(HarnessError, match="consumes"):
        ReductionSpec(rel_e0(ORDS), rel_e1(), "e0-to-e1", (), GenPolicy("sampled", n=1))
    with pytest.raises(HarnessError, match="produces"):
        ReductionSpec(rel_e1(), rel_id(), "e1-to-e0", (), GenPolicy("sampled", n=1))


def test_stray_params_rejected():
    with pytest.raises(HarnessError, match="takes no parameters"):
        ReductionSpec(rel_e1(), rel_e0(ORDS), "e1-to-e0", (3,), GenPolicy("sampled", n=1))
    with pytest.raises(HarnessError, match="naturals"):
        ReductionSpec(rel_e0(), rel_idplus(), "e0-to-idplus", (-1,), GenPolicy("sampled", n=1))


def test_policy_validation():
    with pytest.raises(HarnessError, match="unknown pair policy"):
        GenPolicy("fuzzed")
    with pytest.raises(HarnessError, match="positive count"):
        GenPolicy("sampled", n=0)
    with pytest.raises(HarnessError, match="at least one pair"):
        GenPolicy("constructed")
    with pytest.raises(HarnessError, match="naturals"):
        GenPolicy("constructed", n_eq=-2, n_ineq=4)


# ---------------------------------------------------------------------------
# orbit verification
# ---------------------------------------------------------------------------


def test_orbit_rotation_passes():
    act = sg._rotation_action(4)
    r = verify_orbit(act, FAST, pairs=8)
    assert r.verdict == "pass"
    assert r.checked >= 8


def test_orbit_s3_passes():
    g, perms = symmetric_group(3)
    r = verify_orbit(GroupAction(g, PermuteCoords(perms, 3)), FAST, pairs=6)
    assert r.verdict == "pass"


def test_orbit_xor_passes_with_base_point():
    act = sg._ACTIONS[0]
    base = zeros(OMEGA_SQ)
    r = verify_orbit(act, FAST, base=base, pairs=5)
    assert r.verdict == "pass"


def test_orbit_report_is_deterministic():
    act = sg._rotation_action(3)
    a = verify_orbit(act, FAST, pairs=6).to_json()
    b = verify_orbit(act, FAST, pairs=6).to_json()
    a.pop("elapsedMs"), b.pop("elapsedMs")
    assert a == b
