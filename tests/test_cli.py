from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gbs.cli import run_command
from gbs.dsl import parse_spec

SPECS = Path(__file__).parent.parent / "specs"
MALFORMED = Path(__file__).parent / "data" / "malformed"

X0 = "(bits [0,w^2) lim=0 word=0)"
X1 = "(bits [0,w^2) lim=0 word=1)"
XFIN = "(bits [0,3) lim=1 word=1; [3,w^2) lim=0 word=0)"


def run(capsys, *argv):
    code = run_command([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def test_decide_true_from_files(capsys):
    code, out, _ = run(capsys, "decide", "e0", SPECS / "seq-a.gbs", SPECS / "seq-b.gbs")
    assert (code, out) == (0, "true\n")


def test_decide_false_inline(capsys):
    code, out, _ = run(capsys, "decide", "e0", X0, X1)
    assert (code, out) == (0, "false\n")


def test_decide_parenthesised_relation(capsys):
    # Structural cub-agreement: a finite disturbance is invisible, but
    # flipping every limit value kills agreement on any final limit segment.
    code, out, _ = run(capsys, "decide", "(cub Structural binary)", X0, XFIN)
    assert (code, out) == (0, "true\n")
    xlim = "(bits [0,w^2) lim=1 word=0)"
    code, out, _ = run(capsys, "decide", "(cub Structural binary)", X0, xlim)
    assert (code, out) == (0, "false\n")


def test_decide_json_schema(capsys):
    code, out, _ = run(capsys, "decide", "id", X0, X0, "--json")
    assert code == 0
    j = json.loads(out)
    assert j["result"] is True
    assert set(j) == {"verdict", "checked", "failed", "seed", "lambda", "elapsedMs", "result"}


def test_decide_space_mismatch_is_input_error(capsys):
    code, _, err = run(capsys, "decide", "(id ords)", X0, X0)
    assert code == 2
    assert err.startswith("gbs: ")


def test_decide_unequal_bounds_is_input_error(capsys):
    code, out, err = run(capsys, "decide", "e0", X0, "(bits [0,w*3) lim=0 word=0)")
    assert (code, out) == (2, "")
    assert err.startswith("gbs: ")
    assert "unequal bounds w^2 and w*3" in err


def test_decide_bad_point_reports_position(capsys):
    code, _, err = run(capsys, "decide", "e0", "(bits [0,w^2) lim=2 word=0)", X0)
    assert code == 2
    assert "line" in err


# ---------------------------------------------------------------------------
# check-reduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["e1-to-e0", "e0-to-e1", "e0-to-idplus"])
def test_shipped_reductions_pass(capsys, name):
    code, out, _ = run(capsys, "check-reduction", SPECS / f"{name}.gbs")
    assert code == 0
    assert out.startswith("verdict: pass")


def test_mutant_fails_with_counterexample(capsys):
    code, out, _ = run(capsys, "check-reduction", SPECS / "mutants" / "broken-constant.gbs", "--json")
    assert code == 1
    j = json.loads(out)
    assert j["verdict"] == "fail"
    x = parse_spec(j["counterexample"]["x"])
    y = parse_spec(j["counterexample"]["y"])
    assert x != y
    assert "broken-constant" in j["detail"]


def test_wrong_source_mutant_fails_deterministically(capsys):
    code, out, _ = run(capsys, "check-reduction", SPECS / "mutants" / "e0-to-e1-wrong-source.gbs")
    assert code == 1
    assert out.startswith("verdict: fail")


def test_wrong_target_mutant_fails(capsys):
    code, out, _ = run(capsys, "check-reduction", SPECS / "mutants" / "e1-to-e0-wrong-target.gbs", "--json")
    assert code == 1
    assert json.loads(out)["failed"] == 1


def test_check_reduction_raising_map_exits_2(capsys, tmp_path):
    doc = tmp_path / "raising.gbs"
    doc.write_text(
        "(reduction (source (e0)) (target (idplus)) (map e0-to-idplus 0 1 2 3 4 5 6)"
        " (pairs (constructed 5 5)))\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check-reduction", doc, "--json")
    assert code == 2
    assert json.loads(out)["verdict"] == "inputError"
    assert err.startswith("gbs: pair 1 raised under e0-to-idplus")


def test_check_reduction_rejects_unchecked_lambda(capsys):
    # the pair generators draw below w^2, so no other bound may be reported
    code, out, err = run(capsys, "--lambda", "w^3", "check-reduction", SPECS / "e1-to-e0.gbs", "--json")
    assert code == 2
    j = json.loads(out)
    assert j["verdict"] == "inputError"
    assert j["checked"] == 0
    assert err.startswith("gbs: reductions are checked at lambda w^2 only")


def test_check_reduction_wrong_document_kind(capsys):
    code, _, err = run(capsys, "check-reduction", SPECS / "game-id.gbs")
    assert code == 2
    assert "expected a reduction document" in err


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def test_eval_game_member(capsys):
    code, out, _ = run(capsys, "eval-game", SPECS / "game-id.gbs")
    assert (code, out) == (0, "member\n")


def test_eval_game_json_strategy(capsys):
    code, out, _ = run(capsys, "eval-game", SPECS / "game-id.gbs", "--json")
    assert code == 0
    j = json.loads(out)
    assert j["member"] is True
    assert isinstance(j["strategyMoves"], int)


def test_approx_lemma_passes(capsys):
    code, out, _ = run(capsys, "approx-lemma", SPECS / "approx-jump.gbs")
    assert code == 0
    assert out.startswith("verdict: pass")


APPROX_W2 = "(approx (id-code 2) (points (bits [0,w^2) lim=0 word=0)))\n"


def test_eval_game_rejects_points_off_lambda(capsys):
    code, out, err = run(capsys, "--lambda", "w^3", "eval-game", SPECS / "game-id.gbs", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("gbs: ") and "point bounded by w^2, not lambda w^3" in err


def test_approx_lemma_rejects_points_off_lambda(capsys, tmp_path):
    doc = tmp_path / "mixed.gbs"
    doc.write_text(APPROX_W2)
    code, out, err = run(capsys, "--lambda", "w^3", "approx-lemma", doc, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("gbs: ") and "point bounded by w^2, not lambda w^3" in err


def test_document_points_pass_at_default_lambda(capsys, tmp_path):
    doc = tmp_path / "approx.gbs"
    doc.write_text(APPROX_W2)
    code, out, _ = run(capsys, "approx-lemma", doc, "--json")
    assert code == 0
    j = json.loads(out)
    assert (j["verdict"], j["checked"], j["lambda"]) == ("pass", 50, "w^2")
    code, out, _ = run(capsys, "eval-game", SPECS / "game-id.gbs", "--json")
    assert code == 0
    assert (json.loads(out)["verdict"], json.loads(out)["lambda"]) == ("pass", "w^2")


@pytest.mark.parametrize("doc", [
    "(approx (id-code 2) (points (ords [0,w^2) lim=0 word=0)))",
    "(game (id-code 3) (ords [0,w^2) lim=0 word=0) (bits [0,w^2) lim=0 word=0))",
])
def test_document_points_outside_the_code_space_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "doc.gbs"
    path.write_text(doc + "\n")
    command = "approx-lemma" if doc.startswith("(approx") else "eval-game"
    code, _, err = run(capsys, command, path)
    assert code == 2
    assert err.startswith("gbs: ") and "point does not inhabit bits" in err


def test_orbit_passes(capsys):
    code, out, _ = run(capsys, "orbit-e0", SPECS / "orbit-z4.gbs")
    assert code == 0
    assert out.startswith("verdict: pass")


def test_jump_tower_level_one(capsys):
    code, out, _ = run(capsys, "jump-tower", "1", "--samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("level 0:")
    assert lines[1].startswith("level 1:")
    assert all("ok" in ln for ln in lines)


def test_jump_tower_json_levels(capsys):
    code, out, _ = run(capsys, "jump-tower", "1", "--samples", "8", "--json")
    assert code == 0
    j = json.loads(out)
    assert [lv["level"] for lv in j["levels"]] == [0, 1]
    assert all(lv["equivalence"] for lv in j["levels"])
    assert j["levels"][1]["nodes"] > j["levels"][0]["nodes"]


def test_jump_tower_budget_cap(capsys):
    code, _, err = run(capsys, "jump-tower", "5")
    assert code == 2
    assert "desk-scale budget" in err


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def test_malformed_file_reports_position(capsys):
    code, _, err = run(capsys, "check-reduction", MALFORMED / "zero-policy.gbs")
    assert code == 2
    assert "line 5" in err


@pytest.mark.parametrize("text", ["]", "w]", "(e0 bits])"])
def test_stray_bracket_exits_2_with_position(tmp_path, text):
    # a child process, so that a parser that loops fails the test instead of hanging it
    doc = tmp_path / "stray.gbs"
    doc.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from gbs.cli import main; sys.exit(main())",
         "check-reduction", str(doc)],
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert proc.returncode == 2
    assert re.search(r"line 1, col \d+: ", proc.stderr), proc.stderr


def test_missing_file(capsys):
    code, _, err = run(capsys, "check-reduction", "no-such-file.gbs")
    assert code == 2
    assert "cannot read" in err


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "decide", "e0", X0, X0, "--loud")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "check-reduction" in out


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("GBS_SEED", "77")
    _, out, _ = run(capsys, "decide", "e0", X0, X0, "--json")
    assert json.loads(out)["seed"] == 77


def test_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("GBS_SEED", "77")
    _, out, _ = run(capsys, "--seed", "5", "decide", "e0", X0, X0, "--json")
    assert json.loads(out)["seed"] == 5


def test_flags_accepted_after_subcommand(capsys):
    _, out_a, _ = run(capsys, "--seed", "9", "decide", "e0", X0, X0, "--json")
    _, out_b, _ = run(capsys, "decide", "e0", X0, X0, "--seed", "9", "--json")
    assert json.loads(out_a)["seed"] == json.loads(out_b)["seed"] == 9


def test_config_file_and_flag_precedence(capsys, tmp_path):
    ini = tmp_path / "wb.ini"
    ini.write_text("[workbench]\nseed = 11\nsamples = 6\n")
    _, out, _ = run(capsys, "--config", ini, "decide", "e0", X0, X0, "--json")
    assert json.loads(out)["seed"] == 11
    _, out, _ = run(capsys, "--config", ini, "--seed", "4", "decide", "e0", X0, X0, "--json")
    assert json.loads(out)["seed"] == 4


def test_lambda_flag_changes_bound(capsys):
    xw3 = "(bits [0,w^3) lim=0 word=0)"
    code, out, _ = run(capsys, "--lambda", "w^3", "decide", "e0", xw3, xw3, "--json")
    assert code == 0
    j = json.loads(out)
    assert j["lambda"] == "w^3"
    assert j["result"] is True


def test_json_reports_are_deterministic(capsys):
    args = ("check-reduction", SPECS / "e0-to-e1.gbs", "--seed", "3", "--json")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    ja, jb = json.loads(a), json.loads(b)
    ja.pop("elapsedMs"), jb.pop("elapsedMs")
    assert ja == jb
