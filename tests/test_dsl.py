from __future__ import annotations

import random
from pathlib import Path

import pytest

import _specgen as sg
from gbs.dsl import DslError, parse_ordinal_text, parse_spec, print_spec
from gbs.ordinals import OMEGA, OMEGA_SQ, ZERO, nat, omega_times
from gbs.patterns import pm_eval
from gbs.relations import EqRelHandle
from gbs.spaces import Bits, Family

MALFORMED = Path(__file__).parent / "data" / "malformed"


# ---------------------------------------------------------------------------
# Frozen notation.
# ---------------------------------------------------------------------------


def test_ordinal_notation():
    o = parse_spec("w*3+1")
    assert o.terms == ((1, 3), (0, 1))
    assert print_spec(o) == "w*3+1"
    assert parse_spec("0") == ZERO
    assert parse_spec("w^2") == OMEGA_SQ
    assert print_spec(parse_spec("w^3*2+w*4+5")) == "w^3*2+w*4+5"


def test_ordinal_notation_is_lenient_on_input():
    # Left-absorbed terms are legal input; the printer never emits them.
    assert parse_spec("1+w") == OMEGA
    assert parse_spec("w+w") == omega_times(2)
    assert print_spec(parse_spec("w+w")) == "w*2"


def test_pattern_literal():
    pm = parse_spec("[0,w) lim=1 word=0; [w,w^2) lim=0 word=1")
    assert len(pm.pieces) == 2
    assert pm_eval(pm, ZERO) == 1
    assert pm_eval(pm, nat(3)) == 0
    assert pm_eval(pm, OMEGA) == 0
    assert pm_eval(pm, OMEGA + 1) == 1
    assert print_spec(pm) == "[0,w) lim=1 word=0; [w,w^2) lim=0 word=1"


def test_pattern_word_value_modes():
    # Digit-only words split per character; commas force per-entry parsing.
    pm = parse_spec("[0,w^2) lim=0 word=011")
    assert pm.pieces[0].word == (0, 1, 1)
    pm = parse_spec("[0,w^2) lim=2 word=2,12,0")
    assert pm.pieces[0].word == (2, 12, 0)


def test_whitespace_and_comments_are_free():
    text = "( e0   # relation over the default space\n    bits )"
    assert parse_spec(text) == parse_spec("(e0 bits)")


def test_ordinal_text_position_threading():
    with pytest.raises(DslError) as ei:
        parse_ordinal_text("w^^2", 4, 9)
    assert ei.value.line == 4
    assert ei.value.col == 9


# ---------------------------------------------------------------------------
# Round trips over the generated document distribution.
# ---------------------------------------------------------------------------


def test_round_trips():
    rng = random.Random(0xD5111)
    for i in range(300):
        doc = sg.gen_doc(rng)
        text = print_spec(doc)
        back = parse_spec(text)
        assert back == doc, f"case {i}:\n{text}"
        assert print_spec(back) == text, f"case {i} reprint drift"


def test_round_trip_covers_every_form():
    rng = random.Random(0xC0F)
    seen = set()
    for _ in range(400):
        seen.add(type(sg.gen_doc(rng)).__name__)
    assert {
        "Ordinal", "PatternMap", "Bits", "Ords", "Family", "Tagged",
        "FiniteWord", "BorelCode", "EqRelHandle", "GroupAction",
        "ReductionSpec", "GameSpec", "ApproxSpec", "OrbitSpec",
    } <= seen


def test_relation_print_is_canonical():
    # The default space is elided on output but accepted on input.
    r = parse_spec("(jump (join (e0 bits) (id ords)))")
    assert isinstance(r, EqRelHandle)
    assert print_spec(r) == "(jump (join (e0) (id ords)))"
    assert parse_spec(print_spec(r)) == r


# ---------------------------------------------------------------------------
# Malformed corpus: every file fails with a located error.
# ---------------------------------------------------------------------------


def _malformed_files():
    files = sorted(MALFORMED.glob("*.gbs"))
    assert len(files) == 30
    return files


@pytest.mark.parametrize("path", _malformed_files(), ids=lambda p: p.stem)
def test_malformed_file_is_rejected_with_position(path):
    with pytest.raises(DslError) as ei:
        parse_spec(path.read_text())
    err = ei.value
    assert err.line >= 1 and err.col >= 1
    assert str(err).startswith(f"line {err.line}, col {err.col}:")


# The exact message for each malformed file: position and wording together.
MALFORMED_ERRORS = {
    "bad-cub-mode": "line 1, col 1: unknown cub mode 'Literalish'",
    "bad-ordinal": "line 1, col 1: not an ordinal term: 'w^'",
    "bad-tag": "line 1, col 9: not an ordinal term: 'q'",
    "bit-value": "line 1, col 1: bit sequence with values outside {0,1}",
    "closed-range": "line 1, col 1: ranges are half-open: expected ')'",
    "e1-approx-succ": "line 1, col 1: approximation level must be a limit",
    "empty": "line 1, col 1: empty document",
    "extra-rel-args": "line 1, col 5: expected ')', got 'extra'",
    "family-bound": "line 1, col 1: component bound disagrees with assignment bound",
    "family-index": "line 1, col 1: assignment value 5 is not a component index",
    "game-no-points": "line 1, col 1: game document without points",
    "join-empty": "line 1, col 1: join of no codes",
    "mismatched-reduction": "line 1, col 1: map e0-to-e1 consumes bits, but the source relation lives on ords",
    "missing-pairs": "line 1, col 1: reduction spec missing ['pairs']",
    "missing-word": "line 1, col 14: unexpected end of input",
    "non-permutation": "line 1, col 1: not a permutation of the coordinate block",
    "orbit-ords-point": "line 1, col 35: orbit base point must be a bit sequence",
    "probes-ordinal": "line 1, col 29: expected a probe count, got 'w'",
    "rootless-code": "line 1, col 1: code tree without a root",
    "trailing": "line 1, col 5: trailing input 'w'",
    "truncated-range": "line 1, col 1: unterminated range",
    "unbalanced-close": "line 1, col 10: trailing input ')'",
    "unbalanced-open": "line 1, col 9: unexpected end of input",
    "unknown-form": "line 1, col 2: unknown form 'frob'",
    "unknown-group": "line 1, col 9: unknown group 'z5'",
    "unknown-map": "line 1, col 1: unknown reduction map 'nosuch'",
    "unsided-atom": "line 1, col 64: unknown atom side 'middle'",
    "word-digits": "line 1, col 7: expected a bit string, got '012'",
    "wrong-row-count": "line 1, col 1: one permutation per group element required",
    "zero-policy": "line 5, col 10: constructed policy needs at least one pair",
}


def test_malformed_error_table():
    got = {}
    for path in _malformed_files():
        with pytest.raises(DslError) as ei:
            parse_spec(path.read_text())
        got[path.stem] = str(ei.value)
    assert got == MALFORMED_ERRORS


def test_error_positions_are_not_all_at_the_start():
    hits = set()
    for path in _malformed_files():
        try:
            parse_spec(path.read_text())
        except DslError as e:
            hits.add((e.line, e.col))
    assert len(hits) > 5


@pytest.mark.parametrize("text", [
    "(reduction (source (e0)) (source (e0)) (target (e1)) (map e0-to-e1) (pairs exhaustive))",
    "(approx (id-code 2) (probes 1) (probes 2))",
    "(orbit (action z2 (xor 2 00 11)) (pairs 3) (pairs 4))",
    "(code bits 1 (tree (node) (node 0)) (labels (leaf (node 0) all (tag left 0 (unwrap 1) (unwrap 2)))))",
])
def test_repeated_clause_is_rejected(text):
    with pytest.raises(DslError, match="duplicate"):
        parse_spec(text)


def test_multiline_error_position():
    text = "(reduction\n  (source (e0 bits))\n  (target (e1))\n  (map e0-to-e1)\n  (pairs (constructed 0 0)))"
    with pytest.raises(DslError) as ei:
        parse_spec(text)
    assert ei.value.line == 5


def test_semantic_error_from_pattern_pieces():
    # Pieces that do not partition the bound fail during construction, and
    # the error still carries the document position.
    with pytest.raises(DslError) as ei:
        parse_spec("[0,w) lim=0 word=0; [w+1,w^2) lim=0 word=0")
    assert "line" in str(ei.value)


def test_family_of_patterns_parses_to_canonical_point():
    text = ("(family ((bits [0,w^2) lim=0 word=0) (bits [0,w^2) lim=1 word=1)) "
            "[0,w) lim=0 word=0; [w,w^2) lim=1 word=1)")
    fam = parse_spec(text)
    assert isinstance(fam, Family)
    assert len(fam.components) == 2
    assert parse_spec(print_spec(fam)) == fam
