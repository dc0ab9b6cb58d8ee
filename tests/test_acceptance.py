"""Acceptance gate: ten desk-scale properties, one printed line per criterion.

The printed lines bypass capture, so a plain pytest run shows them; criteria
with a pinned wall-clock budget assert it.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
import zlib
from functools import lru_cache
from pathlib import Path

import pytest

import _specgen as sg
from gbs.cli import run_command
from gbs.codes import (
    BorelCode,
    CodeTree,
    InitialSegment,
    LeafCondition,
    approx_lemma_check,
    code_id,
    code_join,
    code_jump,
    game_member,
    is_eqrel_on_approx,
    is_good,
    red_S_to_cub,
)
from gbs.dsl import parse_spec, print_spec
from gbs.generators import (
    equivalent_pair,
    gen_bits,
    gen_point,
    inequivalent_pair,
    related_triple,
    sample_pair,
)
from gbs.groups import GroupAction, PermuteCoords, ac1_criterion, cyclic_group, cylinder_enumeration, red_action_to_E0, symmetric_group
from gbs.ordinals import OMEGA, OMEGA_SQ, ONE, ZERO, nat, omega_times
from gbs.patterns import PatternMap, pm_eval, pm_restrict, pm_splice, pm_write_finite, pm_zip
from gbs.reductions import decide_e0_off, red_E0_to_E1, red_E0_to_idplus, red_E1_to_E0
from gbs.relations import (
    decide,
    rel_cub,
    rel_e0,
    rel_e1,
    rel_e1_approx,
    rel_id,
    rel_idplus,
    rel_idplus_star,
    rel_join,
    rel_jump,
)
from gbs.spaces import BITS, ORDS, Bits, Family, word_from_bits, xor_prefix

MALFORMED = Path(__file__).parent / "data" / "malformed"
GRID = 20


@contextlib.contextmanager
def criterion(capsys, num: int, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} FAIL  {name}")
        raise
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion {num:2d} pass  {name} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 1: the game solver against a naive minimax oracle, exhaustively
# over small trees
# ---------------------------------------------------------------------------

ENTRIES = (ZERO, ONE, OMEGA, OMEGA + 1)

W = word_from_bits


def _seg(bits, side):
    return InitialSegment(W(bits), side)


COND_POOL = (
    LeafCondition((), "all"),
    LeafCondition((_seg([0], "left"),)),
    LeafCondition((_seg([1], "right"),)),
    LeafCondition((_seg([0], "left"), _seg([0], "right"))),
    LeafCondition((_seg([1], "left"), _seg([1], "right")), "iff"),
    LeafCondition((_seg([0, 1], "left"),), "iff"),
    LeafCondition((_seg([1], "left"), _seg([0], "right"))),
    LeafCondition((_seg([0], "left"),), "all", (_seg([1], "right"),)),
    LeafCondition((_seg([1, 1], "right"),)),
    LeafCondition((_seg([0, 0], "left"), _seg([0], "right")), "iff"),
    LeafCondition((_seg([1], "left"),), "all", (_seg([0, 0], "left"),)),
    LeafCondition((_seg([0], "right"), _seg([1], "right"))),
)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _shapes(n):
    """Trees with n nodes whose child edges carry distinct ENTRIES labels."""
    if n == 1:
        return ((),)
    out = []
    for k in range(1, min(4, n - 1) + 1):
        for slots in itertools.combinations(range(4), k):
            for split in _compositions(n - 1, k):
                for subs in itertools.product(*(_shapes(m) for m in split)):
                    out.append(tuple(zip(slots, subs)))
    return tuple(out)


def _shape_nodes(shape, prefix=()):
    nodes = [prefix]
    for slot, sub in shape:
        nodes.extend(_shape_nodes(sub, prefix + (ENTRIES[slot],)))
    return nodes


@pytest.fixture(scope="module")
def code_pool():
    census = {}
    codes = []
    i = 0
    for n in range(1, 7):
        shapes = _shapes(n)
        census[n] = len(shapes)
        for sh in shapes:
            tree = CodeTree(_shape_nodes(sh))
            labels = {leaf: COND_POOL[(i + j) % 12] for j, leaf in enumerate(tree.leaves)}
            codes.append(BorelCode(tree, labels, BITS, 2))
            i += 1
    assert census == {1: 1, 2: 4, 3: 22, 4: 140, 5: 969, 6: 7084}
    assert len(codes) == 8220
    return codes


@pytest.fixture(scope="module")
def probe_pairs():
    pts = []
    for i in range(50):
        prefix = [(i >> b) & 1 for b in range(6)]
        base = PatternMap.constant(OMEGA_SQ, (i >> 5) & 1)
        pts.append(Bits(pm_write_finite(base, prefix)))
    return [(pts[i], pts[(i * 7 + 13) % 50]) for i in range(50)]


def _oracle_member(code, x, y, cond_truth):
    """Naive top-down minimax; leaf truths computed from raw sequence values."""

    def win(node):
        kids = code.tree.children[node]
        if not kids:
            lab = code.labels.get(node)
            return lab is not None and cond_truth[lab]
        if len(node) % 2 == 0:
            return all(win(k) for k in kids)
        return any(win(k) for k in kids)

    return win(())


def _cond_table(x, y):
    def seg(atom):
        p = y if atom.side == "right" else x
        k = atom.word.dom.to_nat()
        return all(pm_eval(p.seq, nat(i)) == pm_eval(atom.word.bits, nat(i)) for i in range(k))

    def cond(c):
        if any(not seg(g) for g in c.guards):
            return True
        if c.mode == "all":
            return all(seg(a) for a in c.atoms)
        left = all(seg(a) for a in c.atoms if a.side == "left")
        right = all(seg(a) for a in c.atoms if a.side != "left")
        return left == right

    return {c: cond(c) for c in COND_POOL}


def test_criterion_1_game_oracle(capsys, code_pool, probe_pairs):
    with criterion(capsys, 1, "game solver equals naive minimax on 8220 codes x 50 probes"):
        t0 = time.perf_counter()
        tables = [_cond_table(x, y) for x, y in probe_pairs]
        for code in code_pool:
            for (x, y), table in zip(probe_pairs, tables):
                assert game_member((x, y), code) == _oracle_member(code, x, y, table)
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 2: every catalogued relation is an equivalence relation on
# generated data
# ---------------------------------------------------------------------------


RELATION_ROWS = (
    ("id", rel_id()),
    ("e0 binary", rel_e0()),
    ("e0 ordinal", rel_e0(ORDS)),
    ("e1", rel_e1()),
    ("e1 approx w*5", rel_e1_approx(omega_times(5))),
    ("idplus", rel_idplus()),
    ("idplus-star", rel_idplus_star()),
    ("cub literal", rel_cub("Literal", "binary")),
    ("cub structural", rel_cub("Structural", "binary")),
    ("jump id", rel_jump(rel_id())),
    ("join", rel_join((rel_e0(), rel_id(ORDS)))),
)


def test_criterion_2_relation_axioms(capsys):
    with criterion(capsys, 2, "reflexive/symmetric/transitive on all catalogued relations"):
        t0 = time.perf_counter()
        for name, rel in RELATION_ROWS:
            rng = random.Random(zlib.crc32(name.encode()))
            for _ in range(1000):
                x = gen_point(rng, rel.space)
                assert decide(rel, x, x), name
            for _ in range(1000):
                x, y = sample_pair(rng, rel)
                assert decide(rel, x, y) == decide(rel, y, x), name
            for _ in range(500):
                x, y, z = related_triple(rng, rel)
                assert decide(rel, x, y) and decide(rel, y, z), name
                assert decide(rel, x, z), name
        assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 3: the two-way translation between tail equivalence on families
# and bounded disagreement on sequences
# ---------------------------------------------------------------------------


def test_criterion_3_e1_e0_equivalence(capsys):
    with criterion(capsys, 3, "E1<->E0 maps biconditional on 2x(500+500) pairs"):
        t0 = time.perf_counter()
        rng = random.Random(0xACC3)
        for rel, red, tgt in (
            (rel_e1(), red_E1_to_E0, rel_e0(ORDS)),
            (rel_e0(), red_E0_to_E1, rel_e1()),
        ):
            for _ in range(500):
                x, y = equivalent_pair(rng, rel)
                assert decide(rel, x, y)
                assert decide(tgt, red(x), red(y))
            for _ in range(500):
                x, y = inequivalent_pair(rng, rel)
                assert not decide(rel, x, y)
                assert not decide(tgt, red(x), red(y))
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 4: the parametric coset map out of relative E0
# ---------------------------------------------------------------------------


def _flip_at(x, positions):
    top = max(positions) + 1
    ind = [1 if i in positions else 0 for i in range(top)]
    return xor_prefix(W(ind), x)


def test_criterion_4_e0_to_idplus(capsys):
    with criterion(capsys, 4, "E0^S -> idplus biconditional, |S| in 1..4"):
        rng = random.Random(0xACC4)
        for support in ((0,), (0, 2), (1, 2, 4), (0, 1, 3, 5)):
            off = [p for p in range(8) if p not in support]
            for _ in range(100):
                eta = gen_bits(rng)
                feta = red_E0_to_idplus(support, eta)
                for mask in itertools.product((0, 1), repeat=len(support)):
                    hot = {s for s, m in zip(support, mask) if m}
                    y = _flip_at(eta, hot) if hot else eta
                    assert decide_e0_off(support, eta, y)
                    assert decide(rel_idplus(), feta, red_E0_to_idplus(support, y))
            for i in range(200):
                x = gen_bits(rng)
                hot = set(rng.sample(off, rng.randint(1, 2)))
                hot |= {s for s in support if rng.random() < 0.3}
                y = _flip_at(x, hot)
                if i % 4 == 0:
                    # also break agreement cofinally
                    every = PatternMap.build(x.bound, [(ZERO, x.bound, 0, (1,))])
                    y = Bits(pm_zip(y.seq, every, lambda a, b: a ^ b))
                assert not decide_e0_off(support, x, y)
                assert not decide(rel_idplus(), 
                    red_E0_to_idplus(support, x), red_E0_to_idplus(support, y)
                )


# ---------------------------------------------------------------------------
# criterion 5: finite actions against the orbit partition of a supported
# carrier
# ---------------------------------------------------------------------------


def _carrier(m=6):
    base = PatternMap.constant(OMEGA_SQ, 0)
    return [Bits(pm_write_finite(base, list(bits))) for bits in itertools.product((0, 1), repeat=m)]


ACTION_ROWS = (
    ("z2 swap", GroupAction(cyclic_group(2), PermuteCoords(((0, 1), (1, 0)), 2))),
    ("z4 rotate", sg._rotation_action(4)),
    ("s3 permute", sg._s3_action()),
)


def test_criterion_5_actions_to_e0(capsys):
    with criterion(capsys, 5, "orbit partition = E0 image = trace criterion on 64-point carriers"):
        t0 = time.perf_counter()
        e0_ords = rel_e0(ORDS)
        for name, act in ACTION_ROWS:
            carrier = _carrier()
            orbit_of = {}
            for p in carrier:
                if p in orbit_of:
                    continue
                orb, frontier = set(), {p}
                while frontier:
                    q = frontier.pop()
                    if q in orb:
                        continue
                    orb.add(q)
                    for g in range(act.group.order):
                        frontier.add(act.apply(g, q))
                orb = frozenset(orb)
                for q in orb:
                    orbit_of[q] = orb
            enum = cylinder_enumeration(7)
            images = {p: red_action_to_E0(act, p, enum=enum) for p in carrier}
            for x, y in itertools.combinations_with_replacement(carrier, 2):
                same = y in orbit_of[x]
                assert decide(e0_ords, images[x], images[y]) == same, name
                assert ac1_criterion(act, enum, x, y) == same, name
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 6: restricted games stabilize for the exhaustive pool and the
# class constructions
# ---------------------------------------------------------------------------


def test_criterion_6_approximation_stability(capsys, code_pool, probe_pairs):
    with criterion(capsys, 6, "restricted-game verdicts stabilize across the grid"):
        for i, code in enumerate(code_pool):
            rep = approx_lemma_check(code, probe_pairs[i % 50], GRID)
            assert rep.stable
        rng = random.Random(0xACC6)
        jump = code_jump(code_id(4), 2)
        for code in (code_id(4), jump, code_join([code_id(4), jump])):
            for _ in range(50):
                pair = (gen_point(rng, code.space), gen_point(rng, code.space))
                assert approx_lemma_check(code, pair, GRID).stable


# ---------------------------------------------------------------------------
# criterion 7: coded relations reduce to structural cub-agreement of their
# class-code sequences
# ---------------------------------------------------------------------------


def _equiv_edit(rng, code, x):
    pv = code.provenance
    if pv[0] == "id":
        cut = nat(pv[1] - 1)
        fresh = gen_bits(rng, x.bound)
        return Bits(pm_splice(fresh.seq, cut, pm_restrict(x.seq, cut)))
    j = pv[2]
    vals = [pm_eval(x.assignment, nat(i)) for i in range(j)]
    return Family(x.components, pm_write_finite(x.assignment, vals[1:] + vals[:1]))


def _flip_class(p):
    if isinstance(p, Bits):
        return xor_prefix(W([1]), p)
    i0 = pm_eval(p.assignment, ZERO)
    comps = list(p.components)
    comps[i0] = _flip_class(comps[i0])
    return Family(comps, p.assignment)


def _break_edit(rng, code, x):
    if code.provenance[0] == "id":
        return xor_prefix(W([1]), x)
    return _flip_class(x)


TOWER_CODES = (
    code_id(4),
    code_jump(code_id(4), 2),
    code_jump(code_jump(code_id(4), 2), 2),
)


def test_criterion_7_class_codes_to_cub(capsys):
    with criterion(capsys, 7, "x E y iff structural cub-agreement of class codes, 3 codes x 300 pairs"):
        cub = rel_cub("Structural", "ordinal")
        rng = random.Random(0xACC7)
        for code in TOWER_CODES:
            f = red_S_to_cub(code, sample_budget=30, seed=11)
            cache = {}

            def F(p):
                if p not in cache:
                    cache[p] = f(p)
                return cache[p]

            eq = ineq = tries = 0
            while (eq < 150 or ineq < 150) and tries < 4000:
                tries += 1
                x = gen_point(rng, code.space)
                y = _equiv_edit(rng, code, x) if (tries % 2 or ineq >= 150) and eq < 150 else _break_edit(rng, code, x)
                want = game_member((x, y), code)
                if want and eq < 150:
                    eq += 1
                elif not want and ineq < 150:
                    ineq += 1
                else:
                    continue
                assert decide(cub, F(x), F(y)) == want
            assert eq == 150 and ineq == 150


# ---------------------------------------------------------------------------
# criterion 8: denotations are equivalence relations at every checked good
# limit; a planted asymmetry is caught
# ---------------------------------------------------------------------------


def _asym_mutant():
    z, o = ZERO, ONE
    tree = CodeTree([(), (z,), (z, z), (z, o)])
    labels = {
        (z, z): LeafCondition((_seg([1], "left"), _seg([1], "right")), "iff"),
        (z, o): LeafCondition((_seg([1, 1], "left"),)),
    }
    return BorelCode(tree, labels, BITS, 2)


def test_criterion_8_eqrel_closure(capsys):
    with criterion(capsys, 8, "equivalence at every checked good limit; asymmetric mutant fails"):
        for code in TOWER_CODES:
            first = code.content_bound.block_index().to_nat() + 1
            goods = [
                omega_times(q)
                for q in range(max(1, first), GRID + 1)
                if is_good(code, omega_times(q))
            ]
            assert goods
            for a in goods:
                assert is_eqrel_on_approx(code, a, sample_budget=24, seed=5)
        mutant = _asym_mutant()
        assert is_good(mutant, OMEGA)
        assert not is_eqrel_on_approx(mutant, OMEGA, sample_budget=40, seed=3)


# ---------------------------------------------------------------------------
# criterion 9: arithmetic against the lexicographic pair oracle
# ---------------------------------------------------------------------------


def test_criterion_9_ordinal_arithmetic(capsys):
    with criterion(capsys, 9, "addition and order match the lex-pair oracle below w*5+5"):
        t0 = time.perf_counter()
        window = [(q, n) for q in range(5) for n in range(10)]
        window += [(5, n) for n in range(5)]
        as_ord = {p: omega_times(*p) for p in window}

        def o_add(a, b):
            return (a[0] + b[0], b[1]) if b[0] else (a[0], a[1] + b[1])

        def as_pair(o):
            return (o.block_index().to_nat(), o.nat_part())

        for a, b in itertools.product(window, repeat=2):
            assert as_pair(as_ord[a] + as_ord[b]) == o_add(a, b)
            assert (as_ord[a] < as_ord[b]) == (a < b)
            assert (as_ord[a] == as_ord[b]) == (a == b)
        for a, b, c in itertools.product(window, repeat=3):
            x, y, z = as_ord[a], as_ord[b], as_ord[c]
            assert (x + y) + z == x + (y + z)
            if x < y and y < z:
                assert x < z
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 10: the document language round-trips and rejects garbage with
# positions
# ---------------------------------------------------------------------------


def test_criterion_10_dsl(capsys):
    with criterion(capsys, 10, "1000 round-trips; 30 malformed files exit 2 with positions"):
        rng = random.Random(0xACC10)
        for _ in range(1000):
            doc = sg.gen_doc(rng)
            assert parse_spec(print_spec(doc)) == doc
        files = sorted(MALFORMED.glob("*.gbs"))
        assert len(files) == 30
        for path in files:
            rc = run_command(["check-reduction", str(path)])
            out, err = capsys.readouterr()
            assert rc == 2, path.name
            assert "line" in err, path.name
