from __future__ import annotations

import copy
import random
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from gbs import codes
from gbs.codes import (
    ApproxReport,
    BorelCode,
    CodeError,
    CodeTree,
    ComponentConstraint,
    GameOutcome,
    InitialSegment,
    LeafCondition,
    TagEquals,
    approx_lemma_check,
    atom_position_bound,
    class_code,
    code_id,
    code_join,
    code_jump,
    code_restrict,
    game_eval,
    game_member,
    is_eqrel_on_approx,
    is_good,
    position_bound,
    red_S_to_cub,
)
from gbs.ordinals import OMEGA, OMEGA_SQ, ZERO, Ordinal, nat, omega_times
from gbs.patterns import PatternMap, pm_eval, pm_write_finite
from gbs.relations import CubParams, decide_cub, decide_idplus
from gbs.spaces import (
    BITS,
    Bits,
    Family,
    FiniteWord,
    Tagged,
    iter_words,
    point_code,
    word_from_bits,
    word_to_bits,
    zeros,
)

L = OMEGA_SQ
CUB = CubParams(value_space="ordinal", mode="Structural")


def W(*vals) -> FiniteWord:
    return word_from_bits(list(vals))


def pt(*vals) -> Bits:
    return word_to_bits(W(*vals), L)


def fam(comps, order) -> Family:
    return Family(comps, pm_write_finite(PatternMap.constant(L, 0), list(order)))


# ---------------------------------------------------------------------------
# independent minimax oracle
# ---------------------------------------------------------------------------
# Recomputes everything from scratch: children by scanning the node set,
# prefix checks by looping positions, no sharing with the implementation.


def _orc_strip(p):
    while isinstance(p, Tagged):
        p = p.payload
    return p


def _orc_prefix(p, word) -> bool:
    if not isinstance(p, Bits) or not word.dom.is_nat():
        return False
    d = word.dom.to_nat()
    if p.bound < word.dom:
        return False
    return all(pm_eval(p.seq, nat(i)) == pm_eval(word.bits, nat(i)) for i in range(d))


def _orc_atom(atom, pts) -> bool:
    p = pts[1] if atom.side == "right" else pts[0]
    if isinstance(atom, InitialSegment):
        return _orc_prefix(_orc_strip(p), atom.word)
    for step in atom.path:
        p = _orc_strip(p)
        if not isinstance(p, Family) or not step < p.bound:
            return False
        p = p.components[pm_eval(p.assignment, step)]
    if isinstance(atom, ComponentConstraint):
        return _orc_prefix(_orc_strip(p), atom.word)
    for _ in range(atom.unwrap):
        if not isinstance(p, Tagged):
            return False
        p = p.payload
    return isinstance(p, Tagged) and p.tag == atom.tag


def _orc_cond(cond, pts) -> bool:
    for g in cond.guards:
        if not _orc_atom(g, pts):
            return True
    vals = {"left": True, "right": True, "single": True}
    for a in cond.atoms:
        vals[a.side] = vals[a.side] and _orc_atom(a, pts)
    if cond.mode == "all":
        return vals["left"] and vals["right"] and vals["single"]
    return vals["left"] == vals["right"]


def orc_member(inp, code) -> bool:
    pts = inp if isinstance(inp, tuple) else (inp,)

    def val(node):
        kids = [n for n in code.tree.nodes if n[:-1] == node and len(n) == len(node) + 1]
        if not kids:
            cond = code.labels.get(node)
            return _orc_cond(cond, pts) if cond is not None else False
        if len(node) % 2 == 0:
            return all(val(k) for k in kids)
        return any(val(k) for k in kids)

    return val(())


def replay_wins(inp, code) -> None:
    """Follow the returned strategy against every opposing play."""
    out = game_eval(inp, code)
    strat = dict(out.strategy)
    pts = inp if code.arity == 2 else (inp,)

    def walk(node):
        kids = code.tree.children[node]
        if not kids:
            cond = code.labels.get(node)
            sat = cond is not None and _orc_cond(cond, pts)
            assert sat == out.member, f"strategy play lost at {node}"
            return
        if (len(node) % 2 == 1) == out.member:
            assert node in strat, f"winner has no move at {node}"
            walk(strat[node])
        else:
            for k in kids:
                walk(k)

    walk(())


# ---------------------------------------------------------------------------
# a small labelled-code generator for sampling
# ---------------------------------------------------------------------------

ENTRY_POOL = (ZERO, nat(1), OMEGA, OMEGA + 1)

CONDITION_POOL = (
    LeafCondition((InitialSegment(W(), "left"), InitialSegment(W(), "right")), "iff"),
    LeafCondition((InitialSegment(W(0), "left"), InitialSegment(W(0), "right")), "iff"),
    LeafCondition((InitialSegment(W(1), "left"), InitialSegment(W(1), "right")), "iff"),
    LeafCondition((InitialSegment(W(0, 1), "left"), InitialSegment(W(0, 1), "right")), "iff"),
    LeafCondition((InitialSegment(W(1), "left"),)),
    LeafCondition((InitialSegment(W(0, 0), "right"),)),
    LeafCondition((InitialSegment(W(0), "left"), InitialSegment(W(0), "right"))),
    LeafCondition(()),
    LeafCondition((InitialSegment(W(1), "right"),), guards=(InitialSegment(W(1), "left"),)),
    LeafCondition(
        (InitialSegment(W(0), "left"), InitialSegment(W(1), "left"),
         InitialSegment(W(0, 1), "right")),
        "iff",
    ),
    LeafCondition((ComponentConstraint((ZERO,), W(1), "left"),)),
    LeafCondition((TagEquals(ZERO, "left"),)),
)


def gen_code(rng: random.Random, max_nodes: int = 6) -> BorelCode:
    nodes = [()]
    while len(nodes) < rng.randint(2, max_nodes):
        parent = rng.choice(nodes)
        child = parent + (rng.choice(ENTRY_POOL),)
        if child not in nodes:
            nodes.append(child)
    tree = CodeTree(nodes)
    offset = rng.randrange(12)
    labels = {}
    for i, leaf in enumerate(tree.leaves):
        if rng.random() < 0.9:
            labels[leaf] = CONDITION_POOL[(offset + i) % len(CONDITION_POOL)]
    return BorelCode(tree, labels, BITS, 2)


def gen_probe(rng: random.Random):
    def one():
        raw = [rng.randint(0, 1) for _ in range(rng.randint(0, 5))]
        tail = rng.randint(0, 1)
        return Bits(pm_write_finite(PatternMap.constant(L, tail), raw)) if raw else Bits(
            PatternMap.constant(L, tail)
        )

    return (one(), one())


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_tree_validation():
    with pytest.raises(CodeError, match="root"):
        CodeTree([(ZERO,)])
    with pytest.raises(CodeError, match="parent"):
        CodeTree([(), (ZERO, ZERO)])
    with pytest.raises(CodeError, match="ordinal"):
        CodeTree([(), (0,)])
    t = CodeTree([(), (ZERO,), (nat(1),), (ZERO, OMEGA)])
    assert t.leaves == ((nat(1),), (ZERO, OMEGA))
    assert t.children[()] == ((ZERO,), (nat(1),))


def test_atom_validation():
    with pytest.raises(CodeError, match="side"):
        InitialSegment(W(1), "up")
    with pytest.raises(CodeError, match="mode"):
        LeafCondition((), "xor")
    with pytest.raises(CodeError, match="unwrap"):
        TagEquals(ZERO, unwrap=-1)
    assert atom_position_bound(InitialSegment(W(1, 0))) == nat(2)
    assert atom_position_bound(ComponentConstraint((OMEGA,), W(1))) == OMEGA
    assert position_bound(LeafCondition((TagEquals(nat(2), path=(nat(5),)),))) == nat(5)


def test_code_validation():
    tree = CodeTree([(), (ZERO,)])
    cond = LeafCondition((InitialSegment(W(1), "left"),))
    with pytest.raises(CodeError, match="non-leaf"):
        BorelCode(tree, {(): cond}, BITS, 2)
    with pytest.raises(CodeError, match="sided"):
        BorelCode(tree, {(ZERO,): cond}, BITS, 1)
    with pytest.raises(CodeError, match="unsided"):
        BorelCode(tree, {(ZERO,): LeafCondition((InitialSegment(W(1)),))}, BITS, 2)
    with pytest.raises(CodeError, match="biconditional"):
        BorelCode(tree, {(ZERO,): LeafCondition((InitialSegment(W(1)),), "iff")}, BITS, 1)
    with pytest.raises(CodeError, match="arity"):
        BorelCode(tree, {}, BITS, 3)
    with pytest.raises(CodeError, match="bound"):
        BorelCode(CodeTree([(), (OMEGA_SQ,)]), {}, BITS, 1)
    code = BorelCode(tree, {(ZERO,): cond}, BITS, 2)
    assert code.content_bound == nat(1)


# ---------------------------------------------------------------------------
# game evaluation
# ---------------------------------------------------------------------------


def test_root_leaf_vacuous_condition():
    triv = BorelCode(CodeTree([()]), {(): LeafCondition(())}, BITS, 1)
    rng = random.Random(0xC0DE0)
    for _ in range(10):
        p, _ = gen_probe(rng)
        assert game_member(p, triv)
        replay_wins(p, triv)


def test_unlabeled_leaf_loses():
    code = BorelCode(CodeTree([()]), {}, BITS, 1)
    assert not game_member(zeros(L), code)


def test_single_sided_adversarial_choice():
    # I picks between two one-point cylinders: member iff p extends both
    tree = CodeTree([(), (ZERO,), (nat(1),)])
    code = BorelCode(
        tree,
        {
            (ZERO,): LeafCondition((InitialSegment(W(1)),)),
            (nat(1),): LeafCondition((InitialSegment(W(1, 0)),)),
        },
        BITS,
        1,
    )
    assert game_member(pt(1, 0, 1), code)
    assert not game_member(pt(1, 1), code)
    assert not game_member(pt(0, 0), code)
    for p in (pt(1, 0), pt(1, 1), pt(0)):
        assert game_member(p, code) == orc_member(p, code)
        replay_wins(p, code)


def test_pair_input_validation():
    cid = code_id()
    with pytest.raises(CodeError, match="pair"):
        game_member(pt(1), cid)
    with pytest.raises(Exception):
        game_member((pt(1), fam([pt(1)], [0])), cid)


def test_game_matches_minimax_on_sampled_codes():
    rng = random.Random(0xC0DE1)
    for _ in range(60):
        code = gen_code(rng)
        for _ in range(8):
            pair = gen_probe(rng)
            assert game_member(pair, code) == orc_member(pair, code)


def test_determinacy_strategy_replay():
    rng = random.Random(0xC0DE2)
    for _ in range(25):
        code = gen_code(rng)
        for _ in range(4):
            replay_wins(gen_probe(rng), code)


# ---------------------------------------------------------------------------
# restriction, goodness, approximation
# ---------------------------------------------------------------------------


def test_restrict_prunes_large_entries():
    tree = CodeTree([(), (ZERO,), (OMEGA,)])
    cond = LeafCondition((InitialSegment(W(1), "left"),))
    code = BorelCode(tree, {(ZERO,): cond, (OMEGA,): cond}, BITS, 2)
    r = code_restrict(code, OMEGA)
    assert r.tree.nodes == frozenset({(), (ZERO,)})
    assert r.labels == {(ZERO,): cond}
    # far above the content everything survives
    assert code_restrict(code, omega_times(3)) == code


def test_restrict_to_unlabeled_leaf_favors_one():
    tree = CodeTree([(), (ZERO,), (ZERO, OMEGA)])
    code = BorelCode(
        tree, {(ZERO, OMEGA): LeafCondition(())}, BITS, 1
    )
    assert game_member(zeros(L), code)
    r = code_restrict(code, OMEGA)
    assert r.tree.leaves == ((ZERO,),)
    assert not game_member(zeros(L), r)
    assert orc_member(zeros(L), r) is False


def test_goodness():
    from gbs.spaces import FiniteWord

    wide = FiniteWord(PatternMap.constant(omega_times(2), 0))
    code = BorelCode(
        CodeTree([()]), {(): LeafCondition((InitialSegment(wide),))}, BITS, 1
    )
    assert not is_good(code, OMEGA)
    assert is_good(code, omega_times(3))
    cid = code_id()
    # goodness is a final segment of the grid
    flags = [is_good(cid, omega_times(q)) for q in range(1, 12)]
    assert all(flags)
    assert all(is_good(code, omega_times(q)) for q in range(3, 12))


def test_approx_lemma_on_identity_code():
    cid = code_id()
    eta = pt(1, 0, 1)
    xi = pt(1, 1, 1)
    rep = approx_lemma_check(cid, (eta, eta))
    assert rep.member and rep.stable and rep.levels
    assert all(rep.closure_bound < a for a in rep.levels)
    rep = approx_lemma_check(cid, (eta, xi))
    assert not rep.member and rep.stable
    assert not rep.closure_bound < cid.content_bound


def test_approx_stability_sampled():
    rng = random.Random(0xC0DE3)
    for _ in range(30):
        code = gen_code(rng)
        pair = gen_probe(rng)
        assert approx_lemma_check(code, pair, grid_depth=8).stable
        # the raw stabilization identity at one fixed good level
        a = omega_times(5)
        ra = tuple(p.restrict(a) for p in pair)
        assert game_member(pair, code) == game_member(ra, code_restrict(code, a))


# labels that read at or past w, so that low levels can fail to be good
WIDE_POOL = (
    LeafCondition((ComponentConstraint((OMEGA + 1,), W(1), "left"),)),
    LeafCondition((TagEquals(omega_times(2), "right"),)),
    LeafCondition(
        (InitialSegment(FiniteWord(PatternMap.constant(omega_times(3), 0)), "left"),
         InitialSegment(W(1), "right")),
        "iff",
    ),
)


def gen_wide_code(rng: random.Random) -> BorelCode:
    code = gen_code(rng)
    labels = {
        n: rng.choice(WIDE_POOL) if rng.random() < 0.4 else c for n, c in code.labels.items()
    }
    return BorelCode(code.tree, labels, BITS, 2)


def restrict_by_copy(code: BorelCode, a: Ordinal) -> BorelCode:
    """Restriction as a fresh copy: keep the nodes whose entries are all < a."""
    keep = [n for n in code.tree.nodes if all(e < a for e in n)]
    labels = {n: c for n, c in code.labels.items() if n in set(keep)}
    return BorelCode(CodeTree(keep), labels, code.space, code.arity)


def good_by_copy(code: BorelCode, a: Ordinal) -> bool:
    return all(position_bound(c) < a for c in restrict_by_copy(code, a).labels.values())


def _tower():
    codes = [code_id(4)]
    for _ in range(2):
        codes.append(code_jump(codes[-1], 2))
    return codes


def test_is_good_matches_restricted_copy():
    rng = random.Random(0xC0DE8)
    codes = [gen_wide_code(rng) for _ in range(150)] + [gen_code(rng) for _ in range(50)]
    seen = set()
    for code in codes + _tower():
        for q in range(1, 7):
            a = omega_times(q)
            got = is_good(code, a)
            assert got == good_by_copy(code, a), (code, a)
            seen.add(got)
    assert seen == {True, False}


def test_restrict_is_identity_above_content_bound():
    rng = random.Random(0xC0DE9)
    above = below = 0
    for code in [gen_wide_code(rng) for _ in range(150)] + _tower():
        for q in range(1, 7):
            a = omega_times(q)
            r = code_restrict(code, a)
            if code.content_bound < a:
                assert r is code
                assert is_good(code, a)
                above += 1
            else:
                assert r == restrict_by_copy(code, a)
                below += 1
    assert above and below


# ---------------------------------------------------------------------------
# the identity code
# ---------------------------------------------------------------------------


def test_code_id_frozen():
    cid = code_id()
    assert len(cid.tree.leaves) == 15
    eta = pt(1, 0, 1)
    assert game_member((eta, eta), cid)
    assert not game_member((eta, pt(1, 1, 1)), cid)
    # the denotation only reads below the word cut
    far = Bits(pm_write_finite(PatternMap.constant(L, 1), [1, 0, 1]))
    assert game_member((eta, far), cid)
    near = Bits(pm_write_finite(PatternMap.constant(L, 0), [1, 0, 0]))
    assert not game_member((eta, near), cid)


def test_code_id_restriction_is_identity_on_prefix_pool():
    cid = code_id()
    r = code_restrict(cid, OMEGA)
    rng = random.Random(0xC0DE4)
    words = [[(n >> 2) & 1, (n >> 1) & 1, n & 1] for n in range(8)]
    for _ in range(60):
        i, j = rng.randrange(8), rng.randrange(8)
        x = pt(*words[i]).restrict(OMEGA)
        y = pt(*words[j]).restrict(OMEGA)
        assert game_member((x, y), r) == (i == j)


def test_code_id_matches_minimax():
    cid = code_id()
    rng = random.Random(0xC0DE5)
    for _ in range(25):
        pair = gen_probe(rng)
        assert game_member(pair, cid) == orc_member(pair, cid)


# ---------------------------------------------------------------------------
# jump and join codes
# ---------------------------------------------------------------------------


def _word_pool():
    return [pt((n >> 2) & 1, (n >> 1) & 1, n & 1) for n in range(8)]


def test_code_jump_vs_idplus_on_prefix_families():
    cj = code_jump(code_id())
    pool = _word_pool()
    rng = random.Random(0xC0DE6)
    agree = 0
    for _ in range(300):
        ks = rng.randint(1, 3)
        comps_x = rng.sample(pool, ks)
        if rng.random() < 0.5:
            comps_y = list(comps_x)
            rng.shuffle(comps_y)
        else:
            comps_y = rng.sample(pool, rng.randint(1, 3))
        x = fam(comps_x, range(ks))
        y = fam(comps_y, range(len(comps_y)))
        want = decide_idplus(x, y)
        assert game_member((x, y), cj) == want
        agree += want
    assert 0 < agree < 300


def test_code_jump_frozen_cases():
    cj = code_jump(code_id())
    a, b, c = pt(0, 0, 0), pt(1, 1, 0), pt(0, 1, 1)
    # singleton families with equivalent payloads
    assert game_member((fam([a], [0]), fam([a], [0])), cj)
    # a left component unmatched on the right
    x = fam([a, b], [0, 1])
    y = fam([a, c], [0, 1])
    assert not decide_idplus(x, y)
    assert not game_member((x, y), cj)
    # arity-1 codes cannot be jumped
    with pytest.raises(CodeError, match="relation"):
        code_jump(BorelCode(CodeTree([()]), {(): LeafCondition(())}, BITS, 1))


def test_code_join_tags_and_parts():
    cid = code_id()
    cj = code_jump(cid)
    joint = code_join([cid, cj])
    eta, xi = pt(1, 0, 1), pt(1, 1, 1)
    x = fam([eta], [0])
    assert not game_member((Tagged(ZERO, eta), Tagged(nat(1), x)), joint)
    assert game_member((Tagged(ZERO, eta), Tagged(ZERO, eta)), joint)
    assert not game_member((Tagged(ZERO, eta), Tagged(ZERO, xi)), joint)
    assert game_member((Tagged(nat(1), x), Tagged(nat(1), fam([eta], [0]))), joint)
    with pytest.raises(CodeError, match="join"):
        code_join([])


def test_join_of_single_code_is_the_code():
    cid = code_id()
    single = code_join([cid])
    rng = random.Random(0xC0DE7)
    for _ in range(25):
        x, y = gen_probe(rng)
        assert game_member((Tagged(ZERO, x), Tagged(ZERO, y)), single) == game_member(
            (x, y), cid
        )


def test_jump_of_join_readdresses_tags():
    inner = code_join([code_id()])
    jj = code_jump(inner)
    eta, xi = pt(1, 0, 1), pt(1, 1, 1)
    x = Family(
        [Tagged(ZERO, eta)], PatternMap.constant(L, 0)
    )
    y_eq = Family([Tagged(ZERO, pt(1, 0, 1))], PatternMap.constant(L, 0))
    y_ne = Family([Tagged(ZERO, xi)], PatternMap.constant(L, 0))
    assert game_member((x, y_eq), jj)
    assert not game_member((x, y_ne), jj)


def _gen_family(rng: random.Random, pool) -> Family:
    comps = rng.sample(pool, rng.randint(1, 3))
    return fam(comps, range(len(comps)))


def test_jump_code_matches_minimax_on_families():
    cj = code_jump(code_id(), 2)
    rng = random.Random(0xC0DEA)
    pool = _word_pool() + [Bits(PatternMap.constant(L, 1))]
    members = 0
    for _ in range(40):
        x = _gen_family(rng, pool)
        if rng.random() < 0.4:
            y = Family(list(reversed(x.components)), x.assignment)
        else:
            y = _gen_family(rng, pool)
        want = orc_member((x, y), cj)
        assert game_member((x, y), cj) == want
        assert game_eval((x, y), cj).member == want
        replay_wins((x, y), cj)
        members += want
    assert 0 < members < 40


def test_join_codes_match_minimax_on_tagged_points():
    cid = code_id()
    joint = code_join([cid, code_jump(cid, 2)])
    nested = code_jump(code_join([cid, cid]), 2)
    rng = random.Random(0xC0DEB)
    pool = _word_pool()

    def tagged():
        if rng.random() < 0.5:
            return Tagged(ZERO, rng.choice(pool))
        return Tagged(nat(1), _gen_family(rng, pool))

    def tagged_family():
        comps = [Tagged(nat(rng.randrange(2)), rng.choice(pool)) for _ in range(rng.randint(1, 2))]
        return Family(comps, pm_write_finite(PatternMap.constant(L, 0), list(range(len(comps)))))

    outcomes = set()
    for code, draw in ((joint, tagged), (nested, tagged_family)):
        for _ in range(30):
            x = draw()
            y = x if rng.random() < 0.3 else draw()
            want = orc_member((x, y), code)
            assert game_member((x, y), code) == want
            assert game_eval((x, y), code).member == want
            replay_wins((x, y), code)
            outcomes.add((code is joint, want))
    assert len(outcomes) == 4


# ---------------------------------------------------------------------------
# equivalence certificate, class codes, the cub reduction
# ---------------------------------------------------------------------------


def test_is_eqrel_on_approx():
    assert is_eqrel_on_approx(code_id(), OMEGA)
    assert is_eqrel_on_approx(code_id(), omega_times(4))
    assert is_eqrel_on_approx(code_jump(code_id()), omega_times(2))
    with pytest.raises(CodeError, match="limit"):
        is_eqrel_on_approx(code_id(), nat(5))


def test_planted_asymmetry_is_caught():
    mutant = BorelCode(
        CodeTree([()]),
        {(): LeafCondition((InitialSegment(W(1), "left"),))},
        BITS,
        2,
    )
    assert not is_eqrel_on_approx(mutant, OMEGA)


def test_class_code_identity_classes():
    cid = code_id()
    a = omega_times(2)
    assert class_code(cid, a, pt(1, 0, 1)) == class_code(cid, a, pt(1, 0, 1))
    # agreement below the cut is all that matters
    deep = Bits(pm_write_finite(PatternMap.constant(L, 1), [1, 0, 1]))
    assert class_code(cid, a, pt(1, 0, 1)) == class_code(cid, a, deep)
    assert class_code(cid, a, pt(1, 0, 1)) != class_code(cid, a, pt(0, 0, 1))
    # codes coincide at all sufficiently large limits
    got = {class_code(cid, omega_times(q), pt(1, 1, 0)) for q in range(2, 9)}
    assert len(got) == 1
    with pytest.raises(CodeError, match="limit"):
        class_code(cid, nat(7), pt(1))


def test_class_code_pool_fallback():
    # structural code without provenance: least related pool member names the class
    tree = CodeTree([(), (ZERO,)])
    code = BorelCode(
        tree,
        {(ZERO,): LeafCondition(
            (InitialSegment(W(1), "left"), InitialSegment(W(1), "right")), "iff"
        )},
        BITS,
        2,
    )
    a = omega_times(2)
    pool = [pt(1, 1), pt(0, 0), pt(1, 0)]
    c_one = class_code(code, a, pt(1, 0, 1), pool)
    c_two = class_code(code, a, pt(1, 1, 1), pool)
    assert c_one == c_two  # both start with 1: same class, same pool representative
    assert c_one != class_code(code, a, pt(0, 1, 1), pool)
    # empty pool falls back to the restriction itself
    q = pt(1, 0, 1)
    assert class_code(code, a, q) == point_code(q.restrict(a))


def test_red_S_to_cub_identity_code():
    f = red_S_to_cub(code_id())
    eta, xi = pt(1, 0, 1), pt(1, 1, 1)
    assert f(eta) == f(pt(1, 0, 1))
    assert not decide_cub(CUB, f(eta), f(xi))
    # agreement below the cut gives eventual agreement of the outputs
    deep = Bits(pm_write_finite(PatternMap.constant(L, 1), [1, 0, 1]))
    assert decide_cub(CUB, f(eta), f(deep))
    # successor positions carry 0
    assert pm_eval(f(eta).seq, nat(3)) == ZERO
    assert pm_eval(f(eta).seq, OMEGA + 4) == ZERO


def test_red_S_to_cub_jump_code():
    g = red_S_to_cub(code_jump(code_id()), sample_budget=30)
    a, b = pt(0, 0, 0), pt(1, 1, 0)
    x = fam([a, b], [0, 1])
    y = fam([b, a], [0, 1])
    z = fam([a], [0])
    assert decide_idplus(x, y)
    assert decide_cub(CUB, g(x), g(y))
    assert not decide_cub(CUB, g(x), g(z))


def test_red_S_to_cub_rejects_non_equivalence():
    mutant = BorelCode(
        CodeTree([()]),
        {(): LeafCondition((InitialSegment(W(1), "left"),))},
        BITS,
        2,
    )
    with pytest.raises(CodeError, match="equivalence"):
        red_S_to_cub(mutant)


# ---------------------------------------------------------------------------
# interned atom ids and per-point truth tables against the oracle
# ---------------------------------------------------------------------------
# Evaluations run in sequence, so that a truth entered by one is read by the
# next: codes share atom objects (CONDITION_POOL), or hold equal atoms that
# are distinct objects, and points come as equal but distinct copies.  Each
# sequence runs with warm caches, with every cache cleared before each
# evaluation, and with caps of two (intern tables, per-point cache and each
# truth table), so that ids outlive an intern-table clear.

CACHES = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CACHE_MODES = ("warm", "cleared", "capped")


def _clear_caches():
    codes._truths.cache_clear()
    codes._INTERN.clear()
    codes._STEPS.clear()


@contextmanager
def _cache_mode(mode):
    with pytest.MonkeyPatch.context() as mp:
        if mode == "capped":
            mp.setattr(codes, "_INTERN_CAP", 2)
            mp.setattr(codes, "_TABLE_CAP", 2)
            mp.setattr(codes, "_truths", lru_cache(maxsize=2)(codes._truths.__wrapped__))
        yield


def _twin(x):
    """An equal copy that shares no object with x."""
    y = copy.deepcopy(x)
    assert y == x and y is not x
    return y


def _check_against_oracle(inp, code):
    want = orc_member(inp, code)
    assert game_member(inp, code) == want
    assert game_eval(inp, code).member == want
    replay_wins(inp, code)


def _run(mode, evals):
    with _cache_mode(mode):
        for code, inp in evals:
            if mode == "cleared":
                _clear_caches()
            _check_against_oracle(inp, code)


@st.composite
def bit_points(draw):
    raw = draw(st.lists(st.integers(0, 1), max_size=4))
    base = PatternMap.constant(L, draw(st.integers(0, 1)))
    return Bits(pm_write_finite(base, raw) if raw else base)


@st.composite
def pool_codes(draw):
    nodes = [()]
    for _ in range(draw(st.integers(0, 5))):
        child = draw(st.sampled_from(nodes)) + (draw(st.sampled_from(ENTRY_POOL)),)
        if child not in nodes:
            nodes.append(child)
    tree = CodeTree(nodes)
    labels = {}
    for leaf in tree.leaves:
        cond = draw(st.none() | st.sampled_from(CONDITION_POOL))
        if cond is not None:
            labels[leaf] = _twin(cond) if draw(st.booleans()) else cond
    return BorelCode(tree, labels, BITS, 2)


@st.composite
def sequences(draw, codes_st, points_st):
    """Evaluations of a few codes on pairs from a small point pool, some of
    them on equal copies of the pooled points."""
    cs = draw(st.lists(codes_st, min_size=1, max_size=4))
    pool = draw(st.lists(points_st, min_size=2, max_size=3))
    evals = []
    for _ in range(draw(st.integers(2, 10))):
        code = draw(st.sampled_from(cs))
        pair = tuple(
            _twin(p) if draw(st.booleans()) else p
            for p in (draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        )
        evals.append((code, pair))
    return evals


@pytest.mark.parametrize("mode", CACHE_MODES)
@CACHES
@given(evals=sequences(pool_codes(), bit_points()))
def test_evaluator_matches_oracle_on_bit_codes(mode, evals):
    _run(mode, evals)


@pytest.mark.parametrize("mode", CACHE_MODES)
@CACHES
@given(evals=sequences(pool_codes(), bit_points()))
def test_evaluator_matches_oracle_on_twinned_codes(mode, evals):
    # every code again as a twin: equal labels, trees and atoms, no shared
    # object and no compiled plan
    _run(mode, [(c, inp) for code, inp in evals for c in (code, _twin(code))])


WORDS = [pt(*bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1, 1))]
ID3 = code_id(3)
JUMP = code_jump(ID3, 2)
JOIN = code_join([ID3, JUMP])
JUMP_OF_JOIN = code_jump(code_join([ID3, ID3]), 2)


@st.composite
def families(draw, inner=st.sampled_from(WORDS)):
    comps = draw(st.lists(inner, min_size=1, max_size=2))
    return fam(comps, range(len(comps)))


@st.composite
def tagged_points(draw):
    if draw(st.booleans()):
        return Tagged(ZERO, draw(st.sampled_from(WORDS)))
    return Tagged(nat(1), draw(families()))


@st.composite
def structured_sequences(draw):
    """Sequences over the jump (Family points, ComponentConstraint atoms), the
    join (Tagged points, TagEquals atoms) and the jump of a join (both)."""
    which = draw(st.integers(0, 2))
    if which == 0:
        return draw(sequences(st.just(JUMP), families()))
    if which == 1:
        return draw(sequences(st.just(JOIN), tagged_points()))
    tagged_words = st.builds(Tagged, st.sampled_from([ZERO, nat(1)]), st.sampled_from(WORDS))
    return draw(sequences(st.just(JUMP_OF_JOIN), families(tagged_words)))


@pytest.mark.parametrize("mode", CACHE_MODES)
@CACHES
@given(evals=structured_sequences())
def test_evaluator_matches_oracle_on_jump_and_join(mode, evals):
    _run(mode, evals)


def test_caches_stay_bounded():
    # 62 codes with distinct one-sided atoms and roots of 1-12 moves, against
    # caps of 8 (intern tables) and 4 (truth tables)
    words = list(iter_words(6))[1:]
    points = [pt(*bits) for bits in ((0, 1, 1, 0, 1), (1, 1, 0, 0, 0), (0, 0, 0, 0, 0))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_INTERN_CAP", 8)
        mp.setattr(codes, "_TABLE_CAP", 4)
        for i, w in enumerate(words):
            moves = [(nat(k),) for k in range(1 + i % 12)]
            labels = {m: LeafCondition((InitialSegment(w, "left"),)) for m in moves[1:]}
            labels[moves[0]] = LeafCondition(
                (InitialSegment(w, "right"), InitialSegment(words[i - 1], "left")), "iff"
            )
            code = BorelCode(CodeTree([()] + moves), labels, BITS, 2)
            for pair in ((points[0], points[1]), (points[2], points[0])):
                assert game_member(pair, code) == orc_member(pair, code)
            assert len(codes._INTERN) <= 8 and len(codes._STEPS) <= 8
            assert all(len(codes._truths(p)) <= 4 for p in points)
    # the per-point cache: more distinct points than it may hold
    info = codes._truths.cache_info()
    assert isinstance(info.maxsize, int) and info.maxsize > 0
    single = BorelCode(
        CodeTree([()]), {(): LeafCondition((InitialSegment(W(1, 0)),))}, BITS, 1
    )
    for n in range(info.maxsize + 64):
        raw = [(n >> k) & 1 for k in range(11)]
        p = Bits(pm_write_finite(PatternMap.constant(L, 0), raw))
        assert game_member(p, single) == (raw[:2] == [1, 0])
    assert codes._truths.cache_info().currsize == info.maxsize
