"""Random workbench documents for the round-trip tests."""

from __future__ import annotations

import random

from gbs.codes import BorelCode, CodeTree, ComponentConstraint, InitialSegment, LeafCondition, TagEquals, code_id, code_join, code_jump
from gbs.dsl import ApproxSpec, GameSpec, OrbitSpec
from gbs.generators import gen_pattern, gen_point, gen_word
from gbs.groups import GroupAction, PermuteCoords, XorMasks, cyclic_group, symmetric_group
from gbs.harness import GenPolicy, ReductionSpec
from gbs.ordinals import OMEGA, OMEGA_SQ, ZERO, nat, omega_times
from gbs.relations import (
    make_tower,
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
from gbs.spaces import BITS, ORDS, FamilyOf, TaggedSum, TowerSum, word_from_bits


def gen_space(rng: random.Random, depth: int = 0):
    opts = ["bits", "ords"]
    if depth < 2:
        opts += ["family", "sum", "tower"]
    pick = rng.choice(opts)
    if pick == "bits":
        return BITS
    if pick == "ords":
        return ORDS
    if pick == "family":
        return FamilyOf(gen_space(rng, depth + 1))
    if pick == "tower":
        return TowerSum(gen_space(rng, depth + 1))
    return TaggedSum(tuple(gen_space(rng, depth + 1) for _ in range(rng.randint(1, 3))))


def gen_rel(rng: random.Random, depth: int = 0):
    opts = ["id", "e0", "e1", "e1x", "idp", "idps", "cub"]
    if depth < 2:
        opts += ["jump", "join", "tower"]
    pick = rng.choice(opts)
    if pick == "id":
        return rel_id(rng.choice((BITS, ORDS)))
    if pick == "e0":
        return rel_e0(rng.choice((BITS, ORDS)))
    if pick == "e1":
        return rel_e1()
    if pick == "e1x":
        return rel_e1_approx(omega_times(rng.randint(1, 6)))
    if pick == "idp":
        return rel_idplus(rng.choice((BITS, ORDS)))
    if pick == "idps":
        return rel_idplus_star(rng.choice((BITS, ORDS)))
    if pick == "cub":
        return rel_cub(mode=rng.choice(("Literal", "Structural")), value_space=rng.choice(("binary", "ordinal")))
    if pick == "jump":
        return rel_jump(gen_rel(rng, depth + 1))
    if pick == "tower":
        return make_tower(gen_rel(rng, depth + 1), OMEGA)
    return rel_join(tuple(gen_rel(rng, depth + 1) for _ in range(rng.randint(1, 3))))


def _rotation_action(n: int) -> GroupAction:
    perms = tuple(tuple((i + g) % n for i in range(n)) for g in range(n))
    return GroupAction(cyclic_group(n), PermuteCoords(perms, n))


def _parity_xor(n: int, k: int) -> GroupAction:
    masks = tuple(tuple(g % 2 for _ in range(k)) for g in range(n))
    return GroupAction(cyclic_group(n), XorMasks(masks, k))


def _s3_action() -> GroupAction:
    g, perms = symmetric_group(3)
    return GroupAction(g, PermuteCoords(perms, 3))


_ACTIONS = (
    GroupAction(cyclic_group(2), XorMasks(((0, 0), (1, 1)), 2)),
    GroupAction(cyclic_group(2), PermuteCoords(((0, 1), (1, 0)), 2)),
    _rotation_action(3),
    _rotation_action(4),
    _parity_xor(4, 3),
    _s3_action(),
)


def _structural_pool():
    plain = code_id(2)
    stripped = BorelCode(plain.tree, plain.labels, plain.space, plain.arity)
    w = word_from_bits
    one_sided = BorelCode(
        CodeTree([(), (ZERO,)]),
        {(ZERO,): LeafCondition((InitialSegment(w([1]), "single"),), "all",
                                (TagEquals(ZERO, "single"),))},
        BITS,
        1,
    )
    fam = BorelCode(
        CodeTree([(), (OMEGA,)]),
        {(OMEGA,): LeafCondition(
            (ComponentConstraint((ZERO,), w([0, 1]), "left"),
             TagEquals(nat(1), "right", (), 1)),
            "all",
        )},
        FamilyOf(BITS),
        2,
    )
    return (stripped, one_sided, fam)


_STRUCTURAL = _structural_pool()


def gen_code(rng: random.Random) -> BorelCode:
    pick = rng.randrange(6)
    if pick == 0:
        return code_id(rng.randint(2, 4))
    if pick == 1:
        return code_jump(code_id(rng.randint(2, 3)), rng.randint(1, 3))
    if pick == 2:
        return code_join([code_id(k) for k in rng.sample((2, 3, 4), rng.randint(1, 2))])
    if pick == 3:
        return code_jump(code_join([code_id(2)]), 2)
    return rng.choice(_STRUCTURAL)


def gen_action(rng: random.Random) -> GroupAction:
    return rng.choice(_ACTIONS)


def gen_policy(rng: random.Random, allow_exhaustive: bool) -> GenPolicy:
    pick = rng.randrange(3 if allow_exhaustive else 2)
    if pick == 0:
        return GenPolicy("sampled", n=rng.randint(1, 40))
    if pick == 1:
        a = rng.randint(0, 20)
        return GenPolicy("constructed", n_eq=a, n_ineq=rng.randint(0 if a else 1, 20))
    return GenPolicy("exhaustive")


def gen_reduction(rng: random.Random) -> ReductionSpec:
    combos = (
        ("e1-to-e0", rel_e1(), rel_e0(ORDS), (), False),
        ("e0-to-e1", rel_e0(), rel_e1(), (), True),
        ("e0-to-idplus", rel_e0(), rel_idplus(), tuple(sorted(rng.sample(range(5), rng.randint(0, 3)))), True),
        ("broken-constant", rel_e0(), rel_e0(), (), True),
    )
    name, src, tgt, params, exh = rng.choice(combos)
    return ReductionSpec(src, tgt, name, params, gen_policy(rng, exh))


def gen_doc(rng: random.Random):
    pick = rng.randrange(12)
    if pick == 0:
        return omega_times(rng.randint(0, 8), rng.randint(0, 8))
    if pick == 1:
        return gen_pattern(rng, OMEGA_SQ, rng.choice(((0, 1), (0, 1, 2, 3))))
    if pick == 2:
        return gen_point(rng, gen_space(rng))
    if pick == 3:
        return gen_word(rng)
    if pick == 4:
        return gen_space(rng)
    if pick == 5:
        return gen_rel(rng)
    if pick == 6:
        return gen_code(rng)
    if pick == 7:
        return gen_action(rng)
    if pick == 8:
        return gen_reduction(rng)
    if pick == 9:
        code = code_id(rng.randint(2, 3))
        pts = tuple(gen_point(rng, code.space) for _ in range(code.arity))
        return GameSpec(code, pts)
    if pick == 10:
        code = gen_code(rng)
        pts = tuple(gen_point(rng, code.space) for _ in range(rng.randint(0, 2) * code.arity))
        return ApproxSpec(code, pts, rng.randint(0, 8))
    act = gen_action(rng)
    point = gen_point(rng, BITS) if rng.random() < 0.4 else None
    return OrbitSpec(act, point, rng.randint(0, 10))
