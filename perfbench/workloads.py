"""The four workloads: their set-up, one timed round, and the checks on it.

Every workload builds its inputs from the benchmark seed alone, through
`derive` (crc32 of a text key, so the same in every process).  A round is a
fixed list of operations; `round` makes only calls into gbs and records
their answers, and `check` judges those answers afterwards, outside the
timed section.  `check` returns (attempted, failed, errors): `failed`
counts operations that hit a known program fault, `errors` lists answers
that are wrong.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
import re
import zlib
from pathlib import Path
from typing import Dict, List, Tuple

from gbs.cli import run_command
from gbs.codes import (
    BorelCode,
    CodeError,
    CodeTree,
    InitialSegment,
    LeafCondition,
    approx_lemma_check,
    code_id,
    code_jump,
    game_member,
    is_eqrel_on_approx,
    is_good,
    red_S_to_cub,
)
from gbs.config import WorkbenchConfig
from gbs.dsl import ApproxSpec, OrbitSpec, parse_spec, print_rel
from gbs.generators import gen_bits, gen_point, related_triple, sample_pair
from gbs.harness import ReductionSpec
from gbs.ordinals import OMEGA_SQ, ZERO, nat, omega_times
from gbs.patterns import PatternMap, pm_eval, pm_restrict, pm_splice, pm_write_finite
from gbs.reductions import red_E0_to_E1, red_E1_to_E0
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
from gbs.spaces import BITS, ORDS, Bits, Family, word_from_bits, xor_prefix, zeros


def derive(*parts) -> int:
    """A seed for one purpose, the same in every process (never hash())."""
    return zlib.crc32("/".join(map(str, parts)).encode())


def kind_name(rel) -> str:
    """The relation kind as the document language names it, e.g. 'e1-approx'."""
    return print_rel(rel)[1:].split()[0].rstrip(")")


# ---------------------------------------------------------------------------
# game-sweep: every pair code with at most 6 nodes on 50 probe pairs
# ---------------------------------------------------------------------------

# child-edge entries 0, 1, w, w+1 as (block, nat part)
ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))
# the twelve leaf conditions of the exhaustive pool: (atoms, mode, guards),
# each atom a (bits, side) pair asking that the side's point extend the bits
CONDS = (
    ((), "all", ()),
    ((((0,), "left"),), "all", ()),
    ((((1,), "right"),), "all", ()),
    ((((0,), "left"), ((0,), "right")), "all", ()),
    ((((1,), "left"), ((1,), "right")), "iff", ()),
    ((((0, 1), "left"),), "iff", ()),
    ((((1,), "left"), ((0,), "right")), "all", ()),
    ((((0,), "left"),), "all", (((1,), "right"),)),
    ((((1, 1), "right"),), "all", ()),
    ((((0, 0), "left"), ((0,), "right")), "iff", ()),
    ((((1,), "left"),), "all", (((0, 0), "left"),)),
    ((((0,), "right"), ((1,), "right")), "all", ()),
)
SHAPE_CENSUS = {1: 1, 2: 4, 3: 22, 4: 140, 5: 969, 6: 7084}
N_PROBES = 50
N_GROUPS = 25  # a round sweeps the pool on one group of two probe pairs
APPROX_STRIDE = 274  # 8,220 = 274 x 30: a round samples 30 codes for approx_lemma_check
GRID = 20


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def _shapes(n: int) -> tuple:
    """Trees with n nodes whose child edges carry distinct entry slots."""
    if n == 1:
        return ((),)
    out = []
    for k in range(1, min(4, n - 1) + 1):
        for slots in itertools.combinations(range(4), k):
            for split in _compositions(n - 1, k):
                for subs in itertools.product(*(_shapes(m) for m in split)):
                    out.append(tuple(zip(slots, subs)))
    return tuple(out)


def _shape_nodes(shape, prefix=()) -> list:
    nodes = [prefix]
    for slot, sub in shape:
        nodes.extend(_shape_nodes(sub, prefix + (slot,)))
    return nodes


def _leaf_condition(cond) -> LeafCondition:
    atoms, mode, guards = cond

    def seg(atom):
        bits, side = atom
        return InitialSegment(word_from_bits(list(bits)), side)

    return LeafCondition(tuple(map(seg, atoms)), mode, tuple(map(seg, guards)))


def _cond_truths(xv, yv) -> List[bool]:
    """Each of CONDS on raw values: xv, yv list the points' first bits."""

    def seg(atom):
        bits, side = atom
        vals = yv if side == "right" else xv
        return all(vals[i] == b for i, b in enumerate(bits))

    out = []
    for atoms, mode, guards in CONDS:
        if not all(seg(g) for g in guards):
            out.append(True)
        elif mode == "all":
            out.append(all(seg(a) for a in atoms))
        else:
            left = all(seg(a) for a in atoms if a[1] == "left")
            right = all(seg(a) for a in atoms if a[1] != "left")
            out.append(left == right)
    return out


def oracle_member(children: Dict[tuple, list], labels: Dict[tuple, int], truths) -> bool:
    """Naive top-down minimax: I moves at even depth, II at odd depth."""

    def win(node):
        kids = children[node]
        if not kids:
            lab = labels.get(node)
            return lab is not None and truths[lab]
        if len(node) % 2 == 0:
            return all(win(k) for k in kids)
        return any(win(k) for k in kids)

    return win(())


class GameSweep:
    name = "game-sweep"

    def __init__(self, seed: int, root: Path):
        rng = random.Random(derive(self.name, seed, "inputs"))
        entry = [omega_times(q, n) for q, n in ENTRIES]
        leafconds = [_leaf_condition(c) for c in CONDS]
        self.codes: List[BorelCode] = []
        self.raw: List[Tuple[dict, dict]] = []
        for n, count in SHAPE_CENSUS.items():
            shapes = _shapes(n)
            if len(shapes) != count:
                raise RuntimeError(f"{len(shapes)} trees with {n} nodes, expected {count}")
            for shape in shapes:
                nodes = _shape_nodes(shape)
                children: Dict[tuple, list] = {nd: [] for nd in nodes}
                for nd in nodes[1:]:
                    children[nd[:-1]].append(nd)
                labels = {nd: rng.randrange(len(CONDS)) for nd in nodes if not children[nd]}
                tree = CodeTree([tuple(entry[s] for s in nd) for nd in nodes])
                glabels = {tuple(entry[s] for s in nd): leafconds[c] for nd, c in labels.items()}
                self.codes.append(BorelCode(tree, glabels, BITS, 2))
                self.raw.append((children, labels))
        # probe points: six seeded bits, then a seeded constant tail
        vals, pts = [], []
        for _ in range(N_PROBES):
            prefix = [rng.randint(0, 1) for _ in range(6)]
            tail = rng.randint(0, 1)
            vals.append(prefix + [tail])
            pts.append(Bits(pm_write_finite(PatternMap.constant(OMEGA_SQ, tail), prefix)))
        pick = [(i, (i * 7 + 13) % N_PROBES) for i in range(N_PROBES)]
        self.pairs = [(pts[i], pts[j]) for i, j in pick]
        self.raw_pairs = [(vals[i], vals[j]) for i, j in pick]
        size = N_PROBES // N_GROUPS
        self.groups = [range(g * size, (g + 1) * size) for g in range(N_GROUPS)]
        # disjoint code samples, one per group, each checked on that group's pairs
        off = rng.randrange(APPROX_STRIDE)
        self.samples = [
            [(c, g * size + rng.randrange(size)) for c in range((off + g * 11) % APPROX_STRIDE, len(self.codes), APPROX_STRIDE)]
            for g in range(N_GROUPS)
        ]
        self._oracle = None

    def round(self, r: int, tr):
        member = tr.wrap("codes.game_member", game_member)
        approx = tr.wrap("codes.approx_lemma_check", approx_lemma_check)
        g = r % N_GROUPS
        pairs = [self.pairs[p] for p in self.groups[g]]
        verdicts = bytearray(len(self.codes) * len(pairs))
        k = 0
        with tr.segment("member"):
            for code in self.codes:
                for pair in pairs:
                    verdicts[k] = member(pair, code)
                    k += 1
        with tr.segment("approx"):
            reports = [approx(self.codes[c], self.pairs[p], GRID) for c, p in self.samples[g]]
        return g, verdicts, [(rep.member, rep.stable) for rep in reports]

    def oracle(self) -> bytearray:
        if self._oracle is None:
            truths = [_cond_truths(xv, yv) for xv, yv in self.raw_pairs]
            self._oracle = bytearray(
                oracle_member(children, labels, t) for children, labels in self.raw for t in truths
            )
        return self._oracle

    def check(self, result):
        g, verdicts, reports = result
        oracle = self.oracle()
        group = self.groups[g]
        want = bytearray(oracle[c * N_PROBES + p] for c in range(len(self.codes)) for p in group)
        errors = []
        if len(verdicts) != len(want):
            errors.append(f"{len(verdicts)} game verdicts for {len(want)} (code, pair) inputs")
        bad = [k for k, (a, b) in enumerate(zip(verdicts, want)) if a != b]
        if bad:
            c, p = divmod(bad[0], len(group))
            errors.append(f"game_member disagrees with minimax on {len(bad)} inputs, first code {c} pair {group[p]}")
        if len(reports) != len(self.samples[g]):
            errors.append(f"{len(reports)} approximation reports for {len(self.samples[g])} samples")
        for (c, p), (member, stable) in zip(self.samples[g], reports):
            if not stable:
                errors.append(f"approx_lemma_check unstable on code {c} pair {p}")
            if member != oracle[c * N_PROBES + p]:
                errors.append(f"approx_lemma_check verdict differs from minimax on code {c} pair {p}")
        return len(verdicts) + len(reports), 0, errors


# ---------------------------------------------------------------------------
# cub-tower: the jump tower of code_id(4) reduced to structural cub
# ---------------------------------------------------------------------------

TOWER_NODES = (16, 133, 1069)  # n0 = 16, n(k+1) = 8 n(k) + 5
TOWER_PAIRS = (16, 8, 2)  # balanced pairs per round on each code, half related
CUB_GRID = 4


def equiv_edit(rng: random.Random, code: BorelCode, x):
    """A point the code relates to x, built from the code's construction."""
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
        return xor_prefix(word_from_bits([1]), p)
    i0 = pm_eval(p.assignment, ZERO)
    comps = list(p.components)
    comps[i0] = _flip_class(comps[i0])
    return Family(comps, p.assignment)


def break_edit(rng: random.Random, code: BorelCode, x):
    """A point the code separates from x: the class read first is flipped."""
    return _flip_class(x)


class CubTower:
    name = "cub-tower"

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.codes = [code_id(4)]
        for _ in TOWER_NODES[1:]:
            self.codes.append(code_jump(self.codes[-1], 2))
        self.pairs = TOWER_PAIRS
        self.cub = rel_cub("Structural", "ordinal")
        self.reduce = red_S_to_cub

    def eqrel_levels(self, code: BorelCode, rng: random.Random, tr, level: int) -> List[Tuple[int, bool]]:
        """is_eqrel_on_approx at every good limit w*q, q <= CUB_GRID."""
        good = tr.wrap("codes.is_good", is_good)
        eqrel = tr.wrap("codes.is_eqrel_on_approx", is_eqrel_on_approx)
        first = code.content_bound.block_index().to_nat() + 1
        out = []
        for q in range(max(1, first), CUB_GRID + 1):
            a = omega_times(q)
            with tr.segment(f"{level}.eqrel{q}"):
                if good(code, a):
                    out.append((q, eqrel(code, a, sample_budget=24, seed=rng.randrange(1 << 16))))
        return out

    def round(self, r: int, tr):
        # The pairs come from the benchmark seed.  The sample seeds of the
        # certificates and equivalence checks change with the round, so no
        # round repeats an earlier one's sampled work, but not with the
        # benchmark seed: like the fixed seeds of criteria 7 and 8, they are
        # settings of the check, and their cost is then the same for every seed.
        rng = random.Random(derive(self.name, self.seed, r))
        samples = random.Random(derive(self.name, "samples", r))
        reduce = tr.wrap("codes.red_S_to_cub", self.reduce)
        point = tr.wrap("generators.gen_point", gen_point)
        member = tr.wrap("codes.game_member", game_member)
        cub = tr.wrap("relations.decide.cub", decide)
        rows = []
        for level, (code, npairs) in enumerate(zip(self.codes, self.pairs)):
            row = {"nodes": len(code.tree.nodes), "pairs": [], "eqrel": []}
            rows.append(row)
            try:
                with tr.segment(f"{level}.certify"):
                    f = tr.wrap("codes.cub_map", reduce(code, sample_budget=30, seed=samples.randrange(1 << 16)))
            except CodeError as exc:
                row["certified"] = str(exc)
                continue
            row["certified"] = True
            for i in range(npairs):
                related = i % 2 == 0
                with tr.segment(f"{level}.pair{i}"):
                    x = point(rng, code.space)
                    y = (equiv_edit if related else break_edit)(rng, code, x)
                    row["pairs"].append((related, member((x, y), code), cub(self.cub, f(x), f(y))))
            row["eqrel"] = self.eqrel_levels(code, samples, tr, level)
        return rows

    def check(self, rows):
        errors = []
        attempted = 0
        for level, (row, nodes, npairs) in enumerate(zip(rows, TOWER_NODES, self.pairs)):
            attempted += 1 + len(row["pairs"]) + len(row["eqrel"])
            if row["nodes"] != nodes:
                errors.append(f"level {level}: {row['nodes']} nodes, expected {nodes}")
            if row["certified"] is not True:
                errors.append(f"level {level}: certification failed: {row['certified']}")
                continue
            if len(row["pairs"]) != npairs:
                errors.append(f"level {level}: {len(row['pairs'])} pairs, expected {npairs}")
            for related, member, agree in row["pairs"]:
                if agree != member:
                    errors.append(f"level {level}: cub agreement {agree} but game membership {member}")
                if member != related:
                    errors.append(f"level {level}: pair built {'related' if related else 'unrelated'}, game says {member}")
            if not row["eqrel"]:
                errors.append(f"level {level}: no good limit up to w*{CUB_GRID}")
            errors += [f"level {level}: not an equivalence relation at w*{q}" for q, ok in row["eqrel"] if not ok]
        return attempted, 0, errors


# ---------------------------------------------------------------------------
# relation-axioms: the eleven catalogued relations on generated data
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
N_POINTS, N_PAIRS, N_TRIPLES = 20, 20, 10  # per relation per round


class RelationAxioms:
    name = "relation-axioms"

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.rows = [(name, rel, kind_name(rel)) for name, rel in RELATION_ROWS]

    def round(self, r: int, tr):
        point = tr.wrap("generators.gen_point", gen_point)
        pair = tr.wrap("generators.sample_pair", sample_pair)
        triple = tr.wrap("generators.related_triple", related_triple)
        deciders = {kind: tr.wrap(f"relations.decide.{kind}", decide) for _, _, kind in self.rows}
        out = []
        for name, rel, kind in self.rows:
            rng = random.Random(derive(self.name, self.seed, r, name))
            d = deciders[kind]
            refl, sym, trans = [], [], []
            with tr.segment(name):
                for _ in range(N_POINTS):
                    x = point(rng, rel.space)
                    refl.append(d(rel, x, x))
                for _ in range(N_PAIRS):
                    x, y = pair(rng, rel)
                    sym.append((d(rel, x, y), d(rel, y, x)))
                for _ in range(N_TRIPLES):
                    x, y, z = triple(rng, rel)
                    trans.append((d(rel, x, y), d(rel, y, z), d(rel, x, z)))
            out.append((name, refl, sym, trans))
        return out

    def check(self, rows):
        errors = []
        attempted = 0
        for name, refl, sym, trans in rows:
            attempted += len(refl) + len(sym) + len(trans)
            if not all(refl):
                errors.append(f"{name}: not reflexive on {refl.count(False)} points")
            if any(a != b for a, b in sym):
                errors.append(f"{name}: not symmetric on {sum(a != b for a, b in sym)} pairs")
            if not all(all(t) for t in trans):
                errors.append(f"{name}: a related triple is not related all round")
        return attempted, 0, errors


# ---------------------------------------------------------------------------
# check-specs: the command line on the shipped documents
# ---------------------------------------------------------------------------

SPEC_SCALE = 3  # pair and probe counts of the shipped documents, multiplied
COUNT_FORMS = (r"\(constructed \d+ \d+\)", r"\(probes \d+\)", r"\(pairs \d+\)")
POSITION = re.compile(r"line \d+, col \d+")
# Known faults, kept as operations that fail until the program is mended.
# Every pair raises inside the map, and the report still says pass (exit 0).
RAISING_MAP = "(reduction (source (e0)) (target (idplus)) (map e0-to-idplus 0 1 2 3 4 5 6) (pairs (constructed 5 5)))\n"
# Points with different bounds: an uncaught PatternError escapes run_command.
UNEQUAL_BOUNDS = ("(bits [0,w^2) lim=0 word=0)", "(bits [0,w*3) lim=0 word=0)")
MAPS = {
    "e0-to-e1": red_E0_to_E1,
    "e1-to-e0": red_E1_to_E0,
    "broken-constant": lambda x: zeros(OMEGA_SQ),
}


def _scaled(text: str) -> str:
    for form in COUNT_FORMS:
        text = re.sub(form, lambda m: re.sub(r"\d+", lambda d: str(int(d.group()) * SPEC_SCALE), m.group()), text)
    return text


def _requested(spec) -> int:
    """Pairs (or probes) a document asks for."""
    if isinstance(spec, ReductionSpec):
        pol = spec.generator
        if pol.kind == "constructed":
            return pol.n_eq + pol.n_ineq
        words = 2 ** WorkbenchConfig().word_bound.to_nat() - 1  # words shorter than the bound
        pool = 2 * words  # each word over a constant 0 and a constant 1 tail
        return pool * (pool + 1) // 2
    if isinstance(spec, ApproxSpec):
        return spec.probes
    return spec.pairs


def _e0_raw(x: Bits, y: Bits) -> bool:
    """E0 from raw values: no disagreement in blocks 10 and 11, past every
    piece boundary of the shipped points (all below w*9)."""
    return all(
        pm_eval(x.seq, omega_times(q, n)) == pm_eval(y.seq, omega_times(q, n))
        for q in (10, 11)
        for n in range(12)
    )


class CheckSpecs:
    name = "check-specs"

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        specs = root / "specs"
        malformed = sorted((root / "tests" / "data" / "malformed").glob("*.gbs"))
        work = Path(__file__).resolve().parent / "out" / "specs"
        (work / "mutants").mkdir(parents=True, exist_ok=True)
        if len(malformed) != 30:
            raise RuntimeError(f"{len(malformed)} malformed documents, expected 30")
        self.texts: List[str] = []
        self.commands: List[tuple] = []  # (argv, what to expect, data for the check)
        seeded = []
        points = {}
        for path in sorted(specs.glob("*.gbs")) + sorted((specs / "mutants").glob("*.gbs")):
            text = _scaled(path.read_text(encoding="utf-8"))
            copy = work / path.relative_to(specs)
            copy.write_text(text, encoding="utf-8")
            self.texts.append(text)
            spec = parse_spec(text)
            mutant = path.parent.name == "mutants"
            if isinstance(spec, ReductionSpec):
                seeded.append((["check-reduction", str(copy)], "mutant" if mutant else "sound", spec))
            elif isinstance(spec, Bits):
                points[path.stem] = (str(path), spec)
            elif isinstance(spec, ApproxSpec):
                seeded.append((["approx-lemma", str(copy)], "sound", spec))
            elif isinstance(spec, OrbitSpec):
                seeded.append((["orbit-e0", str(copy)], "orbit", spec))
            else:
                x, y = spec.points
                cut = spec.code.provenance[1] - 1  # (id-code N) compares the first N-1 values
                raw = all(pm_eval(x.seq, nat(i)) == pm_eval(y.seq, nat(i)) for i in range(cut))
                self.commands.append((["eval-game", str(copy), "--json"], "member", raw))
        seeded.append((["jump-tower", "2"], "tower", None))
        self.seeded = seeded
        (a_path, a), (b_path, b) = points["seq-a"], points["seq-b"]
        self.commands.append((["decide", "e0", a_path, b_path, "--json"], "result", _e0_raw(a, b)))
        self.commands += [(["check-reduction", str(p)], "malformed", None) for p in malformed]
        fault = work / "raising-map.gbs"
        fault.write_text(RAISING_MAP, encoding="utf-8")
        self.texts.append(RAISING_MAP)
        self.commands.append((["check-reduction", str(fault), "--json", "--seed", "0"], "fault", None))
        self.commands.append((["decide", "e0", *UNEQUAL_BOUNDS], "fault", None))

    def argvs(self, r: int):
        s = str(derive(self.name, self.seed, r))
        for argv, expect, data in self.seeded:
            yield argv + ["--json", "--seed", s], expect, data
        yield from self.commands

    def round(self, r: int, tr):
        parse = tr.wrap("dsl.parse_spec", parse_spec)
        with tr.segment("parse"):
            parsed = [type(parse(t)).__name__ for t in self.texts]
        runs = []
        for i, (argv, expect, data) in enumerate(self.argvs(r)):
            cmd = tr.wrap(f"cli.{argv[0]}", run_command)
            out, err = io.StringIO(), io.StringIO()
            with tr.segment(str(i)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cmd(argv)
                except Exception as exc:  # a fault of the program, judged by check
                    rc = f"raised {type(exc).__name__}: {exc}"
            runs.append((argv, expect, data, rc, out.getvalue(), err.getvalue()))
        return parsed, runs

    def check(self, result):
        parsed, runs = result
        errors, failed = [], 0
        if len(parsed) != len(self.texts):
            errors.append("a document was not parsed")
        for argv, expect, data, rc, out, err in runs:
            where = " ".join(argv)
            if expect == "fault":
                failed += rc != 2 or not err.startswith("gbs: ")
                continue
            if expect == "malformed":
                if rc != 2 or not POSITION.search(err):
                    errors.append(f"{where}: exit {rc} without a positioned message: {err.strip()}")
                continue
            want_rc = 1 if expect == "mutant" else 0
            if rc != want_rc:
                errors.append(f"{where}: exit {rc}, expected {want_rc}: {err.strip()}")
                continue
            rep = json.loads(out)
            errors += [f"{where}: {e}" for e in _judge(expect, data, rep, argv)]
        return len(parsed) + len(runs), failed, errors


def _judge(expect: str, data, rep: dict, argv) -> List[str]:
    if expect == "member":
        return [] if rep["member"] == data else [f"member {rep['member']}, raw values say {data}"]
    if expect == "result":
        return [] if rep["result"] == data else [f"result {rep['result']}, raw values say {data}"]
    if str(rep["seed"]) != argv[-1]:
        return [f"seed {rep['seed']} reported for --seed {argv[-1]}"]
    if expect == "tower":
        levels = rep["levels"]
        if [lv["nodes"] for lv in levels] != list(TOWER_NODES) or not all(lv["equivalence"] for lv in levels):
            return [f"tower levels {levels}"]
        return []
    if expect == "mutant":
        return _judge_mutant(data, rep)
    want = _requested(data)
    if rep["verdict"] != "pass":
        return [f"verdict {rep['verdict']}"]
    if expect == "orbit":
        # each orbit pair may bring one extra random mate
        ok = want <= rep["checked"] <= 2 * want
    else:
        ok = rep["checked"] == want
    return [] if ok else [f"checked {rep['checked']} of {want} requested"]


def _judge_mutant(spec: ReductionSpec, rep: dict) -> List[str]:
    if rep["verdict"] != "fail" or "counterexample" not in rep:
        return [f"mutant verdict {rep['verdict']} without a counterexample"]
    x = parse_spec(rep["counterexample"]["x"])
    y = parse_spec(rep["counterexample"]["y"])
    f = MAPS[spec.map_name]
    if decide(spec.source, x, y) == decide(spec.target, f(x), f(y)):
        return ["the counterexample does not break the biconditional"]
    return []


WORKLOADS = {w.name: w for w in (GameSweep, CubTower, RelationAxioms, CheckSpecs)}
