"""Text forms for workbench objects.

A document is either a bare ordinal ("w^2*3+w+1"), a bare pattern literal
("[0,w) lim=1 word=0; [w,w^2) lim=0 word=1"), or a parenthesized form:

  point     (bits P) | (ords P) | (family (PT ...) P) | (tagged ORD PT) | (word 010)
  space     bits | ords | (family-of S) | (sum S ...) | (tower S)
  relation  (id S?) | (e0 S?) | (e1) | (e1-approx ORD) | (idplus S?) |
            (idplus-star S?) | (cub MODE VALUES) | (jump R) | (join R ...) |
            (tower-join R)
  code      (id-code N) | (jump-code C N) | (join-code C ...) |
            (code S ARITY (tree (node ORD ...) ...) (labels LEAF ...))
  leaf      (leaf (node ORD ...) all|iff ATOM ... (guards ATOM ...)?)
  atom      (prefix SIDE BITS?) | (comp SIDE BITS? (path ORD ...)) |
            (tag SIDE ORD (path ORD ...)? (unwrap N)?)
  action    (action z2|z4|s3|(cyclic N) (permute K PERM ...)|(xor K MASK ...))
  reduction (reduction (source R) (target R) (map NAME ARG ...)
             (pairs exhaustive|(sampled N)|(constructed N N)))
  game      (game CODE PT ...)
  approx    (approx CODE (points PT ...)? (probes N)?)
  orbit     (orbit ACTION (point PT)? (pairs N)?)

"#" starts a comment.  Parsing is whitespace-insensitive; printing is
canonical, and parse(print(x)) reconstructs x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .codes import (
    BorelCode,
    CodeError,
    CodeTree,
    ComponentConstraint,
    InitialSegment,
    LeafCondition,
    TagEquals,
    code_id,
    code_join,
    code_jump,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupError,
    PermuteCoords,
    XorMasks,
    cyclic_group,
    symmetric_group,
)
from .harness import GenPolicy, HarnessError, ReductionSpec
from .ordinals import OMEGA, ZERO, Ordinal, nat
from .patterns import PatternError, PatternMap
from .relations import (
    EqRelHandle,
    RelationError,
    make_tower,
    rel_cub,
    rel_e0,
    rel_e1,
    rel_e1_approx,
    rel_id,
    rel_idplus,
    rel_idplus_star,
    rel_jump,
    rel_join,
)
from .spaces import (
    BITS,
    ORDS,
    BitSpace,
    Bits,
    Family,
    FamilyOf,
    FiniteWord,
    OrdSpace,
    Ords,
    Point,
    SpaceDescriptor,
    SpaceError,
    Tagged,
    TaggedSum,
    TowerSum,
    word_from_bits,
)

__all__ = [
    "ApproxSpec",
    "DslError",
    "GameSpec",
    "OrbitSpec",
    "WorkbenchSpec",
    "parse_ordinal_text",
    "parse_spec",
    "print_spec",
]


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class GameSpec:
    code: BorelCode
    points: Tuple[Point, ...]


@dataclass(frozen=True)
class ApproxSpec:
    code: BorelCode
    points: Tuple[Point, ...] = ()
    probes: int = 0


@dataclass(frozen=True)
class OrbitSpec:
    action: GroupAction
    point: Optional[Bits] = None
    pairs: int = 0


WorkbenchSpec = Union[
    Ordinal,
    PatternMap,
    Bits,
    Ords,
    Family,
    Tagged,
    FiniteWord,
    SpaceDescriptor,
    EqRelHandle,
    BorelCode,
    GroupAction,
    ReductionSpec,
    GameSpec,
    ApproxSpec,
    OrbitSpec,
]


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # "(" | ")" | "semi" | "range" | "atom"
    text: str
    line: int
    col: int


_DELIM = set("();#[ \t\r\n")


def _lex(text: str) -> List[Token]:
    toks: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
        elif c == "#":
            while i < n and text[i] != "\n":
                advance(1)
        elif c in "()":
            toks.append(Token(c, c, line, col))
            advance(1)
        elif c == ";":
            toks.append(Token("semi", c, line, col))
            advance(1)
        elif c == "[":
            l0, c0 = line, col
            j = i
            while j < n and text[j] not in ")]\n":
                j += 1
            if j >= n or text[j] == "\n":
                raise DslError("unterminated range", l0, c0)
            if text[j] == "]":
                raise DslError("ranges are half-open: expected ')'", l0, c0)
            raw = text[i : j + 1]
            advance(j + 1 - i)
            toks.append(Token("range", raw, l0, c0))
        else:
            l0, c0 = line, col
            j = i
            while j < n and text[j] not in _DELIM and text[j] != "]":
                j += 1
            toks.append(Token("atom", text[i:j], l0, c0))
            advance(j - i)
    return toks


# ---------------------------------------------------------------------------
# ordinal notation
# ---------------------------------------------------------------------------

_ORD_TERM = re.compile(r"^(?:(\d+)|w(?:\^(\d+))?(?:\*(\d+))?)$")


def parse_ordinal_text(text: str, line: int = 1, col: int = 1) -> Ordinal:
    total = ZERO
    for part in text.strip().split("+"):
        m = _ORD_TERM.match(part)
        if not m:
            raise DslError(f"not an ordinal term: {part!r}", line, col)
        if m.group(1) is not None:
            piece = nat(int(m.group(1)))
        else:
            e = int(m.group(2)) if m.group(2) else 1
            c = int(m.group(3)) if m.group(3) else 1
            if c == 0:
                raise DslError(f"zero coefficient in {part!r}", line, col)
            piece = Ordinal(((e, c),))
        total = total + piece
    return total


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else Token("atom", "", 1, 1)
            raise DslError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise DslError(f"expected {what}, got {t.text!r}", t.line, t.col)
        return t

    def open(self) -> Token:
        return self.expect("(", "'('")

    def close(self) -> Token:
        return self.expect(")", "')'")

    def atom(self, what: str) -> Token:
        return self.expect("atom", what)

    def at_close(self) -> bool:
        t = self.peek()
        return t is not None and t.kind == ")"

    def nat_atom(self, what: str) -> int:
        t = self.atom(what)
        if not t.text.isdigit():
            raise DslError(f"expected {what}, got {t.text!r}", t.line, t.col)
        return int(t.text)

    def ordinal_atom(self, what: str = "an ordinal") -> Ordinal:
        t = self.atom(what)
        return parse_ordinal_text(t.text, t.line, t.col)


def _guard(tok: Token, exc: Exception) -> DslError:
    return DslError(str(exc), tok.line, tok.col)


# -- patterns ---------------------------------------------------------------


def _parse_value(text: str, mode: str, tok: Token):
    if mode == "nat":
        if not text.isdigit():
            raise DslError(f"expected a natural value, got {text!r}", tok.line, tok.col)
        return int(text)
    return parse_ordinal_text(text, tok.line, tok.col)


def _parse_word_values(text: str, mode: str, tok: Token) -> tuple:
    if not text:
        raise DslError("empty piece word", tok.line, tok.col)
    if mode == "nat":
        if "," in text:
            return tuple(_parse_value(v, "nat", tok) for v in text.split(","))
        if set(text) <= {"0", "1"}:
            return tuple(int(ch) for ch in text)
        return (_parse_value(text, "nat", tok),)
    return tuple(parse_ordinal_text(v, tok.line, tok.col) for v in text.split(","))


def _kv_atom(p: _Parser, key: str) -> Tuple[str, Token]:
    t = p.atom(f"{key}=...")
    if not t.text.startswith(key + "="):
        raise DslError(f"expected {key}=..., got {t.text!r}", t.line, t.col)
    return t.text[len(key) + 1 :], t


def _parse_pattern(p: _Parser, mode: str) -> PatternMap:
    first = p.peek()
    if first is None or first.kind != "range":
        t = first or Token("atom", "", 1, 1)
        raise DslError("expected a pattern piece '[lo,hi) lim=... word=...'", t.line, t.col)
    raw = []
    while True:
        rt = p.expect("range", "a range")
        body = rt.text[1:-1]
        ends = [s.strip() for s in body.split(",")]
        if len(ends) != 2:
            raise DslError(f"range needs two endpoints, got {rt.text!r}", rt.line, rt.col)
        lo = parse_ordinal_text(ends[0], rt.line, rt.col)
        hi = parse_ordinal_text(ends[1], rt.line, rt.col)
        lim_text, lim_tok = _kv_atom(p, "lim")
        word_text, word_tok = _kv_atom(p, "word")
        raw.append((lo, hi, lim_text, lim_tok, word_text, word_tok))
        t = p.peek()
        if t is not None and t.kind == "semi":
            p.next()
            continue
        break
    if mode == "auto":
        texts = [x for piece in raw for x in (piece[2], piece[4])]
        mode = "nat" if all(re.fullmatch(r"[0-9,]+", x) for x in texts) else "ordinal"
    pieces = []
    for lo, hi, lim_text, lim_tok, word_text, word_tok in raw:
        lim = _parse_value(lim_text, mode, lim_tok)
        word = _parse_word_values(word_text, mode, word_tok)
        pieces.append((lo, hi, lim, word))
    try:
        return PatternMap.build(pieces[-1][1], pieces)
    except (PatternError, ValueError) as exc:
        raise _guard(first, exc) from None


def _fmt_word(word: tuple) -> str:
    if all(isinstance(v, int) for v in word):
        if set(word) <= {0, 1}:
            return "".join(str(v) for v in word)
        return ",".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def print_pattern(pm: PatternMap) -> str:
    return "; ".join(
        f"[{pc.lo},{pc.hi}) lim={pc.limit_value} word={_fmt_word(pc.word)}"
        for pc in pm.pieces
    )


# -- points -----------------------------------------------------------------


def _parse_point(p: _Parser) -> Point:
    lp = p.open()
    head = p.atom("a point form")
    try:
        if head.text == "bits":
            val = Bits(_parse_pattern(p, "nat"))
        elif head.text == "ords":
            val = Ords(_parse_pattern(p, "ordinal"))
        elif head.text == "family":
            p.open()
            comps = []
            while not p.at_close():
                comps.append(_parse_point(p))
            p.close()
            asg = _parse_pattern(p, "nat")
            val = Family(comps, asg)
        elif head.text == "tagged":
            tag = p.ordinal_atom("a tag ordinal")
            val = Tagged(tag, _parse_point(p))
        elif head.text == "word":
            if p.at_close():
                val = word_from_bits([])
            else:
                t = p.atom("a bit string")
                if t.text and set(t.text) <= {"0", "1"}:
                    val = word_from_bits([int(ch) for ch in t.text])
                else:
                    raise DslError(f"expected a bit string, got {t.text!r}", t.line, t.col)
        else:
            raise DslError(f"unknown point form {head.text!r}", head.line, head.col)
    except SpaceError as exc:
        raise _guard(lp, exc) from None
    p.close()
    return val


def print_point(x) -> str:
    if isinstance(x, Bits):
        return f"(bits {print_pattern(x.seq)})"
    if isinstance(x, Ords):
        return f"(ords {print_pattern(x.seq)})"
    if isinstance(x, Family):
        inner = " ".join(print_point(c) for c in x.components)
        return f"(family ({inner}) {print_pattern(x.assignment)})"
    if isinstance(x, Tagged):
        return f"(tagged {x.tag} {print_point(x.payload)})"
    if isinstance(x, FiniteWord):
        from .patterns import pm_eval

        k = x.dom.to_nat()
        bits = "".join(str(pm_eval(x.bits, nat(i))) for i in range(k))
        return f"(word {bits})" if k else "(word)"
    raise TypeError(f"not a point: {x!r}")


# -- spaces -----------------------------------------------------------------


def _parse_space(p: _Parser) -> SpaceDescriptor:
    t = p.next()
    if t.kind == "atom":
        if t.text == "bits":
            return BITS
        if t.text == "ords":
            return ORDS
        raise DslError(f"unknown space {t.text!r}", t.line, t.col)
    if t.kind != "(":
        raise DslError(f"expected a space, got {t.text!r}", t.line, t.col)
    head = p.atom("a space form")
    if head.text == "family-of":
        sp: SpaceDescriptor = FamilyOf(_parse_space(p))
    elif head.text == "sum":
        parts = []
        while not p.at_close():
            parts.append(_parse_space(p))
        if not parts:
            raise DslError("sum of no spaces", head.line, head.col)
        sp = TaggedSum(tuple(parts))
    elif head.text == "tower":
        sp = TowerSum(_parse_space(p))
    else:
        raise DslError(f"unknown space form {head.text!r}", head.line, head.col)
    p.close()
    return sp


def print_space(sp: SpaceDescriptor) -> str:
    if isinstance(sp, BitSpace):
        return "bits"
    if isinstance(sp, OrdSpace):
        return "ords"
    if isinstance(sp, FamilyOf):
        return f"(family-of {print_space(sp.inner)})"
    if isinstance(sp, TaggedSum):
        return "(sum " + " ".join(print_space(s) for s in sp.parts) + ")"
    if isinstance(sp, TowerSum):
        return f"(tower {print_space(sp.base)})"
    raise TypeError(f"not a space: {sp!r}")


# -- relations ---------------------------------------------------------------


def _parse_rel(p: _Parser) -> EqRelHandle:
    lp = p.open()
    head = p.atom("a relation form")
    name = head.text
    try:
        if name in ("id", "e0", "idplus", "idplus-star"):
            sp = BITS if p.at_close() else _parse_space(p)
            maker = {
                "id": rel_id,
                "e0": rel_e0,
                "idplus": rel_idplus,
                "idplus-star": rel_idplus_star,
            }[name]
            rel = maker(sp)
        elif name == "e1":
            rel = rel_e1()
        elif name == "e1-approx":
            rel = rel_e1_approx(p.ordinal_atom("an approximation level"))
        elif name == "cub":
            mode = p.atom("literal|structural")
            vals = p.atom("binary|ordinal")
            rel = rel_cub(mode=mode.text.capitalize(), value_space=vals.text)
        elif name == "jump":
            rel = rel_jump(_parse_rel(p))
        elif name == "join":
            parts = []
            while not p.at_close():
                parts.append(_parse_rel(p))
            rel = rel_join(tuple(parts))
        elif name == "tower-join":
            rel = make_tower(_parse_rel(p), OMEGA)
        else:
            raise DslError(f"unknown relation {name!r}", head.line, head.col)
    except RelationError as exc:
        raise _guard(lp, exc) from None
    p.close()
    return rel


def print_rel(rel: EqRelHandle) -> str:
    from .relations import Cub, E0, E1, E1Approx, Id, IdPlus, IdPlusStar, Join, Jump, TowerJoin

    k = rel.kind
    if isinstance(k, Id):
        return "(id)" if rel.space == BITS else f"(id {print_space(rel.space)})"
    if isinstance(k, E0):
        return "(e0)" if rel.space == BITS else f"(e0 {print_space(rel.space)})"
    if isinstance(k, E1):
        return "(e1)"
    if isinstance(k, E1Approx):
        return f"(e1-approx {k.level})"
    if isinstance(k, IdPlus):
        inner = rel.space.inner
        return "(idplus)" if inner == BITS else f"(idplus {print_space(inner)})"
    if isinstance(k, IdPlusStar):
        inner = rel.space.inner
        return "(idplus-star)" if inner == BITS else f"(idplus-star {print_space(inner)})"
    if isinstance(k, Cub):
        return f"(cub {k.params.mode.lower()} {k.params.value_space})"
    if isinstance(k, Jump):
        return f"(jump {print_rel(k.inner)})"
    if isinstance(k, Join):
        return "(join " + " ".join(print_rel(part) for part in k.parts) + ")"
    if isinstance(k, TowerJoin):
        return f"(tower-join {print_rel(k.base)})"
    raise TypeError(f"not a relation handle: {rel!r}")


# -- codes --------------------------------------------------------------------


def _parse_code_atom(p: _Parser):
    lp = p.open()
    head = p.atom("an atom form")
    side_tok = p.atom("a side")
    side = side_tok.text
    try:
        if head.text == "prefix":
            word = word_from_bits([])
            if not p.at_close():
                t = p.atom("a bit string")
                word = word_from_bits([int(ch) for ch in t.text]) if set(t.text) <= {"0", "1"} and t.text else None
                if word is None:
                    raise DslError(f"expected a bit string, got {t.text!r}", t.line, t.col)
            atom = InitialSegment(word, side)
        elif head.text == "comp":
            word = word_from_bits([])
            path: Tuple[Ordinal, ...] = ()
            saw_path = False
            while not p.at_close():
                t = p.peek()
                if t.kind == "atom":
                    if set(t.text) <= {"0", "1"} and t.text:
                        word = word_from_bits([int(ch) for ch in p.next().text])
                    else:
                        raise DslError(f"expected a bit string, got {t.text!r}", t.line, t.col)
                else:
                    p.open()
                    kw = p.atom("path")
                    if kw.text != "path":
                        raise DslError(f"expected (path ...), got {kw.text!r}", kw.line, kw.col)
                    entries = []
                    while not p.at_close():
                        entries.append(p.ordinal_atom())
                    p.close()
                    path = tuple(entries)
                    saw_path = True
            if not saw_path:
                raise DslError("component atom needs a (path ...)", head.line, head.col)
            atom = ComponentConstraint(path, word, side)
        elif head.text == "tag":
            tag = p.ordinal_atom("a tag ordinal")
            path = ()
            unwrap = 0
            while not p.at_close():
                p.open()
                kw = p.atom("path|unwrap")
                if kw.text == "path":
                    entries = []
                    while not p.at_close():
                        entries.append(p.ordinal_atom())
                    path = tuple(entries)
                elif kw.text == "unwrap":
                    unwrap = p.nat_atom("an unwrap count")
                else:
                    raise DslError(f"unknown tag option {kw.text!r}", kw.line, kw.col)
                p.close()
            atom = TagEquals(tag, side, path, unwrap)
        else:
            raise DslError(f"unknown atom form {head.text!r}", head.line, head.col)
    except CodeError as exc:
        raise _guard(lp, exc) from None
    p.close()
    return atom


def _parse_node(p: _Parser) -> Tuple[Ordinal, ...]:
    p.open()
    kw = p.atom("node")
    if kw.text != "node":
        raise DslError(f"expected (node ...), got {kw.text!r}", kw.line, kw.col)
    entries = []
    while not p.at_close():
        entries.append(p.ordinal_atom())
    p.close()
    return tuple(entries)


def _parse_code(p: _Parser) -> BorelCode:
    lp = p.open()
    head = p.atom("a code form")
    try:
        if head.text == "id-code":
            code = code_id(word_bound=p.nat_atom("a word bound"))
        elif head.text == "jump-code":
            inner = _parse_code(p)
            code = code_jump(inner, index_bound=p.nat_atom("an index bound"))
        elif head.text == "join-code":
            parts = []
            while not p.at_close():
                parts.append(_parse_code(p))
            code = code_join(parts)
        elif head.text == "code":
            space = _parse_space(p)
            arity = p.nat_atom("an arity")
            p.open()
            kw = p.atom("tree")
            if kw.text != "tree":
                raise DslError(f"expected (tree ...), got {kw.text!r}", kw.line, kw.col)
            nodes = []
            while not p.at_close():
                nodes.append(_parse_node(p))
            p.close()
            p.open()
            kw = p.atom("labels")
            if kw.text != "labels":
                raise DslError(f"expected (labels ...), got {kw.text!r}", kw.line, kw.col)
            labels = {}
            while not p.at_close():
                p.open()
                lw = p.atom("leaf")
                if lw.text != "leaf":
                    raise DslError(f"expected (leaf ...), got {lw.text!r}", lw.line, lw.col)
                node = _parse_node(p)
                mode = p.atom("all|iff").text
                atoms = []
                guards: tuple = ()
                while not p.at_close():
                    t = p.peek()
                    save = p.pos
                    p.open()
                    kw2 = p.atom("an atom or guards")
                    if kw2.text == "guards":
                        gs = []
                        while not p.at_close():
                            gs.append(_parse_code_atom(p))
                        p.close()
                        guards = tuple(gs)
                    else:
                        p.pos = save
                        atoms.append(_parse_code_atom(p))
                labels[node] = LeafCondition(tuple(atoms), mode, guards)
                p.close()
            p.close()
            code = BorelCode(CodeTree(nodes), labels, space, arity)
        else:
            raise DslError(f"unknown code form {head.text!r}", head.line, head.col)
    except CodeError as exc:
        raise _guard(lp, exc) from None
    p.close()
    return code


def _print_atom(a) -> str:
    if isinstance(a, InitialSegment):
        w = _word_str(a.word)
        return f"(prefix {a.side} {w})" if w else f"(prefix {a.side})"
    if isinstance(a, ComponentConstraint):
        w = _word_str(a.word)
        path = " ".join(str(e) for e in a.path)
        mid = f" {w}" if w else ""
        return f"(comp {a.side}{mid} (path {path}))"
    if isinstance(a, TagEquals):
        parts = [f"(tag {a.side} {a.tag}"]
        if a.path:
            parts.append(" (path " + " ".join(str(e) for e in a.path) + ")")
        if a.unwrap:
            parts.append(f" (unwrap {a.unwrap})")
        return "".join(parts) + ")"
    raise TypeError(f"not an atom: {a!r}")


def _word_str(w: FiniteWord) -> str:
    from .patterns import pm_eval

    return "".join(str(pm_eval(w.bits, nat(i))) for i in range(w.dom.to_nat()))


def _node_str(node) -> str:
    return "(node " + " ".join(str(e) for e in node) + ")" if node else "(node)"


def _print_leaf(node, cond: LeafCondition) -> str:
    body = " ".join(_print_atom(a) for a in cond.atoms)
    out = f"(leaf {_node_str(node)} {cond.mode}"
    if body:
        out += " " + body
    if cond.guards:
        out += " (guards " + " ".join(_print_atom(a) for a in cond.guards) + ")"
    return out + ")"


def print_code(code: BorelCode) -> str:
    prov = code.provenance
    if prov is not None:
        if prov[0] == "id":
            return f"(id-code {prov[1]})"
        if prov[0] == "jump":
            return f"(jump-code {print_code(prov[1])} {prov[2]})"
        if prov[0] == "join":
            return "(join-code " + " ".join(print_code(c) for c in prov[1]) + ")"
    nodes = " ".join(_node_str(n) for n in code.tree.by_depth)
    leaves = " ".join(_print_leaf(n, code.labels[n]) for n in sorted(code.labels))
    out = f"(code {print_space(code.space)} {code.arity} (tree {nodes}) (labels"
    if leaves:
        out += " " + leaves
    return out + "))"


# -- actions -------------------------------------------------------------------


def _parse_action(p: _Parser) -> GroupAction:
    lp = p.open()
    head = p.atom("action")
    if head.text != "action":
        raise DslError(f"expected (action ...), got {head.text!r}", head.line, head.col)
    t = p.next()
    try:
        if t.kind == "atom":
            if t.text == "z2":
                group = cyclic_group(2)
            elif t.text == "z4":
                group = cyclic_group(4)
            elif t.text == "s3":
                group = symmetric_group(3)[0]
            else:
                raise DslError(f"unknown group {t.text!r}", t.line, t.col)
        else:
            kw = p.atom("cyclic")
            if kw.text != "cyclic":
                raise DslError(f"unknown group form {kw.text!r}", kw.line, kw.col)
            group = cyclic_group(p.nat_atom("a group order"))
            p.close()
        p.open()
        kind = p.atom("permute|xor")
        k = p.nat_atom("a coordinate width")
        if k > 9:
            raise DslError("coordinate blocks wider than 9 have no text form", kind.line, kind.col)
        rows = []
        while not p.at_close():
            rt = p.atom("a digit string")
            if len(rt.text) != k or not rt.text.isdigit():
                raise DslError(f"expected {k} digits, got {rt.text!r}", rt.line, rt.col)
            rows.append(tuple(int(ch) for ch in rt.text))
        p.close()
        if kind.text == "permute":
            act = GroupAction(group, PermuteCoords(tuple(rows), k))
        elif kind.text == "xor":
            act = GroupAction(group, XorMasks(tuple(rows), k))
        else:
            raise DslError(f"unknown action rule {kind.text!r}", kind.line, kind.col)
    except GroupError as exc:
        raise _guard(lp, exc) from None
    p.close()
    return act


def _group_name(group: FiniteGroup) -> str:
    if group.order == 6 and group.table == symmetric_group(3)[0].table:
        return "s3"
    if group.table == cyclic_group(group.order).table:
        return {2: "z2", 4: "z4"}.get(group.order, f"(cyclic {group.order})")
    raise TypeError("group has no text form")


def print_action(act: GroupAction) -> str:
    rule = act.rule
    rows = rule.perms if isinstance(rule, PermuteCoords) else rule.masks
    kind = "permute" if isinstance(rule, PermuteCoords) else "xor"
    body = " ".join("".join(str(v) for v in row) for row in rows)
    return f"(action {_group_name(act.group)} ({kind} {rule.k} {body}))"


# -- reduction specs and CLI documents ----------------------------------------


def _parse_policy(p: _Parser) -> GenPolicy:
    t = p.next()
    try:
        if t.kind == "atom":
            if t.text == "exhaustive":
                return GenPolicy("exhaustive")
            raise DslError(f"unknown pair policy {t.text!r}", t.line, t.col)
        head = p.atom("sampled|constructed")
        if head.text == "sampled":
            pol = GenPolicy("sampled", n=p.nat_atom("a sample count"))
        elif head.text == "constructed":
            pol = GenPolicy(
                "constructed",
                n_eq=p.nat_atom("an equivalent-pair count"),
                n_ineq=p.nat_atom("an inequivalent-pair count"),
            )
        else:
            raise DslError(f"unknown pair policy {head.text!r}", head.line, head.col)
    except HarnessError as exc:
        raise _guard(t, exc) from None
    p.close()
    return pol


def _parse_reduction(p: _Parser, lp: Token) -> ReductionSpec:
    fields = {}
    while not p.at_close():
        p.open()
        kw = p.atom("source|target|map|pairs")
        if kw.text in fields:
            raise DslError(f"duplicate {kw.text} clause", kw.line, kw.col)
        if kw.text == "source":
            fields["source"] = _parse_rel(p)
        elif kw.text == "target":
            fields["target"] = _parse_rel(p)
        elif kw.text == "map":
            name = p.atom("a map name").text
            args = []
            while not p.at_close():
                args.append(p.nat_atom("a map argument"))
            fields["map"] = (name, tuple(args))
        elif kw.text == "pairs":
            fields["pairs"] = _parse_policy(p)
        else:
            raise DslError(f"unknown reduction clause {kw.text!r}", kw.line, kw.col)
        p.close()
    missing = {"source", "target", "map", "pairs"} - set(fields)
    if missing:
        raise DslError(f"reduction spec missing {sorted(missing)}", lp.line, lp.col)
    name, args = fields["map"]
    try:
        return ReductionSpec(fields["source"], fields["target"], name, args, fields["pairs"])
    except HarnessError as exc:
        raise _guard(lp, exc) from None


def _parse_form(p: _Parser):
    lp = p.peek()
    save = p.pos
    p.open()
    head = p.atom("a form")
    name = head.text
    p.pos = save
    if name in ("bits", "ords", "family", "tagged", "word"):
        return _parse_point(p)
    if name in ("family-of", "sum", "tower"):
        return _parse_space(p)
    if name in ("id", "e0", "e1", "e1-approx", "idplus", "idplus-star", "cub", "jump", "join", "tower-join"):
        return _parse_rel(p)
    if name in ("id-code", "jump-code", "join-code", "code"):
        return _parse_code(p)
    if name == "action":
        return _parse_action(p)
    if name == "reduction":
        p.open()
        p.atom("reduction")
        spec = _parse_reduction(p, lp)
        p.close()
        return spec
    if name == "game":
        p.open()
        p.atom("game")
        code = _parse_code(p)
        pts = []
        while not p.at_close():
            pts.append(_parse_point(p))
        p.close()
        if not pts:
            raise DslError("game document without points", lp.line, lp.col)
        return GameSpec(code, tuple(pts))
    if name == "approx":
        p.open()
        p.atom("approx")
        code = _parse_code(p)
        pts: list = []
        probes = 0
        while not p.at_close():
            p.open()
            kw = p.atom("points|probes")
            if kw.text == "points":
                while not p.at_close():
                    pts.append(_parse_point(p))
            elif kw.text == "probes":
                probes = p.nat_atom("a probe count")
            else:
                raise DslError(f"unknown approx clause {kw.text!r}", kw.line, kw.col)
            p.close()
        p.close()
        return ApproxSpec(code, tuple(pts), probes)
    if name == "orbit":
        p.open()
        p.atom("orbit")
        act = _parse_action(p)
        point = None
        pairs = 0
        while not p.at_close():
            p.open()
            kw = p.atom("point|pairs")
            if kw.text == "point":
                pt = _parse_point(p)
                if not isinstance(pt, Bits):
                    raise DslError("orbit base point must be a bit sequence", kw.line, kw.col)
                point = pt
            elif kw.text == "pairs":
                pairs = p.nat_atom("a pair count")
            else:
                raise DslError(f"unknown orbit clause {kw.text!r}", kw.line, kw.col)
            p.close()
        p.close()
        return OrbitSpec(act, point, pairs)
    raise DslError(f"unknown form {name!r}", head.line, head.col)


def parse_spec(text: str) -> WorkbenchSpec:
    toks = _lex(text)
    p = _Parser(toks)
    t = p.peek()
    if t is None:
        raise DslError("empty document", 1, 1)
    if t.kind == "(":
        out = _parse_form(p)
    elif t.kind == "range":
        out = _parse_pattern(p, "auto")
    elif t.kind == "atom" and t.text in ("bits", "ords"):
        out = _parse_space(p)
    else:
        tok = p.atom("an ordinal")
        out = parse_ordinal_text(tok.text, tok.line, tok.col)
    rest = p.peek()
    if rest is not None:
        raise DslError(f"trailing input {rest.text!r}", rest.line, rest.col)
    return out


def print_spec(spec) -> str:
    if isinstance(spec, Ordinal):
        return str(spec)
    if isinstance(spec, PatternMap):
        return print_pattern(spec)
    if isinstance(spec, (Bits, Ords, Family, Tagged, FiniteWord)):
        return print_point(spec)
    if isinstance(spec, (BitSpace, OrdSpace, FamilyOf, TaggedSum, TowerSum)):
        return print_space(spec)
    if isinstance(spec, EqRelHandle):
        return print_rel(spec)
    if isinstance(spec, BorelCode):
        return print_code(spec)
    if isinstance(spec, GroupAction):
        return print_action(spec)
    if isinstance(spec, ReductionSpec):
        pol = spec.generator
        if pol.kind == "exhaustive":
            pairs = "exhaustive"
        elif pol.kind == "sampled":
            pairs = f"(sampled {pol.n})"
        else:
            pairs = f"(constructed {pol.n_eq} {pol.n_ineq})"
        args = "".join(f" {a}" for a in spec.params)
        return (
            "(reduction\n"
            f"  (source {print_rel(spec.source)})\n"
            f"  (target {print_rel(spec.target)})\n"
            f"  (map {spec.map_name}{args})\n"
            f"  (pairs {pairs}))"
        )
    if isinstance(spec, GameSpec):
        pts = "\n  ".join(print_point(x) for x in spec.points)
        return f"(game {print_code(spec.code)}\n  {pts})"
    if isinstance(spec, ApproxSpec):
        out = f"(approx {print_code(spec.code)}"
        if spec.points:
            out += "\n  (points " + " ".join(print_point(x) for x in spec.points) + ")"
        if spec.probes:
            out += f"\n  (probes {spec.probes})"
        return out + ")"
    if isinstance(spec, OrbitSpec):
        out = f"(orbit {print_action(spec.action)}"
        if spec.point is not None:
            out += f"\n  (point {print_point(spec.point)})"
        if spec.pairs:
            out += f"\n  (pairs {spec.pairs})"
        return out + ")"
    raise TypeError(f"no text form for {spec!r}")
