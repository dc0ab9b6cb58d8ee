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

Parsing has two parts.  `_read` turns the text into positioned `Form`s in
one regex pass.  Each category of form then has a `_Table` from head word
to handler; `_build` looks the head up, runs the handler on the form's
arguments, checks that they are used up, and reports the constructor errors
the table names at the form.  Keyword clauses such as (source ...) are
tables too, read by `_clauses`, each at most once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

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
    E0,
    E1,
    Cub,
    E1Approx,
    EqRelHandle,
    Id,
    IdPlus,
    IdPlusStar,
    Join,
    Jump,
    RelationError,
    TowerJoin,
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
    word_values,
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
# reader
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # "open" | "close" | "semi" | "range" | "atom" | "eof"
    text: str
    line: int
    col: int


class Form(NamedTuple):
    """A parenthesized form; its items are tokens and forms."""

    open: Token
    items: list
    close: Token
    kind = "form"
    text = "("

    @property
    def line(self) -> int:
        return self.open.line

    @property
    def col(self) -> int:
        return self.open.col


_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+|#[^\n]*)|(?P<open>\()|(?P<close>\))|(?P<semi>;)"
    r"|(?P<range>\[[^)\]\n]*[)\]]?)|(?P<atom>[^ \t\r\n();#\[\]]+|\])"
)


def _error(at, message: str) -> DslError:
    return DslError(message, at.line, at.col)


def _read(text: str) -> Form:
    """The whole document as one form: its items, then an "eof" close."""
    stack: List[list] = [[]]
    opens: List[Token] = []
    line, line_start = 1, 0
    last = Token("eof", "", 1, 1)
    for m in _TOKEN.finditer(text):
        kind, s = m.lastgroup, m.group()
        if kind == "space":
            if "\n" in s:
                line += s.count("\n")
                line_start = m.start() + s.rindex("\n") + 1
            continue
        last = tok = Token(kind, s, line, m.start() - line_start + 1)
        if kind == "range" and not s.endswith(")"):
            why = "ranges are half-open: expected ')'" if s.endswith("]") else "unterminated range"
            raise _error(tok, why)
        if kind == "open":
            opens.append(tok)
            stack.append([])
        elif kind == "close" and opens:
            items = stack.pop()
            stack[-1].append(Form(opens.pop(), items, tok))
        else:
            stack[-1].append(tok)
    end = Token("eof", "", last.line, last.col + len(last.text))
    if opens:
        raise _error(end, "unexpected end of input")
    return Form(Token("open", "", 1, 1), stack[0], end)


class _Args:
    """The items of one form, read left to right; `head` is its first item."""

    def __init__(self, form: Form):
        self.form = form
        self.items = form.items
        self.i = 0

    @property
    def head(self) -> Token:
        return self.items[0]

    def more(self) -> bool:
        return self.i < len(self.items)

    def peek(self):
        return self.items[self.i] if self.more() else self.form.close

    def take(self, what: str):
        t = self.peek()
        if t.kind == "eof":
            raise _error(t, "unexpected end of input")
        if not self.more():
            raise _error(t, f"expected {what}, got {t.text!r}")
        self.i += 1
        return t

    def expect(self, kind: str, what: str):
        t = self.take(what)
        if t.kind != kind:
            raise _error(t, f"expected {what}, got {t.text!r}")
        return t

    def atom(self, what: str) -> Token:
        return self.expect("atom", what)

    def nat(self, what: str) -> int:
        t = self.atom(what)
        if not t.text.isdigit():
            raise _error(t, f"expected {what}, got {t.text!r}")
        return int(t.text)

    def ordinal(self, what: str = "an ordinal") -> Ordinal:
        t = self.atom(what)
        return parse_ordinal_text(t.text, t.line, t.col)

    def bits(self) -> FiniteWord:
        t = self.atom("a bit string")
        if set(t.text) - {"0", "1"}:
            raise _error(t, f"expected a bit string, got {t.text!r}")
        return word_from_bits([int(ch) for ch in t.text])

    def read(self, table: "_Table"):
        article = "an" if table.what[0] in "aeiou" else "a"
        return _build(table, self.take(f"{article} {table.what}"))

    def many(self, read: Callable, *args) -> tuple:
        out = []
        while self.more():
            out.append(read(*args))
        return tuple(out)

    def done(self) -> None:
        if self.more():
            t = self.peek()
            if self.form.close.kind == "eof":
                raise _error(t, f"trailing input {t.text!r}")
            raise _error(t, f"expected ')', got {t.text!r}")


@dataclass(frozen=True)
class _Table:
    what: str  # the noun in "unknown <what> 'x'"
    errors: tuple  # constructor errors reported at the form
    forms: Dict[str, Callable[[_Args], object]]
    words: dict = field(default_factory=dict)  # bare words and their values


def _build(table: _Table, item):
    """Reads `item` as a bare word or a form of `table`."""
    if item.kind == "atom" and table.words:
        if item.text not in table.words:
            raise _error(item, f"unknown {table.what} {item.text!r}")
        return table.words[item.text]
    if item.kind != "form":
        raise _error(item, f"expected '(', got {item.text!r}")
    args = _Args(item)
    head = args.atom("a form name")
    handler = table.forms.get(head.text)
    if handler is None:
        raise _error(head, f"unknown {table.what} {head.text!r}")
    try:
        value = handler(args)
    except table.errors as exc:
        raise _error(item, str(exc)) from None
    args.done()
    return value


def _clauses(args: _Args, table: _Table, required: str = "") -> dict:
    """The rest of `args` as clauses of `table`, keyed by head word.  Each
    clause may appear once; if `required` names the form, all must appear."""
    out = {}
    for item in args.many(args.take, "a clause"):
        value = _build(table, item)
        head = item.items[0]
        if head.text in out:
            raise _error(head, f"duplicate {head.text} clause")
        out[head.text] = value
    missing = sorted(set(table.forms) - set(out))
    if required and missing:
        raise _error(args.form, f"{required} missing {missing}")
    return out


def _head(item) -> str:
    return item.items[0].text if item.kind == "form" and item.items else ""


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
# patterns
# ---------------------------------------------------------------------------


def _parse_value(text: str, tok: Token, mode: str):
    if mode == "nat":
        if not text.isdigit():
            raise _error(tok, f"expected a natural value, got {text!r}")
        return int(text)
    return parse_ordinal_text(text, tok.line, tok.col)


def _parse_word_values(text: str, tok: Token, mode: str) -> tuple:
    if not text:
        raise _error(tok, "empty piece word")
    if mode == "nat":
        if "," in text:
            return tuple(_parse_value(v, tok, "nat") for v in text.split(","))
        if set(text) <= {"0", "1"}:
            return tuple(int(ch) for ch in text)
        return (_parse_value(text, tok, "nat"),)
    return tuple(parse_ordinal_text(v, tok.line, tok.col) for v in text.split(","))


def _kv_atom(args: _Args, key: str) -> Tuple[str, Token]:
    t = args.atom(f"{key}=...")
    if not t.text.startswith(key + "="):
        raise _error(t, f"expected {key}=..., got {t.text!r}")
    return t.text[len(key) + 1 :], t


def _pattern(args: _Args, mode: str) -> PatternMap:
    first = args.peek()
    if first.kind != "range":
        raise _error(first, "expected a pattern piece '[lo,hi) lim=... word=...'")
    raw = []
    while True:
        rt = args.expect("range", "a range")
        ends = [s.strip() for s in rt.text[1:-1].split(",")]
        if len(ends) != 2:
            raise _error(rt, f"range needs two endpoints, got {rt.text!r}")
        lo, hi = (parse_ordinal_text(e, rt.line, rt.col) for e in ends)
        raw.append((lo, hi, _kv_atom(args, "lim"), _kv_atom(args, "word")))
        if args.peek().kind != "semi":
            break
        args.take("';'")
    if mode == "auto":
        texts = [text for piece in raw for text, _ in piece[2:]]
        mode = "nat" if all(re.fullmatch(r"[0-9,]+", x) for x in texts) else "ordinal"
    pieces = [
        (lo, hi, _parse_value(*lim, mode), _parse_word_values(*word, mode))
        for lo, hi, lim, word in raw
    ]
    try:
        return PatternMap.build(pieces[-1][1], pieces)
    except (PatternError, ValueError) as exc:
        raise _error(first, str(exc)) from None


def _fmt_word(word: tuple) -> str:
    if all(isinstance(v, int) for v in word) and set(word) <= {0, 1}:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def print_pattern(pm: PatternMap) -> str:
    return "; ".join(
        f"[{pc.lo},{pc.hi}) lim={pc.limit_value} word={_fmt_word(pc.word)}"
        for pc in pm.pieces
    )


# ---------------------------------------------------------------------------
# points and spaces
# ---------------------------------------------------------------------------


_POINTS = _Table("point form", (SpaceError,), {
    "bits": lambda a: Bits(_pattern(a, "nat")),
    "ords": lambda a: Ords(_pattern(a, "ordinal")),
    "family": lambda a: Family(
        [_build(_POINTS, x) for x in a.expect("form", "'('").items], _pattern(a, "nat")
    ),
    "tagged": lambda a: Tagged(a.ordinal("a tag ordinal"), a.read(_POINTS)),
    "word": lambda a: a.bits() if a.more() else word_from_bits([]),
})


def _sum(a: _Args) -> TaggedSum:
    parts = a.many(a.read, _SPACES)
    if not parts:
        raise _error(a.head, "sum of no spaces")
    return TaggedSum(parts)


_SPACES = _Table("space", (), {
    "family-of": lambda a: FamilyOf(a.read(_SPACES)),
    "sum": _sum,
    "tower": lambda a: TowerSum(a.read(_SPACES)),
}, words={"bits": BITS, "ords": ORDS})


def _word_str(w: FiniteWord) -> str:
    return "".join(map(str, word_values(w)))


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
        bits = _word_str(x)
        return f"(word {bits})" if bits else "(word)"
    raise TypeError(f"not a point: {x!r}")


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


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def _on_space(make: Callable[[SpaceDescriptor], EqRelHandle]):
    return lambda a: make(a.read(_SPACES) if a.more() else BITS)


_RELATIONS = _Table("relation", (RelationError,), {
    "id": _on_space(rel_id),
    "e0": _on_space(rel_e0),
    "e1": lambda a: rel_e1(),
    "e1-approx": lambda a: rel_e1_approx(a.ordinal("an approximation level")),
    "idplus": _on_space(rel_idplus),
    "idplus-star": _on_space(rel_idplus_star),
    "cub": lambda a: rel_cub(
        mode=a.atom("literal|structural").text.capitalize(),
        value_space=a.atom("binary|ordinal").text,
    ),
    "jump": lambda a: rel_jump(a.read(_RELATIONS)),
    "join": lambda a: rel_join(a.many(a.read, _RELATIONS)),
    "tower-join": lambda a: make_tower(a.read(_RELATIONS), OMEGA),
})


def print_rel(rel: EqRelHandle) -> str:
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


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------


def _path(a: _Args) -> Tuple[Ordinal, ...]:
    return a.many(a.ordinal)


_COMP_OPTIONS = _Table("component option", (), {"path": _path})
_TAG_OPTIONS = _Table("tag option", (), {"path": _path, "unwrap": lambda a: a.nat("an unwrap count")})


def _prefix(a: _Args) -> InitialSegment:
    side = a.atom("a side").text
    return InitialSegment(a.bits() if a.more() else word_from_bits([]), side)


def _comp(a: _Args) -> ComponentConstraint:
    side = a.atom("a side").text
    word = a.bits() if a.peek().kind == "atom" else word_from_bits([])
    return ComponentConstraint(_clauses(a, _COMP_OPTIONS, "component atom")["path"], word, side)


def _tag(a: _Args) -> TagEquals:
    side, tag = a.atom("a side").text, a.ordinal("a tag ordinal")
    opts = _clauses(a, _TAG_OPTIONS)
    return TagEquals(tag, side, opts.get("path", ()), opts.get("unwrap", 0))


_CODE_ATOMS = _Table("atom form", (CodeError,), {"prefix": _prefix, "comp": _comp, "tag": _tag})
_GUARDS = _Table("leaf clause", (), {"guards": lambda a: a.many(a.read, _CODE_ATOMS)})
_NODES = _Table("node", (), {"node": _path})


def _leaf(a: _Args) -> Tuple[Tuple[Ordinal, ...], LeafCondition]:
    node, mode = a.read(_NODES), a.atom("all|iff").text
    atoms = []
    while a.more() and _head(a.peek()) != "guards":
        atoms.append(a.read(_CODE_ATOMS))
    guards = _clauses(a, _GUARDS).get("guards", ())
    return node, LeafCondition(tuple(atoms), mode, guards)


_LEAVES = _Table("leaf", (), {"leaf": _leaf})
_CODE_PARTS = _Table("code clause", (), {
    "tree": lambda a: a.many(a.read, _NODES),
    "labels": lambda a: dict(a.many(a.read, _LEAVES)),
})


def _code(a: _Args) -> BorelCode:
    space, arity = a.read(_SPACES), a.nat("an arity")
    parts = _clauses(a, _CODE_PARTS, "code")
    return BorelCode(CodeTree(parts["tree"]), parts["labels"], space, arity)


_CODES = _Table("code form", (CodeError,), {
    "id-code": lambda a: code_id(word_bound=a.nat("a word bound")),
    "jump-code": lambda a: code_jump(a.read(_CODES), index_bound=a.nat("an index bound")),
    "join-code": lambda a: code_join(list(a.many(a.read, _CODES))),
    "code": _code,
})


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


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def _rule(make: Callable) -> Callable[[_Args], object]:
    def read(a: _Args):
        k = a.nat("a coordinate width")
        if k > 9:
            raise _error(a.head, "coordinate blocks wider than 9 have no text form")
        rows = []
        while a.more():
            rt = a.atom("a digit string")
            if len(rt.text) != k or not rt.text.isdigit():
                raise _error(rt, f"expected {k} digits, got {rt.text!r}")
            rows.append(tuple(int(ch) for ch in rt.text))
        return make(tuple(rows), k)

    return read


_GROUPS = _Table("group", (), {
    "cyclic": lambda a: cyclic_group(a.nat("a group order")),
}, words={"z2": cyclic_group(2), "z4": cyclic_group(4), "s3": symmetric_group(3)[0]})
_RULES = _Table("action rule", (), {"permute": _rule(PermuteCoords), "xor": _rule(XorMasks)})
_ACTIONS = _Table("action", (GroupError,), {
    "action": lambda a: GroupAction(a.read(_GROUPS), a.read(_RULES)),
})


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


# ---------------------------------------------------------------------------
# reduction specs and CLI documents
# ---------------------------------------------------------------------------


_POLICIES = _Table("pair policy", (HarnessError,), {
    "sampled": lambda a: GenPolicy("sampled", n=a.nat("a sample count")),
    "constructed": lambda a: GenPolicy(
        "constructed",
        n_eq=a.nat("an equivalent-pair count"),
        n_ineq=a.nat("an inequivalent-pair count"),
    ),
}, words={"exhaustive": GenPolicy("exhaustive")})
_REDUCTION_CLAUSES = _Table("reduction clause", (), {
    "source": lambda a: a.read(_RELATIONS),
    "target": lambda a: a.read(_RELATIONS),
    "map": lambda a: (a.atom("a map name").text, a.many(a.nat, "a map argument")),
    "pairs": lambda a: a.read(_POLICIES),
})


def _reduction(a: _Args) -> ReductionSpec:
    c = _clauses(a, _REDUCTION_CLAUSES, "reduction spec")
    name, args = c["map"]
    return ReductionSpec(c["source"], c["target"], name, args, c["pairs"])


def _game(a: _Args) -> GameSpec:
    code, points = a.read(_CODES), a.many(a.read, _POINTS)
    if not points:
        raise _error(a.form, "game document without points")
    return GameSpec(code, points)


_APPROX_CLAUSES = _Table("approx clause", (), {
    "points": lambda a: a.many(a.read, _POINTS),
    "probes": lambda a: a.nat("a probe count"),
})


def _approx(a: _Args) -> ApproxSpec:
    code = a.read(_CODES)
    c = _clauses(a, _APPROX_CLAUSES)
    return ApproxSpec(code, c.get("points", ()), c.get("probes", 0))


def _orbit_point(a: _Args) -> Bits:
    point = a.read(_POINTS)
    if not isinstance(point, Bits):
        raise _error(a.head, "orbit base point must be a bit sequence")
    return point


_ORBIT_CLAUSES = _Table("orbit clause", (), {
    "point": _orbit_point,
    "pairs": lambda a: a.nat("a pair count"),
})


def _orbit(a: _Args) -> OrbitSpec:
    action = a.read(_ACTIONS)
    c = _clauses(a, _ORBIT_CLAUSES)
    return OrbitSpec(action, c.get("point"), c.get("pairs", 0))


_DOCUMENTS = _Table("form", (HarnessError,), {
    "reduction": _reduction,
    "game": _game,
    "approx": _approx,
    "orbit": _orbit,
})
_TOP = (_POINTS, _SPACES, _RELATIONS, _CODES, _ACTIONS, _DOCUMENTS)


def parse_spec(text: str) -> WorkbenchSpec:
    a = _Args(_read(text))
    if not a.more():
        raise DslError("empty document", 1, 1)
    first = a.peek()
    if first.kind == "form":
        head = _head(first)
        out = _build(next((t for t in _TOP if head in t.forms), _DOCUMENTS), a.take("a form"))
    elif first.kind == "range":
        out = _pattern(a, "auto")
    elif first.text in _SPACES.words:
        out = _build(_SPACES, a.take("a space"))
    else:
        out = a.ordinal()
    a.done()
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
