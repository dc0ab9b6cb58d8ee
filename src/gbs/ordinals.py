"""Ordinal arithmetic below w^w in Cantor normal form.

An ordinal is a finite sum  w^e_1 * c_1 + ... + w^e_k * c_k  with strictly
decreasing natural exponents e_i and positive natural coefficients c_i.
That representation is unique, so structural equality is ordinal equality.
An Ordinal is the tuple of its terms (e_i, c_i) and compares, hashes and
tests equal as that tuple: with strictly decreasing exponents, lexicographic
order on term tuples is the ordinal order (a proper prefix is smaller).
Every position alpha decomposes uniquely as  w * beta + n  with n < w; the
pair (beta, n) is the block index and the successor index used throughout
the pattern-map machinery.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Tuple

Term = Tuple[int, int]


class OrdinalError(ValueError):
    """Malformed term list or an operation outside its domain."""


class Ordinal(tuple):
    __slots__ = ()

    def __new__(cls, terms: Iterable[Term] = ()):
        terms = tuple((int(e), int(c)) for e, c in terms)
        last_e = None
        for e, c in terms:
            if e < 0 or c < 1:
                raise OrdinalError(f"bad CNF term (w^{e})*{c}")
            if last_e is not None and e >= last_e:
                raise OrdinalError("CNF exponents must strictly decrease")
            last_e = e
        return tuple.__new__(cls, terms)

    # an ordinal is a value, not a container: zero is truthy, and the
    # tuple's repetition is not ordinal multiplication
    def __bool__(self) -> bool:
        return True

    __mul__ = __rmul__ = None

    @property
    def terms(self) -> Tuple[Term, ...]:
        return tuple(self)

    @staticmethod
    def from_nat(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError("naturals only")
        return _nat_interned(n)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Ordinal | int") -> "Ordinal":
        other = _coerce(other)
        if not len(other):
            return self
        if not len(self):
            return other
        return _add_interned(self, other)

    def left_sub(self, larger: "Ordinal") -> "Ordinal":
        """The unique gamma with self + gamma == larger (requires self <= larger)."""
        return _left_sub(self, larger)

    def succ(self) -> "Ordinal":
        return self + ONE

    def pred(self) -> "Ordinal":
        if not self.is_successor():
            raise OrdinalError(f"{self} has no predecessor")
        e, c = self[-1]
        rest = self[:-1]
        return Ordinal(rest + (((e, c - 1),) if c > 1 else ()))

    # -- kind and decomposition ------------------------------------------

    def is_zero(self) -> bool:
        return not len(self)

    def is_successor(self) -> bool:
        return len(self) > 0 and self[-1][0] == 0

    def is_limit(self) -> bool:
        return len(self) > 0 and self[-1][0] != 0

    def kind(self) -> str:
        if self.is_zero():
            return "zero"
        return "successor" if self.is_successor() else "limit"

    def nat_part(self) -> int:
        """n in the unique decomposition  self = w*beta + n."""
        if len(self) and self[-1][0] == 0:
            return self[-1][1]
        return 0

    def limit_part(self) -> "Ordinal":
        """w*beta in the unique decomposition  self = w*beta + n."""
        if len(self) and self[-1][0] == 0:
            return _interned(self[:-1])
        return self

    def block_index(self) -> "Ordinal":
        """beta in the decomposition  self = w*beta + n  (exponent downshift)."""
        return _block_index(self)

    @staticmethod
    def block_start(beta: "Ordinal") -> "Ordinal":
        """w*beta: the first position of block beta (exponent upshift)."""
        return _block_start(beta)

    def to_nat(self) -> int:
        if len(self) and self[0][0] > 0:
            raise OrdinalError(f"{self} is not finite")
        return self.nat_part()

    def is_nat(self) -> bool:
        return not len(self) or self[0][0] == 0

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        return _text(self)

    def __repr__(self) -> str:
        return f"Ordinal[{self}]"


# serials render the same few ordinals over and over, so each text is kept
@functools.lru_cache(maxsize=8192)
def _text(o: Ordinal) -> str:
    if not len(o):
        return "0"
    parts = []
    for e, c in o:
        if e == 0:
            parts.append(str(c))
        else:
            base = "w" if e == 1 else f"w^{e}"
            parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def _coerce(x: "Ordinal | int") -> Ordinal:
    return x if isinstance(x, Ordinal) else Ordinal.from_nat(x)


# interning caches: ordinals are tiny immutable values built in hot loops,
# so identical results share one object instead of being reconstructed

_interned = functools.lru_cache(maxsize=8192)(Ordinal)


@functools.lru_cache(maxsize=2048)
def _nat_interned(n: int) -> Ordinal:
    return Ordinal(((0, n),) if n else ())


@functools.lru_cache(maxsize=8192)
def _block_index(o: Ordinal) -> Ordinal:
    return _interned(tuple((e - 1, c) for e, c in o.limit_part()))


@functools.lru_cache(maxsize=8192)
def _block_start(beta: Ordinal) -> Ordinal:
    return _interned(tuple((e + 1, c) for e, c in beta))


@functools.lru_cache(maxsize=8192)
def _left_sub(a: Ordinal, b: Ordinal) -> Ordinal:
    if b < a:
        raise OrdinalError(f"left_sub: {a} > {b}")
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    if k == len(a) and k == len(b):
        return ZERO
    # a <= b rules out a having a strictly larger unmatched term here
    e_b, c_b = b[k]
    if k < len(a):
        e_a, c_a = a[k]
        if e_a == e_b:
            if c_a < c_b:
                return _interned(((e_b, c_b - c_a),) + b[k + 1:])
            # c_a > c_b (equality was consumed by the prefix loop): only
            # legal when everything after is absorbed, i.e. a > b.
            raise OrdinalError("left_sub: inputs out of order")
    return _interned(b[k:])


@functools.lru_cache(maxsize=16384)
def _add_interned(a: Ordinal, b: Ordinal) -> Ordinal:
    lead = b[0][0]
    kept = [t for t in a if t[0] > lead]
    merged = list(b)
    for e, c in a:
        if e == lead:
            merged[0] = (lead, c + merged[0][1])
    return _interned(tuple(kept + merged))


ZERO = Ordinal()
ONE = Ordinal.from_nat(1)
OMEGA = Ordinal(((1, 1),))
OMEGA_SQ = Ordinal(((2, 1),))


def nat(n: int) -> Ordinal:
    return Ordinal.from_nat(n)


@functools.lru_cache(maxsize=4096)
def omega_times(q: int, plus: int = 0) -> Ordinal:
    """w*q + plus, the workhorse for grid levels at lambda = w^2."""
    terms = []
    if q:
        terms.append((1, q))
    if plus:
        terms.append((0, plus))
    return _interned(tuple(terms))


def ord_max(a: Ordinal, b: Ordinal) -> Ordinal:
    return b if a < b else a


def ord_min(a: Ordinal, b: Ordinal) -> Ordinal:
    return a if a < b else b


def iter_below(bound: Ordinal, coeff_cap: int) -> Iterator[Ordinal]:
    """Enumerate the finite grid of ordinals below `bound` whose CNF
    coefficients are all <= coeff_cap and exponents <= bound's lead exponent.

    The full set below a transfinite bound is infinite; this is the standard
    desk-scale subgrid used by exhaustive arithmetic checks.
    """
    if bound.is_zero():
        return
    max_e = bound[0][0]

    def build(e: int, acc: Tuple[Term, ...]) -> Iterator[Ordinal]:
        if e < 0:
            o = Ordinal(acc)
            if o < bound:
                yield o
            return
        yield from build(e - 1, acc)
        for c in range(1, coeff_cap + 1):
            yield from build(e - 1, acc + ((e, c),))

    yield from build(max_e, ())
