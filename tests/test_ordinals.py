from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from gbs.codes import BorelCode, CodeError, CodeTree, InitialSegment, LeafCondition
from gbs.ordinals import (
    ONE,
    OMEGA,
    OMEGA_SQ,
    ZERO,
    Ordinal,
    OrdinalError,
    iter_below,
    nat,
    omega_times,
    ord_max,
    ord_min,
)
from gbs.spaces import BITS, word_from_bits

# ---------------------------------------------------------------------------
# Oracle: ordinals below w^2 are exactly the pairs (q, n) of naturals,
# standing for w*q + n, ordered lexicographically.  Addition on pairs:
# a lower left part is absorbed whenever the right summand has q > 0.
# ---------------------------------------------------------------------------


def to_pair(o: Ordinal) -> tuple[int, int]:
    q = n = 0
    for e, c in o.terms:
        if e == 1:
            q = c
        elif e == 0:
            n = c
        else:
            raise AssertionError(f"{o!r} is not below w^2")
    return q, n


def from_pair(q: int, n: int) -> Ordinal:
    return omega_times(q, n)


def add_pairs(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    if b[0] > 0:
        return a[0] + b[0], b[1]
    return a[0], a[1] + b[1]


# Exhaustive grid below w*5+5: every w*q+n with q,n <= 5 except the bound.
GRID = list(iter_below(omega_times(5, 5), coeff_cap=5))


def test_grid_is_the_expected_35_ordinals():
    assert len(GRID) == 35
    assert len(set(GRID)) == 35
    for o in GRID:
        assert o < omega_times(5, 5)


def test_add_matches_pair_oracle_exhaustively():
    for a in GRID:
        pa = to_pair(a)
        for b in GRID:
            assert to_pair(a + b) == add_pairs(pa, to_pair(b))


def test_add_is_associative_exhaustively():
    for a in GRID:
        for b in GRID:
            ab = a + b
            for c in GRID:
                assert (ab) + c == a + (b + c)


def test_order_matches_lexicographic_pairs():
    for a in GRID:
        pa = to_pair(a)
        for b in GRID:
            pb = to_pair(b)
            assert (a < b) == (pa < pb)
            assert (a == b) == (pa == pb)
            assert (a <= b) == (pa <= pb)


def test_left_sub_roundtrips_on_grid():
    for a in GRID:
        for b in GRID:
            if a <= b:
                g = a.left_sub(b)
                assert a + g == b
            else:
                with pytest.raises(OrdinalError):
                    a.left_sub(b)


def test_left_sub_is_the_least_such_gamma():
    # uniqueness below w^2: any gamma' with a + gamma' == b satisfies
    # gamma' == left_sub except for absorbed finite parts, which addition
    # forgets; the canonical answer must itself reproduce b.
    a = omega_times(1, 4)
    b = omega_times(3, 2)
    g = a.left_sub(b)
    assert g == omega_times(2, 2)
    assert a + g == b


# --- frozen values -----------------------------------------------------------


def test_frozen_addition_example():
    assert omega_times(2, 3) + omega_times(1, 1) == omega_times(3, 1)


def test_frozen_left_sub_example():
    assert OMEGA.left_sub(omega_times(3, 5)) == omega_times(2, 5)


def test_frozen_absorption():
    assert nat(7) + OMEGA == OMEGA
    assert OMEGA + nat(7) == omega_times(1, 7)
    assert omega_times(2, 9) + OMEGA_SQ == OMEGA_SQ


def test_int_coercion_on_the_right():
    assert OMEGA + 3 == omega_times(1, 3)
    assert nat(2) + 2 == nat(4)
    with pytest.raises(TypeError):
        3 + OMEGA  # int.__add__ must not silently widen


# --- kinds and block decomposition ------------------------------------------


def test_kind_matches_pair_oracle():
    for o in GRID:
        q, n = to_pair(o)
        if q == 0 and n == 0:
            want = "zero"
        elif n > 0:
            want = "successor"
        else:
            want = "limit"
        assert o.kind() == want
        assert o.is_zero() == (want == "zero")
        assert o.is_successor() == (want == "successor")
        assert o.is_limit() == (want == "limit")


def test_block_decomposition_below_w_squared():
    for o in GRID:
        q, n = to_pair(o)
        assert o.nat_part() == n
        assert o.limit_part() == omega_times(q)
        assert o.block_index() == nat(q)
        assert Ordinal.block_start(nat(q)) + n == o


def test_block_decomposition_above_w_squared():
    o = Ordinal(((2, 2), (1, 3), (0, 4)))
    assert o.nat_part() == 4
    assert o.block_index() == omega_times(2, 3)
    assert Ordinal.block_start(omega_times(2, 3)) == Ordinal(((2, 2), (1, 3)))


def test_succ_pred_roundtrip():
    for o in GRID:
        assert o.succ().pred() == o
        assert o.succ().is_successor()
    with pytest.raises(OrdinalError):
        OMEGA.pred()
    with pytest.raises(OrdinalError):
        ZERO.pred()


# --- construction and rendering ----------------------------------------------


def test_constructor_rejects_malformed_term_lists():
    with pytest.raises(OrdinalError):
        Ordinal(((0, 1), (1, 1)))  # exponents must strictly decrease
    with pytest.raises(OrdinalError):
        Ordinal(((1, 0),))  # zero coefficient
    with pytest.raises(OrdinalError):
        Ordinal(((1, 1), (1, 2)))  # repeated exponent


def test_str_frozen_forms():
    assert str(ZERO) == "0"
    assert str(nat(5)) == "5"
    assert str(OMEGA) == "w"
    assert str(omega_times(3, 1)) == "w*3+1"
    assert str(Ordinal(((2, 2), (1, 1), (0, 4)))) == "w^2*2+w+4"
    assert str(OMEGA_SQ) == "w^2"


def test_hashable_and_usable_as_keys():
    d = {o: str(o) for o in GRID}
    assert d[omega_times(2, 2)] == "w*2+2"
    assert len(d) == len(GRID)


def test_nat_roundtrip():
    for k in range(10):
        assert nat(k).to_nat() == k
        assert nat(k).is_nat()
    assert not OMEGA.is_nat()
    with pytest.raises(OrdinalError):
        OMEGA.to_nat()


def test_ord_max_min():
    assert ord_max(OMEGA, nat(9)) == OMEGA
    assert ord_min(OMEGA, nat(9)) == nat(9)


# --- randomized associativity in a wider grid --------------------------------


def test_add_associative_sampled_above_w_squared():
    rng = random.Random(20260814)
    pool = list(iter_below(Ordinal(((3, 1),)), coeff_cap=2))
    for _ in range(20000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert (a + b) + c == a + (b + c)


def test_left_sub_roundtrip_sampled_above_w_squared():
    rng = random.Random(7)
    pool = list(iter_below(Ordinal(((3, 1),)), coeff_cap=2))
    for _ in range(5000):
        a, b = rng.choice(pool), rng.choice(pool)
        if a <= b:
            assert a + a.left_sub(b) == b


# --- the tuple representation ---------------------------------------------
# Oracle: with exponents <= 4 and coefficients <= 9, w^e_1*c_1 + ... reads
# as the decimal number sum c_i * 10^e_i, and the ordinal order is the
# order of those numbers (N = 10 exceeds every coefficient).

PROPS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

TERM_LISTS = st.dictionaries(st.integers(0, 4), st.integers(1, 9), max_size=5).map(
    lambda d: tuple(sorted(d.items(), reverse=True))
)


def decimal(o: Ordinal) -> int:
    return sum(c * 10**e for e, c in o.terms)


@PROPS
@given(a=TERM_LISTS, b=TERM_LISTS)
def test_order_matches_decimal_oracle(a, b):
    x, y = Ordinal(a), Ordinal(b)
    dx, dy = decimal(x), decimal(y)
    assert (x < y, x <= y, x == y, x != y, x >= y, x > y) == (
        dx < dy, dx <= dy, dx == dy, dx != dy, dx >= dy, dx > dy,
    )
    assert (ord_max(x, y), ord_min(x, y)) == ((y, x) if dx < dy else (x, y))


@PROPS
@given(terms=TERM_LISTS, k=st.integers(0, 5), n=st.integers(0, 9))
def test_equal_values_are_equal_however_built(terms, k, n):
    o = Ordinal(terms)
    head, tail = Ordinal(terms[:k]), Ordinal(terms[k:])
    summed = ZERO
    for e, c in terms:  # each coefficient as two summands where it can be
        summed = summed + Ordinal(((e, 1),))
        if c > 1:
            summed = summed + Ordinal(((e, c - 1),))
    pairs = [(summed, o), (head + tail, o), (head.left_sub(o), tail)]
    if k < len(terms) and terms[k][1] > 1:  # left_sub inside a coefficient
        (e, c), rest = terms[k], terms[k + 1:]
        pairs.append((Ordinal(terms[:k] + ((e, 1),)).left_sub(o), Ordinal(((e, c - 1),) + rest)))
    if o >= OMEGA:
        pairs.append((nat(n) + o, o))  # absorbed
    if o < OMEGA_SQ:
        pairs.append((omega_times(*to_pair(o)), o))
    for built, want in pairs:
        assert built == want and hash(built) == hash(want)
        assert type(built) is Ordinal
    assert hash(o) == hash(o.terms)  # set and dict orders as with the term tuples


def test_kept_value_semantics():
    assert bool(ZERO) and bool(ONE)
    for bad in (lambda: ZERO * 2, lambda: 2 * OMEGA, lambda: OMEGA * OMEGA):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(TypeError):
        OMEGA < 3
    assert Ordinal(((1, 2),)).terms == ((1, 2),) and type(OMEGA.terms) is tuple
    assert str(ZERO) == "0" and repr(OMEGA) == "Ordinal[w]"


def test_code_nodes_are_never_ordinals():
    # ZERO == () as tuples: it must not pass for the root node or its label
    with pytest.raises(CodeError):
        CodeTree([ZERO])
    with pytest.raises(CodeError):
        CodeTree([(), ZERO])
    leaf = LeafCondition((InitialSegment(word_from_bits([1])),))
    with pytest.raises(CodeError):
        BorelCode(CodeTree([()]), {ZERO: leaf}, BITS, 1)
    assert BorelCode(CodeTree([()]), {(): leaf}, BITS, 1).labels == {(): leaf}
