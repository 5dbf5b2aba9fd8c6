import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperappell.reference import (
    TriMatrix,
    appell_matrix,
    creation_matrix,
    derivation_matrix,
    nilpotent_exp,
    pascal_matrix,
    transfer_matrix,
    tri_inverse,
)
from hyperappell.trimatrix import (
    FAMILIES,
    TRANSFER_FAMILIES,
    appell_rows,
    derivation_entry,
    egf_reciprocal,
    pascal_column,
    subdiagonal_rows,
    transfer_column,
)

from oracles import (
    bernoulli_numbers,
    dense_add,
    dense_creation,
    dense_identity,
    dense_inverse,
    dense_mul,
    dense_pascal_one,
    dense_scale,
    egf_reciprocal_by_fractions,
)

# The transfer builders are checked against the slow routes for every order
# up to this one: dense Gauss-Jordan inverses and the defining matrix series.
SLOW_ROUTE_MAX_M = 20


def lower_part(dense, m):
    """Rows of the leading (m+1)x(m+1) block of a dense lower-triangular matrix."""
    return [row[: i + 1] for i, row in enumerate(dense[: m + 1])]


def test_shape_validation():
    with pytest.raises(ValueError):
        TriMatrix([[Fraction(1)], [Fraction(1)]])  # second row too short
    with pytest.raises(ValueError):
        TriMatrix([])


def test_indexing_above_diagonal_is_zero():
    m = creation_matrix(3)
    assert m[0, 3] == 0
    assert m[2, 1] == 2


def test_creation_matrix_subdiagonal():
    assert creation_matrix(3).subdiagonal() == [Fraction(1), Fraction(2), Fraction(3)]
    assert creation_matrix(0).is_zero()


def test_creation_matrix_is_nilpotent():
    h = creation_matrix(5)
    assert h.power(6).is_zero()
    assert not h.power(5).is_zero()


def test_matmul_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(10):
        m = rng.randrange(0, 6)
        a = TriMatrix(
            [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(i + 1)] for i in range(m + 1)]
        )
        b = TriMatrix(
            [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(i + 1)] for i in range(m + 1)]
        )
        dense_a = [[a[i, j] for j in range(m + 1)] for i in range(m + 1)]
        dense_b = [[b[i, j] for j in range(m + 1)] for i in range(m + 1)]
        expected = dense_mul(dense_a, dense_b)
        got = a @ b
        assert all(
            got[i, j] == expected[i][j] for i in range(m + 1) for j in range(m + 1)
        )


def test_derivation_matrix_entries():
    # alternating pattern: -(n + i - 1) below even rows, -i below odd ones
    ht = derivation_matrix(2, 3)
    assert ht.subdiagonal() == [Fraction(-2), Fraction(-2), Fraction(-4)]
    ht = derivation_matrix(3, 4)
    assert ht.subdiagonal() == [Fraction(-3), Fraction(-2), Fraction(-5), Fraction(-4)]


def test_derivation_matrix_shifted():
    ht = derivation_matrix(2, 3, shift=1)
    assert ht.subdiagonal() == [Fraction(-4), Fraction(-2), Fraction(-6)]


def test_derivation_matrix_n1_is_minus_creation():
    for m in range(0, 9):
        assert derivation_matrix(1, m) == creation_matrix(m).scale(-1)


def test_derivation_matrix_validation():
    with pytest.raises(ValueError):
        derivation_matrix(0, 3)
    with pytest.raises(ValueError):
        derivation_matrix(2, 3, shift=-1)


def zero_filled(m, entry):
    """The order-m matrix with entry(i) at (i, i-1), written into a matrix of zeros."""
    matrix = TriMatrix.zeros(m)
    for i in range(1, m + 1):
        matrix.rows[i][i - 1] = entry(i)
    return matrix


def test_subdiagonal_matrices_are_the_zero_filled_reference():
    for m in range(21):
        h = creation_matrix(m)
        assert h == zero_filled(m, Fraction)
        for n in range(1, 5):
            for s in range(4):
                entry = functools.partial(derivation_entry, n, shift=s)
                ht = derivation_matrix(n, m, shift=s)
                assert ht == zero_filled(m, entry)
                assert all(type(v) is Fraction for row in ht.rows for v in row)
        assert all(type(v) is Fraction for row in h.rows for v in row)


def test_subdiagonal_rows_refuses_a_negative_order_at_the_call():
    def entry(i):
        raise AssertionError("no row may be drawn")

    for m in (-1, -5):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            subdiagonal_rows(m, entry)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            creation_matrix(m)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            derivation_matrix(2, m)
    # n and s are refused before the order
    with pytest.raises(ValueError, match="dimension n must be at least 1"):
        derivation_matrix(0, -1)


def test_nilpotent_exp_equals_pascal():
    for m in (0, 1, 4, 10):
        for t in (Fraction(1), Fraction(-2, 3), Fraction(5, 7)):
            assert nilpotent_exp(creation_matrix(m), t) == pascal_matrix(t, m)


def test_nilpotent_exp_rejects_nonnilpotent():
    with pytest.raises(ValueError):
        nilpotent_exp(TriMatrix.identity(2), Fraction(1))


def test_pascal_semigroup():
    rng = random.Random(40)
    for _ in range(100):
        a = Fraction(rng.randrange(-40, 41), rng.randrange(1, 11))
        b = Fraction(rng.randrange(-40, 41), rng.randrange(1, 11))
        assert pascal_matrix(a, 10) @ pascal_matrix(b, 10) == pascal_matrix(a + b, 10)


def test_pascal_inverse_is_negated_argument():
    p = pascal_matrix(Fraction(3, 2), 6)
    assert tri_inverse(p) == pascal_matrix(Fraction(-3, 2), 6)


def test_tri_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(8):
        m = rng.randrange(0, 6)
        rows = [
            [Fraction(rng.randrange(-6, 7)) for _ in range(i)] + [Fraction(rng.randrange(1, 7))]
            for i in range(m + 1)
        ]
        a = TriMatrix(rows)
        assert a @ tri_inverse(a) == TriMatrix.identity(m)
        assert tri_inverse(a) @ a == TriMatrix.identity(m)


def test_tri_inverse_singular():
    with pytest.raises(ZeroDivisionError):
        tri_inverse(creation_matrix(2))


# rationals with negative and fractional values and numerators of up to 100 digits
egf_entries = st.one_of(
    st.fractions(max_denominator=1000),
    st.builds(Fraction, st.integers(-(10**100), 10**100), st.integers(1, 10**40)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(egf_entries, max_size=16).filter(lambda g: not g or g[0]))
@example([])
@example([Fraction(-3, 7)])
@example([Fraction(10**60 + 1, 7), Fraction(-1, 3), 0, 0, Fraction(5, 2)])
@example([2, 0, 0, 0, 0, 0])
def test_egf_reciprocal_matches_fraction_recurrence(g):
    fast = egf_reciprocal(g)
    assert fast == egf_reciprocal_by_fractions(g)
    assert all(type(v) is Fraction for v in fast)


def test_egf_reciprocal_refuses_zero_head():
    for g in ([0], [Fraction(0), Fraction(1), Fraction(1)], [0, 5]):
        with pytest.raises(ZeroDivisionError):
            egf_reciprocal(g)


def test_bernoulli_transfer_first_column():
    # column 0 carries the Bernoulli numbers
    m = 40
    transfer = transfer_matrix("bernoulli", m)
    numbers = bernoulli_numbers(m)
    assert [transfer[i, 0] for i in range(m + 1)] == numbers


def test_bernoulli_transfer_defining_identity():
    # T * sum_k H^k/(k+1)! = I
    m = 6
    h = creation_matrix(m)
    acc = TriMatrix.zeros(m)
    term = TriMatrix.identity(m)
    fact = 1
    for k in range(m + 1):
        fact *= k + 1  # (k+1)!
        acc = acc + term.scale(Fraction(1, fact))
        term = term @ h
    assert transfer_matrix("bernoulli", m) @ acc == TriMatrix.identity(m)


def test_bernoulli_transfer_matches_dense_inverse():
    # Leading blocks of lower-triangular matrices multiply and invert on
    # their own, so one dense inverse at the largest order covers every m.
    top = SLOW_ROUTE_MAX_M
    h = dense_creation(top)
    series = dense_identity(top + 1)
    term = dense_identity(top + 1)
    fact = 1
    for k in range(1, top + 1):
        fact *= k + 1  # (k+1)!
        term = dense_mul(term, h)
        series = dense_add(series, dense_scale(term, Fraction(1, fact)))
    expected = dense_inverse(series)
    for m in range(top + 1):
        assert transfer_matrix("bernoulli", m).rows == lower_part(expected, m), m


@settings(max_examples=15, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(lambda v: v != 1))
@example(Fraction(0))
@example(Fraction(-1))
@example(Fraction(-4, 7))
@example(Fraction(3, 2))
def test_frobenius_euler_transfer_matches_dense_inverse(lam):
    top = SLOW_ROUTE_MAX_M
    shifted = dense_add(dense_pascal_one(top), dense_scale(dense_identity(top + 1), -lam))
    expected = dense_scale(dense_inverse(shifted), 1 - lam)
    for m in range(top + 1):
        assert transfer_matrix("frobenius-euler", m, lam).rows == lower_part(expected, m), (lam, m)


def test_transfer_builders_reject_negative_order():
    for family in FAMILIES:
        with pytest.raises(ValueError):
            transfer_matrix(family, -1, Fraction(2) if family == "frobenius-euler" else None)
    with pytest.raises(ValueError):
        appell_matrix([])


def test_euler_transfer_small():
    t = transfer_matrix("euler", 1)
    assert t[0, 0] == 1 and t[1, 0] == Fraction(-1, 2) and t[1, 1] == 1
    assert transfer_matrix("euler", 4) == transfer_matrix("frobenius-euler", 4, Fraction(-1))


def test_frobenius_euler_rejects_lambda_one():
    with pytest.raises(ValueError):
        transfer_matrix("frobenius-euler", 3, Fraction(1))


@functools.lru_cache(maxsize=None)
def reference_transfer(family: str, m: int, lam: Fraction | None = None) -> TriMatrix:
    """f(H) by the defining matrix series and inverses; for "pascal", `lam` is x0."""
    h = creation_matrix(m)
    identity = TriMatrix.identity(m)
    if family == "bernoulli":
        # the inverse of sum_k H^k / (k+1)!
        series, term, fact = TriMatrix.zeros(m), identity, 1
        for k in range(m + 1):
            fact *= k + 1
            series, term = series + term.scale(Fraction(1, fact)), term @ h
        return tri_inverse(series)
    if family in ("euler", "frobenius-euler"):
        lam = Fraction(-1) if family == "euler" else lam
        return tri_inverse(nilpotent_exp(h, Fraction(1)) - identity.scale(lam)).scale(1 - lam)
    if family == "hermite":
        return nilpotent_exp((h @ h).scale(Fraction(-1, 4)), Fraction(1))
    assert family == "pascal"
    return nilpotent_exp(h, lam)


# Every transfer family, frobenius-euler at two lambdas, and a Pascal matrix.
COLUMN_CASES = [
    ("bernoulli", None),
    ("euler", None),
    ("hermite", None),
    ("frobenius-euler", Fraction(-4, 7)),
    ("frobenius-euler", Fraction(3, 2)),
    ("pascal", Fraction(-3, 7)),
]
STREAM_ORDERS = [0, 1, 2, 7, 32]


@pytest.mark.parametrize("m", STREAM_ORDERS)
@pytest.mark.parametrize("family, lam", COLUMN_CASES)
def test_transfer_column_is_column_0_of_the_reference(family, lam, m):
    reference = reference_transfer(family, m, lam)
    if family == "pascal":
        column = pascal_column(lam, m)
    else:
        column = transfer_column(family, m, lam)
    assert column == [reference[i, 0] for i in range(m + 1)]
    assert all(type(v) is Fraction for v in column)
    # the rows are drawn as pairs in lowest terms, which a Fraction of the reference holds too
    pairs = [[(v.numerator, v.denominator) for v in row] for row in reference.rows]
    assert list(appell_rows(column)) == pairs


# columns with zeros, negatives, integers and numerators of up to 100 digits
column_entries = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction), egf_entries)


@settings(max_examples=200, deadline=None)
@given(st.lists(column_entries, min_size=1, max_size=16))
@example([Fraction(0)])
@example([Fraction(-3, 7), Fraction(0), Fraction(5), Fraction(10**60 + 1, 2 * 3 * 5 * 7)])
def test_appell_rows_are_reduced_pairs_of_the_binomial_products(column):
    rows = list(appell_rows(column))
    assert [len(row) for row in rows] == list(range(1, len(column) + 1))
    for i, row in enumerate(rows):
        for j, (num, den) in enumerate(row):
            assert type(num) is int and type(den) is int
            assert den > 0 and math.gcd(num, den) == 1, (i, j, num, den)
            assert Fraction(num, den) == math.comb(i, j) * column[i - j], (i, j)


def test_appell_rows_refuses_an_empty_column_at_the_call():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        appell_rows([])


def test_canonical_column_is_the_identity():
    # f = 1: the column (1, 0, ..., 0), empty for m < 0 as every family's
    for m in range(6):
        assert transfer_column("canonical", m) == [1] + [0] * m
        assert transfer_matrix("canonical", m) == TriMatrix.identity(m)
    assert transfer_column("canonical", -1) == []
    for family in TRANSFER_FAMILIES:
        assert transfer_column(family, -1, Fraction(2) if family == "frobenius-euler" else None) == []


def test_transfer_matrix_is_the_reference_series():
    lam = Fraction(2, 3)
    for family in TRANSFER_FAMILIES:
        lam_or_none = lam if family == "frobenius-euler" else None
        assert transfer_matrix(family, 6, lam_or_none) == reference_transfer(family, 6, lam_or_none)


@pytest.mark.parametrize(
    "family, lam",
    [
        ("frobenius-euler", None),
        ("frobenius-euler", 1),
        ("frobenius-euler", Fraction(1)),
        ("bernoulli", Fraction(2)),
        ("euler", Fraction(-1)),
        ("hermite", 0),
        ("canonical", Fraction(2)),
        ("laguerre", None),
    ],
)
def test_transfer_matrix_refuses_with_value_error(family, lam):
    with pytest.raises(ValueError):
        transfer_matrix(family, 3, lam)


def test_frobenius_euler_defining_identity():
    lam = Fraction(2, 5)
    m = 6
    t = transfer_matrix("frobenius-euler", m, lam)
    p = pascal_matrix(Fraction(1), m)
    assert t @ (p - TriMatrix.identity(m).scale(lam)) == TriMatrix.identity(m).scale(1 - lam)


def test_hermite_transfer_small():
    t = transfer_matrix("hermite", 2)
    assert t[0, 0] == 1 and t[1, 1] == 1 and t[2, 2] == 1
    assert t[2, 0] == Fraction(-1, 2) and t[1, 0] == 0 and t[2, 1] == 0


def test_hermite_transfer_is_exp_of_minus_h_squared_quarter():
    for m in range(SLOW_ROUTE_MAX_M + 1):
        h = creation_matrix(m)
        h2 = (h @ h).scale(Fraction(-1, 4))
        assert transfer_matrix("hermite", m) == nilpotent_exp(h2, Fraction(1)), m


def test_apply_on_rationals_matches_dense():
    m = 4
    h = creation_matrix(m)
    vec = [Fraction(k + 1, 3) for k in range(m + 1)]
    dense = dense_creation(m)
    expected = [
        sum((dense[i][j] * vec[j] for j in range(m + 1)), Fraction(0))
        for i in range(m + 1)
    ]
    assert h.apply(vec) == expected


def test_apply_length_mismatch():
    with pytest.raises(ValueError):
        creation_matrix(3).apply([Fraction(1)] * 3)


def test_diagonal_helpers():
    d = TriMatrix.diagonal([Fraction(1), Fraction(1, 2), Fraction(3)])
    assert d.diagonal_entries() == [Fraction(1), Fraction(1, 2), Fraction(3)]
    assert d[1, 0] == 0
    assert TriMatrix.identity(2).diagonal_entries() == [Fraction(1)] * 3
