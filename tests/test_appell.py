import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperappell.appell import (
    FAMILIES,
    AppellPoly,
    build_family,
    build_phi,
    coefficient_sequence,
    family_members,
    family_terms,
    transferred_terms,
    vector_power_expansion,
)
from hyperappell.clifford import Multivector, Paravector
from hyperappell.evaluate import eval_at, eval_poly, exp_truncated, restrict_poly, restrict_real
from hyperappell.polynomials import CliffordPoly
from hyperappell.reference import (
    appell_matrix,
    closed_form_coefficient,
    creation_matrix,
    expand_multivariate,
    nilpotent_exp,
    transfer_matrix,
    tri_inverse,
    vector_power,
)
from hyperappell.seqfile import from_json
from hyperappell.trimatrix import transfer_column

from test_trimatrix import COLUMN_CASES, STREAM_ORDERS, reference_transfer
from oracles import bernoulli_polys, double_factorial, euler_polys_inverse, euler_polys_recurrence, hermite_polys_recurrence, hermite_polys_series


# -- coefficient sequences --------------------------------------------------


def test_coefficients_n2_table():
    cs = coefficient_sequence(2, 8)
    assert [str(c) for c in cs.values] == [
        "1", "1/2", "1/2", "3/8", "3/8", "5/16", "5/16", "35/128", "35/128",
    ]


def test_coefficients_n1_all_ones():
    assert all(c == 1 for c in coefficient_sequence(1, 12).values)


def test_coefficients_first_entry_is_one_over_n():
    for n in range(1, 8):
        assert coefficient_sequence(n, 1).values[1] == Fraction(1, n)


def test_coefficients_shifted_values():
    assert coefficient_sequence(2, 2, shift=1).values[1:] == (Fraction(1, 4), Fraction(1, 4))
    assert coefficient_sequence(3, 1, shift=1).values[1] == Fraction(1, 5)
    for n in range(1, 5):
        zero_shift = coefficient_sequence(n, 8, shift=0)
        assert zero_shift == coefficient_sequence(n, 8)


def test_recurrence_matches_closed_form_on_grid():
    # the closed form is the reference: coefficient_sequence computes the recurrence alone
    for c0 in (Fraction(1), Fraction(-3, 7)):
        for n in [*range(1, 9), 10**9]:
            for s in range(4):
                cs = coefficient_sequence(n, 60, c0=c0, shift=s)
                for k, value in enumerate(cs.values):
                    assert value == closed_form_coefficient(n, k, c0=c0, shift=s), (c0, n, s, k)


def test_closed_form_is_the_double_factorial_formula():
    # c_k = (2r-1)!! (n+2s-2)!! / (n+2r+2s-2)!! c_0 with r = ceil(k/2), as double factorials
    c0 = Fraction(-3, 7)
    for n in range(1, 10):
        for s in range(4):
            for k in range(13):
                r = (k + 1) // 2
                num = double_factorial(2 * r - 1) * double_factorial(n + 2 * s - 2)
                den = double_factorial(n + 2 * r + 2 * s - 2)
                assert closed_form_coefficient(n, k, c0=c0, shift=s) == Fraction(num, den) * c0


def test_coefficients_scale_linearly_in_c0():
    base = coefficient_sequence(3, 6)
    scaled = coefficient_sequence(3, 6, c0=Fraction(-5, 7))
    assert tuple(v * Fraction(-5, 7) for v in base.values) == scaled.values


def test_coefficients_all_nonzero():
    for n in range(1, 7):
        assert all(coefficient_sequence(n, 10).values)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        coefficient_sequence(0, 3)
    with pytest.raises(ValueError):
        coefficient_sequence(2, -1)
    with pytest.raises(ValueError):
        coefficient_sequence(2, 3, c0=0)
    with pytest.raises(ValueError):
        coefficient_sequence(2, 3, shift=-1)


# -- basic sequence construction --------------------------------------------


def test_build_phi_binomial_structure():
    cs = coefficient_sequence(3, 6)
    seq = build_phi(cs)
    for k, poly in enumerate(seq.polys):
        assert poly.degree == k
        for (i, j), a in poly.terms.items():
            assert i + j == k  # canonical members are homogeneous
            assert a == math.comb(k, j) * cs.values[j]


def test_phi1_is_x0_plus_vector_over_n():
    for n in range(1, 7):
        p1 = build_family(n, 1).polys[1]
        assert p1.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1, n)}


def test_phi0_is_c0():
    seq = build_family(2, 0, c0=Fraction(3, 4))
    assert seq.polys[0].terms == {(0, 0): Fraction(3, 4)}


def test_build_phi_matches_pascal_route():
    # second construction: row k of e^(H x0) D_c applied to the vector powers,
    # compared for m+1 distinct x0 samples (degree-m polynomial identity)
    n, m = 3, 6
    cs = coefficient_sequence(n, m)
    seq = build_phi(cs)
    h = creation_matrix(m)
    for step in range(m + 1):
        t = Fraction(2 * step - m, 3)
        pascal = nilpotent_exp(h, t)
        for k, poly in enumerate(seq.polys):
            for j in range(m + 1):
                binary = sum(
                    (a * t**i for (i, jj), a in poly.terms.items() if jj == j),
                    Fraction(0),
                )
                assert binary == pascal[k, j] * cs.values[j]


# -- expansion and evaluation ------------------------------------------------


def test_vector_power_expansion_small():
    # v^2 at n=2 is the scalar -(x1^2 + x2^2)
    p = vector_power_expansion(2, 2)
    minus_one = Multivector.scalar(2, -1)
    assert p == (
        CliffordPoly.monomial(2, (0, 2, 0), minus_one)
        + CliffordPoly.monomial(2, (0, 0, 2), minus_one)
    )


def test_vector_power_expansion_cannot_be_changed_by_a_caller():
    first = vector_power_expansion(3, 4)
    expected = CliffordPoly(3, first.terms)
    with pytest.raises(AttributeError):
        first.terms.clear()
    with pytest.raises(TypeError):
        first.terms[(0, 0, 0, 0)] = Multivector.scalar(3, 1)
    assert vector_power_expansion(3, 4) == expected


def test_expand_phi1_n2():
    seq = build_family(2, 1)
    half = Fraction(1, 2)
    expected = (
        CliffordPoly.variable(2, 0)
        + CliffordPoly.monomial(2, (0, 1, 0), Multivector.generator(2, 1) * half)
        + CliffordPoly.monomial(2, (0, 0, 1), Multivector.generator(2, 2) * half)
    )
    assert expand_multivariate(seq.polys[1], 2) == expected


def test_expand_phi2_n2():
    seq = build_family(2, 2)
    e1 = Multivector.generator(2, 1)
    e2 = Multivector.generator(2, 2)
    half = Fraction(1, 2)
    expected = (
        CliffordPoly.monomial(2, (2, 0, 0), Multivector.scalar(2, 1))
        + CliffordPoly.monomial(2, (1, 1, 0), e1)
        + CliffordPoly.monomial(2, (1, 0, 1), e2)
        + CliffordPoly.monomial(2, (0, 2, 0), Multivector.scalar(2, -half))
        + CliffordPoly.monomial(2, (0, 0, 2), Multivector.scalar(2, -half))
    )
    assert expand_multivariate(seq.polys[2], 2) == expected


def test_expansion_is_homogeneous():
    for n in (1, 2, 3):
        seq = build_family(n, 5)
        for k, poly in enumerate(seq.polys):
            expanded = expand_multivariate(poly, n)
            assert all(sum(exps) == k for exps in expanded.terms)


def test_eval_agrees_with_expansion():
    rng = random.Random(3)
    for n in (1, 2, 3):
        seq = build_family(n, 5)
        for k, poly in enumerate(seq.polys):
            expanded = expand_multivariate(poly, n)
            for _ in range(50):
                coords = [
                    Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
                    for _ in range(n + 1)
                ]
                x = Paravector(coords[0], tuple(coords[1:]))
                assert eval_poly(poly, x) == expanded.eval(coords)


# -- binary-form evaluation against Clifford products ------------------------------


def eval_by_products(poly, x):
    """Reference route: sum of a x0^i times the Clifford power v^j, term by term."""
    vec_only = Paravector(0, x.vec)
    acc = Multivector.zero(x.n)
    for (i, j), a in poly.terms.items():
        acc = acc + vector_power(vec_only, j) * (a * x.x0**i)
    return acc


def sample_points(rng, n):
    """Random rational points, a zero vector part, x0 = 0 and the origin."""
    def coord():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))

    yield from (Paravector(coord(), tuple(coord() for _ in range(n))) for _ in range(3))
    yield Paravector(coord(), (0,) * n)
    yield Paravector(0, tuple(coord() for _ in range(n)))
    yield Paravector(0, (0,) * n)


EVAL_SEQUENCES = [
    ("canonical", None, 0),
    ("bernoulli", None, 0),
    ("euler", None, 0),
    ("hermite", None, 0),
    ("frobenius-euler", Fraction(-1), 0),
    ("frobenius-euler", Fraction(-4, 7), 0),
    ("frobenius-euler", Fraction(3, 2), 0),
    ("canonical", None, 2),
]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eval_matches_clifford_products(n):
    rng = random.Random(n)
    for family, lam, shift in EVAL_SEQUENCES:
        seq = build_family(n, 10, family=family, lam=lam, shift=shift)
        for x in sample_points(rng, n):
            for poly, value in zip(seq.polys, eval_at(seq, x)):
                assert value.to_json() == eval_by_products(poly, x).to_json(), (family, lam, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exp_truncated_matches_sum_of_members(n):
    # sum_{k<=T} phi_k(x) / k! with every member evaluated by Clifford products
    rng = random.Random(10 + n)
    members = build_phi(coefficient_sequence(n, 40)).polys
    for x in sample_points(rng, n):
        series = Multivector.zero(n)
        for order, poly in enumerate(members):
            series = series + eval_by_products(poly, x) * Fraction(1, math.factorial(order))
            assert exp_truncated(x, order).to_json() == series.to_json(), (order, x)


def test_eval_forms_one_power_per_vector_exponent(monkeypatch):
    # x0^i is built one step at a time and (-|v|^2)^(j//2) taken once per distinct j of a member
    calls = []
    power = Fraction.__pow__
    monkeypatch.setattr(Fraction, "__pow__", lambda a, b: calls.append(b) or power(a, b))
    seq = build_family(3, 24, "frobenius-euler", lam=Fraction(-4, 7))
    x = Paravector(Fraction(-3, 2), (2, 3, 4))
    values = eval_at(seq, x)
    monkeypatch.undo()
    assert len(calls) <= sum(len({j for _, j in poly.terms}) for poly in seq.polys)
    assert [v.to_json() for v in values] == [eval_by_products(p, x).to_json() for p in seq.polys]


def test_eval_known_value():
    seq = build_family(2, 1)
    value = eval_at(seq, Paravector(1, (2, 0)))[1]
    assert value == 1 + Multivector.generator(2, 1)


def test_eval_at_origin_kills_positive_degrees():
    seq = build_family(3, 6)
    origin = Paravector(0, (0, 0, 0))
    values = eval_at(seq, origin)
    assert values[0] == 1
    assert all(v.is_zero() for v in values[1:])


def test_eval_homogeneity_under_scaling():
    seq = build_family(2, 6)
    x = Paravector(Fraction(1, 3), (Fraction(2), Fraction(-1, 2)))
    t = Fraction(-3, 5)
    scaled_values = eval_at(seq, x.scaled(t))
    values = eval_at(seq, x)
    for k in range(7):
        assert scaled_values[k] == values[k] * t**k


def test_eval_dimension_mismatch():
    seq = build_family(2, 3)
    with pytest.raises(ValueError):
        eval_at(seq, Paravector(1, (1,)))


def test_complex_reduction_n1():
    seq = build_family(1, 10)
    x = Paravector(Fraction(2, 3), (Fraction(-1, 5),))
    z = x.to_multivector()
    values = eval_at(seq, x)
    for k in range(11):
        assert values[k] == z**k


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
@settings(max_examples=40, deadline=None)
def test_complex_reduction_property(x0, x1):
    seq = build_family(1, 6)
    x = Paravector(x0, (x1,))
    z = x.to_multivector()
    for k, value in enumerate(eval_at(seq, x)):
        assert value == z**k


# -- transfer families --------------------------------------------------------


@pytest.mark.parametrize("lam", [Fraction(-4, 7), Fraction(3, 2)])
def test_build_family_is_transfer_applied_to_phi(lam):
    # The reference builds phi term by term through AppellPoly and adds one
    # AppellPoly per nonzero entry of T; the builder scales phi's terms straight
    # into each member.  Same degree, terms and key order.
    def layout(polys):
        return [(p.degree, list(p.terms.items())) for p in polys]

    c0 = Fraction(-3, 5)
    for n in range(1, 5):
        for m in range(13):
            cs = coefficient_sequence(n, m, c0=c0)
            phi = [
                AppellPoly(k, {(k - j, j): math.comb(k, j) * cs.values[j] for j in range(k + 1)})
                for k in range(m + 1)
            ]
            assert layout(build_phi(cs).polys) == layout(phi)
            for family in FAMILIES:
                seq = build_family(n, m, family, c0=c0, lam=lam if family == "frobenius-euler" else None)
                reference = phi if family == "canonical" else transfer_matrix(family, m, seq.lam).apply(phi)
                assert layout(seq.polys) == layout(reference)
                assert seq.coeffs == cs


def drained(member):
    """A member of `transferred_terms`, its blocks drained, as `sorted_terms` gives them."""
    return [(key, Fraction(num, den)) for block in member for key, num, den in block]


def phi_oracle(coeffs):
    """phi_k = sum_j C(k,j) c_j x0^(k-j) v^j, term by term through AppellPoly."""
    return [
        AppellPoly(k, {(k - j, j): math.comb(k, j) * coeffs.values[j] for j in range(k + 1)})
        for k in range(coeffs.m + 1)
    ]


@pytest.mark.parametrize("m", STREAM_ORDERS)
@pytest.mark.parametrize(
    "family, lam, shift",
    [("canonical", None, 0), ("canonical", None, 2)]
    + [(family, lam, 0) for family, lam in COLUMN_CASES if family != "pascal"],
)
def test_streamed_members_are_the_reference_transfer_of_phi(family, lam, shift, m):
    # The generator against T phi with T from tri_inverse / nilpotent_exp: same
    # terms, in sorted_terms order; and build_family is that generator, materialized.
    c0 = Fraction(-3, 5)
    for n in range(1, 5) if m < 32 else (3,):
        coeffs = coefficient_sequence(n, m, c0=c0, shift=shift)
        phi = phi_oracle(coeffs)
        assert build_phi(coeffs).polys == phi
        if family == "canonical":
            reference = phi
        else:
            reference = reference_transfer(family, m, lam).apply(build_phi(coeffs).polys)
            assert reference == reference_transfer(family, m, lam).apply(phi)
        header = family_terms(n, m, family, c0=c0, lam=lam, shift=shift)
        assert header[:3] == (family, coeffs, lam)
        assert header[3] == transfer_column(family, m, lam)
        # every row drawn before any is drained: each keeps its phi members past the window
        members = list(transferred_terms(header[3], coeffs))
        assert [drained(member) for member in members] == [p.sorted_terms() for p in reference]
        assert list(family_members(header[3], coeffs)) == reference
        seq = build_family(n, m, family, c0=c0, lam=lam, shift=shift)
        assert seq.polys == reference
        assert [p.degree for p in seq.polys] == list(range(m + 1))


SHORT_COLUMNS = {
    "reach-2": [1, Fraction(2, 3), Fraction(-5, 4)] + [0] * 7,
    "interior-zeros": [2, 0, 0, Fraction(3, 5), 0, -1, 0, 0, 0, 0],  # reaches d = 5
}


@pytest.mark.parametrize("column", SHORT_COLUMNS.values(), ids=SHORT_COLUMNS.keys())
def test_short_columns_read_a_window_of_phi(column):
    # row k reads phi_(k-reach)..phi_k, drained as drawn or after every row is drawn
    column = [Fraction(t) for t in column]
    for n in range(1, 5):
        coeffs = coefficient_sequence(n, len(column) - 1, c0=Fraction(-3, 5))
        reference = [p.sorted_terms() for p in appell_matrix(column).apply(phi_oracle(coeffs))]
        assert [drained(member) for member in transferred_terms(column, coeffs)] == reference
        members = list(transferred_terms(column, coeffs))
        assert [drained(member) for member in members] == reference


PAIR_CASES = {
    **{f"{family}-{lam}": (family, lam, 0) for family, lam in COLUMN_CASES if family != "pascal"},
    "canonical": ("canonical", None, 0),
    "canonical-shift-2": ("canonical", None, 2),
    **{name: (column, None, 0) for name, column in SHORT_COLUMNS.items()},
}


@pytest.mark.parametrize("c0", [Fraction(1), Fraction(-3, 5), Fraction(14, 9)])
@pytest.mark.parametrize("family, lam, shift", PAIR_CASES.values(), ids=PAIR_CASES.keys())
def test_transferred_terms_are_the_reduced_pairs_of_each_block(family, lam, shift, c0):
    # member k is the blocks C(k,l) t_(k-l) phi_l at t_(k-l) != 0; each term's (num, den) is the
    # product of the two factors as Fractions, in lowest terms with a positive denominator
    column = transfer_column(family, 12, lam) if isinstance(family, str) else family
    column = [Fraction(t) for t in column]
    for n in range(1, 4):
        coeffs = coefficient_sequence(n, len(column) - 1, c0=c0, shift=shift)
        c = coeffs.values
        for k, member in enumerate(transferred_terms(column, coeffs)):
            blocks = [list(block) for block in member]
            degrees = [l for l in range(k + 1) if column[k - l]]
            assert [{i + j for (i, j), _, _ in block} for block in blocks] == [{l} for l in degrees]
            for l, block in zip(degrees, blocks):
                t = Fraction(math.comb(k, l) * column[k - l])
                expected = [((l - j, j), t * (math.comb(l, j) * c[j])) for j in range(l + 1)]
                assert [key for key, _, _ in block] == [key for key, _ in expected]
                for (key, num, den), (_, a) in zip(block, expected):
                    assert (num, den) == (a.numerator, a.denominator)
                    assert den > 0 and math.gcd(num, den) == 1
                    assert type(num) is int and type(den) is int


def test_canonical_members_hold_one_member_of_phi():
    # the canonical column (1, 0, ..., 0) reaches d = 0: all of phi at m = 300 took 9.6 MB
    coeffs = coefficient_sequence(1, 300)
    column = transfer_column("canonical", 300)
    tracemalloc.start()
    try:
        for member in transferred_terms(column, coeffs):
            for _ in member:
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_build_phi_omits_zero_coefficients():
    cs = coefficient_sequence(3, 6).with_value(3, 0)
    polys = build_phi(cs).polys
    for k, poly in enumerate(polys):
        assert poly.degree == k
        assert (k - 3, 3) not in poly.terms
        assert len(poly.terms) == k + 1 - (k >= 3)


def test_inverse_transfer_returns_phi():
    m = 9
    back = tri_inverse(transfer_matrix("bernoulli", m)).apply(build_family(3, m, "bernoulli").polys)
    assert back == build_phi(coefficient_sequence(3, m)).polys


def test_bernoulli_phi1():
    seq = build_family(2, 1, family="bernoulli")
    base = build_family(2, 1)
    assert seq.polys[1].terms[(0, 0)] == Fraction(-1, 2)
    assert seq.polys[1] + Fraction(1, 2) * AppellPoly(0, {(0, 0): Fraction(1)}) == base.polys[1]


def test_hermite_phi2_is_p2_minus_half():
    seq = build_family(2, 2, family="hermite")
    base = build_family(2, 2)
    delta = seq.polys[2] + (-1) * base.polys[2]
    assert delta.terms == {(0, 0): Fraction(-1, 2)}


def test_transfer_families_are_not_homogeneous():
    seq = build_family(2, 2, family="euler")
    assert any(i + j != 2 for (i, j) in seq.polys[2].terms)


# (family, lam, shift) headers no builder accepts, so no file may carry them either
BAD_HEADERS = [
    ("laguerre", None, 0),
    ("frobenius-euler", None, 0),  # lambda missing
    ("frobenius-euler", Fraction(1), 0),
    ("bernoulli", None, 1),
    ("frobenius-euler", Fraction(1, 2), 2),
    # lambda belongs to frobenius-euler alone
    ("canonical", Fraction(2), 0),
    ("canonical", Fraction(1, 2), 1),
    ("bernoulli", Fraction(2), 0),
    ("euler", Fraction(2), 0),
    ("hermite", Fraction(2), 0),
]


def test_family_validation():
    for family, lam, shift in BAD_HEADERS:
        with pytest.raises(ValueError):
            build_family(2, 3, family=family, lam=lam, shift=shift)
        # otherwise valid: c_0..c_3 of n = 2 and s, and the basic sequence they build
        payload = build_phi(coefficient_sequence(2, 3, shift=shift)).to_json()
        payload.update(family=family, s=shift, **{"lambda": None if lam is None else str(lam)})
        with pytest.raises(ValueError):
            from_json(payload)


def test_frobenius_euler_at_minus_one_is_euler():
    fe = build_family(2, 5, family="frobenius-euler", lam=Fraction(-1))
    euler = build_family(2, 5, family="euler")
    assert fe.polys == euler.polys
    assert fe.lam == Fraction(-1)


# -- restriction to the real line ---------------------------------------------


def test_restrict_canonical_is_monomials():
    seq = build_family(3, 6)
    assert restrict_real(seq) == [
        [Fraction(0)] * k + [Fraction(1)] for k in range(7)
    ]


def test_restrict_bernoulli_matches_oracle():
    for n in (1, 2, 3):
        seq = build_family(n, 8, family="bernoulli")
        assert restrict_real(seq) == bernoulli_polys(8)


def test_restrict_euler_matches_both_oracles():
    seq = build_family(2, 8, family="euler")
    restricted = restrict_real(seq)
    assert restricted == euler_polys_inverse(8)
    assert restricted == euler_polys_recurrence(8)


def test_restrict_hermite_matches_both_oracles():
    seq = build_family(2, 8, family="hermite")
    restricted = restrict_real(seq)
    assert restricted == hermite_polys_series(8)
    assert restricted == hermite_polys_recurrence(8)


def test_restriction_commutes_with_transfer():
    # restrict(T * canonical) = T * (1, x0, x0^2, ...)
    m = 6
    transfer = transfer_matrix("bernoulli", m)
    seq = build_family(2, m, family="bernoulli")
    monomials = [
        [Fraction(0)] * k + [Fraction(1)] for k in range(m + 1)
    ]
    for k in range(m + 1):
        expected = [Fraction(0)] * (m + 1)
        for j in range(k + 1):
            for i, c in enumerate(monomials[j]):
                expected[i] += transfer[k, j] * c
        row = restrict_real(seq)[k]
        padded = row + [Fraction(0)] * (m + 1 - len(row))
        assert padded == expected


def test_restrict_poly_padding():
    poly = AppellPoly(3, {(3, 0): Fraction(1), (1, 2): Fraction(5), (0, 0): Fraction(-2)})
    assert restrict_poly(poly) == [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)]


# -- truncated exponential ------------------------------------------------------


def test_exp_truncated_real_line():
    x = Paravector(Fraction(1), (Fraction(0), Fraction(0)))
    for order in (0, 1, 5):
        expected = sum(Fraction(1, math.factorial(k)) for k in range(order + 1))
        assert exp_truncated(x, order) == Multivector.scalar(2, expected)


def test_exp_truncated_order_zero():
    assert exp_truncated(Paravector(3, (1, 2)), 0) == 1


def test_exp_truncated_n1_approximates_complex_exponential():
    value = exp_truncated(Paravector(0, (1,)), 20)
    assert abs(float(value.scalar_part()) - math.cos(1)) < 1e-12
    assert abs(float(value.coefficient([1])) - math.sin(1)) < 1e-12


def test_exp_truncated_generating_coefficients():
    # Exp(t x) truncated at m equals sum_k P_k(x) t^k / k! for every rational t
    n, m = 2, 6
    x = Paravector(Fraction(1, 2), (Fraction(1), Fraction(-2)))
    seq = build_family(n, m)
    values = eval_at(seq, x)
    for t in (Fraction(1), Fraction(-1, 2), Fraction(3, 7), Fraction(0)):
        direct = exp_truncated(x.scaled(t), m)
        series = Multivector.zero(n)
        for k in range(m + 1):
            series = series + values[k] * (t**k * Fraction(1, math.factorial(k)))
        assert direct == series


def test_exp_truncated_rejects_negative_order():
    with pytest.raises(ValueError):
        exp_truncated(Paravector(1, (1,)), -1)


# -- serialization ----------------------------------------------------------------


def test_sequence_json_round_trip():
    for family, lam in (("canonical", None), ("frobenius-euler", Fraction(2, 3))):
        seq = build_family(2, 4, family=family, lam=lam)
        payload = seq.to_json()
        assert payload["n"] == 2 and payload["m"] == 4 and payload["family"] == family
        clone = from_json(json.loads(json.dumps(payload)))
        assert clone.polys == seq.polys
        assert clone.coeffs == seq.coeffs
        assert clone.lam == seq.lam


def test_sequence_json_round_trip_is_equal_for_every_family():
    # a loaded member is the AppellPoly that was written: the sequence compares equal and
    # prints the same, for every family, and for a shifted canonical sequence
    cases = [(family, None) for family in FAMILIES if family != "frobenius-euler"]
    cases += [("frobenius-euler", Fraction(2, 3)), ("frobenius-euler", Fraction(-4, 7))]
    seqs = [build_family(n, m, family, lam=lam)
            for family, lam in cases for n in range(1, 4) for m in range(7)]
    seqs.append(build_phi(coefficient_sequence(3, 5, shift=2)))
    for seq in seqs:
        clone = from_json(json.loads(json.dumps(seq.to_json())))
        assert clone == seq, (seq.family, seq.lam, seq.n, seq.m)
        assert [str(p) for p in clone.polys] == [str(p) for p in seq.polys]


fraction_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    max_size=6,
)


def fraction_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, Fraction(0)) + value
    return {key: value for key, value in out.items() if value}


@given(fraction_terms, fraction_terms, st.integers(0, 2), st.integers(0, 2),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=200, deadline=None)
def test_appell_poly_agrees_with_fraction_dict_arithmetic(a, b, da, db, scale):
    # the member is held as integer pairs; its Fraction view, sum, multiple, equality and hash
    # are those of the dict of Fractions it was built from, zeros dropped
    p, q = AppellPoly(da, a), AppellPoly(db, b)
    nonzero = {key: value for key, value in a.items() if value}
    assert p.terms == nonzero
    assert p.pairs() == {key: value.as_integer_ratio() for key, value in nonzero.items()}
    assert all(den > 0 for _, den in p.pairs().values())
    assert (p + q).terms == fraction_sum(a, b) and (p + q).degree == max(da, db)
    assert (p * scale).terms == {key: value * scale for key, value in nonzero.items() if scale}
    assert (scale * p) == (p * scale) and (p * scale).degree == da
    assert (p == q) == ((da, nonzero) == (db, fraction_sum(b, {})))
    if p == q:
        assert hash(p) == hash(q)
    # the same terms in another order, with zeros added, are the same member
    same = AppellPoly(da, {**{key: 0 for key in b}, **dict(reversed(a.items()))})
    assert same == p and hash(same) == hash(p)
    assert AppellPoly.of_pairs(da, p.pairs()) == p
    assert hash(AppellPoly.of_pairs(da, p.pairs())) == hash(p)
    view = p.terms
    view[(9, 9)] = Fraction(1)
    assert (9, 9) not in p.terms and p == AppellPoly(da, a)


def test_sequence_json_shifted_round_trip():
    seq = build_phi(coefficient_sequence(2, 3, shift=2))
    clone = from_json(seq.to_json())
    assert clone.shift == 2 and clone.coeffs.shift == 2


def test_sequence_header_lives_in_coeffs():
    seq = build_family(3, 2, shift=1)
    assert (seq.n, seq.shift) == (seq.coeffs.n, seq.coeffs.shift) == (3, 1)
    with pytest.raises(AttributeError):
        seq.n = 4


def test_sequence_json_refuses_edited_shifted_terms():
    # certify checks a shifted sequence only through intertwining, so the load must
    payload = build_family(2, 3, shift=1).to_json()
    payload["polys"][2]["terms"][0]["a"] = "999"
    with pytest.raises(ValueError, match="build_phi"):
        from_json(payload)


def _without(key):
    def edit(payload):
        del payload[key]
        return payload

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _without("n"), _without("family"), _without("coeffs"), _without("polys"),
        lambda p: {**p, "polys": 5},
        lambda p: {**p, "coeffs": "1"},
        lambda p: {**p, "polys": [5]},
        lambda p: {**p, "polys": [{"k": 0, "terms": {}}]},
        lambda p: {**p, "polys": [{"k": 0, "terms": [[0, 0, "1"]]}]},
        lambda p: {**p, "polys": [{"k": 0, "terms": [{"i": 0, "j": 0}]}]},
        lambda p: [p],
        lambda p: None,
    ],
    ids=[
        "no-n", "no-family", "no-coeffs", "no-polys", "polys-int", "coeffs-string",
        "entry-int", "terms-object", "term-list", "term-without-a", "payload-list",
        "payload-null",
    ],
)
def test_sequence_json_refuses_malformed_payload_with_value_error(edit):
    with pytest.raises(ValueError):
        from_json(edit(build_family(2, 3).to_json()))


def test_sequence_json_rejects_degree_gaps():
    payload = build_family(2, 2).to_json()
    payload["polys"] = [payload["polys"][0], payload["polys"][2]]
    with pytest.raises(ValueError):
        from_json(payload)


def test_appell_poly_str():
    poly = build_family(2, 2).polys[2]
    assert str(poly) == "x0^2 + x0*xv + 1/2*xv^2"
