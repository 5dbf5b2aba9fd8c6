from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperappell.clifford import (
    Multivector,
    Paravector,
    blade_product,
    mask_from_indices,
    mask_to_indices,
)
from hyperappell.reference import vector_power

from oracles import naive_blade_mul


def all_blades(n):
    out = []
    for r in range(n + 1):
        out.extend(combinations(range(1, n + 1), r))
    return out


def test_blade_product_matches_naive_oracle():
    # exhaustive over every blade pair up to n = 4
    for n in range(1, 5):
        for a in all_blades(n):
            for b in all_blades(n):
                sign, mask = blade_product(mask_from_indices(a, n), mask_from_indices(b, n), n)
                osign, oblade = naive_blade_mul(a, b)
                assert (sign, mask_to_indices(mask)) == (osign, oblade)


def test_blade_product_associative_exhaustive():
    for n in range(1, 4):
        blades = [mask_from_indices(t, n) for t in all_blades(n)]
        for a in blades:
            for b in blades:
                sab, mab = blade_product(a, b, n)
                for c in blades:
                    sbc, mbc = blade_product(b, c, n)
                    s1, m1 = blade_product(mab, c, n)
                    s2, m2 = blade_product(a, mbc, n)
                    assert (sab * s1, m1) == (sbc * s2, m2)


def test_generator_relations():
    # e_i e_j + e_j e_i = -2 delta_ij
    n = 4
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ei = Multivector.generator(n, i)
            ej = Multivector.generator(n, j)
            anti = ei * ej + ej * ei
            assert anti == (-2 if i == j else 0)


def test_known_products():
    e1 = Multivector.generator(2, 1)
    e12 = Multivector.blade(2, [1, 2])
    assert e12 * e12 == -1
    assert (1 + e1) * (1 - e1) == 2
    assert (1 + e1) ** 3 == -2 + 2 * e1


def test_scalar_embedding_and_pruning():
    mv = Multivector(2, {0: Fraction(0), 1: Fraction(1, 2)})
    assert 0 not in mv.terms
    assert (mv - mv).is_zero()
    assert Multivector.scalar(3, 0).is_zero()


def test_mixed_scalar_arithmetic():
    e2 = Multivector.generator(3, 2)
    assert 2 * e2 == e2 + e2
    assert (e2 * Fraction(1, 2)) + (e2 * Fraction(1, 2)) == e2
    assert 1 - e2 == -(e2 - 1)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Multivector.generator(2, 1) + Multivector.generator(3, 1)
    with pytest.raises(ValueError):
        Multivector.generator(2, 1) * Multivector.generator(3, 1)


def test_generator_index_bounds():
    with pytest.raises(ValueError):
        Multivector.generator(2, 3)
    with pytest.raises(ValueError):
        Multivector.generator(2, 0)
    with pytest.raises(ValueError):
        Multivector.blade(2, [1, 1])


def test_conjugation_on_blades():
    # conjugate(e_A) = (-1)^(r(r+1)/2) e_A on grade r
    n = 3
    for indices in all_blades(n):
        r = len(indices)
        expected = -1 if (r * (r + 1) // 2) % 2 else 1
        blade = Multivector.blade(n, indices)
        assert blade.conjugate() == blade * expected


def test_conjugation_is_an_antiautomorphism():
    a = 1 + 2 * Multivector.generator(3, 1) - Multivector.blade(3, [2, 3])
    b = Multivector.blade(3, [1, 2]) + Multivector.scalar(3, Fraction(1, 3))
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()


def test_paravector_norm_via_conjugate():
    x = Paravector(Fraction(1, 2), (Fraction(2), Fraction(-1, 3)))
    prod = x.to_multivector() * x.conjugate().to_multivector()
    assert prod == Multivector.scalar(2, x.x0**2 + x.vector_norm_sq())


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@given(
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_multivector_ring_axioms(n, data):
    def mv():
        blades = all_blades(n)
        coeffs = data.draw(
            st.lists(rationals, min_size=len(blades), max_size=len(blades))
        )
        return sum(
            (Multivector.blade(n, b, c) for b, c in zip(blades, coeffs) if c),
            Multivector.zero(n),
        )

    a, b, c = mv(), mv(), mv()
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_vector_power_matches_repeated_multiplication():
    # acceptance grid: j <= 8, n <= 4, several integer points
    points = {
        1: [(2,), (-3,)],
        2: [(1, 2), (0, -1)],
        3: [(1, 1, 1), (2, 0, -1)],
        4: [(1, -1, 2, 3), (0, 1, 0, -2)],
    }
    for n, plist in points.items():
        for coords in plist:
            x = Paravector(0, tuple(Fraction(c) for c in coords))
            xmv = x.vector_to_multivector()
            acc = Multivector.scalar(n, 1)
            for j in range(9):
                assert vector_power(x, j) == acc
                acc = acc * xmv


def test_vector_power_known_value():
    assert vector_power(Paravector(0, (2,)), 3) == -8 * Multivector.generator(1, 1)


def test_vector_power_rejects_nonzero_scalar_part():
    with pytest.raises(ValueError):
        vector_power(Paravector(1, (2,)), 2)


@given(st.lists(rationals, min_size=2, max_size=4), st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_vector_power_property(coords, j):
    x = Paravector(0, tuple(coords))
    xmv = x.vector_to_multivector()
    assert vector_power(x, j) == xmv**j


def test_multivector_json_round_trip():
    mv = (
        Multivector.scalar(3, Fraction(-5, 7))
        + Multivector.blade(3, [1, 3], Fraction(2))
        + Multivector.blade(3, [1, 2, 3], Fraction(1, 9))
    )
    payload = mv.to_json()
    assert payload["n"] == 3
    assert all(set(t) == {"blade", "coeff"} for t in payload["terms"])
    assert Multivector.from_json(payload) == mv


def test_str_is_stable():
    mv = Multivector.blade(2, [1, 2], Fraction(-1, 2)) + Multivector.scalar(2, 3)
    assert str(mv) == "3 - 1/2*e12"
    assert str(Multivector.zero(2)) == "0"
