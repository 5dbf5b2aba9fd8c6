import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperappell import operators
from hyperappell.appell import (
    FAMILIES,
    AppellPoly,
    AppellSequence,
    CoeffSequence,
    build_family,
    build_phi,
    coefficient_sequence,
    family_members,
    family_terms,
    vector_power_expansion,
)
from hyperappell.clifford import Multivector, Paravector
from hyperappell.cli_sequence import load_sequence
from hyperappell.evaluate import binary_values, eval_at, restrict_real
from hyperappell.operators import certify, check_intertwining
from hyperappell.polynomials import CliffordPoly
from hyperappell.reference import (
    TriMatrix,
    check_appell,
    check_monogenic,
    check_xi_derivation,
    cr,
    cr_bar,
    creation_matrix,
    derivation_matrix,
    dirac,
    expand_multivariate,
    expand_sequence,
    partial_x0,
    transfer_matrix,
)
from hyperappell.trimatrix import derivation_entry


def mono(n, exps, coeff):
    return CliffordPoly.monomial(n, exps, coeff)


# -- single operators ---------------------------------------------------------


def test_partial_x0_basics():
    n = 2
    p = mono(n, (2, 0, 0), Multivector.scalar(n, 1))
    assert partial_x0(p) == mono(n, (1, 0, 0), Multivector.scalar(n, 2))
    assert partial_x0(CliffordPoly.constant(n, 5)).is_zero()
    q = mono(n, (1, 1, 0), Multivector.generator(n, 1))
    assert partial_x0(q) == mono(n, (0, 1, 0), Multivector.generator(n, 1))


def test_dirac_single_term():
    # d/dx1 of x1 e1, then left multiplication by e1: e1*e1 = -1
    p = mono(1, (0, 1), Multivector.generator(1, 1))
    assert dirac(p) == CliffordPoly.constant(1, -1)


def test_dirac_on_vector_powers():
    # even power: Dv v^2 = -2 v; odd: Dv v^3 = -(n+2) v^2
    from hyperappell.appell import vector_power_expansion

    n = 2
    v1 = vector_power_expansion(n, 1)
    v2 = vector_power_expansion(n, 2)
    assert dirac(v2) == v1 * Fraction(-2)
    assert dirac(vector_power_expansion(n, 3)) == v2 * Fraction(-(n + 2))


def test_cr_and_cr_bar_on_degree_one():
    # w = x0 + x1 e1 is monogenic with hypercomplex derivative 1;
    # its conjugate is annihilated by neither
    n = 1
    w = CliffordPoly.variable(n, 0) + mono(n, (0, 1), Multivector.generator(n, 1))
    wbar = CliffordPoly.variable(n, 0) - mono(n, (0, 1), Multivector.generator(n, 1))
    one = CliffordPoly.constant(n, 1)
    assert cr_bar(w).is_zero()
    assert cr(w) == one
    assert cr_bar(wbar) == one
    assert cr(wbar).is_zero()


def test_phi1_expansion_is_monogenic():
    for n in range(1, 6):
        p1 = expand_multivariate(build_family(n, 1).polys[1], n)
        assert cr_bar(p1).is_zero()


def random_poly(n, rng, max_terms=5, max_exp=3):
    blades = []
    for r in range(n + 1):
        blades.extend(combinations(range(1, n + 1), r))
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_exp) for _ in range(n + 1))
        coeff = Multivector.blade(
            n, rng.choice(blades), Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        )
        prior = terms.get(exps)
        terms[exps] = coeff if prior is None else prior + coeff
    return CliffordPoly(n, terms)


def test_operator_linearity():
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(8):
            p, q = random_poly(n, rng), random_poly(n, rng)
            scale = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            for op in (partial_x0, dirac, cr, cr_bar):
                assert op(p + q) == op(p) + op(q)
                assert op(p * scale) == op(p) * scale


def test_mixed_partials_commute():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(8):
            p = random_poly(n, rng)
            assert partial_x0(dirac(p)) == dirac(partial_x0(p))


def test_cr_pair_recombines():
    rng = random.Random(29)
    for n in (1, 2, 3):
        for _ in range(8):
            p = random_poly(n, rng)
            assert cr_bar(p) + cr(p) == partial_x0(p)
            assert cr(p) - cr_bar(p) == dirac(p) * Fraction(-1)


# -- sequence certification ----------------------------------------------------


def test_canonical_certification_small_grid():
    for n in (1, 2, 3):
        seq = build_family(n, 6)
        mono_report = check_monogenic(seq)
        ladder_report = check_appell(seq)
        assert all(r.monogenic for r in mono_report.results)
        assert all(r.ladder for r in ladder_report.results)


def test_all_families_certify():
    for family, lam in (
        ("canonical", None),
        ("bernoulli", None),
        ("euler", None),
        ("frobenius-euler", Fraction(3, 5)),
        ("hermite", None),
    ):
        for n in (1, 2, 3):
            report = certify(build_family(n, 5, family=family, lam=lam))
            assert report.ok, (family, n, report.to_json())


def test_certify_merges_monogenic_and_ladder():
    report = certify(build_family(2, 4))
    assert report.intertwining is True
    for k, row in enumerate(report.results):
        assert row.k == k and row.monogenic is True and row.ladder is True
    payload = report.to_json()
    assert payload["ok"] is True
    assert [r["k"] for r in payload["results"]] == list(range(5))


def reference_report(seq):
    """certify's JSON, assembled from the expansion-based route."""
    intertwining = check_intertwining(seq.coeffs)
    rows = []
    for mono_row, ladder_row in zip(
        check_monogenic(seq).results, check_appell(seq).results
    ):
        row = {"k": mono_row.k, "monogenic": mono_row.monogenic, "ladder": ladder_row.ladder}
        witness = mono_row.witness or ladder_row.witness
        if witness is not None:
            row["witness"] = witness
        rows.append(row)
    ok = intertwining and all(r["monogenic"] and r["ladder"] for r in rows)
    report = {
        "n": seq.n,
        "family": seq.family,
        "s": seq.shift,
        "ok": ok,
        "results": rows,
        "intertwining": intertwining,
    }
    if ok and rows:
        # p_k(0), the constant of the expansion, against c_0 times column 0 of the reference matrix
        matrix = transfer_matrix(seq.family, seq.m, seq.lam)
        for k, poly in enumerate(expand_sequence(seq)):
            expected = seq.coeffs.values[0] * matrix[k, 0]
            found = poly.terms.get((0,) * (seq.n + 1), Multivector.zero(seq.n)).scalar_part()
            if expected != found:
                report["ok"] = False
                report["family_mismatch"] = {"k": k, "expected": str(expected), "found": str(found)}
                break
    return report


def random_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 6))


def corrupted(seq, rng, insert, k=None):
    """Copy of seq with one term of member k (random if None) perturbed, or one (i, j) added."""
    polys = list(seq.polys)
    k = rng.randrange(len(polys)) if k is None else k
    terms = dict(polys[k].terms)
    if insert:
        free = [(i, d - i) for d in range(k + 2) for i in range(d + 1) if (i, d - i) not in terms]
        key = rng.choice(free)
        terms[key] = random_rational(rng)
    else:
        key = rng.choice(sorted(terms))
        terms[key] += random_rational(rng)
    polys[k] = AppellPoly(k, terms)
    return AppellSequence(seq.family, polys, seq.coeffs, seq.lam)


def test_certify_matches_reference_route():
    rng = random.Random(31)
    failures = 0
    for family in FAMILIES:
        lam = Fraction(-3, 5) if family == "frobenius-euler" else None
        for n in range(1, 5):
            for m in range(9):
                seq = build_family(n, m, family=family, lam=lam)
                for case in (seq, corrupted(seq, rng, False), corrupted(seq, rng, True)):
                    expansions = vector_power_expansion.cache_info()
                    fast = certify(case).to_json()
                    assert vector_power_expansion.cache_info() == expansions
                    assert fast == reference_report(case), (family, n, m)
                    failures += not fast["ok"]
    # the corruptions are real: nearly every corrupted case fails
    assert failures > 300


def family_lam(family):
    return Fraction(-4, 7) if family == "frobenius-euler" else None


def test_certify_of_members_drawn_once_is_certify_of_the_list():
    # verify from flags hands certify the members as they are drawn: one pass over an
    # iterator must report what the list gives, intact and with one term corrupted at each
    # degree, witnesses included
    rng = random.Random(53)
    failures = 0
    for family in FAMILIES:
        for n in range(1, 5):
            for m in range(13):
                seq = build_family(n, m, family=family, lam=family_lam(family))
                cases = [corrupted(seq, rng, insert, k) for k in range(m + 1) for insert in (0, 1)]
                for case in [seq, *cases]:
                    report = certify(case).to_json()
                    drawn = AppellSequence(case.family, iter(case.polys), case.coeffs, case.lam)
                    assert certify(drawn).to_json() == report, (family, n, m)
                    failures += not report["ok"]
    # nearly every corruption fails, so the residual fallback and its witnesses are compared
    assert failures > 3500, failures


def corrupted_pairs(pairs, polys, rng, k, insert):
    """Member k of both lists with the same term perturbed, or the same (i, j) added.

    In `pairs` the new member is built by `AppellPoly.of_pairs`, in `polys` by the Fraction
    constructor.
    """
    terms, poly_terms = dict(pairs[k].pairs()), polys[k].terms
    free = [(i, d - i) for d in range(k + 2) for i in range(d + 1) if (i, d - i) not in terms]
    key = rng.choice(free) if insert else rng.choice(sorted(terms))
    value = Fraction(*terms.get(key, (0, 1))) + random_rational(rng)
    if value:
        terms[key] = value.as_integer_ratio()
    else:
        del terms[key]
    poly_terms[key] = value
    return ([*pairs[:k], AppellPoly.of_pairs(k, terms), *pairs[k + 1:]],
            [*polys[:k], AppellPoly(k, poly_terms), *polys[k + 1:]])


def fraction_value(poly, point):
    """(A, B) of sum a x0^i v^j = A + B v, term by term on the Fraction terms."""
    x0, vec = point
    square = -sum(v * v for v in vec)
    parts = [Fraction(0), Fraction(0)]
    for (i, j), a in poly.terms.items():
        parts[j % 2] += a * x0**i * square ** (j // 2)
    return tuple(parts)


def test_pair_members_from_flags_certify_and_evaluate_as_the_fraction_members():
    # verify and eval from flags read the members of family_members, each an AppellPoly holding
    # {(i, j): (num, den)}; the report, witnesses and family check included, and the values must
    # be those of the same members built by the Fraction constructor, intact and with one term
    # corrupted or added at each degree
    rng = random.Random(67)
    failures = 0
    for family in FAMILIES:
        for n in range(1, 5):
            for m in (0, 1, 2, 5, 9):
                lam = family_lam(family)
                args = SimpleNamespace(n=n, m=m, family=family, lam=lam and str(lam), c0=None,
                                       shift=None, input=None)
                drawn = load_sequence(args)
                pairs = list(drawn.polys)
                built = build_family(n, m, family, lam=drawn.lam).polys
                assert [p.pairs() for p in pairs] == [p.pairs() for p in built]
                polys = [AppellPoly(k, p.terms) for k, p in enumerate(built)]
                assert pairs == polys
                point = (Fraction(-2, 3), tuple(Fraction(3 - 2 * x, x + 1) for x in range(n)))
                cases = [(pairs, polys)] + [corrupted_pairs(pairs, polys, rng, k, insert)
                                            for k in range(m + 1) for insert in (False, True)]
                for pair_members, poly_members in cases:
                    assert pair_members == poly_members
                    seq = AppellSequence(family, iter(pair_members), drawn.coeffs, drawn.lam)
                    report = certify(seq).to_json()
                    fraction_seq = AppellSequence(family, poly_members, drawn.coeffs, drawn.lam)
                    assert report == certify(fraction_seq).to_json(), (family, n, m)
                    seq = AppellSequence(family, iter(pair_members), drawn.coeffs, drawn.lam)
                    assert binary_values(seq, point) == [fraction_value(p, point)
                                                        for p in poly_members], (family, n, m)
                    failures += not report["ok"]
    # nearly every corruption fails: by structure, residuals and witnesses, or the family check
    assert failures > 300, failures


def test_structure_refuses_a_term_whose_denominator_only_rounds_to_the_next():
    # phi_1 = x0 + v/3 at n = 3; in x0 + v/2, 1 * (q e // d) = 3 // 2 = 1 = p r, so only the
    # remainder of q e by d tells the term 1/2 from 1/3
    entries = [-derivation_entry(3, j) for j in range(2)]
    assert operators._multiples({(1, 0): (1, 1), (0, 1): (1, 3)}, 1, entries) is not None
    assert operators._multiples({(1, 0): (1, 1), (0, 1): (1, 2)}, 1, entries) is None
    seq = build_family(3, 1)
    bad = AppellPoly(1, {(1, 0): Fraction(1), (0, 1): Fraction(1, 2)})
    case = AppellSequence("canonical", [seq.polys[0], bad], seq.coeffs)
    assert certify(case).to_json() == reference_report(case)
    assert [r.passed for r in certify(case).results] == [True, False]


def test_certify_refuses_a_member_past_the_coefficients():
    # m comes from the coefficients; a surplus member is a ValueError, not an IndexError
    coeffs = coefficient_sequence(2, 3)
    polys = build_family(2, 4).polys
    for members in (polys, iter(polys)):
        with pytest.raises(ValueError, match="member 4 is past the degree m = 3"):
            certify(AppellSequence("canonical", members, coeffs))


def test_certify_and_eval_refuse_members_that_end_before_m():
    # a drawn stream is used up by its first pass, so a second one sees no member at all: that
    # and a stream cut short are refused, naming the first missing degree, not passed as checked
    family, coeffs, lam, column = family_terms(2, 5, "bernoulli")
    point = Paravector(1, (2, 3))
    drawn = AppellSequence(family, family_members(column, coeffs), coeffs, lam)
    assert certify(drawn).ok
    for use in (certify, lambda seq: eval_at(seq, point)):
        with pytest.raises(ValueError, match="member 0 is missing: the members end before m = 5"):
            use(drawn)
        short = build_family(2, 3, family).polys
        for members in (short, iter(short)):
            with pytest.raises(ValueError, match="member 4 is missing"):
                use(AppellSequence(family, members, coeffs, lam))


def structure_decisions(seq):
    """Per degree, (monogenic, ladder) by structure; ladder None where it is left to residuals."""
    entries = [-int(derivation_entry(seq.n, j)) for j in range(seq.m + 1)]
    alphas = [operators._multiples(p.pairs(), k, entries) for k, p in enumerate(seq.polys)]
    rows = []
    for k in range(seq.m + 1):
        ladder = None
        if k == 0:
            ladder = True
        elif alphas[k] is not None and alphas[k - 1] is not None:
            ladder = operators._passes_by_structure(k, alphas[k], alphas[k - 1])
        rows.append((alphas[k] is not None, ladder))
    return rows


def residual_decisions(seq):
    """Per degree, (monogenic, ladder) from the two binary residuals."""
    rows = []
    for k, poly in enumerate(seq.polys):
        ladder = True
        if k:
            ladder = (operators._binary_cr(poly, seq.n, -1) + seq.polys[k - 1] * -k).is_zero()
        rows.append((operators._binary_cr(poly, seq.n, 1).is_zero(), ladder))
    return rows


def test_structure_decision_matches_binary_residuals():
    rng = random.Random(47)
    decided = failed = 0
    for index, family in enumerate(FAMILIES):
        # every n up to m = 19; m = 40 at one n per family, which keeps the residuals affordable
        sizes = [(n, m, 1) for n in range(1, 5) for m in (1, 3, 6, 9, rng.randrange(10, 20))]
        # a c0 other than 1 scales every part; at n = 10^9, E_j is j for even j and about n for odd
        extra = [(index % 4 + 1, 40, 1), (2, 12, Fraction(-5, 3)), (10**9, 6, 1), (10**9, 7, -5)]
        for n, m, c0 in sizes + extra:
            seq = build_family(n, m, family=family, c0=c0, lam=family_lam(family))
            for case in (seq, corrupted(seq, rng, False), corrupted(seq, rng, True)):
                pairs = zip(structure_decisions(case), residual_decisions(case))
                for k, ((mono_s, ladder_s), (mono_r, ladder_r)) in enumerate(pairs):
                    assert mono_s == mono_r, (family, n, m, k)
                    if ladder_s is not None:
                        assert ladder_s == ladder_r, (family, n, m, k)
                        decided += 1
                    failed += not (mono_r and ladder_r)
    # both outcomes are exercised: many degrees fail, and the ladder is decided by structure
    assert failed > 250 and decided > 2000, (failed, decided)


def certify_peak(m):
    """tracemalloc peak of certify alone, on the canonical n = 1 list built before tracing."""
    seq = build_family(1, m)
    tracemalloc.start()
    try:
        assert certify(seq).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_holds_no_table_that_grows_with_m_squared():
    # D is read from its one subdiagonal, m + 1 small ints, and each term is checked against its
    # neighbour; a table of phi's m^2 / 2 coefficients would grow about 5x per doubling of m
    assert certify_peak(200) < 2.5 * certify_peak(100)


def test_certify_decides_corrupted_coefficients_from_the_polynomials():
    # negative controls edit coeffs and polys together; phi comes from n, so they still fail
    for n in (1, 2, 3):
        cs = coefficient_sequence(n, 6)
        for k in range(7):
            bad = build_phi(cs.with_value(k, cs.values[k] + 1))
            report = certify(bad).to_json()
            assert report == reference_report(bad), (n, k)
            assert any(row["monogenic"] is False for row in report["results"]), (n, k)


def counting_binary_cr(monkeypatch):
    """Patch operators._binary_cr to record the degree of each member it is called on."""
    degrees = []
    original = operators._binary_cr

    def counted(poly, n, sign):
        degrees.append(poly.degree)
        return original(poly, n, sign)

    monkeypatch.setattr(operators, "_binary_cr", counted)
    return degrees


def test_passing_sequences_form_no_residual(monkeypatch):
    degrees = counting_binary_cr(monkeypatch)
    for family in FAMILIES:
        for n in range(1, 5):
            for m in range(13):
                for c0 in (Fraction(1), Fraction(-5, 3)):
                    seq = build_family(n, m, family=family, c0=c0, lam=family_lam(family))
                    assert certify(seq).ok
                    assert degrees == [], (family, n, m, c0)


def test_one_corruption_forms_residuals_at_its_degree_and_the_next(monkeypatch):
    rng = random.Random(53)
    degrees = counting_binary_cr(monkeypatch)
    for family in FAMILIES:
        for n in range(1, 5):
            for m in range(1, 13):
                seq = build_family(n, m, family=family, lam=family_lam(family))
                for insert in (False, True):
                    case = corrupted(seq, rng, insert)
                    k = next(k for k, (a, b) in enumerate(zip(seq.polys, case.polys)) if a != b)
                    degrees.clear()
                    report = certify(case)
                    assert set(degrees) <= {k, k + 1}, (family, n, m, k, degrees)
                    # a corruption that every degree passes is a wrong constant term: the family
                    assert not report.ok, (family, n, m, k)
                    assert bool(degrees) == (report.family_mismatch is None), (family, n, m, k)


def test_corrupted_coefficient_fails_with_witness():
    # bump c_2 by one: first failing degree is 2, the first degree that uses it
    cs = coefficient_sequence(2, 4)
    bad = build_phi(cs.with_value(2, cs.values[2] + 1))
    report = check_monogenic(bad)
    failing = [r for r in report.results if r.monogenic is False]
    assert failing and failing[0].k == 2
    assert failing[0].witness is not None
    coeff = Multivector.from_json(failing[0].witness["coeff"])
    assert not coeff.is_zero()


def test_corrupted_c0_fails_at_degree_one():
    cs = coefficient_sequence(2, 3)
    bad = build_phi(cs.with_value(0, cs.values[0] + 1))
    report = check_monogenic(bad)
    failing = [r for r in report.results if r.monogenic is False]
    assert failing and failing[0].k == 1


def test_negative_control_grid():
    # perturbing any c_k by +1 must break monogenicity by degree k+1
    for n in (1, 2, 3):
        cs = coefficient_sequence(n, 6)
        for k in range(1, 7):
            bad = build_phi(cs.with_value(k, cs.values[k] + 1))
            report = check_monogenic(bad)
            failing = [r.k for r in report.results if r.monogenic is False]
            assert failing, (n, k)
            assert failing[0] <= k + 1, (n, k, failing)
            witness = next(r.witness for r in report.results if r.monogenic is False)
            assert witness["exponents"]


def test_ladder_failure_reported_with_witness():
    cs = coefficient_sequence(2, 3)
    bad = build_phi(cs.with_value(3, Fraction(1)))
    report = check_appell(bad)
    failing = [r for r in report.results if r.ladder is False]
    assert failing and failing[0].witness is not None


def test_shifted_sequence_certifies_intertwining_only():
    seq = build_phi(coefficient_sequence(2, 6, shift=2))
    report = certify(seq)
    assert report.intertwining is True
    assert report.results == []
    assert report.ok


def test_shifted_sequences_are_not_monogenic():
    # without the omitted monogenic factor the shifted members fail the
    # operator check, which is exactly why certify() skips it for s > 0
    seq = build_phi(coefficient_sequence(2, 3, shift=1))
    report = check_monogenic(seq)
    assert any(r.monogenic is False for r in report.results)


# -- coefficient-level identities -----------------------------------------------


def test_xi_derivation_grid():
    for n in range(1, 5):
        assert check_xi_derivation(n, 8)


def test_derivation_matrix_is_minus_creation_at_n1():
    for m in (0, 3, 8):
        assert derivation_matrix(1, m) == creation_matrix(m).scale(-1)


def test_intertwining_grid():
    for n in range(1, 7):
        for s in range(4):
            assert check_intertwining(coefficient_sequence(n, 12, shift=s))


def intertwining_by_matrices(n, s, m, coeffs):
    """H D_c + D_c Ht is the zero matrix: the dense product, the reference of the identity."""
    diag = TriMatrix.diagonal(coeffs.values[: m + 1])
    return (creation_matrix(m) @ diag + diag @ derivation_matrix(n, m, shift=s)).is_zero()


def intertwining_by_pattern(n, s, m, coeffs):
    """(j+1) c_j = (n+j+2s) c_(j+1) for even j and c_j = c_(j+1) for odd j, j = 0..m-1."""
    c = coeffs.values
    return all(
        (j + 1) * c[j] == (n + j + 2 * s if j % 2 == 0 else j + 1) * c[j + 1] for j in range(m)
    )


def test_intertwining_matches_the_matrix_product_and_the_pattern():
    # n 1..6, s 0..3, m 0..12; the intact coefficients and every single-entry edit
    outcomes = set()
    for n in range(1, 7):
        for s in range(4):
            intact = coefficient_sequence(n, 12, shift=s)
            edits = [intact.with_value(k, c + 1) for k, c in enumerate(intact.values)]
            for coeffs in [intact, *edits]:
                for m in range(13):
                    expected = intertwining_by_matrices(n, s, m, coeffs)
                    assert intertwining_by_pattern(n, s, m, coeffs) == expected, (n, s, m, coeffs)
                    prefix = CoeffSequence(n, s, coeffs.values[: m + 1])
                    assert check_intertwining(prefix) == expected, (n, s, m, coeffs)
                    outcomes.add(expected)
    assert outcomes == {True, False}


def test_intertwining_negative_control():
    cs = coefficient_sequence(2, 6)
    assert not check_intertwining(cs.with_value(1, cs.values[1] + 1))


def test_intertwining_validates_metadata():
    # n < 1 and s < 0 are refused even for coefficients built by hand
    with pytest.raises(ValueError):
        check_intertwining(CoeffSequence(0, 0, (Fraction(1),)))
    with pytest.raises(ValueError):
        check_intertwining(CoeffSequence(2, -1, (Fraction(1),)))


def test_intertwining_implies_monogenic_on_grid():
    # the reconstruction argument: coefficient identity => kernel membership
    for n in (1, 2, 3):
        coeffs = coefficient_sequence(n, 5)
        if check_intertwining(coeffs):
            report = check_monogenic(build_phi(coeffs))
            assert all(r.monogenic for r in report.results)


def test_real_line_differential_equation():
    # restricted to the real line, d/dx0 acts as the creation matrix
    for family, lam in (("canonical", None), ("bernoulli", None), ("hermite", None)):
        seq = build_family(2, 6, family=family, lam=lam)
        restricted = restrict_real(seq)
        h = creation_matrix(6)
        for k, coeffs in enumerate(restricted):
            derived = [i * c for i, c in enumerate(coeffs)][1:]
            expected = [Fraction(0)] * (7)
            for j in range(k + 1):
                if h[k, j]:
                    for i, c in enumerate(restricted[j]):
                        expected[i] += h[k, j] * c
            padded = derived + [Fraction(0)] * (7 - len(derived))
            assert padded == expected


def test_verify_report_json_shape():
    report = certify(build_family(2, 3))
    payload = report.to_json()
    assert set(payload) == {"n", "family", "s", "ok", "results", "intertwining"}
    assert all(set(r) <= {"k", "monogenic", "ladder", "witness"} for r in payload["results"])
