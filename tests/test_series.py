"""Tests for quasi-polynomial detection and asymptotic model selection."""
import random
from fractions import Fraction

import pytest

from nilgrowth.conjugacy import conjugacy_growth_exact
from nilgrowth.errors import SpecError, StructuralError
from nilgrowth.groups import named_spec
from nilgrowth.series import (
    QuasiPolynomial,
    detect_quasi_polynomial,
    non_holonomy_report,
    poly_degree,
    poly_eval,
    rational_implies_polynomial_check,
    select_asymptotic_model,
)
from nilgrowth.words import standard_generating_set


def test_poly_eval():
    p = (Fraction(1), Fraction(0), Fraction(2))  # 1 + 2n^2
    assert poly_eval(p, 3) == 19
    assert poly_degree(p) == 2
    assert poly_degree((Fraction(5), Fraction(0))) == 0


def test_detect_pure_square():
    vals = [n * n for n in range(25)]
    qp = detect_quasi_polynomial(vals, 3, 4)
    assert qp is not None
    assert (qp.period, qp.threshold, qp.degree) == (1, 0, 2)
    assert qp.polys[0] == (Fraction(0), Fraction(0), Fraction(1))
    assert all(qp.evaluate(n) == vals[n] for n in range(25))


def test_detect_period_two():
    vals = [n * n + (n if n % 2 else 0) for n in range(30)]
    qp = detect_quasi_polynomial(vals, 3, 4)
    assert qp is not None
    assert qp.period == 2 and qp.threshold == 0
    assert poly_eval(qp.polys[0], 6) == 36
    assert poly_eval(qp.polys[1], 7) == 56


def test_detect_threshold():
    # junk head, exact cubic tail
    vals = [17, 3, 99] + [n**3 + 1 for n in range(3, 40)]
    qp = detect_quasi_polynomial(vals, 2, 4)
    assert qp is not None
    assert qp.period == 1 and qp.threshold == 3 and qp.degree == 3


def test_detect_rejects_near_miss():
    # one off-by-one deep in the tail kills the fit
    vals = [n * n for n in range(30)]
    vals[27] += 1
    qp = detect_quasi_polynomial(vals, 2, 3)
    assert qp is None or qp.threshold > 20  # never an exact degree-2 fit from 0
    assert detect_quasi_polynomial([n * n for n in range(30)], 2, 3).threshold == 0


def test_detect_insufficient_data():
    with pytest.raises(SpecError):
        detect_quasi_polynomial([1, 2, 3], 3, 4)
    with pytest.raises(SpecError):
        detect_quasi_polynomial([1] * 50, 0, 2)


def test_conjugacy_counts_are_not_quasi_polynomial():
    h1 = named_spec("H1")
    counts = conjugacy_growth_exact(h1, standard_generating_set(h1), 30)
    assert detect_quasi_polynomial(counts, 3, 4) is None


def test_rational_corollary_check():
    sq = (Fraction(0), Fraction(0), Fraction(1))
    sq_n = (Fraction(0), Fraction(1), Fraction(1))
    qp = QuasiPolynomial(period=2, threshold=0, polys=(sq, sq_n))
    assert rational_implies_polynomial_check(qp, nondecreasing=True) == 2
    cube = QuasiPolynomial(period=1, threshold=0, polys=((Fraction(0),) * 3 + (Fraction(1),),))
    assert rational_implies_polynomial_check(cube, nondecreasing=True) == 3
    lin = (Fraction(0), Fraction(1))
    bad = QuasiPolynomial(period=2, threshold=0, polys=(lin, sq))
    with pytest.raises(StructuralError):
        rational_implies_polynomial_check(bad, nondecreasing=True)
    with pytest.raises(SpecError):
        rational_implies_polynomial_check(bad, nondecreasing=False)


def test_select_pure_power():
    vals = [7 * n**4 for n in range(200)]
    model = select_asymptotic_model(vals, (20, 150))
    assert (model.family, model.degree) == ("poly_d", 4)
    assert model.residual < 1e-9
    assert abs(model.constant - 7) < 1e-6


def test_select_power_log():
    import math

    vals = [0, 0] + [3 * n**2 * math.log(n) for n in range(2, 400)]
    model = select_asymptotic_model(vals, (30, 300))
    assert (model.family, model.degree) == ("poly_d_log", 2)
    assert model.residual < 1e-9


def test_select_recovers_under_noise():
    import math

    rng = random.Random(7)
    for family, degree in (("poly_d", 3), ("poly_d_log", 2)):
        vals = [0, 0]
        for n in range(2, 260):
            base = 5.0 * n**degree * (math.log(n) if family == "poly_d_log" else 1.0)
            vals.append(base * (1 + rng.uniform(-0.02, 0.02)))
        model = select_asymptotic_model(vals, (40, 240))  # length 201, span x6
        assert (model.family, model.degree) == (family, degree)


def test_select_validation():
    vals = [n for n in range(50)]
    with pytest.raises(SpecError):
        select_asymptotic_model(vals, (1, 30))
    with pytest.raises(SpecError):
        select_asymptotic_model(vals, (10, 100))
    with pytest.raises(SpecError):
        select_asymptotic_model(vals, (10, 14))
    with pytest.raises(SpecError):
        select_asymptotic_model([0] * 50, (10, 30))


def test_non_holonomy_report_shape():
    import math

    h1 = named_spec("H1")
    exact = conjugacy_growth_exact(h1, standard_generating_set(h1), 30)
    asym = [0, 0] + [1.2 * n**2 * math.log(n) + 0.125 * n**2 for n in range(2, 320)]
    report = non_holonomy_report(exact, asym, (50, 300))
    assert report.quasi_polynomial is None
    assert report.model.family == "poly_d_log" and report.model.degree == 2
    assert report.witness
