"""GCD-sum engines, both direct and sieve, against each other and the zeta ratios."""
from __future__ import annotations

import math
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgrowth.conjugacy import conjugacy_growth_bounds
from nilgrowth.errors import BudgetError, SpecError
from nilgrowth.gcdsums import (
    LatticeBallSpec,
    _totients,
    ball_volume_constant,
    cube_ball_count,
    expected_gcd,
    gcd_sum,
    gcd_sum_fit,
    l1_ball_count,
    l1_gcd_sums,
    positive_cube_gcd_sum,
    zeta,
)
from nilgrowth.groups import named_spec


def brute_gcd_sum(dim, radius, norm, offset=None):
    """Reference: literal loop over ball points."""
    offset = offset or (0,) * dim
    total = 0
    for x in product(range(-radius, radius + 1), repeat=dim):
        if norm == "l1" and sum(abs(v) for v in x) > radius:
            continue
        total += math.gcd(*(abs(v + a) for v, a in zip(x, offset)))
    return total


def test_ball_counts():
    assert cube_ball_count(2, 1) == 9
    assert l1_ball_count(2, 1) == 5
    assert l1_ball_count(2, 2) == 13
    assert l1_ball_count(3, 1) == 7
    assert l1_ball_count(1, 4) == 9
    # l1 count formula against brute force
    for dim in (1, 2, 3, 4):
        for n in range(0, 6):
            brute = sum(
                1 for x in product(range(-n, n + 1), repeat=dim) if sum(map(abs, x)) <= n
            )
            assert l1_ball_count(dim, n) == brute


def test_gcd_sum_spec_examples():
    assert gcd_sum(LatticeBallSpec(2, 1)) == 8
    assert gcd_sum(LatticeBallSpec(2, 2)) == 32
    assert gcd_sum(LatticeBallSpec(2, 1, offset=(1, 0))) == 9


def test_gcd_sum_matches_bruteforce():
    cases = [
        (1, 5, "cube", None),
        (2, 4, "cube", None),
        (2, 4, "cube", (2, -1)),
        (2, 4, "l1", None),
        (2, 4, "l1", (1, 3)),
        (3, 3, "cube", (0, 1, -2)),
        (3, 3, "l1", None),
        (4, 2, "cube", None),
        (4, 3, "l1", None),
    ]
    for dim, n, norm, offset in cases:
        ball = LatticeBallSpec(dim, n, norm, offset or ())
        assert gcd_sum(ball) == brute_gcd_sum(dim, n, norm, offset)


def test_direct_equals_sieve():
    for dim, n in [(2, 50), (3, 12), (4, 7)]:
        cube = LatticeBallSpec(dim, n)
        l1 = LatticeBallSpec(dim, n, "l1")
        assert gcd_sum(cube, method="direct") == gcd_sum(cube, method="sieve")
        assert gcd_sum(l1, method="direct") == gcd_sum(l1, method="sieve")
    for dim, n, offset in [(2, 30, (3, -5)), (3, 9, (1, 0, 2))]:
        ball = LatticeBallSpec(dim, n, "cube", offset)
        assert gcd_sum(ball, method="direct") == gcd_sum(ball, method="sieve")
    for dim, n in [(2, 200), (3, 40)]:
        assert positive_cube_gcd_sum(dim, n, method="direct") == positive_cube_gcd_sum(dim, n, method="sieve")
    # the sieve's box counts pass int64 here: every point of {-1, 0, 1}^40 but 0 has gcd 1
    assert gcd_sum(LatticeBallSpec(40, 1), method="sieve") == 3**40 - 1


def _offsets(dim):
    return st.lists(st.integers(-9, 9), min_size=dim, max_size=dim).map(tuple)


# radii up to 30, and radii next to a perfect square, where the l1 sieve's Dirichlet sum splits at sqrt(n)
RADII = st.integers(0, 30) | st.integers(1, 6).flatmap(lambda k: st.sampled_from((k * k - 1, k * k, k * k + 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.tuples(st.just(dim), RADII, _offsets(dim))))
@example((2, 16, (0, 0)))
@example((6, 37, (0, 0, 0, 0, 0, 0)))
def test_direct_equals_sieve_property(case):
    # the direct folds are charged their histograms, not their points: the 6-cube's 75^6 points pass the default budget
    dim, radius, offset = case
    cube = LatticeBallSpec(dim, radius, "cube", offset)
    assert gcd_sum(cube, method="direct") == gcd_sum(cube, method="sieve")
    assert l1_gcd_sums(dim, radius, method="direct") == l1_gcd_sums(dim, radius, method="sieve")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.tuples(st.just(dim), st.integers(0, 3), st.sampled_from(["cube", "l1"]), _offsets(dim))
    )
)
def test_direct_matches_bruteforce_property(case):
    # offset l1 balls have no sieve route, so the literal loop is their second route
    dim, radius, norm, offset = case
    assert gcd_sum(LatticeBallSpec(dim, radius, norm, offset)) == brute_gcd_sum(dim, radius, norm, offset)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(st.just(dim), st.integers(0, 25), _offsets(dim))))
def test_l1_sequence_matches_each_radius(case):
    dim, radius, offset = case
    sums = l1_gcd_sums(dim, radius, offset)
    assert sums == [gcd_sum(LatticeBallSpec(dim, n, "l1", offset)) for n in range(radius + 1)]


def test_sieve_l1_offset_unsupported():
    with pytest.raises(SpecError):
        gcd_sum(LatticeBallSpec(2, 5, "l1", (1, 0)), method="sieve")
    with pytest.raises(SpecError):
        l1_gcd_sums(2, 5, (1, 0), method="sieve")


def test_gcd_sum_budget():
    with pytest.raises(BudgetError):
        gcd_sum(LatticeBallSpec(3, 100), budget=1000)
    # l1 offsets split each axis into 2n+1 (cost, value) pairs: 101 x 101 fold cells for 5101 points
    with pytest.raises(BudgetError) as info:
        gcd_sum(LatticeBallSpec(2, 50, "l1", (1, 1)), budget=6000)
    assert (info.value.needed, info.value.budget) == (101 * 101, 6000)
    # the histogram is n + max|offset| + 1 gcd values wide
    with pytest.raises(BudgetError) as info:
        gcd_sum(LatticeBallSpec(1, 1, "cube", (10**6,)), budget=1000)
    assert info.value.needed == 10**6 + 2
    # int64 histogram counts: balls of 2^62 points or more are refused before any allocation
    for call in (
        lambda: gcd_sum(LatticeBallSpec(40, 1), budget=10**30),
        lambda: l1_gcd_sums(2, 2**31, budget=10**30),
        lambda: positive_cube_gcd_sum(3, 2**21, budget=10**30),
    ):
        with pytest.raises(SpecError, match="2\\^62"):
            call()


def test_totients_match_the_definition():
    phi = [sum(math.gcd(k, m) == 1 for k in range(1, m + 1)) for m in range(301)]  # phi(0) = 0
    for limit in range(301):
        assert _totients(limit, None).tolist() == phi[: limit + 1]


def test_sieve_budget():
    with pytest.raises(BudgetError) as info:
        gcd_sum(LatticeBallSpec(2, 100000), budget=10, method="sieve")
    assert (info.value.needed, info.value.budget) == (100001, 10)
    for call in (
        lambda: gcd_sum(LatticeBallSpec(2, 50, "l1"), budget=10, method="sieve"),
        lambda: l1_gcd_sums(2, 50, method="sieve", budget=10),
        lambda: positive_cube_gcd_sum(3, 50, budget=10, method="sieve"),
        lambda: conjugacy_growth_bounds(named_spec("H1"), 50, budget=10),
    ):
        with pytest.raises(BudgetError) as info:
            call()
        assert (info.value.needed, info.value.budget) == (51, 10)


def test_offset_sandwich():
    # offset sum at radius n sits between zero-offset sums at n - amax and n + amax
    for offset in [(1, 0), (2, -3), (0, 4)]:
        amax = max(abs(a) for a in offset)
        for n in range(amax, 8):
            mid = gcd_sum(LatticeBallSpec(2, n, "cube", offset))
            lo = gcd_sum(LatticeBallSpec(2, n - amax, "cube"))
            hi = gcd_sum(LatticeBallSpec(2, n + amax, "cube"))
            assert lo <= mid <= hi


def test_symmetry_invariance():
    # permuting coordinates or flipping signs of the centered ball changes nothing
    base = gcd_sum(LatticeBallSpec(3, 4))
    total = 0
    for x in product(range(-4, 5), repeat=3):
        total += math.gcd(abs(x[2]), math.gcd(abs(x[0]), abs(x[1])))
    assert total == base


def test_expected_gcd_examples():
    assert expected_gcd(2, 1) == 1.0
    # the mean is exact: check against a literal double loop
    n = 40
    brute = sum(math.gcd(x, y) for x in range(1, n + 1) for y in range(1, n + 1))
    assert expected_gcd(2, n) == brute / n**2
    with pytest.raises(SpecError):
        expected_gcd(1, 10)


def test_expected_gcd_dim3_ratio_small():
    # already near zeta(2)/zeta(3) at modest n (1% is certified at n=2000 in acceptance)
    val = expected_gcd(3, 300, method="sieve")
    assert abs(val - zeta(2) / zeta(3)) / (zeta(2) / zeta(3)) < 0.02


def test_expected_gcd_dim_ge3_cauchy():
    # doubling sequence settles within the O(log n / n) envelope
    vals = [expected_gcd(3, n, method="sieve") for n in (250, 500, 1000, 2000)]
    for n, (v1, v2) in zip((250, 500, 1000), zip(vals, vals[1:])):
        assert abs(v2 - v1) < 20 * math.log(n) / n


def test_zeta_values():
    assert abs(zeta(2) - math.pi**2 / 6) < 1e-10
    assert abs(zeta(3) - 1.2020569031595943) < 1e-10
    assert abs(zeta(4) - math.pi**4 / 90) < 1e-10
    with pytest.raises(SpecError):
        zeta(1.5)


def test_zeta_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    for s in (2, 3, 4, 5, 2.5):
        assert abs(zeta(s) - float(scipy_special.zeta(s, 1))) < 1e-10


def test_gcd_sum_fit_dim3():
    report = gcd_sum_fit(3, "cube", (50, 100, 200), method="sieve")
    assert report.drift < 0.05
    assert abs(report.constant_estimate - report.theory_constant) / report.theory_constant < 0.05
    assert not report.log_factor


def test_gcd_sum_fit_dim2_log():
    report = gcd_sum_fit(2, "cube", (200, 500, 1000), method="sieve")
    assert report.log_factor
    # ratios hover near R2/zeta(2) with slow drift from the O(n^2) term
    assert report.drift < 0.35
    assert abs(report.constant_estimate - report.theory_constant) / report.theory_constant < 0.2


def test_gcd_sum_fit_validation():
    with pytest.raises(SpecError):
        gcd_sum_fit(3, "cube", (10, 20))
    with pytest.raises(SpecError):
        gcd_sum_fit(3, "cube", (20, 10, 30))


def test_volume_constants():
    from fractions import Fraction

    assert ball_volume_constant(2, "cube") == 4
    assert ball_volume_constant(2, "l1") == 2
    assert ball_volume_constant(4, "l1") == Fraction(16, 24)
    assert ball_volume_constant(3, "cube") == 8


def test_lattice_ball_spec_validation():
    with pytest.raises(SpecError):
        LatticeBallSpec(0, 3)
    with pytest.raises(SpecError):
        LatticeBallSpec(2, -1)
    with pytest.raises(SpecError):
        LatticeBallSpec(2, 3, "l2")
    with pytest.raises(SpecError):
        LatticeBallSpec(2, 3, "cube", (1,))
