"""Acceptance suite: one test per numbered criterion, at the stated tolerances.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per criterion.
Criteria 1 and 5 also enforce their wall-clock targets.
"""
import math
import random
import time

from nilgrowth.autos import (
    extension_conjugacy_growth,
    identity_automorphism,
    make_automorphism,
    swap_automorphism,
    twisted_growth_bruteforce,
    twisted_growth_structural,
    verify_automorphism,
)
from nilgrowth.conjugacy import (
    class_modulus,
    conjugacy_growth_bounds,
    conjugacy_growth_exact,
    conjugacy_growth_oracle,
    conjugacy_length_window_check,
    hd_embeddings,
)
from nilgrowth.gcdsums import LatticeBallSpec, expected_gcd, gcd_sum, zeta
from nilgrowth.groups import (
    inverse,
    multiply,
    named_spec,
)
from nilgrowth.intlinalg import identity_matrix
from nilgrowth.series import non_holonomy_report, select_asymptotic_model
from nilgrowth.verify import check_form_matches_commutators, check_relators
from nilgrowth.words import enumerate_ball, growth_exponent_fit, standard_generating_set

NAMES = ("H1", "H2", "HD2", "ZxH1")


def test_criterion_01_oracle_equivalence():
    started = time.time()
    for name in NAMES:
        spec = named_spec(name)
        gens = standard_generating_set(spec)
        radius = 6 if name == "H2" else 8
        exact = conjugacy_growth_exact(spec, gens, radius)
        oracle = conjugacy_growth_oracle(spec, gens, radius)
        assert exact == oracle, f"{name}: {exact} != {oracle}"
    elapsed = time.time() - started
    assert elapsed < 120
    print(f"PASS criterion 1: exact == oracle on {NAMES} (H2 at 6, rest at 8) in {elapsed:.1f}s")


def test_criterion_02_class_structure_on_cosets():
    spec = named_spec("H1")
    table = enumerate_ball(spec, standard_generating_set(spec), 8)
    cosets = {}
    for g in table.entries:
        cosets.setdefault(g[:-1], []).append(g[-1])
    checked = full = 0
    for abel, ks in cosets.items():
        if all(x == 0 for x in abel):
            continue
        checked += 1
        modulus = class_modulus(spec, abel)
        distinct = len({k % modulus for k in ks})
        assert distinct <= modulus, f"coset {abel}: {distinct} keys > modulus {modulus}"
        ks = sorted(ks)
        run = longest = 1
        for prev, cur in zip(ks, ks[1:]):
            run = run + 1 if cur == prev + 1 else 1
            longest = max(longest, run)
        if longest >= modulus:
            full += 1
            assert distinct == modulus, f"coset {abel}: period inside ball but {distinct} != {modulus}"
    assert checked > 0 and full > 0
    print(f"PASS criterion 2: {checked} nonzero cosets in the H1 8-ball, {full} with a full period, all exact")


def test_criterion_03_length_window():
    for name, radius in (("H1", 8), ("H2", 6)):
        rep = conjugacy_length_window_check(named_spec(name), radius)
        assert rep.ok, f"{name}: violations {rep.violations}"
        assert rep.classes_checked > 0
    print("PASS criterion 3: zero length-window violations (H1 8-ball, H2 6-ball)")


def test_criterion_04_sandwich_bounds():
    for name, radius in (("H1", 8), ("H2", 6)):
        spec = named_spec(name)
        exact = conjugacy_growth_exact(spec, standard_generating_set(spec), radius)
        bounds = conjugacy_growth_bounds(spec, radius)
        for n in range(radius + 1):
            rep = bounds[n]
            assert rep.lower <= exact[n] <= rep.upper, (
                f"{name} n={n}: {rep.lower} <= {exact[n]} <= {rep.upper} fails"
            )
    print("PASS criterion 4: lower <= exact <= upper (H1 n<=8, H2 n<=6), exact integers")


def test_criterion_05_gcd_asymptotics():
    started = time.time()
    # dim 3: the two independent routes must agree exactly where direct
    # enumeration is affordable; the n=2000 value then comes from the sieve
    assert expected_gcd(3, 800, budget=10**9, method="direct") == expected_gcd(3, 800, method="sieve")
    e3 = expected_gcd(3, 2000, method="sieve")
    target3 = zeta(2) / zeta(3)
    assert abs(target3 - 1.36843) < 5e-4
    assert abs(e3 / target3 - 1) < 0.01, f"E_3(2000) = {e3} vs {target3}"
    # dim 2 increment over a decade: sieve (exact), spot-checked against direct
    assert expected_gcd(2, 1000, method="sieve") == expected_gcd(2, 1000, method="direct")
    increment = expected_gcd(2, 10**4, method="sieve") - expected_gcd(2, 10**3, method="sieve")
    target2 = math.log(10) / zeta(2)
    assert abs(target2 - 1.3998) < 5e-4
    assert abs(increment / target2 - 1) < 0.10, f"E_2 increment = {increment} vs {target2}"
    # offset invariance of the leading term at n = 1000
    plain = gcd_sum(LatticeBallSpec(dim=2, radius=1000, norm="cube"))
    moved = gcd_sum(LatticeBallSpec(dim=2, radius=1000, norm="cube", offset=(3, -5)))
    assert abs(moved / plain - 1) < 0.05, f"offset ratio {moved / plain}"
    elapsed = time.time() - started
    assert elapsed < 300
    print(
        f"PASS criterion 5: E3(2000)={e3:.5f} (target {target3:.5f}), "
        f"decade increment {increment:.4f} (target {target2:.4f}), "
        f"offset ratio {moved / plain:.4f}, in {elapsed:.0f}s"
    )


def test_criterion_06_asymptotic_dichotomy():
    h1 = named_spec("H1")
    vals1 = [rep.upper for rep in conjugacy_growth_bounds(h1, 1000)]
    m1 = select_asymptotic_model(vals1, (100, 1000))
    assert (m1.family, m1.degree) == ("poly_d_log", 2), m1
    assert m1.residual < 0.10
    h2 = named_spec("H2")
    vals2 = [rep.upper for rep in conjugacy_growth_bounds(h2, 100)]
    m2 = select_asymptotic_model(vals2, (20, 100))
    assert (m2.family, m2.degree) == ("poly_d", 4), m2
    assert m2.residual < 0.10
    print(
        f"PASS criterion 6: H1 -> (poly_d_log, 2) residual {m1.residual:.3f}; "
        f"H2 -> (poly_d, 4) residual {m2.residual:.3f}"
    )


def test_criterion_07_bass_guivarch_slope():
    spec = named_spec("H1")
    balls = enumerate_ball(spec, standard_generating_set(spec), 25).ball_sizes()
    slope = growth_exponent_fit(balls, (10, 25))
    assert abs(slope - 4) <= 0.25, f"slope {slope}"
    print(f"PASS criterion 7: H1 log-log ball slope {slope:.3f} within 4 +/- 0.25 on [10, 25]")


def test_criterion_08_embedding_indices():
    rep = hd_embeddings(named_spec("HD2"))
    assert rep.index_gamma1 == 4 and rep.index_gamma1_formula == 4
    assert rep.index_gamma2 == 2 and rep.index_gamma2_formula == 2
    assert rep.label_invariance_ok and rep.reduction_ok
    assert rep.phi_relators_ok and rep.phi_injective_ok and rep.phi_homomorphism_ok
    print("PASS criterion 8: D=(2) indices [H_D:Gamma_1] = 4 and [Gamma_2:phi(H_D)] = 2 by coset enumeration")


def test_criterion_09_twisted_cases():
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    # (a) identity automorphism reproduces ordinary counts
    res_a = twisted_growth_bruteforce(spec, gens, identity_automorphism(spec), 6)
    assert res_a.stable and res_a.counts == conjugacy_growth_exact(spec, gens, 6)
    # (b) swap: at most two classes per abelianized point on n <= 6
    res_b = twisted_growth_bruteforce(spec, gens, swap_automorphism(spec), 6)
    per_point = {}
    for g, root in zip(res_b.table.entries, res_b.label.tolist()):
        per_point.setdefault(g[:-1], set()).add(root)
    assert res_b.stable and max(len(s) for s in per_point.values()) <= 2
    # (c) M=I, kappa=(1,0): structural equals brute force on n <= 6
    f = make_automorphism(spec, identity_matrix(2), (1, 0))
    res_c = twisted_growth_bruteforce(spec, gens, f, 6)
    assert res_c.stable and res_c.counts == twisted_growth_structural(spec, f, 6, gens=gens)
    # (d) swap extension: counts within a factor 6 of ordinary counts on n <= 8
    ext = extension_conjugacy_growth(spec, gens, swap_automorphism(spec), 2, 8)
    ordinary = conjugacy_growth_exact(spec, gens, 8)
    for m in range(1, 9):
        assert ordinary[m] / 6 <= ext[m] <= 6 * ordinary[m]
    print(
        "PASS criterion 9: (a) identity == ordinary, (b) swap <= 2/point, "
        "(c) structural == brute for kappa=(1,0), (d) extension ratio within factor 6"
    )


def test_criterion_10_arithmetic_core():
    rng = random.Random(2024)
    for name in ("H1", "H2", "H3", "ZxH1", "HD2"):
        spec = named_spec(name)
        for _ in range(10_000):
            g, h, k = (
                tuple(rng.randint(-9, 9) for _ in range(spec.ncoords)) for _ in range(3)
            )
            lhs = multiply(spec, multiply(spec, g, h), k)
            rhs = multiply(spec, g, multiply(spec, h, k))
            assert lhs == rhs, f"{name}: associativity fails at {g}, {h}, {k}"
        assert multiply(spec, g, inverse(spec, g)) == spec.identity()
        check_relators(spec)
        check_form_matches_commutators(spec)
    h1 = named_spec("H1")
    assert verify_automorphism(h1, swap_automorphism(h1), trials=10_000).ok
    for spec_name in ("H2", "HD2"):
        spec = named_spec(spec_name)
        assert verify_automorphism(spec, swap_automorphism(spec), trials=2000).ok
    assert verify_automorphism(h1, make_automorphism(h1, ((1, 1), (0, 1)), (3, -2)), trials=2000).ok
    print("PASS criterion 10: associativity fuzz (10^4 triples x 5 specs), relators, automorphism fuzz clean")


def test_criterion_11_excluded_items_reported():
    # the exact leading constant is out of scope; report the numeric estimate only
    h1 = named_spec("H1")
    vals = [rep.upper for rep in conjugacy_growth_bounds(h1, 1000)]
    model = select_asymptotic_model(vals, (100, 1000))
    assert model.family == "poly_d_log" and 0.1 < model.constant < 10
    # holonomy/transcendence are reported through the two proxies, never decided
    exact = conjugacy_growth_exact(h1, standard_generating_set(h1), 30)
    report = non_holonomy_report(exact, vals, (100, 1000))
    assert report.quasi_polynomial is None
    assert report.witness
    print(
        f"PASS criterion 11: leading constant reported as numeric estimate {model.constant:.4f} only; "
        "holonomy addressed by proxies (no quasi-polynomial fit + log-factor model)"
    )
