"""Cross-module invariant suite behind `nilgrowth verify`.

Each check raises StructuralError (or returns quietly); run_verification
collects results so a single broken invariant cannot mask the others.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .autos import (
    extension_conjugacy_growth,
    identity_automorphism,
    make_automorphism,
    swap_automorphism,
    twisted_growth_bruteforce,
    twisted_growth_structural,
    verify_automorphism,
)
from .conjugacy import (
    central_ball_window,
    class_key,
    conjugacy_growth_bounds,
    conjugacy_growth_exact,
    conjugacy_growth_oracle,
    conjugacy_length_window_check,
    hd_embeddings,
)
from .errors import StructuralError
from .gcdsums import (
    LatticeBallSpec,
    cube_gcd_sums,
    expected_gcd,
    gcd_sum,
    l1_gcd_sums,
    positive_cube_gcd_sum,
)
from .groups import (
    GroupSpec,
    broken_relators,
    central_element,
    commutator,
    commutator_form,
    conjugate,
    inverse,
    inverse_array,
    multiply,
    multiply_array,
    named_spec,
    omega_form,
    power,
    power_array,
    standard_generators,
)
from .intlinalg import identity_matrix
from .series import detect_quasi_polynomial, select_asymptotic_model
from .words import central_growth, enumerate_ball, standard_generating_set


def _rand_elt(rng, spec):
    return tuple(rng.randint(-6, 6) for _ in range(spec.ncoords))


def check_group_law(spec: GroupSpec, trials: int = 300) -> None:
    """Associativity, inverses and powers of the tuple law, then the array law against it row by row.

    The array law runs twice on int64 rows, so both sides of its dtype guard
    are checked: on the sampled rows, which stay in int64 unless the weights
    are large, and on the same rows scaled by 2^31, whose products, inverses
    and powers pass 2^62 on any spec, so the guard moves them to exact ints.
    """
    rng = random.Random(0)
    e = spec.identity()
    gs, hs = [], []
    for _ in range(trials):
        g, h, k = (_rand_elt(rng, spec) for _ in range(3))
        if multiply(spec, multiply(spec, g, h), k) != multiply(spec, g, multiply(spec, h, k)):
            raise StructuralError(f"associativity fails at {g}, {h}, {k}")
        if multiply(spec, g, inverse(spec, g)) != e:
            raise StructuralError(f"inverse fails at {g}")
        if power(spec, g, 5) != multiply(spec, power(spec, g, 3), power(spec, g, 2)):
            raise StructuralError(f"power law fails at {g}")
        gs.append(g)
        hs.append(h)
    ms = [rng.randint(-6, 6) for _ in gs]
    for scale, rows in ((1, "int64 rows"), (2**31, "rows scaled by 2^31")):
        xs, ys = ([tuple(scale * c for c in x) for x in elts] for elts in (gs, hs))
        xa, ya, ma = (np.array(elts, dtype=np.int64) for elts in (xs, ys, ms))
        if multiply_array(spec, xa, ya).tolist() != [list(multiply(spec, x, y)) for x, y in zip(xs, ys)]:
            raise StructuralError(f"array and tuple products differ on {rows}")
        if inverse_array(spec, xa).tolist() != [list(inverse(spec, x)) for x in xs]:
            raise StructuralError(f"array and tuple inverses differ on {rows}")
        if power_array(spec, xa, ma).tolist() != [list(power(spec, x, m)) for x, m in zip(xs, ms)]:
            raise StructuralError(f"array and tuple powers differ on {rows}")


def check_relators(spec: GroupSpec) -> None:
    """The defining relators [x_p, x_q] = c^{Omega_pq} of the standard generators, z slots included."""
    broken = broken_relators(spec, standard_generators(spec), omega_form(spec))
    if broken:
        raise StructuralError(f"relators [x_p, x_q] = c^(Omega_pq) fail for (p, q) in {broken}")


def check_form_matches_commutators(spec: GroupSpec) -> None:
    rng = random.Random(1)
    for _ in range(200):
        g, h = _rand_elt(rng, spec), _rand_elt(rng, spec)
        form = commutator_form(spec, g[:-1], h[:-1])
        if commutator(spec, g, h) != central_element(spec, form):
            raise StructuralError(f"form/commutator mismatch at {g}, {h}")


def check_conjugation_is_central_shift(spec: GroupSpec) -> None:
    rng = random.Random(2)
    for _ in range(200):
        x, g = _rand_elt(rng, spec), _rand_elt(rng, spec)
        img = conjugate(spec, x, g)
        if img[:-1] != g[:-1]:
            raise StructuralError("conjugation moved the abelianization")
        if img[-1] - g[-1] != commutator_form(spec, x[:-1], g[:-1]):
            raise StructuralError("conjugation shift disagrees with the form")


def check_class_key_invariance(spec: GroupSpec) -> None:
    rng = random.Random(3)
    for _ in range(300):
        x, g = _rand_elt(rng, spec), _rand_elt(rng, spec)
        if class_key(spec, conjugate(spec, x, g)) != class_key(spec, g):
            raise StructuralError(f"class key moved under conjugation at {x}, {g}")


def check_ball_robustness(spec: GroupSpec, radius: int) -> None:
    std = standard_generating_set(spec)
    gens = standard_generators(spec)
    doubled = type(std)(gens=gens + (multiply(spec, gens[0], gens[0]),))
    b_std = enumerate_ball(spec, std, radius).ball_sizes()
    b_dbl = enumerate_ball(spec, doubled, radius).ball_sizes()
    for n in range(radius + 1):
        if not b_dbl[n] >= b_std[n]:
            raise StructuralError("adding a generator shrank a ball")
    b_std4 = enumerate_ball(spec, std, 4 * radius // 2).ball_sizes()
    # a T-ball is inside the S-ball of a bounded multiple of the radius
    if b_dbl[radius] > b_std4[min(len(b_std4) - 1, 2 * radius)]:
        raise StructuralError("generating-set comparability violated")


def check_conjugacy_oracle_agreement(spec: GroupSpec, radius: int) -> None:
    gens = standard_generating_set(spec)
    if conjugacy_growth_exact(spec, gens, radius) != conjugacy_growth_oracle(spec, gens, radius):
        raise StructuralError("exact and orbit-closure conjugacy counts differ")


def check_central_window(spec: GroupSpec, radius: int) -> None:
    gens = standard_generating_set(spec)
    beta = central_growth(spec, gens, radius)
    for n in range(radius + 1):
        lo, hi = central_ball_window(n)
        if not lo <= beta[n] <= hi:
            raise StructuralError(f"central count {beta[n]} outside window at n={n}")


def check_sandwich(spec: GroupSpec, radius: int) -> None:
    gens = standard_generating_set(spec)
    exact = conjugacy_growth_exact(spec, gens, radius)
    bounds = conjugacy_growth_bounds(spec, radius)
    for n in range(radius + 1):
        rep = bounds[n]
        if not rep.lower <= exact[n] <= rep.upper:
            raise StructuralError(f"sandwich bound misses exact count at n={n}")


def check_length_window(spec: GroupSpec, radius: int) -> None:
    rep = conjugacy_length_window_check(spec, radius)
    if not rep.ok:
        raise StructuralError(f"length window violated: {rep.violations}")


def check_gcd_methods_agree() -> None:
    """Direct against sieve: single balls, cube sequences (one direct pass, one sieve per ball), l1 sequences."""
    for ball in (LatticeBallSpec(dim=2, radius=30, norm="cube"), LatticeBallSpec(dim=3, radius=12, norm="l1")):
        if gcd_sum(ball, method="direct") != gcd_sum(ball, method="sieve"):
            raise StructuralError(f"gcd sum methods disagree on {ball}")
    for dim, radius, offset in ((2, 25, (3, -5)), (3, 40, (0, 0, 0))):
        per_ball = [gcd_sum(LatticeBallSpec(dim, n, "cube", offset), method="sieve") for n in range(radius + 1)]
        if cube_gcd_sums(dim, radius, offset) != per_ball:
            raise StructuralError(f"cube gcd sum sequences disagree in dim {dim}, offset {offset}, to radius {radius}")
    for dim in (2, 4):
        if l1_gcd_sums(dim, 30, method="direct") != l1_gcd_sums(dim, 30, method="sieve"):
            raise StructuralError(f"l1 gcd sum sequences disagree in dim {dim} up to radius 30")


def check_expected_gcd() -> None:
    # mean over the positive cube {1..n}^dim
    val = expected_gcd(3, 50)
    brute = positive_cube_gcd_sum(3, 50, method="sieve")
    if abs(val - brute / 50**3) > 1e-12:
        raise StructuralError("expected gcd disagrees with the sum")


def check_embeddings(spec: GroupSpec) -> None:
    """The sandwich of spec itself when s = 0, else of HD2; hd_embeddings raises on an index mismatch."""
    hd_embeddings(spec if spec.s == 0 else named_spec("HD2"))


def check_automorphisms(spec: GroupSpec) -> None:
    for f in (identity_automorphism(spec), swap_automorphism(spec)):
        verify_automorphism(spec, f, trials=150)


def check_twisted(spec: GroupSpec, radius: int) -> None:
    gens = standard_generating_set(spec)
    res = twisted_growth_bruteforce(spec, gens, identity_automorphism(spec), radius)
    if res.counts != conjugacy_growth_exact(spec, gens, radius):
        raise StructuralError("identity-twisted counts differ from conjugacy counts")
    kappa = (1,) + (0,) * (spec.dim - 1)
    f = make_automorphism(spec, identity_matrix(spec.dim), kappa)
    brute = twisted_growth_bruteforce(spec, gens, f, radius)
    if twisted_growth_structural(spec, f, radius, gens=gens) != brute.counts:
        raise StructuralError("structural twisted counts differ from brute force")
    if not brute.stable:
        raise StructuralError("twisted counts not stable under a deeper conjugator ball")


def check_extension(spec: GroupSpec, radius: int) -> None:
    gens = standard_generating_set(spec)
    ext = extension_conjugacy_growth(spec, gens, identity_automorphism(spec), 2, radius)
    ch = conjugacy_growth_exact(spec, gens, radius)
    want = [ch[m] + (ch[m - 1] if m else 0) for m in range(radius + 1)]
    if ext != want:
        raise StructuralError("trivial-twist extension counts break c(n)+c(n-1)")


def check_series_tools() -> None:
    qp = detect_quasi_polynomial([n * n for n in range(25)], 2, 3)
    if qp is None or (qp.period, qp.degree) != (1, 2):
        raise StructuralError("quasi-polynomial detection misses n^2")
    model = select_asymptotic_model([7 * n**4 for n in range(80)], (10, 70))
    if (model.family, model.degree) != ("poly_d", 4):
        raise StructuralError("model selection misses a pure power")


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def run_verification(spec: GroupSpec, quick: bool = False) -> list[CheckResult]:
    """Run every invariant check; returns one result per check."""
    small = spec.dim <= 4
    conj_radius = (4 if quick else 6) if small else (3 if quick else 4)
    checks = [
        ("group_law", lambda: check_group_law(spec, trials=100 if quick else 300)),
        ("relators", lambda: check_relators(spec)),
        ("commutator_form", lambda: check_form_matches_commutators(spec)),
        ("conjugation_shift", lambda: check_conjugation_is_central_shift(spec)),
        ("class_key_invariance", lambda: check_class_key_invariance(spec)),
        ("ball_robustness", lambda: check_ball_robustness(spec, radius=4 if quick else 5)),
        ("conjugacy_oracle", lambda: check_conjugacy_oracle_agreement(spec, conj_radius)),
        ("gcd_methods", check_gcd_methods_agree),
        ("expected_gcd", check_expected_gcd),
        ("embeddings", lambda: check_embeddings(spec)),
        ("series_tools", check_series_tools),
    ]
    if spec.r >= 1 and all(d == 1 for d in spec.delta):
        # the central window is proven for weight-1 pairs (any free-abelian factor)
        checks.append(("central_window", lambda: check_central_window(spec, radius=8 if quick else 10)))
    if spec.s == 0 and spec.r >= 1 and all(d == 1 for d in spec.delta):
        checks.append(("length_window", lambda: check_length_window(spec, conj_radius)))
        checks.append(("sandwich_bounds", lambda: check_sandwich(spec, radius=5 if quick else 7)))
    if spec.s == 0:
        checks.append(("automorphisms", lambda: check_automorphisms(spec)))
    if spec.s == 0 and spec.dim <= 4:
        checks.append(("twisted_counts", lambda: check_twisted(spec, radius=3 if quick else 4)))
        checks.append(("extension_counts", lambda: check_extension(spec, radius=4 if quick else 5)))
    results = []
    for name, fn in checks:
        try:
            fn()
            results.append(CheckResult(name=name, ok=True))
        except StructuralError as exc:
            results.append(CheckResult(name=name, ok=False, detail=str(exc)))
    return results
