"""Automorphisms (M, kappa), twisted conjugacy growth, and finite cyclic extensions.

An automorphism is determined by an integer matrix M with M Omega M^T =
eps * Omega (eps = +/-1) and a shift vector kappa: the generator x_p maps to
lift(row_p M) c^{kappa_p}, and c maps to c^eps.  The action on a general
element is realized by multiplying generator images in normal-form order, so
the quadratic correction gamma is produced by the group law itself and never
evaluated symbolically.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError, StructuralError
from .groups import (
    Element,
    GroupSpec,
    Vector,
    affine_maps,
    broken_relators,
    check_element,
    exact_dtype,
    exact_int,
    inverse_array,
    multiply_array,
    omega_form,
    power,
    power_array,
    standard_generators,
    top_entry,
)
from .intlinalg import (
    Matrix,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_transpose,
    rank,
    row_kernel_vector,
)
from .conjugacy import class_lengths, merge_conjugates, merge_images, new_labels, part_lengths
from .words import BallTable, GeneratingSet, cumulative_counts, enumerate_ball, run_keys


def check_in_M(spec: GroupSpec, m: Matrix) -> int | None:
    """eps with M Omega M^T = eps Omega, or None if neither sign works."""
    dim = spec.dim
    if len(m) != dim or any(len(row) != dim for row in m):
        raise SpecError(f"matrix must be {dim}x{dim}")
    omega = omega_form(spec)
    lhs = mat_mul(mat_mul(m, omega), mat_transpose(m))
    if lhs == omega:
        return 1
    if lhs == mat_neg(omega):
        return -1
    return None


@dataclass(frozen=True)
class Automorphism:
    """f = kappa o phi_M; images holds the precomputed generator images."""

    m: Matrix
    kappa: tuple[int, ...]
    eps: int
    images: tuple[Element, ...] = field(repr=False)

    def to_json_dict(self) -> dict:
        return {"M": [list(r) for r in self.m], "kappa": list(self.kappa)}


def make_automorphism(spec: GroupSpec, m, kappa=None) -> Automorphism:
    m = tuple(tuple(exact_int(x) for x in row) for row in m)
    kappa = tuple(exact_int(x) for x in kappa) if kappa is not None else (0,) * spec.dim
    if len(kappa) != spec.dim:
        raise SpecError(f"kappa must have {spec.dim} entries")
    eps = check_in_M(spec, m)
    if eps is None:
        raise SpecError("matrix does not preserve the commutator form up to sign")
    # row_p of M is the abelianized image of generator p; lift and append c^kappa_p
    images = tuple(tuple(row) + (k,) for row, k in zip(m, kappa))
    return Automorphism(m=m, kappa=kappa, eps=eps, images=images)


def identity_automorphism(spec: GroupSpec) -> Automorphism:
    return make_automorphism(spec, identity_matrix(spec.dim))


def swap_automorphism(spec: GroupSpec) -> Automorphism:
    """a_t <-> b_t on every pair (eps = -1); needs s = 0 and symmetric weights."""
    if spec.s != 0:
        raise SpecError("swap automorphism is defined for H_D")
    dim = spec.dim
    m = [[0] * dim for _ in range(dim)]
    for t in range(spec.r):
        m[2 * t][2 * t + 1] = 1
        m[2 * t + 1][2 * t] = 1
    return make_automorphism(spec, m)


def automorphism_from_json_dict(spec: GroupSpec, data: dict) -> Automorphism:
    try:
        return make_automorphism(spec, data["M"], data.get("kappa"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad automorphism payload: {exc}") from exc


def apply_automorphism(spec: GroupSpec, f: Automorphism, g: Element) -> Element:
    """f(g) as the normal-form product of generator images, times c^{eps k}."""
    check_element(spec, g)
    acc = spec.identity()
    for p in range(spec.dim):
        if g[p]:
            acc = spec.mul(acc, power(spec, f.images[p], g[p]))
    if g[-1]:
        acc = acc[:-1] + (acc[-1] + f.eps * g[-1],)
    return acc


def apply_automorphism_array(spec: GroupSpec, f: Automorphism, g: np.ndarray) -> np.ndarray:
    """Row-wise f(g) over (..., ncoords) coordinate arrays; the normal-form product of apply_automorphism.

    The image rows are int64 or exact Python ints (an object array), as the
    array law picks from the sizes of f's images and g's entries: exact either way.
    """
    images = np.array(f.images, dtype=object)
    acc = power_array(spec, images[0], g[..., 0])
    for p in range(1, spec.dim):
        acc = multiply_array(spec, acc, power_array(spec, images[p], g[..., p]))
    dtype = exact_dtype(top_entry(acc) + top_entry(g[..., -1]))
    acc = acc.astype(dtype, copy=False)
    acc[..., -1] += f.eps * g[..., -1].astype(dtype, copy=False)
    return acc


def gamma_sample(spec: GroupSpec, f: Automorphism, v: Vector) -> int:
    """The quadratic correction gamma(v): c-exponent of f(lift(v)) minus kappa terms.

    Defined by f(lift(v)) = lift(vM) c^{gamma(v) + <kappa, v>}.
    """
    img = apply_automorphism(spec, f, tuple(v) + (0,))
    return img[-1] - sum(k * x for k, x in zip(f.kappa, v))


def compose_automorphisms(spec: GroupSpec, f: Automorphism, g: Automorphism) -> Automorphism:
    """f o g (apply g first)."""
    images = [apply_automorphism(spec, f, apply_automorphism(spec, g, x)) for x in standard_generators(spec)]
    comp = make_automorphism(spec, [img[:-1] for img in images], [img[-1] for img in images])
    if comp.eps != f.eps * g.eps:
        raise StructuralError("composite sign mismatch")
    return comp


def automorphism_power(spec: GroupSpec, f: Automorphism, i: int) -> Automorphism:
    if i < 0:
        raise SpecError("nonnegative powers only")
    acc = identity_automorphism(spec)
    for _ in range(i):
        acc = compose_automorphisms(spec, f, acc)
    return acc


def automorphism_order(spec: GroupSpec, f: Automorphism, bound: int = 12) -> int | None:
    """Smallest m <= bound with f^m fixing every generator, else None."""
    gens = standard_generators(spec)
    current = list(gens)
    for m in range(1, bound + 1):
        current = [apply_automorphism(spec, f, x) for x in current]
        if all(x == g for x, g in zip(current, gens)):
            return m
    return None


def inverse_automorphism(spec: GroupSpec, f: Automorphism) -> Automorphism:
    """The (M^{-1}, kappa') automorphism undoing f on every generator.

    With g = (M^{-1}, 0), f(g(x_p)) = x_p c^{d_p}; f sends c^{kappa'_p} to
    c^{eps kappa'_p}, so kappa'_p = -eps d_p.
    """
    minv = mat_inverse(f.m)
    if check_in_M(spec, minv) is None:
        raise StructuralError("inverse matrix left the matrix group")
    bare = make_automorphism(spec, minv)
    return make_automorphism(spec, minv, [-f.eps * apply_automorphism(spec, f, x)[-1] for x in bare.images])


FUZZ_BLOCK = 1024  # trials per block of the homomorphism fuzz


@dataclass
class VerifyReport:
    trials: int
    homomorphism_ok: bool
    inverse_ok: bool
    relators_ok: bool

    @property
    def ok(self) -> bool:
        return self.homomorphism_ok and self.inverse_ok and self.relators_ok


def verify_automorphism(spec: GroupSpec, f: Automorphism, trials: int = 1000) -> VerifyReport:
    """Relators [f(x_p), f(x_q)] = c^{eps Omega_pq} (see broken_relators), homomorphism fuzz, inverse round-trip."""
    # trial t draws g = pairs[t, 0] and h = pairs[t, 1] with coordinates in -9..9 (uint16 % 19: each value within
    # 2e-5 of 1/19), FUZZ_BLOCK trials at a time so the temporaries stay small; the draws are int64, and the array
    # law turns to exact ints only where f's images make it need them.  numpy.random is left out because numpy does
    # not import it, and its first import costs ~6 MB of RSS
    rng, hom_ok = random.Random(0), True
    for start in range(0, trials, FUZZ_BLOCK):
        size = 2 * min(FUZZ_BLOCK, trials - start) * spec.ncoords
        draws = np.frombuffer(rng.randbytes(2 * size), dtype="<u2") % 19
        pairs = (draws.astype(np.int64) - 9).reshape(-1, 2, spec.ncoords)
        g, h = pairs[:, 0], pairs[:, 1]
        lhs = apply_automorphism_array(spec, f, multiply_array(spec, g, h))
        rhs = multiply_array(spec, apply_automorphism_array(spec, f, g), apply_automorphism_array(spec, f, h))
        hom_ok &= bool((lhs == rhs).all())
    finv = inverse_automorphism(spec, f)
    inverse_ok = all(
        apply_automorphism(spec, finv, apply_automorphism(spec, f, x)) == x
        and apply_automorphism(spec, f, apply_automorphism(spec, finv, x)) == x
        for x in standard_generators(spec)
    )
    form = tuple(tuple(f.eps * x for x in row) for row in omega_form(spec))
    report = VerifyReport(
        trials=trials,
        homomorphism_ok=hom_ok,
        inverse_ok=inverse_ok,
        relators_ok=not broken_relators(spec, f.images, form),
    )
    if not report.ok:
        raise StructuralError(f"automorphism verification failed: {report}")
    return report


def _conjugator_maps(f: Automorphism, conj: BallTable):
    """(maps, lengths): the affine maps (see merge_conjugates) of h -> f(x) h x^{-1}, x in conj, and their lengths.

    The edges of x^{-1} are those of x reversed and |x^{-1}| = |x|, so one x of
    each pair {x, x^{-1}} is kept: the one whose key is above the identity's
    (x > 0 in Mal'cev order).  x = y c^j gives f(x) h x^{-1} = f(y) h y^{-1}
    c^{(eps - 1) j}, so affine_maps runs once per abelian body, at y = (v, 0),
    and x = (v, j) moves its c by (eps - 1) j.  Under eps = +1 that is one map
    per body above the identity's, at the body's least length: body -v's map
    is body v's reversed, as y^{-1} = (-v, 0) c^q and c^q cancels, and the
    identity body's map moves nothing.  Under eps = -1 it is one map per x > 0,
    in key order.
    """
    codec = conj.codec
    # the least key kept: the identity body's next key under eps = -1, the next body's first under eps = +1
    least = codec.identity + 1 if f.eps == -1 else codec.join(codec.split(codec.identity)[0] + 1, 0)
    lo, hi, lengths = conj.flat_runs
    keep = hi >= least
    lo, hi, lengths = np.maximum(lo[keep], least), hi[keep], lengths[keep]
    body = codec.split(lo)[0]
    new = np.append(True, body[1:] != body[:-1])[: len(body)]  # a body is one block of the key order; none may be kept
    first = np.flatnonzero(new)
    y = codec.coords(codec.join(body[first], codec.offsets[-1]))
    shift, c, lin = affine_maps(conj.spec, apply_automorphism_array(conj.spec, f, y), inverse_array(conj.spec, y))
    if f.eps == 1:
        return (shift, c, lin), np.minimum.reduceat(lengths, first)
    size = hi - lo + 1
    rows = np.repeat(np.cumsum(new) - 1, size)
    j = codec.split(run_keys(lo, hi))[1] - codec.offsets[-1]
    dtype = exact_dtype(top_entry(c) + 2 * top_entry(j))
    c = c[rows].astype(dtype, copy=False) - 2 * j.astype(dtype, copy=False)
    return (shift[rows], c, lin[rows]), np.repeat(lengths, size)


def _twisted_partition(f: Automorphism, ball: BallTable, table: BallTable, radii: tuple[int, ...]):
    """Root-pointer labels (see merge_parts) of table's parts under h -> f(x) h x^{-1}, x in ball.

    The conjugators, the elements of ball of length <= radii[-1], are merged in
    sphere prefixes: the same label array is yielded once those of length <=
    radius are merged, for each radius in radii (ascending).  Their maps come
    from _conjugator_maps, one x of each pair {x, x^{-1}}: the two have one
    length, so the pair is merged in the same prefix.  table is a prefix of
    ball, so the two share one enumeration and one budget.
    """
    maps, lengths = _conjugator_maps(f, ball.prefix(radii[-1]))
    label = new_labels(len(table.keys))
    for lo, hi in zip((-1,) + radii, radii):
        part = (lo < lengths) & (lengths <= hi)
        merge_conjugates(table.spec, table, label, tuple(x[part] for x in maps))
        yield label


@dataclass
class TwistedGrowthResult:
    """Twisted class counts: `counts` merges conjugators up to length radius + 2, `first_pass_counts` up to radius.

    label is the root-pointer array (see merge_parts) of the final partition of table, the counted ball.
    """

    counts: list[int]
    stable: bool
    conjugator_radius: int
    first_pass_counts: list[int]
    table: BallTable = field(repr=False, compare=False)
    label: np.ndarray = field(repr=False, compare=False)


def twisted_growth_bruteforce(
    spec: GroupSpec,
    gens: GeneratingSet,
    f: Automorphism,
    n: int,
    conjugator_radius: int | None = None,
    budget: int | None = None,
) -> TwistedGrowthResult:
    """Orbit-closure twisted counts, rechecked through conjugators up to length conjugator_radius + 2 for stability."""
    radius = conjugator_radius if conjugator_radius is not None else n + 2
    if min(n, radius) < 0:
        raise SpecError("radius must be nonnegative")
    ball = enumerate_ball(spec, gens, max(n, radius + 2), budget=budget)
    table = ball.prefix(n)
    passes = _twisted_partition(f, ball, table, (radius, radius + 2))
    counts = cumulative_counts(part_lengths(next(passes), table.lengths), n)
    label = next(passes)
    recheck = cumulative_counts(part_lengths(label, table.lengths), n)
    return TwistedGrowthResult(
        counts=recheck,
        stable=counts == recheck,
        conjugator_radius=radius,
        first_pass_counts=counts,
        table=table,
        label=label,
    )


def twisted_growth_structural(
    spec: GroupSpec,
    f: Automorphism,
    n: int,
    gens: GeneratingSet,
    budget: int | None = None,
) -> list[int]:
    """Exact twisted counts for M = I, eps = +1 via the shifted-gcd class key.

    Key = (hbar, k mod class_modulus(hbar, kappa)); modulus 0 marks singleton
    fibers.  With kappa = 0 this is exactly the ordinary conjugacy count.
    """
    if f.m != identity_matrix(spec.dim) or f.eps != 1:
        raise SpecError("structural twisted counts need M = I and eps = +1")
    return class_lengths(spec, enumerate_ball(spec, gens, n, budget=budget), f.kappa).counts(n)


@dataclass
class CaseReport:
    label: str
    eps: int
    rank_m_minus_i: int
    kernel_vector: tuple[int, ...] | None


def rank_case_classifier(spec: GroupSpec, f: Automorphism) -> CaseReport:
    """Case split of the finite-extension analysis: eps and rank(M - I)."""
    m_minus_i = mat_sub(f.m, identity_matrix(spec.dim))
    rk = rank(m_minus_i)
    if f.eps == 1 and rk == 0 and all(k == 0 for k in f.kappa):
        return CaseReport("identity", f.eps, rk, None)
    if f.eps == -1:
        return CaseReport("eps_minus_one", f.eps, rk, None)
    if rk >= 2:
        return CaseReport("rank_ge_2", f.eps, rk, None)
    if rk == 1:
        return CaseReport("rank_1", f.eps, rk, row_kernel_vector(m_minus_i))
    return CaseReport("rank_0", f.eps, rk, None)


def extension_conjugacy_growth(
    spec: GroupSpec,
    gens: GeneratingSet,
    f: Automorphism,
    order: int,
    n: int,
    budget: int | None = None,
) -> list[int]:
    """Conjugacy growth of G = H x|_phi Z/order with gens + t, |t^i h| = min(i, order-i) + |h|.

    Coset i carries the phi^i-twisted partition of H; conjugation by t then
    merges the parts of h and phi(h).  One (n+2)-ball serves every coset: its
    radius-(n - |t^i|) prefix is counted, with conjugators up to 2 longer.
    """
    if order < 1:
        raise SpecError("order must be >= 1")
    if n < 0:
        raise SpecError("radius must be nonnegative")
    m = automorphism_order(spec, f, order)
    if m is None or order % m:
        raise SpecError(f"automorphism does not have order dividing {order}")
    ball = enumerate_ball(spec, gens, n + 2, budget=budget)
    lengths = []
    for i in range(order):
        ct = min(i, order - i)
        ni = n - ct
        if ni < 0:
            continue
        table = ball.prefix(ni)
        (label,) = _twisted_partition(automorphism_power(spec, f, i), ball, table, (ni + 2,))
        # merge under conjugation by t: t (t^i h) t^{-1} = t^i f(h)
        merge_images(label, table.index(apply_automorphism_array(spec, f, table.coords)))
        lengths.append(ct + part_lengths(label, table.lengths))
    return cumulative_counts(np.concatenate(lengths), n)

