"""Conjugacy classes, conjugacy growth, sandwich bounds, and commensurability embeddings.

Conjugating alpha c^k shifts k by commutator_form(xbar, alphabar), so the class
of a non-central element is the coset alpha c^k <c^g> with g the gcd of the
weighted pair entries of alphabar; central classes are singletons.  The class
key below encodes exactly that, and an independent orbit-closure oracle must
reproduce its counts on every computed ball.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod

import numpy as np

from .errors import SpecError, StructuralError
from .gcdsums import l1_gcd_sums
from .groups import (
    Element,
    GroupSpec,
    Vector,
    affine_maps,
    broken_relators,
    central_element,
    check_element,
    inverse_array,
    make_group_spec,
    multiply_array,
    omega_apply,
    omega_form,
    power_array,
    standard_generators,
)
from .words import (
    KEY_LIMIT,
    BallTable,
    GeneratingSet,
    KeyCodec,
    _step_set,
    central_growth,
    check_budget,
    cumulative_counts,
    enumerate_ball,
    run_keys,
    standard_generating_set,
)


def class_modulus(spec: GroupSpec, v: Vector, kappa: Vector = ()) -> int:
    """gcd of the entries of Omega v^T + kappa; 0 exactly when Omega v^T + kappa = 0.

    With kappa = 0 it generates {commutator_form(u, v) : u}, the k-shifts of
    conjugation; a shift kappa gives the twisted modulus of (I, kappa).
    """
    return gcd(*(x + y for x, y in zip(omega_apply(spec, v), _kappa(spec, kappa))))


def _kappa(spec: GroupSpec, kappa: Vector) -> Vector:
    """kappa, or the zero vector for (); one entry per non-central coordinate."""
    if not kappa:
        return (0,) * spec.dim
    if len(kappa) != spec.dim:
        raise SpecError(f"kappa must have {spec.dim} entries")
    return tuple(kappa)


@dataclass(frozen=True)
class ConjClassKey:
    """Conjugacy invariant: abelianization plus c-exponent residue.

    For non-central classes resid is k mod class_modulus(abel); central
    classes are singletons keyed by k itself (modulus 0).
    """

    abel: Vector
    resid: int


def class_key(spec: GroupSpec, g: Element) -> ConjClassKey:
    check_element(spec, g)
    v = g[:-1]
    m = class_modulus(spec, v)
    if m == 0:
        return ConjClassKey(v, g[-1])
    return ConjClassKey(v, g[-1] % m)


def new_labels(size: int) -> np.ndarray:
    """Root pointers of size singleton parts: label[i] = i, int32 while it fits."""
    return np.arange(size, dtype=np.int32 if size < 2**31 else np.int64)


def merge_parts(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Merge the parts of u[i] and v[i] for every i, in place.

    label is a root-pointer array, fully compressed on entry and on return:
    label[i] is the root of i's part, and every root is its part's least
    index.  Each round hooks the larger root of every edge still cut onto
    the least root it meets, then pointer-jumps until every label is a root.
    """
    while True:
        ru, rv = label[u], label[v]
        cut = ru != rv
        if not cut.any():
            return
        u, v, ru, rv = u[cut], v[cut], ru[cut], rv[cut]
        np.minimum.at(label, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label[:] = jumped


def merge_images(label: np.ndarray, image: np.ndarray) -> None:
    """Merge the part of each index i < image.shape[-1] with that of image[..., i], where that is not -1."""
    hit = image >= 0
    merge_parts(label, np.broadcast_to(np.arange(image.shape[-1]), image.shape)[hit], image[hit])


def part_lengths(label: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The least length in each part of a compressed root-pointer array."""
    least = lengths.copy()
    np.minimum.at(least, label, lengths)
    return least[label == np.arange(len(label))]


# (map, ball run) image runs per block of merge_conjugates, and element edges per merge_parts pass there.
ROW_BLOCK = 4096


def merge_conjugates(spec: GroupSpec, table: BallTable, label: np.ndarray, maps) -> None:
    """Merge the part of every ball element h with that of its image under each map of maps, in place.

    maps = (shift, c, lin) holds groups.affine_maps rows, int64 or object
    arrays, exact either way: affine_maps(spec, x, x^-1) merges conjugates,
    affine_maps(spec, f(x), x^-1) f-twisted conjugates.  label indexes
    table.keys.

    The merge runs on the table's maximal runs of consecutive keys, each in
    one body v.  A map moves a run whole, to body v + shift with every k
    moved by c + lin @ (v, 0) (lin's last entry is 1).  With B_p the largest
    |h_p| over the table, a map that shifts some body coordinate p by more
    than 2 B_p, or whose c puts every image's |k| past B_k, is dropped.  Each
    (map, run) image run is clipped to |k| <= B_k and keyed under a KeyCodec
    whose body digits cover B_p + max |shift_p|, where keys are injective.
    Two searchsorted calls against the table's runs under that codec find
    the runs it meets, and only those overlaps become element edges,
    positioned by the cumulative run lengths.  Blocks of about ROW_BLOCK
    image runs are made at a time, and merge_parts takes their edges
    ROW_BLOCK at a time.  The codec, or a k term of KEY_LIMIT or more, raises
    SpecError, so no int64 sum can wrap.
    """
    if table.spec != spec:
        raise SpecError("ball table was enumerated for another spec")
    codec = table.codec
    lo, hi, _ = table.flat_runs
    # the maximal runs: a run joins the one before it where the keys go on inside one body
    cut = np.flatnonzero((lo[1:] - hi[:-1] != 1) | (codec.split(lo[1:])[1] == 0)) + 1
    lo, hi = lo[np.append(0, cut)], hi[np.append(cut, len(hi)) - 1]
    rows, size = codec.coords(lo), hi - lo
    v, klo = rows[:, :-1], rows[:, -1]
    # an object array, so the filter below is in exact ints whatever the maps' dtype
    bound = np.append(np.abs(v).max(axis=0), max(-klo.min(), (klo + size).max())).astype(object)
    abs_shift, abs_c, abs_lin = map(np.abs, maps)
    # the largest |k - c| of a map's images over the table
    reach = abs_lin @ bound
    keep = (abs_shift <= 2 * bound[:-1]).all(axis=1) & (abs_c <= bound[-1] + reach)
    if not keep.any():
        return
    # every int64 term of an image's k: c + lin h and its partial sums, and lin itself where B_p = 0
    k_reach = max(int((abs_c + reach)[keep].max()), int(abs_lin[keep].max()))
    if k_reach >= KEY_LIMIT:
        raise SpecError(f"conjugate images of this ball do not fit 64-bit keys (k terms up to {k_reach})")
    offsets = (bound[:-1] + abs_shift[keep].max(axis=0)).tolist() + [bound[-1]]
    wide = KeyCodec(offsets, [2 * b + 1 for b in offsets], "conjugate images of this ball")
    del abs_shift, abs_c, abs_lin, reach  # not held through the blocks
    shift, c, lin = (x[keep].astype(np.int64) for x in maps)
    top = offsets[-1]
    body = wide.pack(v)  # each run's body at k = 0, under the wide codec
    start, end = body + klo, body + klo + size
    at_table = np.cumsum(size + 1) - size - 1 - start  # each run's positions in table.keys less its keys
    shift_key = wide.pack(shift) - wide.identity
    block, edges, held = max(1, ROW_BLOCK // len(lo)), [], 0
    for first in range(0, len(c), block):
        part = slice(first, first + block)
        # the key step of each (map, run) image, its body shift plus its k shift c + lin @ (v, 0); a step of 0 moves
        # nothing.  The image run is [a, b] clipped to |k| <= B_k, and the preimage of key y is at position y + at.
        step = lin[part, :-1] @ v.T
        step += c[part, None]
        step += shift_key[part, None]
        moved = body + shift_key[part, None]
        a = np.maximum(start + step, moved - top)
        b = np.minimum(end + step, moved + top)
        hit = np.flatnonzero((step != 0) & (a <= b))
        a, b, at = a.ravel()[hit], b.ravel()[hit], (at_table - step).ravel()[hit]
        # every (image run, table run) overlap: the table runs from the first that ends at or after a
        lead = np.searchsorted(end, a)
        count = np.searchsorted(start, b, side="right") - lead
        j = np.repeat(np.arange(len(a)), count)
        t = np.arange(len(j)) - np.repeat(np.cumsum(count) - count - lead, count)
        low, at_j = np.maximum(a[j], start[t]), at[j]
        u, gap, span = low + at_j, at_table[t] - at_j, np.minimum(b[j], end[t]) - low
        u = run_keys(u, u + span)
        edges.append((u, u + np.repeat(gap, span + 1)))
        held += len(u)
        if held >= ROW_BLOCK or first + block >= len(c):
            merge_parts(label, *map(np.concatenate, zip(*edges)))
            edges, held = [], 0


class ClassLengths(Mapping):
    """Read-only mapping ConjClassKey -> least word length, held as two arrays.

    packed holds the sorted class keys under codec (see class_lengths) and
    lengths the least length of each.  len and counts read the arrays alone;
    the ConjClassKey objects are decoded once, vectorised, on first use.
    """

    def __init__(self, spec: GroupSpec, codec: KeyCodec, kappa: Vector, packed: np.ndarray, lengths: np.ndarray):
        self.spec, self.codec, self.kappa, self.packed, self.lengths = spec, codec, kappa, packed, lengths

    def __len__(self) -> int:
        return len(self.packed)

    def counts(self, n: int) -> list[int]:
        """c(m) for m = 0..n: how many class keys have least length <= m."""
        return cumulative_counts(self.lengths, n)

    @cached_property
    def _decoded(self) -> dict[ConjClassKey, int]:
        rows = self.codec.coords(self.packed)
        # a residue is its own digit; a central class keeps its k
        reduced = _class_moduli(self.spec, self.codec, self.packed, self.kappa) > 0
        resid = np.where(reduced, self.codec.split(self.packed)[1], rows[:, -1])
        abels = map(tuple, rows[:, :-1].tolist())
        return dict(zip(map(ConjClassKey, abels, resid.tolist()), self.lengths.tolist()))

    def __getitem__(self, key: ConjClassKey) -> int:
        return self._decoded[key]

    def __iter__(self):
        return iter(self._decoded)


def class_lengths(spec: GroupSpec, table: BallTable, kappa: Vector = ()) -> ClassLengths:
    """Minimal word length per class key (abel, k mod class_modulus(abel, kappa)) over the ball.

    kappa = () gives conjugacy classes; for the automorphism (I, kappa) the
    same key gives twisted classes.  A class key packs the ball's body and
    r = k mod m for the modulus m > 0, or k's digit when m = 0, under the ball
    codec's with_last_digit.  A run lies in one body, so its m is its body's,
    read once per body, and its class keys are its k digits when m = 0 and
    min(len, m) residues from its first k, wrapped once at m, when m > 0.  One
    sort of the keys of every run groups each class, and its least length is
    the least level in its group.
    """
    if table.spec != spec:
        raise SpecError("ball table was enumerated for another spec")
    kappa = _kappa(spec, kappa)
    codec = table.codec
    # A nonzero modulus is at most any nonzero entry of Omega v^T + kappa, bounded over the ball here.
    reach = omega_apply(spec, tuple(codec.offsets[:-1]))
    classes = codec.with_last_digit(max(abs(x) + abs(y) for x, y in zip(reach, kappa)), "class keys of this ball")
    lo, hi, level = table.flat_runs
    body, digit = codec.split(lo)
    # the runs of one body are adjacent, so its modulus is read once, off its first run
    starts = np.flatnonzero(np.concatenate(([True], body[1:] != body[:-1])))
    m = np.repeat(_class_moduli(spec, codec, lo[starts], kappa), np.diff(starts, append=len(lo)))
    reduced = m > 0
    first = np.where(reduced, (digit - codec.offsets[-1]) % np.maximum(m, 1), digit)
    last = first + np.where(reduced, np.minimum(hi - lo, m - 1), hi - lo)
    # a residue run past m - 1 wraps to a second run from 0
    wraps = reduced & (last >= m)
    lo = np.concatenate((classes.join(body, first), classes.join(body[wraps], 0)))
    hi = np.concatenate((classes.join(body, np.where(wraps, m - 1, last)), classes.join(body, last - m)[wraps]))
    level = np.concatenate((level, level[wraps]))
    del body, digit, starts, m, reduced, first, last, wraps  # the per-key arrays below are the peak
    keys = run_keys(lo, hi)
    order = np.argsort(keys)
    keys = keys[order]
    levels = np.repeat(level, hi - lo + 1)[order]
    del order
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return ClassLengths(spec, classes, kappa, keys[first], np.minimum.reduceat(levels, first))


def _class_moduli(spec: GroupSpec, codec, keys: np.ndarray, kappa: Vector) -> np.ndarray:
    """class_modulus(abel, kappa) of every key, read off the digits: z slots give |kappa_z|."""
    m = np.full(len(keys), gcd(*kappa[: spec.s]), dtype=np.int64)
    for t, w in enumerate(spec.weights):
        a = spec.s + 2 * t
        m = np.gcd(m, np.gcd(w * codec.column(keys, a + 1) + kappa[a], w * codec.column(keys, a) - kappa[a + 1]))
    return m


def conjugacy_growth_exact(
    spec: GroupSpec,
    gens: GeneratingSet,
    n: int,
    budget: int | None = None,
) -> list[int]:
    """c(m) for m = 0..n: distinct class keys meeting the m-ball."""
    return class_lengths(spec, enumerate_ball(spec, gens, n, budget=budget)).counts(n)


# The orbit oracle refuses radii past this: it closes the (n+2)-ball under conjugation, one row per step.
ORACLE_MAX_RADIUS = 10


def conjugacy_growth_oracle(
    spec: GroupSpec,
    gens: GeneratingSet,
    n: int,
    budget: int | None = None,
) -> list[int]:
    """Brute-force counts: close the (n+2)-ball under conjugation by generators.

    Independent of class_key: orbits come from composed conjugation only.  The
    +2 margin lets same-class ball members connect through one-step detours
    (a single generator conjugation moves word length by at most 2).  The
    edges of g^-1 are those of g reversed, so one step of each pair {g, g^-1}
    is merged: the one above the identity (g > 0 in Mal'cev order).
    """
    if n < 0:
        raise SpecError("radius must be nonnegative")
    if n > ORACLE_MAX_RADIUS:
        raise SpecError(f"oracle guarded at radius {ORACLE_MAX_RADIUS}; asked for {n}")
    table = enumerate_ball(spec, gens, n + 2, budget=budget)
    steps = np.array([g for g in _step_set(spec, gens) if g > spec.identity()], dtype=object).reshape(-1, spec.ncoords)
    label = new_labels(len(table.keys))
    merge_conjugates(spec, table, label, affine_maps(spec, steps, inverse_array(spec, steps)))
    return cumulative_counts(part_lengths(label, table.lengths), n)


def central_ball_window(n: int) -> tuple[int, int]:
    """Bounds on #\\{k : |c^k| <= n\\} in H_r.

    Lower: commutator words [a^p, b^q] reach every |k| <= floor(n/4)^2 within
    length n.  Upper: a length-L word encloses area at most (L/4)^2.
    """
    lo = 2 * (n // 4) ** 2 + 1
    hi = 2 * (n * n // 16) + 1
    return lo, hi


@dataclass(frozen=True)
class BoundsReport:
    """Sandwich bounds for c_{H_r}(n); central_exact marks a BFS-exact beta_<c>."""

    n: int
    lower: int
    upper: int
    central_exact: bool


# The sandwich bounds count beta_<c> exactly by BFS up to this radius.
CENTRAL_EXACT_RADIUS = 12


def conjugacy_growth_bounds(
    spec: GroupSpec,
    radius: int,
    budget: int | None = None,
) -> list[BoundsReport]:
    """Sandwich bounds for n = 0..radius: beta_<c>(n) plus l1 gcd sums of radius n-2 and n.

    beta_<c> is BFS-exact up to CENTRAL_EXACT_RADIUS (one central_growth call)
    and the central_ball_window estimate beyond it; the gcd sums come from one sieve.
    """
    if spec.s != 0 or spec.r == 0 or any(d != 1 for d in spec.delta):
        raise SpecError("sandwich bounds are proven for H_r only (s=0, trivial D)")
    if radius < 0:
        raise SpecError("radius must be nonnegative")
    sums = l1_gcd_sums(2 * spec.r, radius, method="sieve", budget=budget)
    beta = central_growth(spec, standard_generating_set(spec), min(radius, CENTRAL_EXACT_RADIUS), budget=budget)
    reports = []
    for n in range(radius + 1):
        inner = sums[n - 2] if n >= 2 else 0
        exact = n <= CENTRAL_EXACT_RADIUS
        lo, hi = (beta[n], beta[n]) if exact else central_ball_window(n)
        reports.append(BoundsReport(n=n, lower=lo + inner, upper=hi + sums[n], central_exact=exact))
    return reports


@dataclass
class WindowReport:
    """Length-window audit: every class with abel != 0 has length in [|abel|_1, |abel|_1 + 2]."""

    n: int
    classes_checked: int
    violations: list[tuple[ConjClassKey, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def conjugacy_length_window_check(
    spec: GroupSpec,
    n: int,
    budget: int | None = None,
) -> WindowReport:
    if spec.s != 0 or spec.r == 0 or any(d != 1 for d in spec.delta):
        raise SpecError("length window is proven for H_r only (s=0, trivial D)")
    table = enumerate_ball(spec, standard_generating_set(spec), n, budget=budget)
    report = WindowReport(n=n, classes_checked=0)
    for key, length in class_lengths(spec, table).items():
        if length > n or all(x == 0 for x in key.abel):
            continue
        report.classes_checked += 1
        l1 = sum(abs(x) for x in key.abel)
        if not l1 <= length <= l1 + 2:
            report.violations.append((key, length, l1))
    return report


def direct_product_conjugacy_growth(
    spec_a: GroupSpec,
    spec_b: GroupSpec,
    n: int,
    budget: int | None = None,
) -> list[int]:
    """c_{AxB}(m) for m = 0..n, A x B generated by the union of the two standard generating sets.

    Word lengths add across the factors and a class of A x B is a pair of
    classes, so the classes meeting the m-ball are the pairs with la + lb <= m:
    A's class-length histogram convolved with B's cumulative counts, each
    factor counted on its own radius-n ball.
    """
    counts = [
        class_lengths(spec, enumerate_ball(spec, standard_generating_set(spec), n, budget=budget)).counts(n)
        for spec in (spec_a, spec_b)
    ]
    return np.convolve(np.diff(counts[0], prepend=0), counts[1])[: n + 1].tolist()


@dataclass
class EmbeddingReport:
    """Indices and verification flags for Gamma_1 <= H_D <= Gamma_2."""

    spec: GroupSpec
    gamma: tuple[int, ...]
    index_gamma1: int
    index_gamma1_formula: int
    index_gamma2: int
    index_gamma2_formula: int
    label_invariance_ok: bool
    reduction_ok: bool
    phi_relators_ok: bool
    phi_injective_ok: bool
    phi_homomorphism_ok: bool


def _coset_walk(spec: GroupSpec, moves: np.ndarray, canonical, budget: int | None) -> int:
    """How many cosets left multiplication by moves reaches from the identity's.

    canonical maps (rows, ncoords) arrays to their cosets' representatives, so
    the work is bounded by the index; the stored cosets go through the budget.
    """
    frontier = canonical(np.zeros((1, spec.ncoords), dtype=np.int64))
    seen = set(map(tuple, frontier.tolist()))
    while len(frontier):
        images = canonical(multiply_array(spec, moves[:, None], frontier).reshape(-1, spec.ncoords))
        fresh = set(map(tuple, images.tolist())) - seen
        seen |= fresh
        check_budget(len(seen), budget, "stored cosets of the coset walk")
        frontier = np.array(sorted(fresh), dtype=np.int64).reshape(-1, spec.ncoords)
    return len(seen)


def hd_embeddings(spec: GroupSpec, budget: int | None = None) -> EmbeddingReport:
    """Verify the two commensurability embeddings around H_D by coset enumeration.

    Gamma_1 = <a_t^{gamma_t}, b_t> with gamma_t = delta_{r-1}/w_t; its index is
    prod(gamma) * delta_{r-1}.  phi: a_t -> d_t^{w_t}, b_t -> e_t embeds H_D in
    H_r with index prod(delta).  Both indices are counted exactly, as the
    cosets the generators reach from the identity's; the radius-4 ball is the
    sample for the label, reduction and phi checks.
    """
    if spec.s != 0 or spec.r == 0:
        raise SpecError("embeddings are defined for H_D (s=0, r >= 1)")
    r = spec.r
    dmax = spec.weights[-1]  # delta_{r-1}; 1 when r = 1
    gamma = tuple(dmax // w for w in spec.weights)
    # each walk stores its formula index of cosets, charged before any array is built: a huge delta stops here
    # instead of overflowing int64 rows or walking far past the cap; one of KEY_LIMIT or more no walk can store
    for formula in (dmax * prod(gamma), prod(spec.weights)):
        check_budget(formula, budget, "stored cosets of the coset walk")
        if formula >= KEY_LIMIT:
            raise SpecError(f"embedding index {formula} of these weights is 2^62 or more: no coset walk can store it")
    gens = np.array(standard_generators(spec))
    gamma1_gens = np.concatenate((power_array(spec, gens[0::2], gamma), gens[1::2]))
    c_gamma1 = np.array(central_element(spec, dmax))

    def coset_label(y: np.ndarray) -> np.ndarray:
        """Coset invariant of y Gamma_1: a-coordinates mod gamma_t and k mod delta_{r-1}."""
        return np.concatenate((y[..., 0:-1:2] % gamma, y[..., -1:] % dmax), axis=-1)

    def reduce(y: np.ndarray) -> np.ndarray:
        """The canonical representative of y Gamma_1.

        Clear j with b_t, reduce i mod gamma_t with a_t^{gamma_t}, and reduce k
        mod delta_{r-1} with the Gamma_1 commutator [a_t^{gamma_t}, b_t] = c^{delta_{r-1}}.
        """
        for t in range(r):
            y = multiply_array(spec, y, power_array(spec, gens[2 * t + 1], -y[:, 2 * t + 1]))
            y = multiply_array(spec, y, power_array(spec, gamma1_gens[t], -(y[:, 2 * t] // gamma[t])))
        return multiply_array(spec, y, power_array(spec, c_gamma1, -(y[:, -1] // dmax)))

    x = enumerate_ball(spec, standard_generating_set(spec), 4, budget=budget).coords
    # label invariance under right multiplication by Gamma_1 generators and their inverses
    moves = np.concatenate((gamma1_gens, inverse_array(spec, gamma1_gens)))
    label_ok = bool((coset_label(multiply_array(spec, x[:, None], moves)) == coset_label(x)[:, None]).all())
    y = reduce(x)
    a, k = y[:, 0:-1:2], y[:, -1]
    reduction_ok = bool(
        (coset_label(y) == coset_label(x)).all()
        and not y[:, 1:-1:2].any()
        and ((0 <= k) & (k < dmax)).all()
        and ((0 <= a) & (a < gamma)).all()
    )
    index1 = _coset_walk(spec, gens, reduce, budget)

    # phi into H_r: coordinates (i_t, j_t, k) -> (w_t i_t, j_t, k)
    hr = make_group_spec(0, r, (1,) * (r - 1))
    scale = np.array([v for w in spec.weights for v in (w, 1)] + [1])
    # rows spread evenly over the whole ball, so the sample does not depend on the ball's order
    g, h = x[np.linspace(0, len(x) - 1, 58).astype(int), None], x[None, np.linspace(0, len(x) - 1, 37).astype(int)]
    hom_ok = bool((multiply_array(spec, g, h) * scale == multiply_array(hr, g * scale, h * scale)).all())
    phi_x = (x * scale)[np.lexsort((x * scale).T)]
    injective_ok = bool((phi_x[1:] != phi_x[:-1]).any(axis=1).all())  # sorted, so equal rows would be adjacent
    # the relators [x_p, x_q] = c^{omega_pq} hold for the generator images (phi fixes c)
    relators_ok = not broken_relators(hr, (gens * scale).tolist(), omega_form(spec))

    # index of phi(H_D) in Gamma_2 = H_r: labels are a-coordinates mod w_t
    def reduce2(y: np.ndarray) -> np.ndarray:
        out = np.zeros_like(y)
        out[:, 0:-1:2] = y[:, 0:-1:2] % spec.weights
        return out

    index2 = _coset_walk(hr, np.array(standard_generators(hr)), reduce2, budget)

    report = EmbeddingReport(
        spec=spec,
        gamma=gamma,
        index_gamma1=index1,
        index_gamma1_formula=dmax * prod(gamma),
        index_gamma2=index2,
        index_gamma2_formula=prod(spec.weights),
        label_invariance_ok=label_ok,
        reduction_ok=reduction_ok,
        phi_relators_ok=relators_ok,
        phi_injective_ok=injective_ok,
        phi_homomorphism_ok=hom_ok,
    )
    if (index1, index2) != (report.index_gamma1_formula, report.index_gamma2_formula):
        raise StructuralError(
            f"embedding index mismatch: Gamma_1 {index1} vs {report.index_gamma1_formula}, "
            f"Gamma_2 {index2} vs {report.index_gamma2_formula}"
        )
    if not (label_ok and reduction_ok and relators_ok and injective_ok and hom_ok):
        raise StructuralError("embedding verification failed")
    return report
