"""Exact gcd sums over lattice balls and their zeta-ratio asymptotics.

Sums are exact integers, computed by two independent routes.

The direct route is plain enumeration, factored one axis at a time.  A
histogram hist[u, v] counts the partial points (over the axes folded so far)
whose used l1 radius is u and whose running gcd is v.  Folding an axis maps
each state through (u + |y|, gcd(v, |a + y|)) for every step y of that axis,
with exact int64 counts, and the sum is sum_v v * hist[u, v] as a Python int.
Cube axes cost nothing, so a cube is a single row; an l1 fold of radius N
leaves one row per exact norm u <= N, and one pass gives S(0), ..., S(N).

The sieve route never enumerates points.  gcd(x) = sum_{e | x} phi(e) for
x != 0 turns a ball sum into sum_e phi(e) * (#multiples of e in the ball,
minus the zero point).  For centred l1 balls the same identity gives
S(n) - S(n-1) = sum_{e | n} phi(e) * |sphere_l1(n / e)|, so one totient
sieve gives the whole sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import SpecError
from .words import check_budget

CUBE = "cube"
L1 = "l1"
FOLD_BLOCK = 1 << 14  # cells of one gcd table block in a fold; its temporaries stay near 128 KB each
POINT_LIMIT = 1 << 62  # int64 histogram counts stay exact below this many points


@dataclass(frozen=True)
class LatticeBallSpec:
    """A cubical or l1 ball in Z^dim, optionally translated by offset."""

    dim: int
    radius: int
    norm: str = CUBE
    offset: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise SpecError("dim must be >= 1")
        if self.radius < 0:
            raise SpecError("radius must be nonnegative")
        if self.norm not in (CUBE, L1):
            raise SpecError(f"norm must be {CUBE!r} or {L1!r}")
        if not self.offset:
            object.__setattr__(self, "offset", (0,) * self.dim)
        elif len(self.offset) != self.dim:
            raise SpecError("offset length must equal dim")


def l1_ball_count(dim: int, radius: int) -> int:
    """|B_l1(radius)| in Z^dim: sum_k 2^k C(dim,k) C(radius,k)."""
    if radius < 0:
        return 0
    return sum(
        (1 << k) * math.comb(dim, k) * math.comb(radius, k)
        for k in range(0, min(dim, radius) + 1)
    )


def cube_ball_count(dim: int, radius: int) -> int:
    return (2 * radius + 1) ** dim


def _check_points(points: int, budget: int | None) -> None:
    if points >= POINT_LIMIT:
        raise SpecError(f"ball has {points} points; the direct engine counts in int64 below 2^62")
    check_budget(points, budget, "points of the gcd ball")


def _totients(limit: int, budget: int | None) -> np.ndarray:
    """phi(0..limit) by a sieve over primes; the limit + 1 cells go through the budget."""
    check_budget(limit + 1, budget, "cells of the totient sieve")
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def _axis(lo: int, hi: int, shift: int, l1: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps y in [lo, hi] grouped by (cost, value) with their multiplicities.

    The value is |y + shift|; the cost is |y| on an l1 axis and 0 on a cube axis.
    """
    ys = np.arange(lo, hi + 1, dtype=np.int64)
    costs = np.abs(ys) if l1 else np.zeros_like(ys)
    pairs, mults = np.unique(np.stack([costs, np.abs(ys + shift)]), axis=1, return_counts=True)
    return pairs[0], pairs[1], mults


def _fold(hist: np.ndarray, axis, budget: int | None) -> np.ndarray:
    """Fold one axis into hist[u, v], the count of partial points with used radius u and running gcd v.

    Each state moves to (u + cost, gcd(v, value)) for every axis entry; states
    whose used radius passes the last row drop out.  The gcd table is built in
    row blocks of at most FOLD_BLOCK cells and scattered with exact int64 adds.
    """
    costs, values, mults = axis
    rows, width = hist.shape
    flat = hist.ravel()
    support = np.flatnonzero(flat)
    cells = len(support) * len(values)
    check_budget(cells, budget, "cells of the gcd fold")
    used, gcd = np.divmod(support, width)
    out = np.zeros_like(flat)
    step = max(1, FOLD_BLOCK // len(values))
    for lo in range(0, len(support), step):
        block = slice(lo, lo + step)
        # An l1 block repeats each gcd once per used radius: take each distinct row once.
        distinct, row = np.unique(gcd[block], return_inverse=True)
        to_used = used[block, None] + costs
        keep = to_used < rows
        target = to_used * width + np.gcd.outer(distinct, values)[row]
        np.add.at(out, target[keep], (flat[support[block], None] * mults)[keep])
    return out.reshape(rows, width)


def _direct_sums(axes: list, rows: int, budget: int | None) -> list[int]:
    """Fold every axis into the empty point; entry u is the gcd sum over points of used radius u."""
    width = 1 + max(int(values.max()) for _, values, _ in axes)
    check_budget(rows * width, budget, "cells of the gcd histogram")
    hist = np.zeros((rows, width), dtype=np.int64)
    hist[0, 0] = 1
    for axis in axes:
        hist = _fold(hist, axis, budget)
    return (hist.astype(object) @ np.arange(width, dtype=object)).tolist()


def _box_sum(lo: list[int], hi: list[int], method: str, budget: int | None) -> int:
    """Exact sum of gcd(x) over the integer box lo <= x <= hi (lo <= hi), with gcd(0) = 0.

    sieve: sum_e phi(e) * (prod_p #multiples of e in [lo_p, hi_p], minus the
    zero point), over every e at once in Python ints.
    """
    if method == "direct":
        _check_points(math.prod(h - l + 1 for l, h in zip(lo, hi)), budget)
        return _direct_sums([_axis(l, h, 0, l1=False) for l, h in zip(lo, hi)], 1, budget)[0]
    if method != "sieve":
        raise SpecError(f"unknown method {method!r}")
    limit = max(abs(x) for x in lo + hi)
    if limit == 0:
        return 0
    phi = _totients(limit, budget)
    e = np.arange(1, limit + 1, dtype=np.int64)
    counts = np.ones(limit, dtype=object)
    for l, h in zip(lo, hi):
        counts *= h // e - -(-l // e) + 1
    counts -= int(all(l <= 0 <= h for l, h in zip(lo, hi)))
    return int((phi[1:].astype(object) * counts).sum())


def l1_gcd_sums(
    dim: int,
    radius: int,
    offset: tuple[int, ...] = (),
    method: str = "direct",
    budget: int | None = None,
) -> list[int]:
    """[S(0), ..., S(radius)], where S(n) sums gcd(x + offset) over the l1 ball |x|_1 <= n.

    direct: one fold over (used radius, gcd) states gives the sum for every
    exact norm; offsets are allowed.  sieve: S(n) - S(n-1) is
    sum_{e | n} phi(e) * |sphere_l1(n / e)|, from one totient sieve; centred
    balls only.
    """
    ball = LatticeBallSpec(dim, radius, L1, tuple(offset))
    n = ball.radius
    if method == "direct":
        _check_points(l1_ball_count(dim, n), budget)
        per_norm = _direct_sums([_axis(-n, n, a, l1=True) for a in ball.offset], n + 1, budget)
        return list(accumulate(per_norm))
    if method != "sieve":
        raise SpecError(f"unknown method {method!r}")
    if any(ball.offset):
        raise SpecError("sieve engine does not support l1 balls with offsets")
    phi = _totients(n, budget)
    balls = [l1_ball_count(dim, k) for k in range(n + 1)]
    spheres = np.array([0] + [b - a for a, b in zip(balls, balls[1:])], dtype=object)
    steps = np.zeros(n + 1, dtype=object)
    for e in range(1, n + 1):
        steps[e::e] += int(phi[e]) * spheres[1 : n // e + 1]
    return list(accumulate(steps.tolist()))


def gcd_sum(ball: LatticeBallSpec, budget: int | None = None, method: str = "direct") -> int:
    """Exact sum of gcd(x) over the ball, with gcd(0,...,0) = 0."""
    if ball.norm == L1:
        return l1_gcd_sums(ball.dim, ball.radius, ball.offset, method=method, budget=budget)[-1]
    n = ball.radius
    return _box_sum([a - n for a in ball.offset], [a + n for a in ball.offset], method, budget)


def positive_cube_gcd_sum(dim: int, n: int, budget: int | None = None, method: str = "direct") -> int:
    """Exact sum of gcd over {1..n}^dim."""
    if dim < 1:
        raise SpecError("dim must be >= 1")
    if n < 1:
        return 0
    return _box_sum([1] * dim, [n] * dim, method, budget)


def expected_gcd(dim: int, n: int, budget: int | None = None, method: str = "direct") -> float:
    """Exact mean of gcd over the positive cube {1..n}^dim, returned as a float."""
    if dim < 2:
        raise SpecError("dim must be >= 2")
    if n < 1:
        raise SpecError("n must be >= 1")
    total = positive_cube_gcd_sum(dim, n, budget=budget, method=method)
    return float(Fraction(total, n**dim))


def zeta(s: float) -> float:
    """Riemann zeta for s >= 2, via partial sums with an Euler-Maclaurin tail.

    With N terms the remainder is N^{1-s}/(s-1) - N^{-s}/2 + s N^{-s-1}/12
    up to O(N^{-s-3}), far below the 1e-10 contract at N = 20000.
    """
    if s < 2:
        raise SpecError("zeta is only supported for s >= 2")
    n = 20000
    total = sum(k ** (-float(s)) for k in range(1, n + 1))
    total += n ** (1 - s) / (s - 1) - 0.5 * n ** (-float(s)) + s * n ** (-s - 1) / 12.0
    return total


@dataclass
class FitReport:
    """Normalized gcd-sum ratios along a radius schedule and their spread."""

    dim: int
    norm: str
    radii: tuple[int, ...]
    sums: tuple[int, ...]
    ratios: tuple[float, ...]
    drift: float
    constant_estimate: float
    theory_constant: float
    log_factor: bool = field(default=False)


def ball_volume_constant(dim: int, norm: str) -> Fraction:
    """Leading coefficient R of |B(n)| = R n^dim + O(n^{dim-1})."""
    if norm == CUBE:
        return Fraction(2**dim)
    return Fraction(2**dim, math.factorial(dim))


def gcd_sum_fit(
    dim: int,
    norm: str,
    radii,
    budget: int | None = None,
    method: str = "direct",
) -> FitReport:
    """Fit gcd sums against R n^2 log n (dim 2) or R n^dim (dim >= 3)."""
    radii = tuple(int(n) for n in radii)
    if len(radii) < 3 or any(a >= b for a, b in zip(radii, radii[1:])):
        raise SpecError("need at least 3 strictly increasing radii")
    if radii[0] < 2:
        raise SpecError("radii must start at 2 or more")
    sums = tuple(gcd_sum(LatticeBallSpec(dim, n, norm), budget=budget, method=method) for n in radii)
    r = float(ball_volume_constant(dim, norm))
    if dim == 2:
        ratios = tuple(s / (n * n * math.log(n)) for s, n in zip(sums, radii))
        theory = r / zeta(2)
        log_factor = True
    else:
        ratios = tuple(s / n**dim for s, n in zip(sums, radii))
        theory = r * zeta(dim - 1) / zeta(dim)
        log_factor = False
    mean = sum(ratios) / len(ratios)
    if mean == 0:
        raise SpecError("degenerate fit: zero ratios")
    drift = (max(ratios) - min(ratios)) / mean
    return FitReport(
        dim=dim,
        norm=norm,
        radii=radii,
        sums=sums,
        ratios=ratios,
        drift=drift,
        constant_estimate=ratios[-1],
        theory_constant=theory,
        log_factor=log_factor,
    )
