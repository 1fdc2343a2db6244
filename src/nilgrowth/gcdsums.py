"""Exact gcd sums over lattice balls and their zeta-ratio asymptotics.

Sums are exact integers, computed by two independent routes.

The direct route is plain enumeration, factored one axis at a time.  A
histogram hist[u, v] counts the partial points (over the axes folded so far)
whose used l1 radius is u and whose running gcd is v.  Folding an axis maps
each state through (u + |y|, gcd(v, |a + y|)) for every step y of that axis,
with exact int64 counts (a ball has fewer than 2^62 points).  The last axis is
closed instead of folded: with R[v, c] the sum of gcd(v, |a + y|) over its
steps y of cost c, each state (u, v) of count k adds k * R[v, c] to the sum at
norm u + c, for the norms inside the ball.  Every such product and sum is a
gcd sum over some of the ball's points, so at most points * (width - 1), and
int64 is exact while that stays below 2^63; past it the closing runs in
Python ints.  Both steps run over the histogram's support only, in blocks, so
a sparse histogram costs what it holds.  Cube axes cost nothing, so a cube is
a single row; an l1 ball of radius N keeps one row per exact norm u <= N, and
one pass gives S(0), ..., S(N).

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
FOLD_BLOCK = 1 << 14  # cells of one block of a fold or a closing; its temporaries stay near 128 KB each
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


def _totients(limit: int, budget: int | None) -> np.ndarray:
    """phi(0..limit) by a sieve over primes; the limit + 1 cells go through the budget."""
    check_budget(limit + 1, budget, "cells of the totient sieve")
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def _axis(lo: int, hi: int, shift: int, l1: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps y in [lo, hi] grouped by (cost, value) with their multiplicities, sorted by cost, then value.

    The value is |y + shift|; the cost is |y| on an l1 axis and 0 on a cube axis.
    One bincount over cost * width + value groups the pairs; its table has
    (largest cost + 1) * (largest value + 1) cells, within the histogram's.
    """
    ys = np.arange(lo, hi + 1, dtype=np.int64)
    costs = np.abs(ys) if l1 else np.zeros_like(ys)
    values = np.abs(ys + shift)
    width = int(values.max()) + 1
    mults = np.bincount(costs * width + values)
    pairs = np.flatnonzero(mults)
    return pairs // width, pairs % width, mults[pairs]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where the sorted array a starts a run of equal entries."""
    return np.concatenate(([True], a[1:] != a[:-1]))


def _fold(hist: np.ndarray, axis, budget: int | None) -> np.ndarray:
    """Fold one axis into hist[u, v], the count of partial points with used radius u and running gcd v.

    Each state moves to (u + cost, gcd(v, value)) for every axis entry; states
    whose used radius passes the last row drop out.  The states go in blocks
    of at most FOLD_BLOCK (state, entry) cells, each block's gcds computed
    directly and scattered with exact int64 adds.
    """
    costs, values, mults = axis
    rows, width = hist.shape
    flat = hist.ravel()
    support = np.flatnonzero(flat)
    check_budget(len(support) * len(values), budget, "cells of the gcd fold")
    used, gcd = np.divmod(support, width)
    out = np.zeros_like(flat)
    step = max(1, FOLD_BLOCK // len(values))
    for lo in range(0, len(support), step):
        block = slice(lo, lo + step)
        to_used = used[block, None] + costs
        keep = to_used < rows
        target = to_used * width + np.gcd(gcd[block, None], values)
        np.add.at(out, target[keep], (flat[support[block], None] * mults)[keep])
    return out.reshape(rows, width)


def _close(hist: np.ndarray, axis, dtype, budget: int | None) -> list[int]:
    """Close the last axis: entry m is the gcd sum over the points of used radius m.

    R[v, c] sums mult * gcd(v, value) over the axis's entries of cost c; it has
    a row per distinct running gcd and a column per cost, so no more cells than
    the histogram, and is built in blocks of at most FOLD_BLOCK gcd cells.
    Then the states, in order of used radius, go in blocks of at most
    FOLD_BLOCK (state, cost) cells: q[u, c] sums k * R[v, c] over a block's
    states (u, v) of count k, and entry u + c gains q[u, c] while u + c is in
    the ball; a q[u, c] past the ball is dropped, and in int64 it may have
    wrapped first.  That is no more work than folding the axis, and the
    fold's cells go through the budget.
    """
    costs, values, mults = axis
    rows, width = hist.shape
    flat = hist.ravel()
    support = np.flatnonzero(flat)
    check_budget(len(support) * len(values), budget, "cells of the gcd fold")
    used, gcd = np.divmod(support, width)
    distinct, row = np.unique(gcd, return_inverse=True)
    starts = np.flatnonzero(_run_starts(costs))
    cost = costs[starts]
    closing = np.empty((len(distinct), len(starts)), dtype)
    step = max(1, FOLD_BLOCK // len(values))
    for lo in range(0, len(distinct), step):
        table = np.gcd.outer(distinct[lo : lo + step], values).astype(dtype, copy=False)
        closing[lo : lo + step] = np.add.reduceat(table * mults, starts, axis=1)
    count = flat[support].astype(dtype, copy=False)
    per_norm = np.zeros(rows, dtype)
    step = max(1, FOLD_BLOCK // len(starts))
    for lo in range(0, len(support), step):
        block = slice(lo, lo + step)
        runs = np.flatnonzero(_run_starts(used[block]))
        q = np.add.reduceat(count[block, None] * closing[row[block]], runs, axis=0)
        to_used = used[block][runs, None] + cost
        keep = to_used < rows
        np.add.at(per_norm, to_used[keep], q[keep])
    return per_norm.tolist()


def _direct_sums(ranges: list[tuple[int, int, int]], l1: bool, points: int, budget: int | None) -> list[int]:
    """Entry u is the gcd sum over the points of used radius u; each range (lo, hi, shift) is one axis.

    Every axis but the last is folded into the histogram, and the last is
    closed (see _close).  A count is at most points; an entry of R is at most
    the axis's length, which is at most points, times width - 1; and a product
    or sum that is kept is a gcd sum over some of the ball's points.  So all
    are at most points * (width - 1): int64 is exact while that is below 2^63,
    and the closing runs in Python ints past it.
    """
    if points >= POINT_LIMIT:
        raise SpecError(f"ball has {points} points; the direct engine counts in int64 below 2^62")
    check_budget(points, budget, "points of the gcd ball")
    rows = 1 + max(max(-lo, hi) for lo, hi, _ in ranges) if l1 else 1
    width = 1 + max(max(abs(lo + shift), abs(hi + shift)) for lo, hi, shift in ranges)
    check_budget(rows * width, budget, "cells of the gcd histogram")
    axes = [_axis(lo, hi, shift, l1) for lo, hi, shift in ranges]
    hist = np.zeros((rows, width), dtype=np.int64)
    hist[0, 0] = 1
    for axis in axes[:-1]:
        hist = _fold(hist, axis, budget)
    return _close(hist, axes[-1], np.int64 if points * (width - 1) < 2**63 else object, budget)


def _box_sum(lo: list[int], hi: list[int], method: str, budget: int | None) -> int:
    """Exact sum of gcd(x) over the integer box lo <= x <= hi (lo <= hi), with gcd(0) = 0.

    sieve: sum_e phi(e) * (prod_p #multiples of e in [lo_p, hi_p], minus the
    zero point), over every e at once in Python ints.
    """
    if method == "direct":
        points = math.prod(h - l + 1 for l, h in zip(lo, hi))
        return _direct_sums([(l, h, 0) for l, h in zip(lo, hi)], False, points, budget)[0]
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
        per_norm = _direct_sums([(-n, n, a) for a in ball.offset], True, l1_ball_count(dim, n), budget)
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
    if norm == L1:
        per_radius = l1_gcd_sums(dim, radii[-1], method=method, budget=budget)
        sums = tuple(per_radius[n] for n in radii)
    else:
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
