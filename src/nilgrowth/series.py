"""Sequence-level analysis of growth data.

Two tools: exact quasi-polynomial detection (rational generating function
proxy) and asymptotic model selection between a n^d and a n^d log n.
Quasi-polynomial fitting is exact rational arithmetic; only the asymptotic
fits use floating point.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecError
from .words import growth_exponent_fit

Poly = tuple[Fraction, ...]  # coefficients, low degree first


def _strip(coeffs: list[Fraction]) -> Poly:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(p: Poly) -> int:
    return len(_strip(list(p))) - 1


def poly_eval(p: Poly, n: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * n + c
    return acc


def _interpolate(points: list[tuple[int, int]]) -> Poly:
    """Exact polynomial through the given (n, value) points (Lagrange)."""
    total = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xj
                nxt[k + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            total[k] += scale * c
    return _strip(total)


@dataclass(frozen=True)
class QuasiPolynomial:
    """value(n) = polys[n mod period](n) for all n >= threshold."""

    period: int
    threshold: int
    polys: tuple[Poly, ...]

    def evaluate(self, n: int) -> Fraction:
        if n < self.threshold:
            raise SpecError(f"defined for n >= {self.threshold}")
        return poly_eval(self.polys[n % self.period], n)

    @property
    def degree(self) -> int:
        return max(poly_degree(p) for p in self.polys)


def detect_quasi_polynomial(values, max_period: int, max_degree: int) -> QuasiPolynomial | None:
    """Smallest (period, threshold, degree) exact fit that survives a held-out tail.

    Each residue class is interpolated through its first degree+1 points at or
    beyond the threshold; every remaining point of the class (at least
    max_degree+2 of them) must match exactly, so near-misses never fit.
    """
    vals = [int(v) for v in values]
    length = len(vals)
    if max_period < 1 or max_degree < 0:
        raise SpecError("max_period must be >= 1 and max_degree >= 0")
    if length < (max_degree + 2) * max_period + 4:
        raise SpecError(
            f"need at least {(max_degree + 2) * max_period + 4} values, got {length}"
        )
    for period in range(1, max_period + 1):
        for threshold in range(length):
            for degree in range(max_degree + 1):
                polys = []
                for res in range(period):
                    ns = [n for n in range(threshold, length) if n % period == res]
                    if len(ns) < degree + 1 + max_degree + 2:
                        polys = None
                        break
                    fit_ns, rest = ns[: degree + 1], ns[degree + 1 :]
                    p = _interpolate([(n, vals[n]) for n in fit_ns])
                    if any(poly_eval(p, n) != vals[n] for n in rest):
                        polys = None
                        break
                    polys.append(p)
                if polys is not None:
                    return QuasiPolynomial(period=period, threshold=threshold, polys=tuple(polys))
    return None


@dataclass(frozen=True)
class AsymptoticModel:
    """Fitted a*n^d or a*n^d*log(n) with max relative deviation on the window."""

    family: str  # "poly_d" | "poly_d_log"
    degree: int
    constant: float
    residual: float
    window: tuple[int, int]


def select_asymptotic_model(values, window: tuple[int, int]) -> AsymptoticModel:
    """Best of {a n^d, a n^d log n} over integer d near the log-log slope.

    Fit is least squares in log space; the reported residual is the max
    relative deviation.  Ties break toward the plain power law.
    """
    lo, hi = window
    if lo < 2 or hi <= lo:
        raise SpecError("window must satisfy 2 <= lo < hi")
    if hi >= len(values):
        raise SpecError("window exceeds the data")
    ns = list(range(lo, hi + 1))
    vs = [values[n] for n in ns]
    if len(ns) < 6:
        raise SpecError("need at least 6 points")
    if any(not 0 < v <= sys.float_info.max for v in vs):
        raise SpecError("values must be positive and float-sized on the window")
    slope = growth_exponent_fit(values, window)
    logn = [math.log(n) for n in ns]
    logv = [math.log(v) for v in vs]
    degrees = sorted({d for d in range(math.floor(slope) - 1, math.ceil(slope) + 2) if d >= 0})
    if not degrees:
        degrees = [0]
    best = None
    for degree in degrees:
        for family in ("poly_d", "poly_d_log"):
            logb = [
                degree * x + (math.log(x) if family == "poly_d_log" else 0.0) for x in logn
            ]
            log_a = sum(y - b for y, b in zip(logv, logb)) / len(ns)
            try:
                a = math.exp(log_a)
                residual = max(abs(math.exp(log_a + b) / v - 1.0) for b, v in zip(logb, vs))
            except OverflowError:  # the constant or a model value leaves the float range
                continue
            if best is None or residual < best.residual:
                best = AsymptoticModel(
                    family=family, degree=degree, constant=a, residual=residual, window=(lo, hi)
                )
    if best is None:
        raise SpecError("no model stays within the float range on the window")
    return best


@dataclass(frozen=True)
class NonHolonomyReport:
    """The two desk-scale proxies: no exact quasi-polynomial, and a log factor.

    Holonomy is not decidable from finitely many coefficients; this pairs the
    rationality proxy (quasi-polynomial detection on exact counts) with the
    asymptotic model on large-radius data.
    """

    quasi_polynomial: QuasiPolynomial | None
    model: AsymptoticModel

    @property
    def witness(self) -> bool:
        return self.quasi_polynomial is None and self.model.family == "poly_d_log"


def non_holonomy_report(
    exact_values,
    asymptotic_values,
    window: tuple[int, int],
    max_period: int = 3,
    max_degree: int = 4,
) -> NonHolonomyReport:
    qp = detect_quasi_polynomial(exact_values, max_period, max_degree)
    model = select_asymptotic_model(asymptotic_values, window)
    return NonHolonomyReport(quasi_polynomial=qp, model=model)
