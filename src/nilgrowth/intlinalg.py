"""Small exact integer/rational linear algebra for automorphism analysis.

All matrices are tuples of row tuples of Python ints; everything is exact
(Fraction elimination, integer HNF), no floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import SpecError

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if p == q else 0 for q in range(n)) for p in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise SpecError("matrix size mismatch")
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def _rref(rows: list[list[Fraction]]):
    """Reduced row echelon form in place; returns pivot column list."""
    pivots = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((p for p in range(rank, len(rows)) if rows[p][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for p in range(len(rows)):
            if p != rank and rows[p][col] != 0:
                factor = rows[p][col]
                rows[p] = [x - factor * y for x, y in zip(rows[p], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return pivots


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +/-1."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(1 if p == q else 0) for q in range(n)] for p, row in enumerate(a)]
    pivots = _rref(rows)
    if len(pivots) < n:
        raise SpecError("matrix is singular")
    inv = []
    for p in range(n):
        out_row = rows[p][n:]
        if any(x.denominator != 1 for x in out_row):
            raise SpecError("matrix is not unimodular (non-integer inverse)")
        inv.append(tuple(int(x) for x in out_row))
    return tuple(inv)


def hermite_normal_form(a: Matrix) -> Matrix:
    """Row-style HNF (staircase pivots positive, entries above reduced).

    Zero rows are dropped; the row span is unchanged.
    """
    rows = [list(r) for r in a]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    top = 0
    for col in range(ncols):
        # euclidean elimination below the working row
        while True:
            nz = [p for p in range(top, nrows) if rows[p][col] != 0]
            if not nz:
                break
            p0 = min(nz, key=lambda p: abs(rows[p][col]))
            rows[top], rows[p0] = rows[p0], rows[top]
            done = True
            for p in range(top + 1, nrows):
                if rows[p][col] != 0:
                    q = rows[p][col] // rows[top][col]
                    rows[p] = [x - q * y for x, y in zip(rows[p], rows[top])]
                    if rows[p][col] != 0:
                        done = False
            if done:
                break
        if top < nrows and rows[top][col] != 0:
            if rows[top][col] < 0:
                rows[top] = [-x for x in rows[top]]
            for p in range(top):
                q = rows[p][col] // rows[top][col]
                if q:
                    rows[p] = [x - q * y for x, y in zip(rows[p], rows[top])]
            top += 1
    return tuple(tuple(r) for r in rows[:top])


def hnf_reduce(hnf: Matrix, v) -> tuple[int, ...]:
    """Canonical representative of v modulo the row span of an HNF matrix."""
    out = list(v)
    pivots = []
    for row in hnf:
        col = next(q for q, x in enumerate(row) if x != 0)
        pivots.append((col, row))
    for col, row in pivots:
        q = out[col] // row[col]
        if q:
            for p in range(len(out)):
                out[p] -= q * row[p]
    return tuple(out)
