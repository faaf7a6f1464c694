"""Exact linear algebra over the rationals, on one Gauss-Jordan kernel.

The kernel is fraction-free (Bareiss, Math. Comp. 22, 1968).
_integral_rows scales each input row to integers once, by the lcm of its
denominators, with scalars.integral_multiple; every entry passes through
scalars.exact, so a float raises TypeError as it does in MPoly.  _pivot
takes one step on the pivot p in row r, column c: every other row i becomes

    (p * row_i - row_i[c] * row_r) / prev,

with prev the previous pivot (1 before the first step).  The division is
an exact integer division, because every entry is then a minor of the
scaled matrix.  _reduce brings a matrix to fraction-free reduced echelon
form with it, carrying any extra columns along.  Afterwards every pivot row
holds the last pivot in its pivot column, so the reduced echelon form is
the rows divided by that pivot, and a reader divides by it once.
solve_linear, nullspace, rank, matrix_inverse and determinant each read
their answer from one reduction, cohomring.schubert_expand reduces with
its right-hand sides carried as columns of coefficients, and the simplex
of lp_feasible pivots with _pivot.  Answers are int when integral and
Fraction otherwise, the rule of scalars.

solve_linear(matrix, rhs) returns either a solution of A x = b or an
inconsistency certificate: a row vector y with y^T A = 0 and y^T b != 0,
exhibiting the contradiction 0 = y^T b as an explicit combination of the
input rows.  The certificate's verify takes the same (matrix, rhs).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import List, Optional, Tuple

from .scalars import Rational, integral_multiple, quotient


@dataclass(frozen=True)
class LinSolution:
    vector: List[Rational]

    @property
    def consistent(self) -> bool:
        return True


@dataclass(frozen=True)
class LinInconsistency:
    """Row combination proving 0 = value with value != 0."""

    combination: List[Rational]
    value: Rational

    @property
    def consistent(self) -> bool:
        return False

    def verify(self, matrix, rhs) -> bool:
        m = len(rhs)
        ncols = len(matrix[0]) if m else 0
        for j in range(ncols):
            if sum(self.combination[i] * matrix[i][j] for i in range(m)) != 0:
                return False
        total = sum(self.combination[i] * rhs[i] for i in range(m))
        return total == self.value and self.value != 0


def _integral_rows(rows) -> Tuple[List[List[int]], List[int]]:
    """Each row as its integral multiple (scalars.integral_multiple), and
    the scales.  TypeError on a float entry."""
    out, scales = [], []
    for row in rows:
        row, scale = integral_multiple(row)
        out.append(row)
        scales.append(scale)
    return out, scales


def _pivot(rows: List[List[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free step on the pivot p = rows[r][c]: every other row
    i becomes (p * row_i - row_i[c] * row_r) / prev.  Returns p, the prev
    of the next step."""
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        factor = row[c]
        if factor:
            rows[i] = [(p * x - factor * y) // prev for x, y in zip(row, top)]
        elif p != prev:
            rows[i] = [p * x // prev for x in row]
    return p


def _reduce(rows: List[List[int]], ncols: int) -> Tuple[List[int], int, List[int]]:
    """Bring the first ncols columns of integer rows to fraction-free
    reduced echelon form in place; any later columns are carried along.

    Column by column, the pivot is the first nonzero entry at or below the
    current row.  Returns the pivot columns, the last pivot (1 when there
    is none; the reduced echelon form is the rows divided by it) and the
    row order: order[k] is the input index of the row now at position k.
    """
    pivots: List[int] = []
    last = 1
    order = list(range(len(rows)))
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            order[r], order[p] = order[p], order[r]
        last = _pivot(rows, r, c, last)
        pivots.append(c)
    return pivots, last, order


def _unit(i: int, n: int) -> List[int]:
    return [int(i == j) for j in range(n)]


def solve_linear(matrix, rhs):
    """Solve the exact linear system matrix * x = rhs.

    Returns LinSolution (free variables set to 0) or LinInconsistency.
    [A | b | I] is reduced on the columns of A, so the identity columns
    record which combination of the input rows each reduced row is.  A row
    left without a pivot is the last pivot times its input row's scale
    times the row of the rational reduction, so it is divided by both.
    """
    if len(matrix) != len(rhs):
        raise ValueError("matrix and rhs size mismatch")
    m = len(rhs)
    n = len(matrix[0]) if m else 0
    rows, scales = _integral_rows(list(row) + [b] + _unit(i, m) for i, (row, b)
                                  in enumerate(zip(matrix, rhs)))
    pivots, last, order = _reduce(rows, n)
    for row, i in zip(rows[len(pivots):], order[len(pivots):]):
        if row[n]:
            d = last * scales[i]
            return LinInconsistency(combination=[quotient(y, d) for y in row[n + 1:]],
                                    value=quotient(row[n], d))
    x: List[Rational] = [0] * n
    for row, c in zip(rows, pivots):
        x[c] = quotient(row[n], last)
    return LinSolution(vector=x)


def nullspace(matrix) -> List[List[Rational]]:
    """Basis of the kernel of a rational matrix, from the reduced echelon form.

    Basis vectors are indexed by the free columns; each has a 1 in its free
    column, so a coordinate-subspace kernel comes back as coordinate vectors.
    """
    a, _ = _integral_rows(matrix)
    n = len(a[0]) if a else 0
    pivots, last, _ = _reduce(a, n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = _unit(free, n)
        for row, c in zip(a, pivots):
            vec[c] = quotient(-row[free], last)
        basis.append(vec)
    return basis


def rank(matrix) -> int:
    n = len(matrix[0]) if matrix else 0
    return len(_reduce(_integral_rows(matrix)[0], n)[0])


def matrix_inverse(matrix) -> Optional[List[List[Rational]]]:
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(matrix)
    rows, _ = _integral_rows(list(row) + _unit(i, n) for i, row in enumerate(matrix))
    pivots, last, _ = _reduce(rows, n)
    if len(pivots) < n:
        return None
    return [[quotient(x, last) for x in row[n:]] for row in rows]


def determinant(matrix) -> Rational:
    """Exact determinant of a square rational matrix: the last pivot,
    signed by the row order and divided by the row scales, or 0 when a
    column has no pivot."""
    n = len(matrix)
    rows, scales = _integral_rows(matrix)
    pivots, last, order = _reduce(rows, n)
    if len(pivots) < n:
        return 0
    inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
    return quotient(-last if inversions % 2 else last, prod(scales))
