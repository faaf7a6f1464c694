"""Exact linear algebra over the rationals.

One Gauss-Jordan kernel does all the elimination: _pivot makes one entry 1
and clears its column, and _reduce brings a matrix to reduced echelon form
with it, carrying any extra columns along.  solve_linear, nullspace, rank,
matrix_inverse and determinant each read their answer from one reduction,
and the simplex of lp_feasible pivots with _pivot.

solve_linear returns either a solution of A x = b or an inconsistency
certificate: a row vector y with y^T A = 0 and y^T b != 0, exhibiting the
contradiction 0 = y^T b as an explicit combination of the input rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


def _frac_matrix(rows) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


@dataclass(frozen=True)
class LinSystem:
    """A finite system of linear equations matrix * x = rhs."""

    matrix: Sequence[Sequence[Fraction]]
    rhs: Sequence[Fraction]

    def __post_init__(self):
        if len(self.matrix) != len(self.rhs):
            raise ValueError("matrix and rhs size mismatch")


@dataclass(frozen=True)
class LinSolution:
    vector: List[Fraction]

    @property
    def consistent(self) -> bool:
        return True


@dataclass(frozen=True)
class LinInconsistency:
    """Row combination proving 0 = value with value != 0."""

    combination: List[Fraction]
    value: Fraction

    @property
    def consistent(self) -> bool:
        return False

    def verify(self, sys: LinSystem) -> bool:
        m = len(sys.rhs)
        ncols = len(sys.matrix[0]) if m else 0
        for j in range(ncols):
            if sum(self.combination[i] * sys.matrix[i][j] for i in range(m)) != 0:
                return False
        total = sum(self.combination[i] * sys.rhs[i] for i in range(m))
        return total == self.value and self.value != 0


def _pivot(rows: List[List[Fraction]], r: int, c: int) -> None:
    """Scale row r so its entry in column c is 1, then clear column c from
    every other row."""
    inv = 1 / rows[r][c]
    top = rows[r] = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        factor = row[c]
        if i != r and factor != 0:
            rows[i] = [x - factor * y for x, y in zip(row, top)]


def _reduce(rows: List[List[Fraction]], ncols: int) -> Tuple[List[int], Fraction]:
    """Bring the first ncols columns of rows to reduced echelon form in place;
    any later columns are carried along.

    Column by column, the pivot is the first nonzero entry at or below the
    current row.  Returns the pivot columns and the product of the pivots,
    signed by the row swaps (the determinant when every column pivots).
    """
    pivots: List[int] = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        det *= rows[r][c]
        _pivot(rows, r, c)
        pivots.append(c)
    return pivots, det


def _identity(n: int) -> List[List[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def solve_linear(sys: LinSystem):
    """Solve an exact linear system.

    Returns LinSolution (free variables set to 0) or LinInconsistency.
    [A | b | I] is reduced on the columns of A, so the identity columns
    record which combination of the input rows each reduced row is.
    """
    m = len(sys.rhs)
    n = len(sys.matrix[0]) if m else 0
    rows = [row + [Fraction(b)] + tracker for row, b, tracker
            in zip(_frac_matrix(sys.matrix), sys.rhs, _identity(m))]
    pivots, _ = _reduce(rows, n)
    for row in rows[len(pivots):]:
        if row[n] != 0:
            return LinInconsistency(combination=row[n + 1:], value=row[n])
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return LinSolution(vector=x)


def nullspace(matrix) -> List[List[Fraction]]:
    """Basis of the kernel of a rational matrix, from the reduced echelon form.

    Basis vectors are indexed by the free columns; each has a 1 in its free
    column, so a coordinate-subspace kernel comes back as coordinate vectors.
    """
    a = _frac_matrix(matrix)
    n = len(a[0]) if a else 0
    pivots, _ = _reduce(a, n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, c in zip(a, pivots):
            vec[c] = -row[free]
        basis.append(vec)
    return basis


def rank(matrix) -> int:
    n = len(matrix[0]) if matrix else 0
    return len(_reduce(_frac_matrix(matrix), n)[0])


def matrix_inverse(matrix) -> Optional[List[List[Fraction]]]:
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(matrix)
    rows = [row + tracker for row, tracker
            in zip(_frac_matrix(matrix), _identity(n))]
    pivots, _ = _reduce(rows, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in rows]


def determinant(matrix) -> Fraction:
    """Exact determinant of a square rational matrix: the signed product of
    the pivots, or 0 when a column has no pivot."""
    n = len(matrix)
    pivots, det = _reduce(_frac_matrix(matrix), n)
    return det if len(pivots) == n else Fraction(0)
