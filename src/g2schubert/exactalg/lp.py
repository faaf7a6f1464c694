"""Exact linear-program feasibility over the rationals.

lp_feasible(matrix, rhs) decides whether {x : A x = b, x >= 0} is nonempty,
by a phase-1 simplex with Bland's rule (anti-cycling).  The answer is exact
either way: a feasible rational point, or a Farkas certificate y with
y^T A <= 0 componentwise and y^T b > 0; either answer's verify takes the
same (matrix, rhs).  Each simplex step is one pivot of the fraction-free
Gauss-Jordan kernel in linsolve, with the reduced-cost row as the last
tableau row: the tableau is kept as integers over one common denominator,
which each step replaces by its pivot.
The ratio test compares by cross-multiplication, and the point or the
multipliers are divided by the denominator once, at the end, and then
re-verified exactly against the input.  A float entry raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import List

from .linsolve import _integral_rows, _pivot, _unit
from .scalars import Rational, quotient


@dataclass(frozen=True)
class LpPoint:
    vector: List[Rational]

    @property
    def feasible(self) -> bool:
        return True

    def verify(self, matrix, rhs) -> bool:
        if any(x < 0 for x in self.vector):
            return False
        for row, b in zip(matrix, rhs):
            if sum(Fraction(r) * x for r, x in zip(row, self.vector)) != Fraction(b):
                return False
        return True


@dataclass(frozen=True)
class LpInfeasible:
    """Farkas certificate: y^T A <= 0 and y^T b > 0."""

    multipliers: List[Rational]

    @property
    def feasible(self) -> bool:
        return False

    def verify(self, matrix, rhs) -> bool:
        m = len(rhs)
        ncols = len(matrix[0]) if m else 0
        for j in range(ncols):
            if sum(self.multipliers[i] * Fraction(matrix[i][j])
                   for i in range(m)) > 0:
                return False
        return sum(self.multipliers[i] * Fraction(rhs[i])
                   for i in range(m)) > 0


def lp_feasible(matrix, rhs):
    """Exact feasibility of {matrix * x = rhs, x >= 0}; returns LpPoint or
    LpInfeasible."""
    if len(matrix) != len(rhs):
        raise ValueError("matrix and rhs size mismatch")
    m = len(rhs)
    n = len(matrix[0]) if m else 0
    if m == 0:
        return LpPoint(vector=[0] * n)
    rows, scales = _integral_rows(list(row) + [b] for row, b in zip(matrix, rhs))
    # rows with a negative rhs are negated, so the artificials start feasible
    signs = [-1 if row[n] < 0 else 1 for row in rows]

    # tableau columns: n problem vars, m artificials, then rhs; the last row
    # is the reduced cost of minimizing the sum of artificials:
    # r_j = c_j - 1^T tab_j, with c = 1 exactly on the artificial columns.
    # tab / denom is the tableau.  denom starts at the product of the row
    # scales, the determinant of the artificial basis of the scaled rows,
    # so every later entry is an integer; every pivot is positive, so denom
    # stays positive and an entry's sign is the sign of its tableau entry.
    denom = prod(scales)
    width = n + m
    tab = []
    for i, (row, sign, scale) in enumerate(zip(rows, signs, scales)):
        k = sign * (denom // scale)
        tab.append([k * x for x in row[:n]] + [denom * u for u in _unit(i, m)]
                   + [k * row[n]])
    tab.append([denom * (n <= j < width) - sum(row[j] for row in tab)
                for j in range(width + 1)])
    basis = [n + i for i in range(m)]

    while True:
        # Bland: the smallest index with a negative reduced cost enters
        enter = next((j for j in range(width) if tab[m][j] < 0), None)
        if enter is None:
            break
        # ratio test: the least tab[i][width] / tab[i][enter] over positive
        # tab[i][enter], compared by cross-multiplication
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                here = tab[i][width] * tab[leave][enter]
                best = tab[leave][width] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # phase-1 objective is bounded below by 0; cannot happen
            raise RuntimeError("phase-1 simplex became unbounded")
        denom = _pivot(tab, leave, enter, denom)
        basis[leave] = enter

    cost = tab[m]
    if cost[width] < 0:
        # the objective -cost[width] / denom is positive.  Duals: the
        # reduced cost of artificial i is 1 - y_i, so y_i = 1 - cost[n+i] / denom
        cert = LpInfeasible(multipliers=[quotient(sign * (denom - cost[n + i]), denom)
                                         for i, sign in enumerate(signs)])
        if not cert.verify(matrix, rhs):
            raise RuntimeError("internal error: invalid Farkas certificate")
        return cert

    x: List[Rational] = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = quotient(tab[i][width], denom)
    point = LpPoint(vector=x)
    if not point.verify(matrix, rhs):
        raise RuntimeError("internal error: invalid feasible point")
    return point
