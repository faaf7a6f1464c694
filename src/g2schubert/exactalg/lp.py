"""Exact linear-program feasibility over the rationals.

Decides whether {x : A x = b, x >= 0} is nonempty, by a phase-1 simplex with
Bland's rule (anti-cycling) on exact Fractions.  The answer is exact either
way: a feasible rational point, or a Farkas certificate y with y^T A <= 0
componentwise and y^T b > 0.  Each simplex step is one pivot of the
Gauss-Jordan kernel in linsolve, with the reduced-cost row as the last
tableau row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .linsolve import _identity, _pivot


@dataclass(frozen=True)
class LpFeasibility:
    """Equality constraints matrix * x = rhs with x >= 0 componentwise."""

    matrix: Sequence[Sequence[Fraction]]
    rhs: Sequence[Fraction]

    def __post_init__(self):
        if len(self.matrix) != len(self.rhs):
            raise ValueError("matrix and rhs size mismatch")


@dataclass(frozen=True)
class LpPoint:
    vector: List[Fraction]

    @property
    def feasible(self) -> bool:
        return True

    def verify(self, prob: LpFeasibility) -> bool:
        if any(x < 0 for x in self.vector):
            return False
        for row, b in zip(prob.matrix, prob.rhs):
            if sum(Fraction(r) * x for r, x in zip(row, self.vector)) != Fraction(b):
                return False
        return True


@dataclass(frozen=True)
class LpInfeasible:
    """Farkas certificate: y^T A <= 0 and y^T b > 0."""

    multipliers: List[Fraction]

    @property
    def feasible(self) -> bool:
        return False

    def verify(self, prob: LpFeasibility) -> bool:
        m = len(prob.rhs)
        ncols = len(prob.matrix[0]) if m else 0
        for j in range(ncols):
            if sum(self.multipliers[i] * Fraction(prob.matrix[i][j])
                   for i in range(m)) > 0:
                return False
        return sum(self.multipliers[i] * Fraction(prob.rhs[i])
                   for i in range(m)) > 0


def lp_feasible(prob: LpFeasibility):
    """Exact feasibility of {A x = b, x >= 0}; returns LpPoint or LpInfeasible."""
    m = len(prob.rhs)
    n = len(prob.matrix[0]) if m else 0
    # rows with a negative rhs are negated, so the artificials start feasible
    signs = [Fraction(-1 if Fraction(rhs) < 0 else 1) for rhs in prob.rhs]
    a = [[s * Fraction(x) for x in row] for s, row in zip(signs, prob.matrix)]
    b = [s * Fraction(rhs) for s, rhs in zip(signs, prob.rhs)]
    if m == 0:
        return LpPoint(vector=[Fraction(0)] * n)

    # tableau columns: n problem vars, m artificials, then rhs; the last row
    # is the reduced cost of minimizing the sum of artificials:
    # r_j = c_j - 1^T tab_j, with c = 1 exactly on the artificial columns
    width = n + m
    tab = [row + unit + [rhs] for row, unit, rhs in zip(a, _identity(m), b)]
    tab.append([Fraction(1 if n <= j < width else 0) - sum(row[j] for row in tab)
                for j in range(width + 1)])
    basis = [n + i for i in range(m)]

    while True:
        # Bland: the smallest index with a negative reduced cost enters
        enter = next((j for j in range(width) if tab[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # phase-1 objective is bounded below by 0; cannot happen
            raise RuntimeError("phase-1 simplex became unbounded")
        _pivot(tab, leave, enter)
        basis[leave] = enter

    cost = tab[m]
    objective = -cost[width]
    if objective > 0:
        # duals: reduced cost of artificial i is 1 - y_i, so y_i = 1 - cost[n+i]
        y = [Fraction(1) - cost[n + i] for i in range(m)]
        cert = LpInfeasible(multipliers=[signs[i] * y[i] for i in range(m)])
        if not cert.verify(prob):
            raise RuntimeError("internal error: invalid Farkas certificate")
        return cert

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][width]
    point = LpPoint(vector=x)
    if not point.verify(prob):
        raise RuntimeError("internal error: invalid feasible point")
    return point
