"""Exact linear algebra against an independent oracle: sympy.Matrix.

Seeded rational matrices up to 8x8, square and not, of every kind the
elimination has to tell apart: dense (full rank), sparse (row swaps, and
often singular), rank-deficient and zero.
"""

import random
from fractions import Fraction

import pytest

from g2schubert.exactalg import (
    LinSystem,
    determinant,
    matrix_inverse,
    nullspace,
    rank,
    solve_linear,
)

sympy = pytest.importorskip("sympy")

SEED = 7207
KINDS = ("full", "sparse", "deficient", "zero")


def _entry(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _random_matrix(rng, m, n, kind):
    if kind == "zero":
        return [[Fraction(0)] * n for _ in range(m)]
    if kind == "full":
        return [[_entry(rng) for _ in range(n)] for _ in range(m)]
    if kind == "sparse":
        return [[_entry(rng) if rng.random() < 0.4 else Fraction(0)
                 for _ in range(n)] for _ in range(m)]
    # a product through an r-dimensional space has rank at most r < min(m, n)
    r = rng.randint(1, min(m, n) - 1) if min(m, n) > 1 else 0
    left = [[_entry(rng) for _ in range(r)] for _ in range(m)]
    right = [[_entry(rng) for _ in range(n)] for _ in range(r)]
    return [[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0))
             for j in range(n)] for i in range(m)]


def _cases():
    rng = random.Random(SEED)
    cases = []
    for m in range(1, 9):
        for n in range(1, 9):
            for kind in KINDS:
                cases.append((m, n, kind, _random_matrix(rng, m, n, kind)))
    return cases


CASES = _cases()


def _to_sympy(matrix):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in matrix])


def _to_fraction(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def _apply(matrix, vec):
    return [sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in matrix]


@pytest.mark.parametrize("kind", KINDS)
def test_rank_and_nullspace(kind):
    for m, n, k, a in CASES:
        if k != kind:
            continue
        oracle = _to_sympy(a)
        _, pivots = oracle.rref()
        assert rank(a) == len(pivots), (m, n)
        basis = nullspace(a)
        free = [c for c in range(n) if c not in pivots]
        assert len(basis) == len(free)
        for vec, col in zip(basis, free):
            assert all(x == 0 for x in _apply(a, vec))
            # a 1 in its own free column and 0 in every other free column
            assert [vec[c] for c in free] == [Fraction(c == col) for c in free]
        assert basis == [[_to_fraction(x) for x in v] for v in oracle.nullspace()]


@pytest.mark.parametrize("kind", KINDS)
def test_determinant_and_inverse(kind):
    for m, n, k, a in CASES:
        if k != kind or m != n:
            continue
        oracle = _to_sympy(a)
        det = _to_fraction(oracle.det())
        assert determinant(a) == det, n
        inv = matrix_inverse(a)
        assert (inv is None) == (det == 0), n
        if inv is not None:
            assert inv == [[_to_fraction(x) for x in oracle.inv().row(i)]
                           for i in range(n)]


@pytest.mark.parametrize("kind", KINDS)
def test_solve_linear(kind):
    rng = random.Random(SEED + 1)
    for m, n, k, a in CASES:
        if k != kind:
            continue
        oracle = _to_sympy(a)
        oracle_rank = oracle.rank()
        consistent = _apply(a, [_entry(rng) for _ in range(n)])
        arbitrary = [_entry(rng) for _ in range(m)]
        for b in (consistent, arbitrary):
            system = LinSystem(a, b)
            res = solve_linear(system)
            solvable = oracle.row_join(_to_sympy([[x] for x in b])).rank() == oracle_rank
            assert res.consistent == solvable, (m, n)
            if res.consistent:
                assert _apply(a, res.vector) == b
            else:
                assert res.verify(system)
