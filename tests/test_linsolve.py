"""Exact linear algebra against an independent oracle: sympy.Matrix.

Seeded rational matrices up to 8x8, square and not, of every kind the
elimination has to tell apart: dense (full rank), sparse (row swaps, and
often singular), rank-deficient and zero.  The LP verdicts are checked
against sympy's simplex on the Farkas dual, determinant signs against the
Leibniz formula, and every public function refuses a float.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from g2schubert.exactalg import (
    determinant,
    lp_feasible,
    matrix_inverse,
    nullspace,
    rank,
    solve_linear,
)

sympy = pytest.importorskip("sympy", exc_type=ImportError)

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
            res = solve_linear(a, b)
            solvable = oracle.row_join(_to_sympy([[x] for x in b])).rank() == oracle_rank
            assert res.consistent == solvable, (m, n)
            if res.consistent:
                assert _apply(a, res.vector) == b
            else:
                assert res.verify(a, b)


def _lp_cases():
    """Seeded problems up to 5x8 with entries of denominator 1 to 4; some
    repeat a row up to scale (degenerate), some hold an all-zero row, and
    zero right-hand sides make degenerate pivots."""
    rng = random.Random(SEED + 2)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    cases = []
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 8)
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        rhs = [entry() if rng.random() < 0.7 else Fraction(0) for _ in range(m)]
        shape = rng.random()
        if shape < 0.3 and m > 1:
            i, j = rng.sample(range(m), 2)
            k = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
            rows[j] = [k * x for x in rows[i]]
            rhs[j] = k * rhs[i]
        elif shape < 0.45:
            i = rng.randrange(m)
            rows[i] = [Fraction(0)] * n
            if rng.random() < 0.5:
                rhs[i] = Fraction(0)
        cases.append((rows, rhs))
    return cases


def _sympy_feasible(rows, rhs):
    """Feasibility by Farkas' lemma, on sympy's simplex: {A x = b, x >= 0}
    is empty exactly when some y in the box -1 <= y <= 1 has A^T y <= 0
    and b^T y > 0.  That dual starts feasible at y = 0, with y = u - v for
    u, v >= 0, so sympy's phase 1 never runs: on two of these problems it
    cycles when given the primal."""
    from sympy.solvers.simplex import linprog

    at = _to_sympy(rows).T
    m = at.cols
    eye, zero = sympy.eye(m), sympy.zeros(m, m)
    cone_and_box = sympy.Matrix.vstack(sympy.Matrix.hstack(at, -at),
                                       sympy.Matrix.hstack(eye, zero),
                                       sympy.Matrix.hstack(zero, eye))
    b = [sympy.Rational(x.numerator, x.denominator) for x in rhs]
    value, _ = linprog([-x for x in b] + b, A=cone_and_box,
                       b=[0] * at.rows + [1] * (2 * m))
    return value == 0


def test_lp_verdicts_match_sympy_simplex():
    verdicts = set()
    for rows, rhs in _lp_cases():
        res = lp_feasible(rows, rhs)
        assert res.feasible == _sympy_feasible(rows, rhs), (rows, rhs)
        assert res.verify(rows, rhs), (rows, rhs)
        verdicts.add(res.feasible)
    assert verdicts == {True, False}


def _leibniz(matrix):
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def test_determinant_sign_under_row_swaps_with_negative_pivots():
    # every leading entry but the last row's is 0 or negative, so each
    # ordering of the rows needs its own swaps and meets negative pivots
    a = [[0, -2, Fraction(1, 3), 1],
         [Fraction(-3, 2), 1, 0, -1],
         [0, 0, -5, Fraction(2, 5)],
         [Fraction(7, 4), -1, -1, 0]]
    det = _leibniz(a)
    assert det != 0
    for perm in permutations(range(4)):
        inversions = sum(x > y for k, x in enumerate(perm) for y in perm[k + 1:])
        permuted = [a[i] for i in perm]
        assert determinant(permuted) == (-det if inversions % 2 else det), perm


FLOAT_CALLS = {
    "determinant": lambda: determinant([[0.1, 0], [0, 1]]),
    "rank": lambda: rank([[1, 0.5]]),
    "nullspace": lambda: nullspace([[1, 0.5]]),
    "matrix_inverse": lambda: matrix_inverse([[0.5]]),
    "solve_linear": lambda: solve_linear([[1, 2]], [0.1]),
    "lp_feasible": lambda: lp_feasible([[0.5]], [0.1]),
}


@pytest.mark.parametrize("name", FLOAT_CALLS)
def test_a_float_entry_is_refused(name):
    with pytest.raises(TypeError, match="is a float"):
        FLOAT_CALLS[name]()
