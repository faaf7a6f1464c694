import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from g2schubert import checks
from g2schubert import octonion as o
from g2schubert.exactalg import GaussRat, MPoly

f = o.basis_vec
SEED = 31415


def rand_vec(rng):
    return o.VecV([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(7)])


def rand_oct(rng):
    return o.Oct(Fraction(rng.randint(-4, 4)), rand_vec(rng))


@pytest.fixture(scope="module")
def fctx():
    return o.standard_forms("f")


@pytest.fixture(scope="module")
def ectx():
    return o.standard_forms("e")


class TestStandardForms:
    def test_f_gamma_values(self, fctx):
        g = fctx.gamma
        assert g(f(1), f(4), f(7)) == 1
        assert g(f(2), f(3), f(7)) == -1
        assert g(f(1), f(5), f(6)) == -1
        assert g(f(2), f(3), f(1)) == 0

    def test_f_beta_values(self, fctx):
        b = fctx.beta
        assert all(b(f(p), f(q)) == (-2 if p == q == 4 else -1 if p + q == 8 else 0)
                   for p in range(1, 8) for q in range(1, 8))

    def test_e_gamma_value(self, ectx):
        assert ectx.gamma(f(1), f(2), f(3)) == 2

    def test_e_beta_orthonormal(self, ectx):
        assert all(ectx.beta(f(p), f(q)) == (2 if p == q else 0)
                   for p in range(1, 8) for q in range(1, 8))


class TestMixedScalars:
    """Equality and is_zero compare coordinates with ==, so a coordinate may
    be a Fraction, a constant MPoly or a GaussRat, mixed within one vector."""

    @pytest.mark.parametrize("lift", [Fraction, MPoly.const, GaussRat],
                             ids=["Fraction", "MPoly", "GaussRat"])
    def test_equal_across_scalar_types(self, lift):
        values = [Fraction(3, 2), 0, -1, 0, 0, 2, 0]
        v = o.VecV([lift(x) for x in values])
        assert v == o.VecV(values) and o.VecV(values) == v
        assert o.Oct(lift(5), v) == o.Oct(Fraction(5), o.VecV(values))
        assert v != o.VecV(values[:-1] + [1])
        assert o.Oct(lift(5), v) != o.Oct(Fraction(4), v)
        assert not v.is_zero()

    @pytest.mark.parametrize("lift", [Fraction, MPoly.const, GaussRat],
                             ids=["Fraction", "MPoly", "GaussRat"])
    def test_is_zero_across_scalar_types(self, lift):
        zero = o.VecV([lift(0)] * 7)
        assert zero.is_zero() and zero == o.zero_vec()
        assert o.Oct(lift(0), zero).is_zero()
        assert not o.Oct(lift(1), zero).is_zero()

    def test_mixed_within_one_vector(self):
        mixed = o.VecV([Fraction(0), MPoly.zero(), GaussRat(0), 0,
                        MPoly.const(2), GaussRat(2), Fraction(2)])
        assert mixed == f(5).scale(2) + f(6).scale(2) + f(7).scale(2)
        assert not mixed.is_zero()
        assert (mixed - mixed).is_zero()
        assert mixed != o.VecV([0, 0, 0, 0, 2, GaussRat(2, 1), 2])

    def test_polynomial_coordinates(self):
        a = MPoly.var("a")
        v = f(1).scale(a) + f(2)
        assert v == o.VecV([a, 1, 0, 0, 0, 0, 0])
        assert v != f(2)
        assert (v - f(1).scale(a)) == f(2)
        assert o.Oct(a - a, o.zero_vec()).is_zero()


@pytest.mark.parametrize("make", [
    lambda ctx: o.Oct.unit(),
    lambda ctx: ctx,
], ids=["Oct", "AlgebraCtx"])
def test_records_are_immutable(fctx, make):
    record = make(fctx)
    name = dataclasses.fields(record)[0].name
    with pytest.raises(AttributeError):
        setattr(record, name, None)


class TestDagger:
    def test_minus_f7_star(self, fctx):
        phi = [Fraction(0)] * 7
        phi[6] = Fraction(-1)
        assert fctx.beta.dagger(phi) == f(1)

    def test_f4_star(self, fctx):
        phi = [Fraction(0)] * 7
        phi[3] = Fraction(1)
        assert fctx.beta.dagger(phi) == f(4).scale(Fraction(-1, 2))

    def test_zero(self, fctx):
        assert fctx.beta.dagger([Fraction(0)] * 7).is_zero()

    def test_dagger_inverse(self, fctx):
        rng = random.Random(SEED)
        for _ in range(10):
            v = rand_vec(rng)
            phi = [fctx.beta(v, f(j)) for j in range(1, 8)]
            assert fctx.beta.dagger(phi) == v


class TestProduct:
    def test_full_basis_table(self, fctx):
        basis = [o.Oct.unit()] + [o.Oct.imag(f(i)) for i in range(1, 8)]
        table = [[fctx.mul(u, v) for v in basis] for u in basis]
        for i in range(8):
            for j in range(8):
                assert (fctx.norm(table[i][j])
                        == fctx.norm(basis[i]) * fctx.norm(basis[j]))
        # spot entries: f2 f3 = f1; f1 f7 = 1/2 e + 1/2 f4; squares of the
        # isotropic basis vectors vanish
        assert table[2][3] == o.Oct.imag(f(1))
        assert table[1][7] == o.Oct(Fraction(1, 2), f(4).scale(Fraction(1, 2)))
        for i in (1, 2, 3, 5, 6, 7):
            assert table[i][i].is_zero()

    def test_conjugate_and_norm(self, fctx):
        e = o.Oct.unit()
        assert fctx.conjugate(e) == e
        assert fctx.norm(e) == 1
        u = o.Oct.imag(f(3))
        assert fctx.conjugate(u) == -u
        assert fctx.norm(o.Oct.imag(f(1))) == 0
        assert fctx.norm(o.Oct.imag(f(1) + f(7))) == -1
        assert fctx.norm(o.Oct.imag(f(1) + f(4) - f(7))) == 0

    def test_u_ubar_is_norm(self, fctx):
        rng = random.Random(SEED + 3)
        for _ in range(25):
            u = rand_oct(rng)
            prod = fctx.mul(u, fctx.conjugate(u))
            assert prod == o.Oct.unit().scale(fctx.norm(u))

    def test_product_recovers_trilinear_form(self, fctx):
        # on imaginary elements, beta'(u v, w) is the trilinear form itself
        rng = random.Random(SEED + 14)
        for _ in range(25):
            u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
            lhs = fctx.bprime(fctx.mul_imag(u, v), o.Oct.imag(w))
            assert lhs == fctx.gamma(u, v, w)

    def test_anticommutator_is_minus_beta(self, fctx):
        rng = random.Random(SEED + 15)
        e = o.Oct.unit()
        for _ in range(25):
            u, v = rand_vec(rng), rand_vec(rng)
            anti = (fctx.mul_imag(u, v) + fctx.mul_imag(v, u))
            assert anti == e.scale(-fctx.beta(u, v))

class TestCompatibility:
    def test_f1_f7_pair(self, fctx):
        u, v = f(1), f(7)
        phi = fctx.gamma.functional(u, v)
        lhs = 2 * fctx.gamma(u, v, fctx.beta.dagger(phi))
        rhs = fctx.beta(u, u) * fctx.beta(v, v) - fctx.beta(u, v) ** 2
        assert lhs == rhs == -1

    def test_diagonal_pairs_trivially_zero(self, fctx):
        for i in range(1, 8):
            u = f(i)
            phi = fctx.gamma.functional(u, u)
            assert all(x == 0 for x in phi)
            assert fctx.beta(u, u) ** 2 == fctx.beta(u, u) * fctx.beta(u, u)

    def test_perturbed_beta_fails(self, fctx):
        bad = [list(row) for row in fctx.beta.matrix]
        bad[3][3] = Fraction(-1)
        u, v, lhs, rhs = o.check_compatible(fctx.gamma, o.BilForm(bad))
        assert lhs != rhs
        # the first sample pair whose gamma(u, v, .) is supported on f4, the
        # perturbed entry
        assert (u, v) == (f(1), f(7))


class TestBryant:
    def test_seven_form_integers(self, fctx):
        # the top-form coefficient of gamma_p ^ gamma_q ^ gamma is -3 beta_pq
        matrix = o.bryant_form(fctx.gamma).matrix
        for p in range(7):
            for q in range(7):
                if p == q == 3:
                    assert -3 * matrix[p][q] == 6
                elif p + q == 6:
                    assert -3 * matrix[p][q] == 3
                else:
                    assert -3 * matrix[p][q] == 0

    def test_zero_form_degenerate(self):
        bil = o.bryant_form(o.TriForm({}))
        assert all(x == 0 for row in bil.matrix for x in row)
        assert not bil.is_nondegenerate()

    @pytest.mark.parametrize("kind", ["f", "e", "zero", "random"])
    def test_matches_the_alternating_sum(self, kind):
        if kind in ("f", "e"):
            gamma = o.standard_forms(kind).gamma
        elif kind == "zero":
            gamma = o.TriForm({})
        else:
            rng = random.Random(SEED + 11)
            gamma = o.TriForm({t: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for t in itertools.combinations(range(1, 8), 3)
                               if rng.random() < 0.5})
        assert o.bryant_form(gamma).matrix == _bryant_by_alternation(gamma)

    def test_e_basis_form_is_minus_eight_beta(self, ectx):
        matrix = o.bryant_form(ectx.gamma).matrix
        assert matrix == tuple(tuple(-8 * x for x in row) for row in ectx.beta.matrix)
        assert all(matrix[p][p] == -16 for p in range(7))


def _bryant_by_alternation(gamma):
    """Bryant's form from its definition: the coefficient of f*_{1..7} in
    omega_p ^ omega_q ^ gamma is the alternating sum over S7 of
    omega_p (x) omega_q (x) gamma, divided by 2! 2! 3!; entry (p, q) is that
    coefficient divided by -3.  Gamma is read on basis indices straight from
    its stored coefficients, by sorting the index triple."""
    def value(a, b, c):
        triple = (a, b, c)
        if len(set(triple)) < 3:
            return 0
        inversions = sum(x > y for x, y in itertools.combinations(triple, 2))
        return (-1) ** inversions * gamma.coeffs.get(tuple(sorted(triple)), 0)

    dense = {t: value(*t) for t in itertools.product(range(1, 8), repeat=3)}
    signed = []
    for perm in itertools.permutations(range(1, 8)):
        g = dense[perm[4:]]
        if g != 0:
            inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
            signed.append((perm, (-1) ** inversions * g))
    matrix = []
    for p in range(1, 8):
        row = []
        for q in range(1, 8):
            top = sum(dense[(p,) + perm[:2]] * dense[(q,) + perm[2:4]] * g
                      for perm, g in signed)
            row.append(Fraction(top, 2 * 2 * 6) / -3)
        matrix.append(tuple(row))
    return tuple(matrix)


class TestBasisChangeMutants:
    """push_forms_to_f works on the doubled vectors 2 f_j; a wrong change of
    basis still shows, in its result or in its error."""

    def _patch_column(self, monkeypatch, j, column):
        columns = list(o._F_IN_E)
        columns[j] = column
        monkeypatch.setattr(o, "_F_IN_E", tuple(columns))

    def test_a_sign_flip_fails_the_push_check(self, monkeypatch, fctx):
        (i, half), rest = o._F_IN_E[0][0], o._F_IN_E[0][1:]
        self._patch_column(monkeypatch, 0, ((i, -half),) + rest)
        gamma, beta = o.push_forms_to_f()
        assert (gamma.coeffs, beta.matrix) != (fctx.gamma.coeffs, fctx.beta.matrix)
        failed = [r.name for r in checks.run_suite("octonion").results
                  if not r.passed]
        assert failed == ["orthonormal-basis forms push to the isotropic-basis forms"]

    def test_a_value_that_is_not_rational_is_shown_unscaled(self, monkeypatch):
        # f4 = e3 / 2 in place of i e3: gamma(f1, f4, f7) is -1/2 i, which
        # the doubled vectors give as -4 i
        self._patch_column(monkeypatch, 3, ((2, o._H),))
        with pytest.raises(ValueError) as info:
            o.push_forms_to_f()
        assert str(info.value) == "gamma(f1,f4,f7) = -1/2*i is not rational"


class TestKernels:
    def test_kernel_of_f1(self, fctx):
        kernel = o.isotropic_kernel(fctx, f(1))
        assert kernel == [f(1), f(2), f(3)]

    def test_kernel_of_f7(self, fctx):
        kernel = o.isotropic_kernel(fctx, f(7))
        assert kernel == [f(5), f(6), f(7)]

    def test_kernel_of_sum(self, fctx):
        u = f(1) + f(2)
        kernel = o.isotropic_kernel(fctx, u)
        assert len(kernel) == 3
        # u itself lies in its kernel
        mat = [[vec[j] for vec in kernel] for j in range(7)]
        from g2schubert.exactalg import solve_linear
        res = solve_linear(mat, list(u.coords))
        assert res.consistent

    def test_non_isotropic_rejected(self, fctx):
        with pytest.raises(o.NotIsotropic):
            o.isotropic_kernel(fctx, f(1) + f(7))

    def test_fixed_points_list(self, fctx):
        assert o.fixed_points() == [
            (1, 2), (1, 3), (2, 1), (2, 5), (3, 1), (3, 6),
            (5, 2), (5, 7), (6, 3), (6, 7), (7, 5), (7, 6)]

    def test_gamma_isotropic_implies_beta_isotropic(self, fctx):
        # the standard flag <f1> in <f1, f2>
        assert all(x == 0 for x in fctx.gamma.functional(f(1), f(2)))
        for u in (f(1), f(2), f(1) + f(2)):
            assert fctx.beta(u, u) == 0
        assert fctx.beta(f(1), f(2)) == 0


class TestCrossLambda:
    def test_symbolic_bilinearity(self, fctx):
        a, b, c = (MPoly.var(n) for n in ("a", "b", "c"))
        v = f(2).scale(a) + f(3).scale(b) + f(1).scale(c)
        lam = o.cross_lambda(fctx, f(1), v, f(3))
        assert lam == a

    def test_two_plane_criterion(self, fctx):
        # symbolic plane <v, w> in E_f1: v w = (b g - c e) f1, so the product
        # vanishes exactly when f1 lies in the plane
        a, b, c, d, e, g = (MPoly.var(n) for n in ("a", "b", "c", "d", "e", "g"))
        v = f(1).scale(a) + f(2).scale(b) + f(3).scale(c)
        w = f(1).scale(d) + f(2).scale(e) + f(3).scale(g)
        prod = fctx.mul_imag(v, w)
        assert prod.im == f(1).scale(b * g - c * e)
        assert prod.re == 0

    def test_not_proportional(self, fctx):
        with pytest.raises(o.NotProportional):
            o.cross_lambda(fctx, f(1), f(2), f(6))


class TestTorus:
    def test_weights(self):
        t1, t2 = MPoly.var("t1"), MPoly.var("t2")
        assert o.torus_weights() == (t1, t2, t1 - t2, MPoly.zero(),
                                     t2 - t1, -t2, -t1)

    def test_requires_f_basis(self, ectx):
        with pytest.raises(ValueError):
            o.torus_invariance_check(ectx)

    def test_gamma_triple_with_nonzero_weight(self, fctx):
        # weights t1 + t2 + (t1 - t2) on f1 ^ f2 ^ f3
        gamma = o.TriForm({**fctx.gamma.coeffs, (1, 2, 3): 1})
        ctx = o.AlgebraCtx(gamma, fctx.beta, "f")
        assert o.torus_invariance_check(ctx) == ("gamma", (1, 2, 3),
                                                 2 * MPoly.var("t1"))

    def test_beta_pair_with_nonzero_weight(self, fctx):
        # weights t1 + t2 on f1 f2; gamma is invariant, so beta is reached
        matrix = [list(row) for row in fctx.beta.matrix]
        matrix[0][1] = matrix[1][0] = 1
        ctx = o.AlgebraCtx(fctx.gamma, o.BilForm(matrix), "f")
        assert o.torus_invariance_check(ctx) == (
            "beta", (1, 2), MPoly.var("t1") + MPoly.var("t2"))


class TestBigCell:
    def test_origin_is_center(self, fctx):
        assert any(isinstance(x, MPoly) for x in o.big_cell_rows()[0].coords)
        row1, row2 = o.big_cell_rows([0] * 6)
        assert row1 == f(7) and row2 == f(6)
        assert fctx.mul_imag(row1, row2).is_zero()

    def test_single_parameter(self, fctx):
        row1, row2 = o.big_cell_rows([1, 0, 0, 0, 0, 0])
        assert row1 == o.VecV([0, 1, 0, 0, 0, 0, 1])
        assert fctx.mul_imag(row1, row2).is_zero()


def _left_mult_by_products(ctx, u):
    """The definition: column k is the product u b_k, taken with mul."""
    basis = [o.Oct.unit()] + [o.Oct.imag(f(k)) for k in range(1, 8)]
    cols = []
    for b in basis:
        img = ctx.mul(u, b)
        cols.append([img.re] + list(img.im.coords))
    return [[cols[k][j] for k in range(8)] for j in range(8)]


class TestLeftMultMatrix:
    """left_mult_matrix sums structure constants; the oracle takes the
    eight products u b_k."""

    @pytest.mark.parametrize("kind", ["f", "e"])
    def test_random_octonions(self, kind):
        ctx = o.standard_forms(kind)
        rng = random.Random(SEED + 7)
        for _ in range(20):
            u = o.Oct(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rand_vec(rng))
            assert o.left_mult_matrix(ctx, u) == _left_mult_by_products(ctx, u)

    def test_symbolic_big_cell_row(self, fctx):
        row1, row2 = o.big_cell_rows()
        for row in (row1, row2):
            u = o.Oct.imag(row)
            assert o.left_mult_matrix(fctx, u) == _left_mult_by_products(fctx, u)

    def test_products_taken_once_per_context(self, monkeypatch):
        ctx = o.standard_forms("f")
        calls = []
        real = o.AlgebraCtx.mul

        def counting(self, u, v):
            calls.append((u, v))
            return real(self, u, v)

        monkeypatch.setattr(o.AlgebraCtx, "mul", counting)
        u = rand_oct(random.Random(SEED))
        first = o.left_mult_matrix(ctx, u)
        assert len(calls) == 64
        calls.clear()
        assert o.left_mult_matrix(ctx, u) == first
        assert calls == []
