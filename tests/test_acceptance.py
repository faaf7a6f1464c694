"""Acceptance suite: one test per criterion, every check exact (tolerance 0).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import random
from fractions import Fraction

from g2schubert import cohomring as c
from g2schubert import octonion as o
from g2schubert import schubert as s
from g2schubert import weyl
from g2schubert.exactalg import MPoly

SEED = 20090
f = o.basis_vec

X1, X2 = s.X1, s.X2


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def _rand_oct(rng):
    vec = o.VecV([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(7)])
    return o.Oct(Fraction(rng.randint(-4, 4)), vec)


def test_criterion_01_octonion_table():
    ctx = o.standard_forms("f")
    assert ctx.mul_imag(f(2), f(3)) == o.Oct.imag(f(1))
    rng = random.Random(SEED)
    for _ in range(200):
        u, v = _rand_oct(rng), _rand_oct(rng)
        assert ctx.norm(ctx.mul(u, v)) == ctx.norm(u) * ctx.norm(v)
    _report(1, "f2 f3 = f1 and N(uv) = N(u) N(v) on 200 seeded pairs")


def test_criterion_02_bryant_form():
    ctx = o.standard_forms("f")
    res = o.bryant_form(ctx.gamma)
    assert res.bil.matrix == ctx.beta.matrix
    assert res.nondegenerate
    for p in range(7):
        for q in range(7):
            expected = 6 if p == q == 3 else (3 if p + q == 6 else 0)
            assert res.seven_coeffs[p][q] == expected
    assert res.bil(f(4), f(4)) == -2
    assert all(res.bil(f(p), f(8 - q)) == (-1 if p == q else 0)
               for p in range(1, 8) for q in range(1, 8)
               if not (p == 4 and q == 4))
    _report(2, "Bryant form equals the standard beta entry for entry, "
               "via integer seven-form coefficients")


def test_criterion_03_compatibility():
    ctx = o.standard_forms("f")
    rep = o.check_compatible(ctx.gamma, ctx.beta)
    assert rep.ok and rep.checked == 784
    perturbed = [list(row) for row in ctx.beta.matrix]
    perturbed[3][3] = Fraction(-1)
    bad = o.check_compatible(ctx.gamma, o.BilForm(perturbed))
    assert not bad.ok
    assert bad.counterexample is not None and bad.lhs != bad.rhs
    _report(3, "compatibility identity on the full spanning sample; "
               "perturbing beta(f4,f4) to -1 fails with a counterexample")


def test_criterion_04_isotropic_kernels():
    ctx = o.standard_forms("f")
    triples = o.fixed_point_triples(ctx)
    assert triples == {1: (1, 2, 3), 2: (2, 1, 5), 3: (3, 1, 6),
                       5: (5, 2, 7), 6: (6, 3, 7), 7: (7, 5, 6)}
    assert o.fixed_points(ctx) == [
        (1, 2), (1, 3), (2, 1), (2, 5), (3, 1), (3, 6),
        (5, 2), (5, 7), (6, 3), (6, 7), (7, 5), (7, 6)]
    for w in weyl.all_elements():
        assert weyl.extend_pair(w.pair[0], w.pair[1], triples) == w.perm
    _report(4, "kernel triples, the 12 fixed points, and the pair extension "
               "agree with the group embedding")


def test_criterion_05_big_cell():
    ctx = o.standard_forms("f")
    row1, row2 = o.big_cell_rows()
    assert any(isinstance(x, MPoly) for x in row1.coords)
    prod = ctx.mul(o.Oct.imag(row1), o.Oct.imag(row2))
    assert prod.is_zero()
    assert o._is_zero(ctx.beta(row1, row1))
    assert o._is_zero(ctx.beta(row2, row2))
    _report(5, "big-cell rows are isotropic with identically zero product "
               "over the polynomial ring")


def test_criterion_06_divided_differences():
    rng = random.Random(SEED + 6)

    def rand_poly():
        total = MPoly.zero()
        for _ in range(7):
            e1, e2 = rng.randint(0, 3), rng.randint(0, 3)
            total = total + MPoly.monomial(
                {"x1": e1, "x2": e2},
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        return total

    polys = [rand_poly() for _ in range(50)]
    op_s = s.ROOT_DICT.operator("s")
    op_t = s.ROOT_DICT.operator("t")
    for g in polys:
        assert s.div_diff("s", s.div_diff("s", g)).is_zero()
        assert s.div_diff("t", s.div_diff("t", g)).is_zero()
        lhs = rhs = g
        for ch in "ststst":
            lhs = s.div_diff(ch, lhs)
        for ch in "tststs":
            rhs = s.div_diff(ch, rhs)
        assert lhs == rhs
        assert op_s(g) == s.div_diff("s", g)
        assert op_t(g) == s.div_diff("t", g)
        assert s.div_diff("tv", g).subs({"v": MPoly.zero()}) == s.div_diff("t", g)
    _report(6, "d^2 = 0, braid relation, root-dictionary agreement, and "
               "twisted/untwisted consistency on 50 seeded polynomials")


def test_criterion_07_families():
    for kind in ("paper", "graham", "point"):
        fam = s.generate_family(kind)
        for w, p in fam.table.items():
            assert p.degree() == w.length and p.is_homogeneous()
            for letter in ("s", "t"):
                neighbor = w * weyl.element(letter)
                image = s.div_diff(letter, p)
                if neighbor.length < w.length:
                    assert image == fam.table[neighbor]
                else:
                    assert image.is_zero()
        assert (s.generate_family(kind, "ststst").table
                == s.generate_family(kind, "tststs").table)
    assert s.generate_family("paper")[""] == MPoly.one()
    assert s.generate_family("graham")[""] == MPoly.one()
    _report(7, "all three families satisfy the exhaustive length rule, "
               "degree counts, identity normalization, and longest-word "
               "independence")


def test_criterion_08_twisting():
    assert s.twist_substitution(s.top_class("paper")) == s.top_class("twisted")
    _report(8, "twist substitution of the top class matches the twisted "
               "closed form monomial for monomial")


def test_criterion_09_graham_identities():
    assert s.graham_product_form_check().ok
    rep = s.graham_integrality_identity()
    assert rep.ok
    assert rep.combo27_integral and not rep.combo_integral
    _report(9, "product form of the alternative top class and the "
               "equivariant 1/27 combination identity hold exactly")


def test_criterion_10_presentations(verified):
    expected_ranks = {"FlIntegralPoint": 12, "FlHalfPoint": 12,
                      "FlIntegralBundle": 12, "FlHalfBundle": 12,
                      "QuadricBundle3": 6}
    for name, rank in expected_ranks.items():
        _, rep = verified(name)
        assert rep.ok and rep.rank == rank, (name, rep.failures)
    fiber = c.quadric_bundle_fiber(3)
    assert fiber.reduce_poly(c.H ** 3 - 2 * c.F).is_zero()
    assert fiber.reduce_poly(c.F ** 2).is_zero()
    assert c.quadric_eg_rel_check().ok

    halfb = c.fl_half_bundle()
    paper = s.generate_family("paper")
    graham = s.generate_family("graham")
    point = s.generate_family("point")
    half = c.fl_half_point()
    zero = {"y1": MPoly.zero(), "y2": MPoly.zero()}
    for w in weyl.all_elements():
        assert halfb.reduce_poly(paper.table[w] - graham.table[w]).is_zero()
        assert (half.normal_form(paper.table[w].subs(zero))
                == half.normal_form(point.table[w]))
    _report(10, "five presentations verified at ranks 12/12/12/12/6, fiber "
                "specialization, the 2hf relation, and family agreement in "
                "the quotient rings")


def test_criterion_11_duality():
    fam = s.generate_family("point")
    pairing = c.duality_pairing(fam)
    w0 = weyl.longest()
    for u in weyl.all_elements():
        for w in weyl.all_elements():
            if u.length + w.length == 6:
                expected = Fraction(1) if (w0 * u) is w else Fraction(0)
            else:
                expected = Fraction(0)
            assert pairing[(u, w)] == expected
    _report(11, "the complementary-degree pairing is the permutation matrix "
                "u -> w0 u")


def test_criterion_12_impossibility_and_positivity():
    cert = s.impossibility_certificate()
    assert cert.verify()
    rows = {(tuple(r), v) for r, v in cert.equations}
    assert ((0, 0, 0, -1, -2), Fraction(0)) in rows
    assert ((0, 1, 1, 1, 1), Fraction(0)) in rows
    assert ((1, 0, 0, 0, -1), Fraction(0)) in rows
    assert ((1, 1, 0, -1, -1), Fraction(1, 2)) in rows
    assert s.forced_vanishing_is_certified()

    fam = s.generate_family("point")
    for w, poly in fam.table.items():
        res = s.positive_rewrite(poly, w.length)
        assert res.feasible and res.expansion() == poly
    neg = s.positive_rewrite(X1 * X2 - X1 ** 2, 2)
    assert not neg.feasible
    _report(12, "impossibility certificate reproduces the documented "
                "constraints; all 12 point classes rewrite positively and "
                "x1 x2 - x1^2 does not")
