"""Named verification suites.

Each suite re-derives a slice of the library's guarantees from scratch:
identities are checked exactly (tolerance zero), and randomized checks draw
from a seeded generator so runs are reproducible.  A randomized check of the
octonion, divdiff or families suite draws rationals, then runs on the
integral multiple d * u of its draw u, with d the lcm of the draw's
denominators (exactalg's integral_multiple, or MPoly.integral_multiple for a
polynomial), so its arithmetic is on ints.  A random octonion is built as
that multiple from the drawn numerators and denominators, as ints, with no
Fraction per coordinate (random_oct, by integral_multiple_of_ratios).  That
keeps the evidence: each identity it tests is homogeneous in the drawn
octonions (norm composition, the minimal equation, adjointness),
scale-invariant (the rank of a left multiplication, the norm-zero quadric)
or linear in the drawn polynomial (the divided differences, a ring
substitution), so it holds at u exactly when it holds at d * u.  The ring
suite's embedding classes are x1 times random integral combinations of the
basis, and their two sides are the same combinations of the sides of the
basis products (embedding_sides).
The library's helpers
return values or failing witnesses, and the suites here are the one place
where those become verdicts.  A check that ranges over cases (random draws,
group elements, pairs of them, the classes of a family) is recorded by
SuiteReport.check: it fails at the first case that does not hold, names
that case in its detail and draws no case past it, and a case that raises
fails that check alone.  A check with one verdict is recorded by
SuiteReport.add.  The CLI `verify` verb is a thin wrapper around run_suite.
A suite that raises outside a check keeps the checks it recorded and gains
one failed check naming the exception.
"""

from __future__ import annotations

import os
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod
from typing import Any, Callable, Dict, Iterable, List, Optional

from . import cohomring, octonion, schubert, weyl
from .exactalg import (
    MPoly,
    determinant,
    integral_multiple,
    integral_multiple_of_ratios,
    lp_feasible,
    rank,
    solve_linear,
)
from .exactalg.mpoly import addmul

DEFAULT_SEED = 20090


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: List[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.results.append(CheckResult(name, passed, detail))

    def check(self, name: str, cases: Iterable, holds: Callable[[Any], bool]):
        """Record name as passed when holds(case) is true for every case, in
        order, and otherwise as failed at the first case that is not, with
        no case drawn past it.  A case that raises, or the drawing of one,
        fails this check alone, naming the exception and the case."""
        case, drawing = None, True
        try:
            for case in cases:
                drawing = False
                if not holds(case):
                    return self.add(name, False, f"fails at {case}")
                drawing = True
        except Exception as exc:
            where = "while drawing a case" if drawing else f"at {case}"
            return self.add(name, False,
                            f"raised {type(exc).__name__}: {exc} {where}")
        self.add(name, True)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]


def random_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_mpoly(rng: random.Random, names, max_deg: int, n_terms: int,
                 integer: bool = False) -> MPoly:
    acc = {}
    for _ in range(n_terms):
        exps = {}
        budget = rng.randint(0, max_deg)
        for name in names:
            if budget <= 0:
                break
            e = rng.randint(0, budget)
            if e:
                exps[name] = e
                budget -= e
        coef = rng.randint(-9, 9) if integer else random_fraction(rng)
        addmul(acc, MPoly.monomial(exps, coef))
    return MPoly(acc)


def random_isotropic_vec(rng: random.Random) -> octonion.VecV:
    """A nonzero integral vector on the norm-zero quadric of the f-basis:
    N = -(u1 u7 + u2 u6 + u3 u5) - u4^2, so draw u2..u7 rational, solve for
    u1 with u7 != 0, and take the integral multiple."""
    while True:
        tail = [random_fraction(rng) for _ in range(6)]
        u2, u3, u4, u5, u6, u7 = tail
        if u7 == 0:
            continue
        u1 = -(u2 * u6 + u3 * u5 + u4 * u4) / u7
        return octonion.VecV(integral_multiple([u1] + tail)[0])


def random_oct(rng: random.Random) -> octonion.Oct:
    """The integral multiple of an octonion with 8 rational coordinates n/d,
    drawn scalar part first by the generator calls of random_fraction, and
    built from the drawn ints (integral_multiple_of_ratios)."""
    (re, *im), _ = integral_multiple_of_ratios(
        (rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8))
    return octonion.Oct(re, octonion.VecV(im))


def half_ring_embedding() -> Dict[str, MPoly]:
    """alpha -> half of prod (x1 - r) over the roots r = y1, y2, y1 - y2 of
    F3: the substitution that maps FlIntegralBundleY into FlHalfBundle."""
    roots = [cohomring.Y1, cohomring.Y2, cohomring.Y1 - cohomring.Y2]
    return {"alpha": Fraction(1, 2) * cohomring.chern_tensor_line(
        cohomring.chern_classes([-r for r in roots]), MPoly.var("x1"))}


def embedding_sides(source: cohomring.Presentation,
                    target: cohomring.Presentation, gen: str):
    """(b, direct, via_nf) for each basis monomial b of source: the images
    in target of m = gen * b under half_ring_embedding, reduced as they
    stand (direct) and after m is put in its normal form (via_nf).  The
    substitution is a ring map out of source exactly when the two sides
    agree for every generator gen and every b."""
    phi = half_ring_embedding()
    x = MPoly.var(gen)
    return [(b, target.reduce_poly((x * b).subs(phi)),
             target.reduce_poly(source.normal_form(x * b).as_poly().subs(phi)))
            for b in source.basis_polys()]


# ---------------------------------------------------------------------------

def suite_octonion(report: SuiteReport, rng: random.Random):
    ctx = octonion.standard_forms("f")
    f = octonion.basis_vec

    prod = ctx.mul_imag(f(2), f(3))
    report.add("f2*f3 = f1", prod == octonion.Oct.imag(f(1)))

    one = octonion.Oct.unit()
    report.check("e is a two-sided identity",
                 (octonion.Oct.imag(f(i)) for i in range(1, 8)),
                 lambda x: ctx.mul(one, x) == x and ctx.mul(x, one) == x)

    report.check("norm composition on 200 random pairs",
                 ((random_oct(rng), random_oct(rng)) for _ in range(200)),
                 lambda uv: ctx.norm(ctx.mul(*uv))
                 == ctx.norm(uv[0]) * ctx.norm(uv[1]))

    report.check("minimal equation on 100 random octonions",
                 (random_oct(rng) for _ in range(100)),
                 lambda u: (ctx.mul(u, u) - u.scale(ctx.bprime(u, one))
                            + one.scale(ctx.norm(u))).is_zero())

    def adjoint(uvw):
        u, v, w = uvw
        a = ctx.bprime(ctx.mul(u, v), w)
        return (a == ctx.bprime(v, ctx.mul(ctx.conjugate(u), w))
                == ctx.bprime(u, ctx.mul(w, ctx.conjugate(v))))
    report.check("adjointness of multiplication on 50 random triples",
                 ((random_oct(rng), random_oct(rng), random_oct(rng))
                  for _ in range(50)), adjoint)

    def zero_divisors(case):
        # an isotropic imaginary octonion, and one that is regular unless its
        # norm is zero
        iso, reg = case
        return (rank(octonion.left_mult_matrix(ctx, octonion.Oct.imag(iso))) < 8
                and (ctx.norm(reg) == 0
                     or rank(octonion.left_mult_matrix(ctx, reg)) == 8))
    report.check("zero divisors exactly at norm zero (rank check)",
                 ((random_isotropic_vec(rng), random_oct(rng)) for _ in range(25)),
                 zero_divisors)

    bil = octonion.bryant_form(ctx.gamma)
    report.add("Bryant form recovers the standard bilinear form",
               bil.matrix == ctx.beta.matrix and bil.is_nondegenerate())

    report.add(f"compatibility identity on {len(octonion.spanning_sample())} "
               "spanning pairs",
               octonion.check_compatible(ctx.gamma, ctx.beta) is None)

    perturbed = [[x for x in row] for row in ctx.beta.matrix]
    perturbed[3][3] = Fraction(-1)
    bad = octonion.check_compatible(ctx.gamma, octonion.BilForm(perturbed))
    report.add("perturbed beta(f4,f4) = -1 breaks compatibility",
               bad is not None)

    triples = octonion.fixed_point_triples()
    expected = {1: (1, 2, 3), 2: (2, 1, 5), 3: (3, 1, 6),
                5: (5, 2, 7), 6: (6, 3, 7), 7: (7, 5, 6)}
    want = {i: (i,) + tuple(sorted(expected[i][1:])) for i in expected}
    report.add("isotropic kernels give the six standard triples",
               triples == want)

    pts = octonion.fixed_points()
    report.add("12 distinct fixed points",
               len(pts) == 12 and len(set(pts)) == 12)

    lam = octonion.cross_lambda(ctx, f(1), f(2), f(3))
    lam_swap = octonion.cross_lambda(ctx, f(1), f(3), f(2))
    report.add("cross product scalar: (f1,f2,f3) -> 1, swapped -> -1",
               lam == 1 and lam_swap == -1)

    report.add("torus preserves both forms",
               octonion.torus_invariance_check(ctx) is None)

    row1, row2 = octonion.big_cell_rows()
    cell_prod = ctx.mul(octonion.Oct.imag(row1), octonion.Oct.imag(row2))
    report.add("big cell rows multiply to zero, symbolically",
               cell_prod.is_zero())
    report.add("big cell rows are isotropic",
               ctx.beta(row1, row1) == 0 and ctx.beta(row2, row2) == 0)

    ectx = octonion.standard_forms("e")
    e = octonion.basis_vec
    a, b, c = e(1), e(2), e(5)
    eight = [octonion.Oct.unit(), octonion.Oct.imag(a), octonion.Oct.imag(b),
             ectx.mul_imag(a, b), octonion.Oct.imag(c),
             ectx.mul(octonion.Oct.imag(a), octonion.Oct.imag(c)),
             ectx.mul(octonion.Oct.imag(b), octonion.Oct.imag(c)),
             ectx.mul(ectx.mul_imag(a, b), octonion.Oct.imag(c))]
    report.check("basic triple e1, e2, e5 gives an orthogonal basis",
                 ((i, j) for i in range(8) for j in range(i + 1, 8)),
                 lambda ij: ectx.bprime(eight[ij[0]], eight[ij[1]]) == 0)

    pushed_gamma, pushed_beta = octonion.push_forms_to_f()
    report.add("orthonormal-basis forms push to the isotropic-basis forms",
               pushed_gamma.coeffs == ctx.gamma.coeffs
               and pushed_beta.matrix == ctx.beta.matrix)


def suite_weyl(report: SuiteReport, rng: random.Random):
    els = weyl.all_elements()
    lengths = sorted(e.length for e in els)
    report.add("12 elements with lengths 0,1,1,...,6",
               lengths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6])
    report.add("pair map is injective",
               len({e.pair for e in els}) == 12)
    report.check("S7 embedding is a homomorphism (144 products)", product(els, els),
                 lambda uw: (uw[0] * uw[1]).perm
                 == tuple(uw[0].perm[uw[1].perm[i] - 1] for i in range(7)))
    report.check("w(i) + w(8-i) = 8 for all elements", els,
                 lambda e: all(e.perm[i] + e.perm[6 - i] == 8 for i in range(7)))
    report.check("Bruhat order matches the full dihedral Hasse diagram",
                 product(els, els), lambda uw: weyl.bruhat_leq(*uw)
                 == (uw[0] is uw[1] or uw[0].length < uw[1].length))
    triples = octonion.fixed_point_triples()
    report.check("pair extension agrees with the S7 embedding (12 elements)", els,
                 lambda e: weyl.extend_pair(*e.pair, triples) == e.perm)
    w63 = weyl.element((6, 3))
    report.add("element 6 3 extends to 6 3 7 4 1 5 2",
               w63.perm == (6, 3, 7, 4, 1, 5, 2)
               and weyl.extend_pair(6, 3, triples) == (6, 3, 7, 4, 1, 5, 2))
    report.add("rank function spot checks",
               weyl.rank_fn(weyl.identity(), 3, 2) == 2
               and weyl.rank_fn(w63, 2, 5) == 1
               and weyl.rank_fn(weyl.longest(), 1, 6) == 0)


def _random_x_polys(rng, count, max_deg=6, n_terms=6):
    return [random_mpoly(rng, ("x1", "x2"), max_deg, n_terms).integral_multiple()[0]
            for _ in range(count)]


def suite_divdiff(report: SuiteReport, rng: random.Random):
    polys = _random_x_polys(rng, 50)
    # d_s f and d_t f, shared by the three checks that apply one operator
    images = [{r: schubert.div_diff(r, f) for r in "st"} for f in polys]
    report.check("both operators square to zero (50 random polynomials)",
                 ((r, image[r]) for image in images for r in "st"),
                 lambda c: schubert.div_diff(*c).is_zero())

    def braid(image):
        # the first operator of each chain is read from images
        lhs, rhs = image["s"], image["t"]
        for ch in "tstst":
            lhs = schubert.div_diff(ch, lhs)
        for ch in "ststs":
            rhs = schubert.div_diff(ch, rhs)
        return lhs == rhs
    report.check("length-6 braid relation (50 random polynomials)", images, braid)

    xs = ("x1", "x2")
    report.check("root-dictionary operator matches the explicit ones",
                 ((r, f, image[r]) for f, image in zip(polys, images) for r in "st"),
                 lambda c: schubert.div_diff_generic(
                     c[1], weyl.simple_root(c[0], xs),
                     weyl.action(weyl.element(c[0]), xs)) == c[2])

    report.check("twisted operator at v = 0 is the untwisted one",
                 ((f, image["t"]) for f, image in zip(polys, images)),
                 lambda c: schubert.div_diff("tv", c[0]).subs({"v": MPoly.zero()})
                 == c[1])

    # the rightmost letter acts first, on a value held by images
    report.check("the two longest words give one operator (20 random)", images[:20],
                 lambda image: schubert.div_diff_word("ststs", image["t"])
                 == schubert.div_diff_word("tstst", image["s"]))

    parts = (part for f in polys
             for part in map(f.homogeneous_part, range(f.degree() + 1))
             if not part.is_zero())
    report.check("degree drops by exactly one (homogeneous inputs)",
                 ((kind, part) for part in parts for kind in "st"),
                 lambda c: (g := schubert.div_diff(*c)).is_zero()
                 or g.degree() == c[1].degree() - 1)

    report.add("examples: ds x1 = 1, ds x2 = -1, ds x1x2 = 0",
               schubert.div_diff("s", schubert.X1) == MPoly.one()
               and schubert.div_diff("s", schubert.X2) == MPoly.const(-1)
               and schubert.div_diff("s", schubert.X1 * schubert.X2).is_zero())
    report.add("examples: dt x1 = 0, dt (x1+x2) = 1",
               schubert.div_diff("t", schubert.X1).is_zero()
               and schubert.div_diff("t", schubert.X1 + schubert.X2) == MPoly.one())


def suite_families(report: SuiteReport, rng: random.Random):
    for kind in ("paper", "graham", "point"):
        fam = schubert.generate_family(kind)
        report.check(f"{kind}: deg P_w = l(w), homogeneous", fam.table.items(),
                     lambda wp: wp[1].degree() == wp[0].length
                     and wp[1].is_homogeneous())
        broken = schubert.length_rule_violation(fam.table)
        report.add(f"{kind}: divided differences act by the length rule "
                   "(all 12 x 2 cases)", broken is None,
                   "" if broken is None else f"fails at {broken[0].name} / {broken[1]}")
    for kind in ("paper", "graham"):
        fam = schubert.generate_family(kind)
        report.add(f"{kind}: P_id = 1", fam[""] == MPoly.one())

    for kind in ("paper", "graham", "point"):
        t1 = schubert.generate_family(kind, "ststst")
        t2 = schubert.generate_family(kind, "tststs")
        report.add(f"{kind}: both longest words generate the same table",
                   t1.table == t2.table)

    fam = schubert.generate_family("point")
    half = cohomring.fl_half_point()
    report.check("point family entries and the positivity-forced chain agree "
                 "as classes", schubert.FORCED_CHAIN.items(),
                 lambda wp: half.reduce_poly(fam[wp[0]] - wp[1]).is_zero())

    twisted = schubert.twist_substitution(schubert.top_class("paper"))
    report.add("twisting the top class matches the twisted closed form, "
               "monomial for monomial",
               twisted == schubert.top_class("twisted"))
    report.check("twist then untwist is the identity",
                 (random_mpoly(rng, ("x1", "x2", "y1", "y2"), 5, 8)
                  .integral_multiple()[0] for _ in range(20)),
                 lambda f: schubert.twist_substitution(
                     schubert.twist_substitution(f), "inverse") == f)

    diff = schubert.graham_product_form() - schubert.top_class("graham")
    report.add("product form of the alternative top class", diff.is_zero(),
               "" if diff.is_zero() else str(diff))

    v0 = schubert.remark_triple_cover_class().subs({"v": MPoly.zero()})
    report.add("triple-cover twist specializes at v = 0 to the alternative "
               "top class", v0 == schubert.top_class("graham"))

    chern = schubert.top_class("chern")
    c = cohomring.chern_classes([schubert.Y1, schubert.Y2, schubert.Y1 - schubert.Y2])
    sub = {f"c{i}F": c[i] for i in (1, 2, 3)}
    report.add("Chern-class form of the top class instantiates to the "
               "two-variable form", chern.subs(sub) == schubert.top_class("paper"))


def suite_ring(report: SuiteReport, rng: random.Random):
    for name in ("FlIntegralPoint", "FlHalfPoint", "FlIntegralBundle",
                 "FlHalfBundle"):
        pres = cohomring.get_presentation(name)
        failures = cohomring.verify_presentation(pres)
        report.add(f"{name}: rank {len(pres.basis)}, closure, associativity",
                   not failures, "; ".join(failures))

    point = cohomring.fl_integral_point()
    x1, alpha = MPoly.var("x1"), MPoly.var("alpha")
    nf = point.normal_form(x1 ** 3)
    report.add("integral point ring: x1^3 reduces to 2 alpha",
               nf.as_poly() == 2 * alpha)
    report.add("integral point ring: alpha^2 reduces to 0",
               point.normal_form(alpha ** 2).is_zero())

    half = cohomring.fl_half_point()
    report.add("half point ring: x1^6 reduces to 0",
               half.normal_form(x1 ** 6).is_zero())
    x2 = MPoly.var("x2")
    pt = half.normal_form(Fraction(1, 2) * x1 ** 5 * x2)
    report.add("half point ring: the point class is half the top monomial",
               not pt.is_zero() and pt.as_poly() == Fraction(1, 2) * x1 ** 5 * x2)

    halfb = cohomring.fl_half_bundle()
    paper = schubert.generate_family("paper")
    graham = schubert.generate_family("graham")
    report.check("both degeneracy-locus families agree in the half bundle ring "
                 "(12 classes)", weyl.all_elements(),
                 lambda w: halfb.reduce_poly(paper.table[w] - graham.table[w])
                 .is_zero())

    point_fam = schubert.generate_family("point")
    report.check("bundle family at y = 0 reduces to the point family "
                 "(12 classes)", weyl.all_elements(),
                 lambda w: half.normal_form(paper.table[w].subs(
                     {"y1": MPoly.zero(), "y2": MPoly.zero()}))
                 == half.normal_form(point_fam.table[w]))

    bundle = cohomring.fl_integral_bundle()
    c1s3 = -(MPoly.var("x1") + MPoly.var("x2")
             + (MPoly.var("x1") - MPoly.var("x2")))
    report.add("c1(S3) = -2 x1 identically", c1s3 == -2 * MPoly.var("x1"))
    c2s3 = (x1 ** 2 + x1 * x2 - x2 ** 2)
    claimed = 2 * x1 ** 2 + MPoly.var("c2F") - 2 * MPoly.var("y1") ** 2
    report.add("c2(S3) formula holds in the integral bundle ring",
               bundle.reduce_poly(c2s3 - claimed).is_zero())

    # embedding into the half-bundle ring: each class is x1 sum c_k b_k, so
    # by linearity its two sides are sum c_k of those of the x1 b_k
    sides = embedding_sides(cohomring.get_presentation("FlIntegralBundleY"),
                            halfb, "x1")
    diffs = [direct - via_nf for _, direct, via_nf in sides]
    ok = all(sum((rng.randint(-3, 3) * d for d in diffs), MPoly.zero()).is_zero()
             for _ in range(50))
    detail = "" if ok else next(
        f"x1 * {b}: {direct} directly, {via_nf} via its normal form"
        for b, direct, via_nf in sides if direct != via_nf)
    report.add("integral bundle ring embeds consistently in the half ring "
               "(50 random classes)", ok, detail)

    fam = schubert.generate_family("point")
    w0 = weyl.longest()
    # entry (u, w) is 1 when w = w0 u, and 0 otherwise
    report.check("Poincare pairing is the w -> w0 w permutation matrix",
                 cohomring.duality_pairing(fam).items(),
                 lambda c: c[1] == int(w0 * c[0][0] is c[0][1]))

    for cls, word, name in (
            (x1, "s", "x1 expands as the length-1 class of the first reflection"),
            (x1 + x2, "t", "x1 + x2 expands as the other length-1 class")):
        w = weyl.element(word)
        expand = cohomring.schubert_expand(cls, fam, cohomring.fl_half_point())
        report.check(name, expand.items(), lambda c: c[1] == int(c[0] is w))


def suite_equivariant(report: SuiteReport, rng: random.Random):
    eq = cohomring.fl_equivariant()
    failures = cohomring.verify_presentation(eq)
    report.add("Equivariant: rank 12, closure, associativity", not failures,
               "; ".join(failures))

    fam = schubert.generate_family("eq-paper")
    els = weyl.all_elements()
    nfs = {}
    ok_int = True
    try:
        for w in els:
            nfs[w] = eq.normal_form(fam.table[w])
    except cohomring.NonIntegralReduction:
        ok_int = False
    report.add("equivariant classes reduce integrally (no torsion)", ok_int)

    if ok_int:
        distinct = len({tuple(sorted((k, str(v)) for k, v in nf.coeffs.items()))
                        for nf in nfs.values()})
        report.add("the 12 equivariant normal forms are distinct",
                   distinct == 12)
        # triangular basis test: the degree-d coefficient block is the
        # identity once each family member is normalized
        dets = []
        for d in range(7):
            layer = [w for w in els if w.length == d]
            keys = [k for k in eq.basis if eq.key_degree(k) == d]
            mat = [[nfs[w].coeffs.get(k, MPoly.zero()).constant_value()
                    for w in layer] for k in keys]
            dets.append(determinant(mat))
        ok = all(abs(dv) == 1 for dv in dets)
        report.add("block-diagonal change of basis is unimodular "
                   "(Schubert classes are an integral basis)", ok,
                   f"dets: {[str(dv) for dv in dets]}")

    eq_graham = schubert.generate_family("eq-graham")
    half_cubes, combo27 = schubert.graham_integrality_identity()
    diff = half_cubes - Fraction(-1, 27) * sum(
        (c * eq_graham[word] for word, c in combo27.items()), MPoly.zero())
    report.add("equivariant combination identity for the half cube-sum",
               diff.is_zero(), "" if diff.is_zero() else str(diff))
    # decided by computation: 27 times the class expands with integral
    # coefficients, while the class itself has a normal form outside the
    # integral span, where every Schubert class lies
    expansion27 = cohomring.schubert_expand(27 * half_cubes, eq_graham, eq)
    try:
        cohomring.schubert_expand(half_cubes, eq_graham, eq)
        integral_class = True
    except cohomring.NonIntegralReduction:
        integral_class = False
    report.add("27 times the class has an integral expansion, the class "
               "itself does not",
               all(f.integral_multiple()[1] == 1 for f in expansion27.values())
               and not integral_class)

    lhs_t0 = Fraction(1, 2) * prod(schubert.graham_xi())
    rhs_t0 = Fraction(-1, 9) * eq_graham["tst"].subs(
        {"t1": MPoly.zero(), "t2": MPoly.zero()})
    report.add("t = 0 specialization of the identity", lhs_t0 == rhs_t0)

    # localization fingerprint: the restriction of the class of w at the
    # fixed point of v vanishes unless w <= v, and the diagonal value is the
    # signed product of the inversion roots; neither fact is used anywhere
    # in generating the tables, so this cross-validates the whole pipeline
    restriction = {(w, v): schubert.equivariant_restriction(fam.table[w], v)
                   for w, v in product(els, els)}

    def triangular(case):
        (w, v), value = case
        if weyl.bruhat_leq(w, v):
            return w is not v or not value.is_zero()
        return value.is_zero()
    report.check("fixed-point restrictions are Bruhat-triangular "
                 "(all 144 pairs)", restriction.items(), triangular)
    report.check("diagonal restrictions are signed inversion-root products", els,
                 lambda w: restriction[w, w] == prod(
                     weyl.inversion_roots(w), start=MPoly.const((-1) ** w.length)))

    if ok_int:
        coeffs = {w: random_mpoly(rng, ("t1", "t2"), 2, 2, integer=True)
                  for w in els[:4]}
        combo = sum((cw * fam.table[w] for w, cw in coeffs.items()), MPoly.zero())
        expansion = cohomring.schubert_expand(combo, fam, eq)
        report.check("expansion recovers random equivariant combinations", els,
                     lambda w: expansion.get(w, MPoly.zero())
                     == coeffs.get(w, MPoly.zero()))


def suite_impossibility(report: SuiteReport, rng: random.Random):
    cert = schubert.impossibility_certificate()
    farkas = ", ".join(str(m) for m in cert.farkas.multipliers)
    report.add("combined constraints are infeasible, certificate verifies",
               cert.verify(),
               "constraints: " + "; ".join(cert.equation_text())
               + f"; Farkas multipliers ({farkas})")

    def derivable(target_row, target_rhs):
        # the equations imply target_row . x = target_rhs iff they stay
        # consistent with it appended, and not with target_rhs + 1 instead
        return [solve_linear([list(target_row)] + cert.matrix, [v] + cert.rhs).consistent
                for v in (target_rhs, target_rhs + 1)] == [True, False]

    report.add("dt P = 0 forces d + 2e = 0 and b + c + d + e = 0",
               derivable((0, 0, 0, 1, 2), Fraction(0))
               and derivable((0, 1, 1, 1, 1), Fraction(0)))
    report.add("ds P = P_tst forces a = e and b - d = 1/2",
               derivable((1, 0, 0, 0, -1), Fraction(0))
               and derivable((0, 1, 0, -1, 0), Fraction(1, 2)))
    report.add("nonnegativity forces b = c = d = e = 0",
               schubert.forced_vanishing_is_certified())
    combo = ", ".join(str(x) for x in cert.linear.combination)
    report.add("after substitution the equations derive 0 = 1/2",
               cert.linear.value == Fraction(1, 2),
               f"row combination ({combo}) gives 0 = {cert.linear.value}")
    report.add("certificate uses the documented equation set",
               len({tuple(row) for row in cert.matrix}) == 4)


def suite_positivity(report: SuiteReport, rng: random.Random):
    fam = schubert.generate_family("point")
    report.check("all 12 point-family classes rewrite positively", fam.table,
                 lambda w: schubert.positive_rewrite(fam.table[w], w.length)
                 .feasible)

    x1, x2 = schubert.X1, schubert.X2
    neg = schubert.positive_rewrite(x1 * x2 - x1 ** 2, 2)
    report.add("x1 x2 - x1^2 is certified non-positive", not neg.feasible)
    pos = schubert.positive_rewrite(x1 ** 2, 2)
    report.add("x1^2 is its own positive rewrite",
               pos.feasible and pos.expansion() == x1 ** 2)

    rewrite = lp_feasible([[1, 1]], [1])
    report.add("simple feasibility sanity check", rewrite.feasible)
    bad = lp_feasible([[1]], [-1])
    report.add("x = -1, x >= 0 is infeasible with a verified certificate",
               (not bad.feasible) and bad.verify([[1]], [-1]))


def suite_quadric(report: SuiteReport, rng: random.Random):
    for name in ("QuadricBundle3", "QuadricBundle3Y", "QuadricBundle3Fiber"):
        pres = cohomring.get_presentation(name)
        failures = cohomring.verify_presentation(pres)
        report.add(f"{name}: rank {len(pres.basis)}, closure, associativity",
                   not failures, "; ".join(failures))

    fiber = cohomring.quadric_bundle_fiber(3)
    h, f = MPoly.var("h"), MPoly.var("f")
    report.add("fiber ring is Z[h,f]/(h^3 - 2f, f^2)",
               fiber.reduce_poly(h ** 3 - 2 * f).is_zero()
               and fiber.reduce_poly(f ** 2).is_zero())

    residue = cohomring.quadric_eg_residue()
    report.add("2hf equals the degree-4 Chern expansion after reduction",
               residue.is_zero(), "" if residue.is_zero() else str(residue))
    report.add("fiber specialization of the same identity",
               fiber.reduce_poly(2 * h * f - h ** 4).is_zero())

    c = cohomring.chern_classes([cohomring.Y1, cohomring.Y2])
    line = cohomring.Y1 - cohomring.Y2
    expected = (c[2] + c[1] * line + line ** 2)
    report.add("top Chern class of a line twist (rank 2)",
               cohomring.chern_tensor_line(c, line) == expected)

    quot = cohomring.quadric_quotient_chern()
    direct = cohomring.chern_classes(
        [-cohomring.Y1, -cohomring.Y2, -(cohomring.Y1 - cohomring.Y2),
         MPoly.zero()])
    report.add("c(V/F3) = (1-y1)(1-y2)(1-(y1-y2)) with c4 = 0",
               quot[:4] == direct[:4] and quot[4].is_zero())

    def round_trips(case):
        base, line = case
        total = (MPoly.one(), base[1] + line, base[2] + base[1] * line,
                 base[2] * line)
        return cohomring.chern_quotient(total, line) == base
    report.check("quotient Chern classes round-trip (10 random)",
                 ((cohomring.chern_classes([random_mpoly(rng, ("y1", "y2"), 1, 2)
                                            for _ in range(2)]),
                   random_mpoly(rng, ("y1", "y2"), 1, 2)) for _ in range(10)),
                 round_trips)


_SUITES: Dict[str, Callable[[SuiteReport, random.Random], None]] = {
    "octonion": suite_octonion,
    "weyl": suite_weyl,
    "divdiff": suite_divdiff,
    "families": suite_families,
    "ring": suite_ring,
    "equivariant": suite_equivariant,
    "impossibility": suite_impossibility,
    "positivity": suite_positivity,
    "quadric": suite_quadric,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: Optional[int] = None) -> SuiteReport:
    if seed is None:
        seed = DEFAULT_SEED
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: "
                         f"{', '.join(SUITE_NAMES)} or 'all'")
    report = SuiteReport(suite=name, seed=seed)
    try:
        _SUITES[name](report, random.Random(seed))
    except Exception as exc:
        # one failed check, so that the checks already recorded and the
        # other suites are still reported
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        report.add(f"{name} raised {type(exc).__name__}: {exc}", False,
                   f"at {os.path.basename(frame.filename)}:{frame.lineno} "
                   f"in {frame.name}")
    return report
