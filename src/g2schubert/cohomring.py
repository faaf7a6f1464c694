"""Quotient-ring presentations with finite monomial bases.

Each presentation carries oriented rewrite rules, all of the shape
"a pure power of one generator rewrites to lower terms".  Each ring is
stated once, and its variants are specializations: Presentation.specialize
substitutes values for base variables in every rule.

  FlIntegralPoint   Z[x1,x2,alpha] / (x2^2 -> x1 x2 - x1^2, x1^3 -> 2 alpha,
                                      alpha^2 -> 0)
  FlIntegralBundle  same generators over Z[y1, c1F..c3F, c1Q..c3Q]; its
                    specializations FlIntegralBundleY and Equivariant set
                    c_i(F3) = e_i(r), c_i(V/F3) = (-1)^i e_i(r) for the roots
                    r = y1, y2, y1-y2, or t1, t2, t1-t2 with y1 = t1
  FlHalfPoint       Z[1/2][x1,x2] / (x2^2, x1^6)
  FlHalfBundle      Z[1/2][x1,x2] over y1, y2 (FlHalfBundleT: over t1, t2);
                    the x1^6 rule states the degree-6 product relation
  QuadricBundle(n)  Z[h,f] over the Chern classes of a maximal isotropic
                    subbundle F and of V/F, n <= 3 (h^n and f^2 rewrite);
                    QuadricBundle3Y instantiates them in y1, y2, and
                    QuadricBundle(n)Fiber sets them to 0

Each presentation declares the degrees of its main variables (alpha has
cohomological degree 3, f has degree n, the rest 1), and everything else
follows from them and the rules.  Monomials are ordered by weighted degree,
then by the exponents of the rule variables in rule order.  The constructor
inter-reduces the rules in the order given: it reduces each right-hand side
by the rules before it, and solves a rule whose left-hand side comes back
with a constant coefficient c as lhs = rest / (1 - c), when 1 - c is a unit.
It rejects rules whose right-hand side is then not below the left-hand
side, so rewriting terminates, and the basis is the standard monomials.  The
multiplication table induced on the basis is closed and associative;
verify_presentation certifies that, which is what makes a normal form here a
genuine canonical form.  Multiplication by a main variable x_g is a
matrix on the basis, whose column at a standard key b is x^(b + e_g), or
the engine's normal form when b + e_g is a border key.  The certificate
checks that the engine's normal form at each pair key is a generator lower
times that generator's matrix, and that the matrices satisfy the rules and
commute, which forces every border column to be the true normal form; the
table is then the regular representation of a commutative ring, hence
associative (the commutation criterion for border bases: Mourrain 1999;
Kehrein, Kreuzer and Robbiano 2005).  Besides that proof, tests/test_oracle.py
checks the engine against sympy's Groebner bases at every border key.  Each
check is at most one matrix times one vector, a failure is the failing
check's own line, naming the monomials it read, and the engine memo keeps
only the keys of the table, the relations and the border.

Rewriting is linear over the base ring: every left-hand side is a power of a
main variable and the order reads only main exponents, so nf(b m) = b nf(m)
for a monomial b in the other variables.  Rewriting therefore runs on main
keys, the exponents of main_vars in order, the key type of the basis, the
top class and NormalForm.coeffs; a polynomial is regrouped by main key with
MPoly.split, and the exponent layout of MPoly stays inside mpoly.  The memo
maps a main key to its normal form as an MPoly, a rewrite carries each main
key's base coefficient {base part: coef} as one group, and reduce_poly calls
reduce_monomial once per distinct main key and adds its normal form, shifted
by each base part, with addmul (_apply).  One rewrite may produce at most
MAX_REWRITE_TERMS terms; past that it raises RewriteBudgetExceeded.

A total Chern class 1 + c_1 + ... + c_n is the tuple (1, c_1, ..., c_n) of
MPoly: index i holds c_i, and index 0 holds 1.  chern_classes builds it from
splitting roots; the catalogue's values of c1F..c3Q, chern_tensor_line and
chern_quotient all take that shape.

Integral presentations never divide: a normal form with a non-integer
coefficient means the input was not in the integral span, and is reported as
NonIntegralReduction rather than silently rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, product
from operator import add, mul
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import weyl
from .exactalg import MPoly, VARIABLES, quotient
from .exactalg.linsolve import _integral_rows, _reduce
from .exactalg.mpoly import ONE_KEY, addmul, key_terms
from .schubert import SchubertFamily

X1 = MPoly.var("x1")
X2 = MPoly.var("x2")
Y1 = MPoly.var("y1")
Y2 = MPoly.var("y2")
T1 = MPoly.var("t1")
T2 = MPoly.var("t2")
ALPHA = MPoly.var("alpha")
H = MPoly.var("h")
F = MPoly.var("f")


# Rewriting always terminates, but a high power in a bundle ring expands into
# more base monomials than fit in memory or time; one rewrite may produce at
# most this many terms.
MAX_REWRITE_TERMS = 300_000


class RewriteBudgetExceeded(ArithmeticError):
    """A rewrite would produce more than MAX_REWRITE_TERMS terms."""


class NonIntegralReduction(ArithmeticError):
    """Reduction of an input that is not in the integral span."""


class NotInSpan(ArithmeticError):
    """Schubert expansion target is outside the family's span."""


_RING_NAMES = {"Z": "Z", "Z_half": "Z[1/2]"}  # coefficient rings, as printed


def _in_ring(ring: str, q) -> bool:
    """Whether the rational q lies in Z, or in Z[1/2] for ring "Z_half"."""
    denom = q.denominator
    if ring == "Z_half":
        denom >>= (denom & -denom).bit_length() - 1
    return denom == 1


def _apply(column: Callable[[Tuple[int, ...]], MPoly], groups) -> MPoly:
    """M v for the matrix M with the columns column(key) and the vector v
    with the base coefficients groups {main key: terms}: the one sum of
    columns times base coefficients, which reduce_poly and the
    certificate's matrix products share.  Each column is fetched once."""
    acc = {}
    for key, group in groups.items():
        col = column(key)
        for base, c in key_terms(group).items():
            addmul(acc, col, c, base)
    return MPoly(acc)


@dataclass(frozen=True)
class Rule:
    """Rewrite var^power -> rhs."""

    var: str
    power: int
    rhs: MPoly


class Presentation:
    """A named quotient ring with rewrite rules and a finite monomial basis.

    `degrees` gives the degree of each main variable that is not 1, which
    fixes the rewrite order; `ring` is "Z" or "Z_half" (Z[1/2]).  ValueError
    unless every main variable has exactly one rule and every rule, once
    inter-reduced, has each right-hand side term below its left-hand side.
    The leading terms are then pairwise coprime pure powers, so the rules
    are a Groebner basis (Buchberger's first criterion) and the standard
    monomials, each exponent below its rule's power, are a basis.
    """

    def __init__(self, name: str, main_vars: Sequence[str],
                 base_vars: Sequence[str], rules: Sequence[Rule], ring: str,
                 expected_rank: int, degrees: Optional[Mapping[str, int]] = None):
        if ring not in _RING_NAMES:
            raise ValueError(f"{name}: unknown coefficient ring {ring!r}")
        self.name = name
        self.main_vars = tuple(main_vars)
        self.base_vars = tuple(base_vars)
        self.ring = ring
        self.expected_rank = expected_rank
        self.degrees = {v: (degrees or {}).get(v, 1) for v in self.main_vars}
        self._allowed = set(self.main_vars) | set(self.base_vars)
        rule_vars = [r.var for r in rules]
        if sorted(rule_vars) != sorted(self.main_vars):
            raise ValueError(f"{name}: need exactly one rule for each of "
                             f"{self.main_vars}, got {rule_vars}")
        # positions in a main key of the rule variables, in rule order
        self._order = tuple(map(self.main_vars.index, rule_vars))
        # rewrite with the rules so far; no shortcut before the top is known
        self._homogeneous, self._memo = False, {}
        self.rules, self._rule_idx = (), ()
        for rule in map(self._inter_reduce, rules):
            self.rules += (rule,)
            self._rule_idx += ((self.main_vars.index(rule.var), rule.power,
                                tuple(rule.rhs.split(self.main_vars).items())),)
        # fewest standard exponents outermost, so the basis lists the x2 = 0
        # (f = 0) block first, each block by degree
        power = {r.var: r.power for r in self.rules}
        nesting = sorted(self.main_vars, key=lambda v: (power[v], self.degrees[v]))
        slots = [nesting.index(v) for v in self.main_vars]
        self.basis: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(exps[i] for i in slots)
            for exps in product(*(range(power[v]) for v in nesting)))
        self.top = max(self.basis, key=self.key_degree)
        self._top_degree = self.key_degree(self.top)
        # homogeneous rules keep the degree, so nothing above the top survives
        self._homogeneous = all(self.key_degree(key) == r.power * self.degrees[r.var]
                                for r in self.rules for key in r.rhs.split(self.main_vars))

    def _inter_reduce(self, rule: Rule) -> Rule:
        """rule, its right-hand side reduced by the rules so far and solved
        for the left-hand side.  Memo entries that only some rules computed
        are not normal forms, so the memo is left empty."""
        lhs = MPoly.monomial({rule.var: rule.power})
        rhs = rule.rhs
        if any(map(self._find_rule, rhs.split(self.main_vars))):
            rhs = self.reduce_poly(rhs)
            self._memo.clear()
        c = rhs.coeff({rule.var: rule.power})
        if c:
            unit = Fraction(1 - c)
            if not (unit and _in_ring(self.ring, unit)
                    and _in_ring(self.ring, 1 / unit)):
                raise ValueError(
                    f"{self.name}: the rule for {lhs} gives it back with "
                    f"coefficient {c}, and 1 - {c} is not a unit of "
                    f"{_RING_NAMES[self.ring]}")
            rhs = (rhs - c * lhs) * (1 / unit)
        (lhs_key,) = lhs.split(self.main_vars)
        for key in rhs.split(self.main_vars):
            if self._heap_key(key) <= self._heap_key(lhs_key):
                raise ValueError(
                    f"{self.name}: {self._monomial(key)} is not below "
                    f"{rule.var}^{rule.power}, so rewriting need not terminate")
        return Rule(rule.var, rule.power, rhs)

    def specialize(self, name: str,
                   values: Mapping[str, "MPoly | int"]) -> "Presentation":
        """The same ring with `values` substituted into every rule.  Its base
        variables are the old ones that are not substituted, then those of
        the values, in VARIABLES order."""
        rules = [Rule(r.var, r.power, r.rhs.subs(values)) for r in self.rules]
        base_vars = [v for v in self.base_vars if v not in values]
        used = {v for value in values.values() if isinstance(value, MPoly)
                for v in value.variables()}
        base_vars += [v for v in VARIABLES if v in used and v not in base_vars]
        return Presentation(name, self.main_vars, base_vars, rules, self.ring,
                            self.expected_rank, self.degrees)

    def key_degree(self, key: Tuple[int, ...]) -> int:
        """Cohomological degree of the main monomial with exponents key."""
        return sum(map(mul, key, self.degrees.values()))

    def _monomial(self, key: Tuple[int, ...]) -> MPoly:
        """The main monomial with exponents key."""
        return MPoly.join(self.main_vars, {key: MPoly.one()})

    def _heap_key(self, key: Tuple[int, ...]):
        """The rewrite order, negated so that a min-heap pops the highest
        main monomial first."""
        return (-self.key_degree(key),) + tuple(-key[i] for i in self._order)

    def _find_rule(self, key: Tuple[int, ...]):
        for idx, power, rhs in self._rule_idx:
            if key[idx] >= power:
                return idx, power, rhs
        return None

    def reduce_monomial(self, key: Tuple[int, ...]) -> MPoly:
        """Normal form of the main monomial with exponents key, memoized.

        Rewriting is linear over the base ring, nf(b m) = b nf(m) for a base
        monomial b, so only main monomials are rewritten and memoized.
        """
        result = self._memo.get(key)
        if result is None:
            if self._homogeneous and self.key_degree(key) > self._top_degree:
                result = MPoly.zero()
            else:
                result = self._rewrite(key)
            self._memo[key] = result
        return result

    def _rewrite(self, key: Tuple[int, ...]) -> MPoly:
        # Rules and order read only main exponents, so pending maps each main
        # key to its base coefficient {base part: coef}.  Every rewrite step
        # yields strictly lower main monomials, so a main key popped from the
        # heap is never pushed again.
        memo = self._memo
        pending = {key: {ONE_KEY: Fraction(1)}}
        heap = [(self._heap_key(key), key)]
        done = {}
        terms = 0  # produced so far
        while heap:
            if terms > MAX_REWRITE_TERMS:
                raise RewriteBudgetExceeded(
                    f"{self.name}: rewriting {self._monomial(key)} produces more "
                    f"than MAX_REWRITE_TERMS = {MAX_REWRITE_TERMS} terms")
            m = heappop(heap)[1]
            coef = {base: c for base, c in pending.pop(m).items() if c}
            cached = memo.get(m)
            if cached is not None:
                terms += len(coef) * len(cached)
                for base, c in coef.items():
                    addmul(done, cached, c, base)
                continue
            hit = self._find_rule(m)
            if hit is None:
                terms += len(coef)
                addmul(done, MPoly.join(self.main_vars, {m: coef}))
                continue
            idx, power, rhs = hit
            rest = list(m)
            rest[idx] -= power
            for rmain, rterms in rhs:
                terms += len(coef) * len(rterms)
                k = tuple(map(add, rmain, rest))
                group = pending.get(k)
                if group is None:
                    group = pending[k] = {}
                    heappush(heap, (self._heap_key(k), k))
                for base, c in coef.items():
                    addmul(group, rterms, c, base)
        return MPoly(done)

    def reduce_poly(self, poly: MPoly) -> MPoly:
        """Rewrite to the (unique) irreducible representative: the normal
        form of each main key times its base coefficient."""
        return _apply(self.reduce_monomial, poly.split(self.main_vars))

    def check_variables(self, poly: MPoly):
        bad = ", ".join(v for v in poly.variables() if v not in self._allowed)
        if bad:
            raise ValueError(f"presentation {self.name} has no variable {bad}")

    def normal_form(self, poly: MPoly) -> "NormalForm":
        """Reduce and express on the basis; NonIntegralReduction if the result
        has coefficients outside the integral coefficient ring."""
        self.check_variables(poly)
        return self._on_basis(self.reduce_poly(poly))

    def _on_basis(self, reduced: MPoly) -> "NormalForm":
        """The reduced polynomial split onto the basis, after the check that
        its coefficients lie in the coefficient ring."""
        nf = NormalForm(self, {key: MPoly(group) for key, group in
                               reduced.split(self.main_vars).items()})
        for poly_c in nf.coeffs.values():
            for c in key_terms(poly_c).values():
                if type(c) is not int and not _in_ring(self.ring, c):
                    raise NonIntegralReduction(
                        f"{self.name}: coefficient {c} is outside the "
                        f"{_RING_NAMES[self.ring]} span")
        return nf

    def basis_polys(self) -> List[MPoly]:
        return [self._monomial(key) for key in self.basis]

    def mult_table(self) -> Dict[Tuple[int, int], "NormalForm"]:
        """Normal form of each product of two basis monomials, by index pair.

        A product of two basis monomials is one main monomial with
        coefficient 1, so each entry is the memoized normal form of its key
        (reduce_monomial) split onto the basis, with the check of
        normal_form that its coefficients lie in the coefficient ring.
        There is one NormalForm per product key, shared by every pair that
        reaches it; _check_associativity certifies the memo it is read from.

        Not kept on the presentation: every NormalForm refers back to it, so
        a stored table would make a reference cycle, and the presentation
        with its memo would outlive its last use until the cyclic garbage
        collector ran."""
        forms, table = {}, {}
        for i, j in product(range(len(self.basis)), repeat=2):
            key = tuple(map(add, self.basis[i], self.basis[j]))
            if key not in forms:
                forms[key] = self._on_basis(self.reduce_monomial(key))
            table[(i, j)] = forms[key]
        return table


class NormalForm:
    """A class written on the presentation's monomial basis; coefficients are
    polynomials in the base variables."""

    def __init__(self, presentation: Presentation,
                 coeffs: Mapping[Tuple[int, ...], MPoly]):
        self.presentation = presentation
        self.coeffs = dict(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return (self.presentation is other.presentation
                and self.coeffs == other.coeffs)

    def as_poly(self) -> MPoly:
        return MPoly.join(self.presentation.main_vars, self.coeffs)

    def __repr__(self):
        return f"NormalForm({self.presentation.name}: {self.as_poly()})"


# ---------------------------------------------------------------------------
# the catalogue

def fl_integral_point() -> Presentation:
    rules = [
        Rule("x2", 2, X1 * X2 - X1 ** 2),
        Rule("x1", 3, 2 * ALPHA),
        Rule("alpha", 2, MPoly.zero()),
    ]
    return Presentation("FlIntegralPoint", ("x1", "x2", "alpha"), (),
                        rules, "Z", 12, {"alpha": 3})


def fl_integral_bundle() -> Presentation:
    """The integral flag-bundle ring over the Chern classes of F3 and V/F3
    (c1F..c3Q), with y1 the first Chern class of F1."""
    c1f, c2f, c3f, c1q, c3q = (MPoly.var(v) for v in
                               ("c1F", "c2F", "c3F", "c1Q", "c3Q"))
    rules = [
        Rule("x2", 2, X1 * X2 - X1 ** 2 + 2 * Y1 ** 2 - c2f),
        Rule("x1", 3, 2 * ALPHA + c1f * X1 ** 2 - c2f * X1 + c3f),
        Rule("alpha", 2, (c3q + c1q * X1 ** 2) * ALPHA),
    ]
    return Presentation("FlIntegralBundle", ("x1", "x2", "alpha"),
                        ("y1", "c1F", "c2F", "c3F", "c1Q", "c2Q", "c3Q"),
                        rules, "Z", 12, {"alpha": 3})


def _flag_chern(roots: Sequence[MPoly]) -> Dict[str, MPoly]:
    """Values of c1F..c3Q when F3 splits with the given roots and V/F3 with
    their negatives."""
    sub, quot = chern_classes(roots), chern_classes([-r for r in roots])
    return {f"c{i}{b}": c[i] for i in (1, 2, 3) for b, c in (("F", sub), ("Q", quot))}


def fl_equivariant() -> Presentation:
    return fl_integral_bundle().specialize(
        "Equivariant", {"y1": T1, **_flag_chern([T1, T2, T1 - T2])})


def fl_half_point() -> Presentation:
    rules = [Rule("x2", 2, X1 * X2 - X1 ** 2), Rule("x1", 6, MPoly.zero())]
    return Presentation("FlHalfPoint", ("x1", "x2"), (), rules, "Z_half", 12)


def fl_half_bundle() -> Presentation:
    """Coefficients in Z[1/2][y1, y2], relations e_i(x1^2, x2^2, (x1-x2)^2)
    = e_i(y1^2, y2^2, (y1-y2)^2) for i = 1 and 3.  The degree-6 one is
    stated for x1^6, which its left side holds once x2^2 is rewritten."""
    x2_rule = Rule("x2", 2, X1 * X2 - X1 ** 2 + Y1 ** 2 + Y2 ** 2 - Y1 * Y2)
    x1_rule = Rule("x1", 6, X1 ** 6 - (X1 * X2 * (X1 - X2)) ** 2
                   + (Y1 * Y2 * (Y1 - Y2)) ** 2)
    return Presentation("FlHalfBundle", ("x1", "x2"), ("y1", "y2"),
                        [x2_rule, x1_rule], "Z_half", 12)


def quadric_bundle(n: int = 3) -> Presentation:
    """The Chow ring of a quadric bundle of odd rank 2n+1 with a maximal
    isotropic subbundle F (and trivial F-perp/F class), over the Chern
    classes c1F..cnF of F and c1Q..cnQ of V/F, n <= 3.  Rank 2n, basis h^i
    and f h^i for 0 <= i < n.  For even n the f^2 rule holds h^n f, which
    the h rule turns into 2 f^2 + ...; the constructor solves for f^2."""
    if not 1 <= n <= 3:
        raise ValueError("symbolic Chern classes are available for 1 <= n <= 3")
    base_vars = tuple(f"c{i}{b}" for b in "FQ" for i in range(1, n + 1))
    c_sub, c_quot = ([MPoly.one()] + [MPoly.var(f"c{i}{b}") for i in range(1, n + 1)]
                     for b in "FQ")
    # h^n = 2f + c1(F) h^(n-1) - c2(F) h^(n-2) + ...
    h_rhs = 2 * F + sum(((-1) ** (i + 1) * c_sub[i] * H ** (n - i)
                         for i in range(1, n + 1)), MPoly.zero())
    # f^2 = (c_n(V/F) + c_{n-2}(V/F) h^2 + ...) f, where c_0(V/F) = 1
    f_factor = sum((c_quot[k] * H ** (n - k) for k in range(n, -1, -2)),
                   MPoly.zero())
    rules = [Rule("h", n, h_rhs), Rule("f", 2, f_factor * F)]
    return Presentation(f"QuadricBundle{n}", ("h", "f"), base_vars, rules,
                        "Z", 2 * n, {"f": n})


def quadric_bundle_fiber(n: int = 3) -> Presentation:
    """QuadricBundle(n) with every Chern class 0."""
    bundle = quadric_bundle(n)
    return bundle.specialize(f"QuadricBundle{n}Fiber",
                             dict.fromkeys(bundle.base_vars, 0))


def quadric_quotient_chern() -> Tuple[MPoly, ...]:
    """c(V/F3) for the flag-bundle geometry: the total Chern class of the
    rank-7 bundle with isotropic splitting roots y1, y2, y1-y2, 0 and their
    negatives, with the three isotropic roots divided out; equals
    (1-y1)(1-y2)(1-(y1-y2)) with c4 = 0."""
    isotropic = (Y1, Y2, Y1 - Y2)
    c = chern_classes(isotropic + (MPoly.zero(),) + tuple(-r for r in isotropic))
    for root in isotropic:
        c = chern_quotient(c, root)
    return c


def quadric_bundle_y() -> Presentation:
    """QuadricBundle(3) instantiated for the flag-bundle geometry:
    c(F) = (1+y1)(1+y2)(1+y1-y2), and c(V/F) = c(V)/c(F), which is
    (1-y1)(1-y2)(1-y1+y2) (see quadric_quotient_chern)."""
    return quadric_bundle(3).specialize("QuadricBundle3Y",
                                        _flag_chern([Y1, Y2, Y1 - Y2]))


PRESENTATION_FACTORIES = {
    "FlIntegralPoint": fl_integral_point,
    "FlHalfPoint": fl_half_point,
    "FlIntegralBundle": fl_integral_bundle,
    "FlIntegralBundleY": lambda: fl_integral_bundle().specialize(
        "FlIntegralBundleY", _flag_chern([Y1, Y2, Y1 - Y2])),
    "Equivariant": fl_equivariant,
    "FlHalfBundle": fl_half_bundle,
    "FlHalfBundleT": lambda: fl_half_bundle().specialize(
        "FlHalfBundleT", {"y1": T1, "y2": T2}),
    "QuadricBundle3": quadric_bundle,
    "QuadricBundle3Y": quadric_bundle_y,
    "QuadricBundle3Fiber": quadric_bundle_fiber,
}


def get_presentation(name: str) -> Presentation:
    key = name.replace("(", "").replace(")", "")
    if key not in PRESENTATION_FACTORIES:
        raise ValueError(f"unknown presentation {name!r}; "
                         f"known: {', '.join(sorted(PRESENTATION_FACTORIES))}")
    return PRESENTATION_FACTORIES[key]()


# ---------------------------------------------------------------------------
# verification

def verify_presentation(p: Presentation) -> List[str]:
    """Rank, closure, defining relations, associativity and, where
    _SPECIALIZATIONS names one, the ring at base variables 0.

    Returns the failures, one line per failed property, named by the
    property; the presentation is verified when the list is empty.
    Associativity is certified by _check_associativity from one matrix per
    main variable, whose border columns are the engine's normal forms: the
    engine's normal form at every pair key is one generator step from the
    matrices, and the matrices satisfy the rules and commute, so the table
    is the regular representation of a commutative ring.  That also makes
    each normal form idempotent: the engine's normal form of every standard
    key is the key itself.  An ArithmeticError in the certificate, such as
    RewriteBudgetExceeded, is one "associativity:" line, as one in building
    the table is one "closure:" line.  A failure names the failing check,
    at its main monomial with both sides and the monomials whose normal
    forms they read.  Nothing it computes outlives the call except the
    presentation's own rewrite memo, which holds the keys of the table, the
    relations and the border columns, never a key that only a product of
    three basis elements reaches, on a pass or a fail.
    """
    failures: List[str] = []
    if len(p.basis) != p.expected_rank:
        failures.append(f"rank: basis has {len(p.basis)} monomials, "
                        f"expected {p.expected_rank}")

    table = None
    try:
        table = p.mult_table()
    except ArithmeticError as exc:
        failures.append(f"closure: {exc}")

    for rule in p.rules:
        lhs = MPoly.monomial({rule.var: rule.power})
        if not p.reduce_poly(lhs - rule.rhs).is_zero():
            failures.append(f"relation for {rule.var}^{rule.power} broken")

    if table is not None:
        try:
            _check_associativity(p, failures)
        except ArithmeticError as exc:
            failures.append(f"associativity: {exc}")
    _check_specialization(p, failures)
    return failures


def _check_associativity(p: Presentation, failures):
    """Certify that the induced multiplication table is associative.

    Let F be the free module over the base ring R on the standard keys b,
    and M_g the matrix of multiplication by the main variable x_g on F
    (_generator_matrices): its column at b is e_{b+e_g} when b + e_g is
    standard, and otherwise the engine's normal form of the border key
    b + e_g.  nf(P) is the engine's normal form reduce_monomial(P), from
    which mult_table builds each entry, and K is the set of pair keys
    b_x + b_y.  The checks, run in the order (e), (c), (d):

      (c) each rule x_g^p -> rhs_g holds at the matrices:
          M_g^p e_1 = rhs_g(M) e_1;
      (d) M_g M_h = M_h M_g for every pair of main variables;
      (e) for every P in K, lowest first: nf(P) = e_P when P is standard,
          else nf(P) = M_g nf(P - e_g), with g the last main variable such
          that P - e_g is in K.

    Such a g exists: a pair key b_x + b_y that is not standard has
    b_y != 0, and steps down to the pair key b_x + (b_y - e_g) for any g
    in b_y.  When P - e_g is standard, the right side of (e) is the border
    column at P itself, so (e) there holds by construction.

    Why (c)-(e) prove associativity.  By (d), x_g -> M_g makes F a module
    over R[x], and phi: f -> f(M) e_1 maps R[x] onto F, because
    M^b e_1 = e_b for every standard b (each step stays on standard keys).
    By (c) and (d), phi kills the ideal I of the rules, since
    phi(q (x_g^p - rhs_g)) = q(M) (M_g^p - rhs_g(M)) e_1 = 0, so phi
    factors through R[x]/I.  The rules rewrite every monomial onto the
    standard ones, so psi: F -> R[x]/I, e_b -> x^b, is onto as well.  Then
    phi psi, e_b -> M^b e_1, is a surjective endomorphism of the finitely
    generated module F, hence an isomorphism (Matsumura, Commutative Ring
    Theory, Thm 2.4; here it is the identity).  So R[x]/I is F, and x_g
    acts on it as M_g: each border column is the true normal form,
    whatever produced it.  By (e) and induction on P in K,
    nf(P) = M^P e_1, the class of x^P, so the table is the regular
    representation of the commutative ring R[x]/I, hence associative.
    The proof does not use where the border columns come from, so the
    engine's independent check is the proof together with
    tests/test_oracle.py, which compares the engine's normal form at every
    border key with sympy's Groebner basis.

    Each check is one product of a matrix with a vector at most, and
    nothing but the matrices is held.  The first check that fails is the
    failure: its line names the main monomial, both sides and the other
    keys whose normal forms they read: the border columns, and in a step
    check the key one step lower.  Since (e) runs first, lowest first, and
    reads nf only at P and below, a wrong memo entry off the border fails
    at its own key.
    """
    for key, what, side, ref, expected, read in _certificate_checks(p):
        if side != expected:
            line = (f"associativity: at {p._monomial(key)}, {what} is {side} "
                    f"but {ref} is {expected}")
            if read:
                line += "; it read the normal forms at " + ", ".join(
                    str(p._monomial(b)) for b in sorted(read, key=p._heap_key,
                                                        reverse=True))
            failures.append(line)
            break


def _certificate_checks(p: Presentation):
    """Yield (main key, what, its side, reference, the reference's side,
    the other keys whose normal forms the two sides read, none standard)
    for checks (e), (c) and (d) of _check_associativity, in that order."""
    names = p.main_vars
    standard = set(p.basis)
    matrices = _generator_matrices(p)
    read = set()  # keys whose normal forms were read since the last check

    def column(g, b):  # M_g e_b
        read.add(_shifted(b, g))
        return matrices[g][b]

    def times(g, v):  # M_g v
        return _apply(partial(column, g), v.split(names))

    def power(key):  # M^key e_1
        v = MPoly.one()
        for g, e in enumerate(key):
            for _ in range(e):
                v = times(g, v)
        return v

    def check(key, what, side, ref, expected):  # the check, with its reads
        found = key, what, side, ref, expected, read - standard
        read.clear()
        return found

    keys = {tuple(map(add, b, c)) for b in p.basis for c in p.basis}
    for key in sorted(keys, key=p._heap_key, reverse=True):
        if key in standard:
            ref, expected = "the basis element", p._monomial(key)
        else:
            g = max(g for g in range(len(names)) if _shifted(key, g, -1) in keys)
            prev = _shifted(key, g, -1)
            ref = f"{names[g]} times the normal form one {names[g]} lower"
            read.add(prev)
            expected = (column(g, prev) if prev in standard else
                        times(g, p.reduce_monomial(prev)))
        yield check(key, "the engine's normal form", p.reduce_monomial(key),
                    ref, expected)
    for rule in p.rules:
        (key,) = MPoly.monomial({rule.var: rule.power}).split(names)
        yield check(key, "the matrix power", power(key), "the right-hand side "
                    "at the matrices", _apply(power, rule.rhs.split(names)))
    for g, h in combinations(range(len(names)), 2):
        for b in p.basis:
            yield check(b, f"{names[g]} times {names[h]} times it",
                        times(g, column(h, b)),
                        f"{names[h]} times {names[g]} times it",
                        times(h, column(g, b)))


def _shifted(key: Tuple[int, ...], g: int, step: int = 1) -> Tuple[int, ...]:
    """key with step added to the exponent of main variable g."""
    return key[:g] + (key[g] + step,) + key[g + 1:]


def _generator_matrices(p: Presentation) -> List[Dict[Tuple[int, ...], MPoly]]:
    """The matrix of multiplication by each main variable x_g, as
    {basis key b: column}: x^(b + e_g) when b + e_g is standard, and
    otherwise the engine's normal form of that border key."""
    standard = set(p.basis)

    def column(key):
        return p._monomial(key) if key in standard else p.reduce_monomial(key)

    return [{b: column(_shifted(b, g)) for b in p.basis}
            for g in range(len(p.main_vars))]


# the ring each presentation must reduce to, rule for rule, when every base
# variable is set to 0
_SPECIALIZATIONS = {
    "FlIntegralBundle": fl_integral_point,
    "QuadricBundle3": quadric_bundle_fiber,
    "QuadricBundle3Y": quadric_bundle_fiber,
}


def _check_specialization(p: Presentation, failures):
    factory = _SPECIALIZATIONS.get(p.name)
    if factory is None:
        return
    special = p.specialize(p.name, dict.fromkeys(p.base_vars, 0))
    for rule, expected in zip(special.rules, factory().rules):
        if rule != expected:
            failures.append(f"specialized rule for {rule.var} differs")


# ---------------------------------------------------------------------------
# Chern class helpers: a total Chern class 1 + c_1 + ... + c_n is the tuple
# (1, c_1, ..., c_n) of MPoly, index i holding c_i and index 0 holding 1

def chern_classes(roots: Sequence[MPoly]) -> Tuple[MPoly, ...]:
    """The total Chern class of a bundle that splits with the given roots:
    the running product of the factors 1 + r, so c_i is the i-th
    elementary symmetric function of the roots."""
    c = [MPoly.one()]
    for r in roots:
        c = [c[0]] + [c[k] + c[k - 1] * r for k in range(1, len(c))] + [c[-1] * r]
    return tuple(c)


def chern_tensor_line(c: Sequence[MPoly], line: MPoly) -> MPoly:
    """Top Chern class of E tensor L: sum_i c_i(E) c1(L)^(n-i), where E has
    rank n = len(c) - 1."""
    n = len(c) - 1
    return sum((ci * line ** (n - i) for i, ci in enumerate(c)), MPoly.zero())


def chern_quotient(c: Sequence[MPoly], line: MPoly) -> Tuple[MPoly, ...]:
    """c(E/L) for a line subbundle L, by inverting Whitney:
    c_k(E/L) = c_k(E) - c_{k-1}(E) c1(L) + c_{k-2}(E) c1(L)^2 - ..."""
    return tuple(sum((c[k - j] * (-line) ** j for j in range(k + 1)), MPoly.zero())
                 for k in range(len(c) - 1))


def quadric_eg_residue() -> MPoly:
    """The reduction, in the instantiated rank-7 quadric bundle ring, of
    2 h f - c4((V/F) tensor O(h)) = 2 h f - (h^4 + c1(V/F) h^3 + ... +
    c4(V/F)), with c4(V/F) = 0 here; the relation holds when it is zero."""
    return quadric_bundle_y().reduce_poly(
        2 * H * F - chern_tensor_line(quadric_quotient_chern(), H))


# ---------------------------------------------------------------------------
# Schubert expansion and duality

def schubert_expand(f: MPoly, family: SchubertFamily,
                    p: Presentation) -> Dict[weyl.WeylElt, MPoly]:
    """Exact coefficients of f on the family's normal forms.

    Solved degree by degree, top down: the coefficient of a degree-d basis
    monomial in nf(P_w) is a constant when l(w) = d and vanishes when
    l(w) < d, so each degree is a constant-matrix solve once the longer
    classes are known.  The matrix is reduced once by the fraction-free
    kernel of linsolve, with the polynomial right-hand sides carried along
    as one more column of coefficients per monomial (a step only combines
    them with constants); a free coefficient is 0.  NotInSpan when no exact
    expansion exists.  The family's classes are reduced before f, and an
    error there names the family.
    """
    elements = weyl.all_elements()
    used = {v for poly in family.table.values() for v in poly.variables()}
    try:  # all the family's variables at once, then each class
        p.check_variables(MPoly.monomial(dict.fromkeys(used, 1)))
        nfs = {w: p.normal_form(family.table[w]) for w in elements}
    except (ValueError, NonIntegralReduction) as exc:
        raise type(exc)(f"family {family.kind} does not fit: {exc}") from None
    target = p.normal_form(f)
    coeffs: Dict[weyl.WeylElt, MPoly] = {}
    max_len = max(e.length for e in elements)
    for d in range(max_len, -1, -1):
        layer = [w for w in elements if w.length == d]
        keys = [k for k in p.basis if p.key_degree(k) == d]
        rows, rhs = [], []
        for key in keys:
            rows.append([nfs[w].coeffs.get(key, MPoly.zero()).constant_value()
                         for w in layer])
            acc = target.coeffs.get(key, MPoly.zero())
            for w, cw in coeffs.items():
                contrib = nfs[w].coeffs.get(key, MPoly.zero())
                if not contrib.is_zero() and not cw.is_zero():
                    acc = acc - cw * contrib
            rhs.append(key_terms(acc))
        monomials = sorted({m for terms in rhs for m in terms})
        rows, _ = _integral_rows(row + [terms.get(m, 0) for m in monomials]
                                 for row, terms in zip(rows, rhs))
        n = len(layer)
        pivots, last, _ = _reduce(rows, n)
        if any(any(row[n:]) for row in rows[len(pivots):]):
            raise NotInSpan(f"no expansion at degree {d}")
        coeffs.update((w, MPoly.zero()) for w in layer)
        coeffs.update((layer[c], MPoly({m: quotient(x, last)
                                        for m, x in zip(monomials, row[n:])}))
                      for c, row in zip(pivots, rows))
    residual = target.as_poly()
    for w, cw in coeffs.items():
        residual = residual - cw * nfs[w].as_poly()
    if not p.reduce_poly(residual).is_zero():
        raise NotInSpan("expansion residual is nonzero")
    return coeffs


def duality_pairing(family: SchubertFamily):
    """Poincare pairing matrix in FlHalfPoint: entry (u, w) is the coefficient
    of the point class (half the top basis monomial) in the reduced product
    P_u P_w."""
    p = fl_half_point()
    elements = weyl.all_elements()
    nfs = {w: p.normal_form(family.table[w]) for w in elements}
    pairing: Dict[Tuple[weyl.WeylElt, weyl.WeylElt], Fraction] = {}
    for u in elements:
        for w in elements:
            prod = p.normal_form(nfs[u].as_poly() * nfs[w].as_poly())
            coef = prod.coeffs.get(p.top, MPoly.zero())
            pairing[(u, w)] = Fraction(2 * coef.constant_value())
    return pairing
