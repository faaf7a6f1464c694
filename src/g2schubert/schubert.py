"""Divided difference operators and G2 Schubert polynomial families.

The two simple operators act on polynomials in x1, x2 (all other variables
are inert coefficients):

    ds(f) = (f(x1,x2) - f(x2,x1)) / (x1 - x2)
    dt(f) = (f(x1,x2) - f(x1,x1-x2)) / (-x1 + 2 x2)

and the twisted variant, for a twisting class v,

    dt_v(f) = (f(x1,x2) - f(x1,x1-x2-v)) / (-x1 + 2 x2 + v).

A family is the table {P_w} generated from a top-degree class by
P_w = d_{w0 w^-1} P_{w0}; the numerator of each step is exactly divisible by
the linear denominator, so everything stays in the polynomial ring.  The
table is built along the divided-difference chain: writing w0 w^-1 = c.W
with c a letter, P_w = d_c of the entry whose operator word is W, so the
12 entries take 11 operator steps.  Every operator runs on L times its
input, with L the lcm of the input's denominators (MPoly.integral_multiple),
and divides by L once; a family's chain runs on L times the top class and
divides each entry by L once at the end, so no step of the chain meets a
Fraction.  Each of s, t and tv owns one Substitution of its action, which
keeps the powers of its image up to a fixed x-degree from call to call;
div_diff_generic builds a fresh Substitution per call, and stays the
independent path the divdiff suite compares the operators against.
An operator is linear over the invariants of its reflection, so a term
with no variable the reflection substitutes (y1^2 y2 under any of them;
x1^3 y1 or x1^2 v under t and tv) cancels in f - w.f: both paths take the
numerator over the moved terms only (Substitution.moved), and never
substitute, subtract or divide a fixed one.
Only P_id depends on the reduced word chosen for w0, so the table for the
second longest word is the first one with P_id recomputed: one step, for
every kind, the eq-* kinds too, since y -> t substitutes only inert
variables and so commutes with every operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from . import weyl
from .exactalg import (
    LinInconsistency,
    LpInfeasible,
    MPoly,
    Rational,
    Substitution,
    exact_divide,
    lp_feasible,
    solve_linear,
)
from .weyl import NonReducedWord, WeylElt

X1 = MPoly.var("x1")
X2 = MPoly.var("x2")
Y1 = MPoly.var("y1")
Y2 = MPoly.var("y2")
T1 = MPoly.var("t1")
T2 = MPoly.var("t2")
VV = MPoly.var("v")

FAMILY_KINDS = ("paper", "graham", "point", "twisted", "eq-paper", "eq-graham")


# ---------------------------------------------------------------------------
# the operators

_S_ACTION = {"x1": X2, "x2": X1}
_T_ACTION = {"x2": X1 - X2}
_TV_ACTION = {"x2": X1 - X2 - VV}

_ROOTS = {
    "s": X1 - X2,
    "t": -X1 + 2 * X2,
    "tv": -X1 + 2 * X2 + VV,
}
_ACTIONS = {"s": _S_ACTION, "t": _T_ACTION, "tv": _TV_ACTION}

# each operator owns one Substitution of its action, which keeps the low
# powers of its image from call to call
_SUBSTITUTIONS = {kind: Substitution(action) for kind, action in _ACTIONS.items()}


def div_diff(kind: str, f: MPoly) -> MPoly:
    """Apply one divided difference operator; kind is "s", "t" or "tv"."""
    if kind not in _ROOTS:
        raise ValueError(f"unknown operator kind {kind!r}")
    return _divided_difference(f, _ROOTS[kind], _SUBSTITUTIONS[kind])


def div_diff_generic(f: MPoly, root: MPoly, action: Mapping[str, MPoly]) -> MPoly:
    """The general form (f - w.f) / root for a reflection acting by the given
    substitution.  With weyl.simple_root and weyl.action in (x1, x2) it is
    the explicit operator of that letter, which the divdiff suite checks.
    It builds a fresh Substitution per call, so that check shares no
    image power with the operators of div_diff."""
    return _divided_difference(f, root, Substitution(action))


def _divided_difference(f: MPoly, root: MPoly, w: Substitution) -> MPoly:
    """(f - w.f) / root, taken over m = w.moved(f), the terms of f with a
    variable that w substitutes.  Each other term h is fixed by w, so it
    cancels in f - w.f, and the numerator is exactly m - w.m: a term the
    reflection fixes is never substituted, subtracted or divided.  The
    operator runs on L m, the integral multiple of m
    (MPoly.integral_multiple): w substitutes into L m as it stands, with no
    second scan of its coefficients, and the quotient is multiplied by 1/L
    once.  Each root here has leading coefficient +-1, so the substitution
    and the division stay in int arithmetic."""
    g, scale = w.moved(f).integral_multiple()
    if g.is_zero():
        return MPoly.zero()
    numerator = g - w(g)
    if numerator.is_zero():
        return MPoly.zero()
    q = exact_divide(numerator, root)
    return q if scale == 1 else q * Fraction(1, scale)


def div_diff_word(word: str, f: MPoly, twisted: bool = False) -> MPoly:
    """Apply the composite operator of a reduced word (rightmost letter acts
    first).  Raises NonReducedWord for non-reduced input."""
    elt = weyl.element(word) if word else weyl.identity()
    if elt.length != len(word):
        raise NonReducedWord(f"{word!r} is not a reduced word")
    out = f
    for ch in reversed(word):
        kind = "tv" if (twisted and ch == "t") else ch
        out = div_diff(kind, out)
    return out


# ---------------------------------------------------------------------------
# top classes

def top_class(kind: str) -> MPoly:
    """The closed top-degree class that seeds each family.  Its integral
    factors are multiplied first, so their products sum ints, and its
    rational constant (1/2, or 1/54 for graham) scales the result once."""
    if kind == "paper":
        f1 = (X1 ** 3 - 2 * X1 ** 2 * Y1 + X1 * Y1 ** 2 - X1 * Y2 ** 2
              + X1 * Y1 * Y2 - Y1 ** 2 * Y2 + Y1 * Y2 ** 2)
        f2 = X1 ** 2 + X1 * Y1 + Y1 * Y2 - Y2 ** 2
        f3 = X2 - X1 - Y2
        poly = f1 * f2 * f3 * Fraction(1, 2)
    elif kind == "graham":
        poly = _graham_class(MPoly.zero())
    elif kind == "point":
        poly = X1 ** 5 * X2 * Fraction(1, 2)
    elif kind == "twisted":
        t1 = (X1 ** 3 - 2 * X1 ** 2 * Y1 + X1 * Y1 ** 2 - X1 * Y2 ** 2
              + X1 * Y1 * Y2 - Y1 ** 2 * Y2 + Y1 * Y2 ** 2
              + 5 * X1 ** 2 * VV - 7 * X1 * Y1 * VV + X1 * Y2 * VV
              + 2 * Y1 ** 2 * VV + Y1 * Y2 * VV - 2 * Y2 ** 2 * VV
              + 8 * X1 * VV ** 2 - 6 * Y1 * VV ** 2 + 2 * Y2 * VV ** 2
              + 4 * VV ** 3)
        t2 = X1 ** 2 + X1 * Y1 + Y1 * Y2 - Y2 ** 2 + X1 * VV + Y2 * VV
        t3 = X2 - X1 - Y2 + VV
        poly = t1 * t2 * t3 * Fraction(1, 2)
    elif kind == "chern":
        # the same top class written in the Chern classes of the rank-3
        # subbundle: substituting c(F3) = (1+y1)(1+y2)(1+y1-y2) recovers
        # the y-form above
        c1f, c2f, c3f = MPoly.var("c1F"), MPoly.var("c2F"), MPoly.var("c3F")
        f1 = X1 ** 3 - c1f * X1 ** 2 + c2f * X1 - c3f
        f2 = X1 ** 2 + Y1 * X1 + c2f - Y1 ** 2
        f3 = X2 - X1 - Y2
        poly = f1 * f2 * f3 * Fraction(1, 2)
    else:
        raise ValueError(f"unknown top class kind {kind!r}")
    return poly


def twist_substitution(f: MPoly, direction: str = "forward") -> MPoly:
    """x_i -> x_i + v, y_i -> y_i - v (forward), or the inverse."""
    if direction == "forward":
        return f.subs({"x1": X1 + VV, "x2": X2 + VV, "y1": Y1 - VV, "y2": Y2 - VV})
    if direction == "inverse":
        return f.subs({"x1": X1 - VV, "x2": X2 - VV, "y1": Y1 + VV, "y2": Y2 + VV})
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# families

@dataclass(frozen=True)
class SchubertFamily:
    kind: str
    table: Mapping[WeylElt, MPoly]

    def __getitem__(self, w) -> MPoly:
        return self.table[weyl.element(w)]

    def entries(self) -> List[Tuple[WeylElt, MPoly]]:
        """(element, polynomial) pairs, by length then canonical word."""
        return [(w, self.table[w]) for w in weyl.all_elements()]


def _operator(kind: str, letter: str) -> str:
    """The operator a family of this kind applies for a letter."""
    return "tv" if (kind == "twisted" and letter == "t") else letter


@lru_cache(maxsize=None)
def generate_family(kind: str, w0_word: Optional[str] = None) -> SchubertFamily:
    """Generate the 12-entry table P_w = d_{w0 w^-1} P_{w0}, along the chain.

    The table is filled by operator word: the entry for c.W is d_c of the
    entry for W, so a family costs 11 operator steps (one per nonempty word)
    instead of replaying each word from the top class.  Every element but
    w0 has exactly one reduced word, so each suffix is an entry already
    computed.  w0_word picks the reduced word of the longest element that
    gives the one ambiguous entry (w = id); the tables agree either way.
    The default (None) is "ststst", and both spellings share one table.  For
    "tststs" only P_id is recomputed, as d_t of the entry whose operator
    word is "ststs", from the default table: one operator step, for all six
    kinds.  The eq-* kinds substitute t for y in the default base family;
    y -> t touches no x, so it commutes with every operator, and d_t of
    the substituted entry is the substituted P_id of the base kind's
    "tststs" table.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    default = weyl.LONGEST_WORDS[0]
    if w0_word is None:
        return generate_family(kind, default)
    if w0_word not in weyl.LONGEST_WORDS:
        raise ValueError(f"{w0_word!r} is not a reduced word for the longest element")
    w0 = weyl.longest()
    if w0_word != default:
        base = generate_family(kind, default).table
        rest = weyl.element(w0_word[1:]).inverse() * w0
        table = dict(base)
        table[weyl.identity()] = div_diff(_operator(kind, w0_word[0]), base[rest])
        return SchubertFamily(kind, table)
    if kind in ("eq-paper", "eq-graham"):
        base = generate_family(kind.removeprefix("eq-"), w0_word)
        table = {w: p.subs({"y1": T1, "y2": T2}) for w, p in base.table.items()}
        return SchubertFamily(kind, table)
    words = {u: (w0_word if u is w0 else u.word) for u in weyl.all_elements()}
    top, scale = top_class(kind).integral_multiple()
    by_word: Dict[str, MPoly] = {"": top}
    for word in words.values():
        # elements come by length, so the suffix word[1:] is already done
        if word:
            by_word[word] = div_diff(_operator(kind, word[0]), by_word[word[1:]])
    table = {w: by_word[words[w0 * w.inverse()]] * Fraction(1, scale)
             for w in weyl.all_elements()}
    return SchubertFamily(kind, table)


def length_rule_violation(table: Mapping) -> Optional[Tuple[WeylElt, str]]:
    """The first (w, letter) at which a table {w: P_w}, keyed by element or
    word, breaks the length rule d_letter P_w = P_{w letter} if l(w letter)
    < l(w) and 0 otherwise; None if it holds throughout."""
    by_elt = {weyl.element(key): poly for key, poly in table.items()}
    for w, poly in by_elt.items():
        for letter in ("s", "t"):
            neighbor = w * weyl.element(letter)
            expected = (by_elt.get(neighbor) if neighbor.length < w.length
                        else MPoly.zero())
            if div_diff(letter, poly) != expected:
                return w, letter
    return None


def equivariant_restriction(f: MPoly, v: weyl.WeylElt) -> MPoly:
    """Restrict an equivariant class (a polynomial in x and t) to the torus
    fixed point indexed by v.

    At the fixed flag through f_{v(1)}, f_{v(2)} the tautological roots
    specialize to the corresponding torus weights, x_k -> v.t_k.  For the
    generated equivariant families this reproduces the localization
    pattern: the restriction of the class of w at v vanishes unless w <= v
    in Bruhat order, and at v = w it is the inversion-root product of w up
    to sign.
    """
    image = weyl.action(v)
    return f.subs({"x1": image["t1"], "x2": image["t2"]})


# ---------------------------------------------------------------------------
# Graham's identities

def graham_xi() -> Tuple[MPoly, MPoly, MPoly]:
    third = Fraction(1, 3)
    return (third * (2 * X1 - X2), third * (-X1 + 2 * X2), -third * (X1 + X2))


def graham_eta(base1: MPoly, base2: MPoly) -> Tuple[MPoly, MPoly, MPoly]:
    third = Fraction(1, 3)
    return (-third * (2 * base1 - base2), -third * (-base1 + 2 * base2),
            third * (base1 + base2))


def graham_product_form() -> MPoly:
    """Graham's product form of the degree-6 class: -27/2 times three
    linear factors in xi and eta and the cube sum xi1 xi2 xi3 + eta1 eta2
    eta3.  As a polynomial it equals top_class("graham")."""
    xi1, xi2, xi3 = graham_xi()
    e1, e2, e3 = graham_eta(Y1, Y2)
    return (Fraction(-27, 2) * (xi1 - e2) * (xi1 - e3) * (xi2 - e3)
            * (xi1 * xi2 * xi3 + e1 * e2 * e3))


def graham_integrality_identity() -> Tuple[MPoly, Dict[str, MPoly]]:
    """The half-sum of the xi and eta cubes, in x and t, and the integral
    coefficients {word: c_word} of the combination of equivariant classes
    P_tst, P_st, P_t that it equals -1/27 times, as polynomials.  The 1/27
    cannot be cleared, so only 27 times the class is integral."""
    xi1, xi2, xi3 = graham_xi()
    e1, e2, e3 = graham_eta(T1, T2)
    half_cubes = Fraction(1, 2) * (xi1 * xi2 * xi3 + e1 * e2 * e3)
    return half_cubes, {"tst": MPoly.const(3), "st": 3 * (T1 + T2),
                        "t": (T1 + T2) * (2 * T1 - T2)}


def _graham_class(twist: MPoly) -> MPoly:
    """Graham's degree-6 class (1/54) g1 g2 g3 g4, with twist added to the
    cubic factor g4; the 1/54 multiplies the integral product last."""
    g1 = 2 * X1 - X2 - Y1 + 2 * Y2
    g2 = 2 * X1 - X2 - Y1 - Y2
    g3 = X1 - 2 * X2 + Y1 + Y2
    g4 = (2 * X1 ** 3 - 3 * X1 ** 2 * X2 - 3 * X1 * X2 ** 2 + 2 * X2 ** 3
          - 2 * Y1 ** 3 + 3 * Y1 ** 2 * Y2 + 3 * Y1 * Y2 ** 2 - 2 * Y2 ** 3
          + twist)
    return g1 * g2 * g3 * g4 * Fraction(1, 54)


def remark_triple_cover_class() -> MPoly:
    """The degree-6 class for trivial gamma values but 3-torsion determinant
    twist: the product form with a lone v^3 added to the cubic factor.
    Over the rationals only its v = 0 specialization is meaningful."""
    return _graham_class(VV ** 3)


# ---------------------------------------------------------------------------
# impossibility of positive polynomials in x1, x2

# the unique chain forced by nonnegativity of coefficients, degree <= 4
FORCED_CHAIN: Dict[str, MPoly] = {
    "": MPoly.one(),
    "s": X1,
    "t": X1 + X2,
    "ts": X1 ** 2,
    "st": Fraction(1, 2) * (X1 ** 2 + X1 * X2 + X2 ** 2),
    "sts": Fraction(1, 2) * X1 ** 3,
    "tst": Fraction(1, 2) * (X1 ** 2 * X2 + X1 * X2 ** 2),
    "stst": Fraction(1, 2) * X1 ** 2 * X2 ** 2,
}

_COEFF_VARS = ("a", "b", "c", "d", "e")
# the generic degree-4 entry P = a x1^4 + b x1^3 x2 + ... + e x2^4
_QUARTIC = sum((MPoly.var(name) * X1 ** (4 - i) * X2 ** i
                for i, name in enumerate(_COEFF_VARS)), MPoly.zero())
# nonnegativity and dt P = 0 force these coefficients of P to vanish
FORCED_ZERO = ("b", "c", "d", "e")


@dataclass(frozen=True)
class ImpossibilityCertificate:
    """Proof that no degree-4 polynomial with nonnegative coefficients can
    continue the forced chain.

    matrix * (a, b, c, d, e) = rhs are the linear constraints on the
    coefficients of
        P = a x1^4 + b x1^3 x2 + c x1^2 x2^2 + d x1 x2^3 + e x2^4
    coming from dt P = 0 and ds P = P_tst.  farkas certifies the system
    with a..e >= 0 infeasible; linear exhibits 0 = 1/2 in the system with
    the nonnegativity-forced vanishing of FORCED_ZERO pinned first.
    """

    matrix: List[List[Rational]]
    rhs: List[Fraction]
    farkas: LpInfeasible
    linear: LinInconsistency

    def equation_text(self) -> List[str]:
        unknowns = [MPoly.var(name) for name in _COEFF_VARS]
        return [f"{sum((c * u for c, u in zip(row, unknowns)), MPoly.zero())} = {value}"
                for row, value in zip(self.matrix, self.rhs)]

    def verify(self) -> bool:
        return (self.farkas.verify(self.matrix, self.rhs)
                and self.linear.verify(*_pinned(FORCED_ZERO, 0, self.matrix, self.rhs)))


def _pinned(names, value, matrix, rhs):
    """(matrix, rhs) with a row 'name = value' put first for each coefficient
    name of P."""
    pins = [[Fraction(int(name == n)) for n in _COEFF_VARS] for name in names]
    return pins + list(matrix), [Fraction(value)] * len(pins) + list(rhs)


def _dt_equations():
    """The system of dt P = 0."""
    return _coefficient_equations(div_diff("t", _QUARTIC), MPoly.zero())


def _coefficient_equations(poly_in_unknowns: MPoly, target: MPoly):
    """Match an x-polynomial with linear a..e coefficients against a target,
    returning the induced linear system on (a, b, c, d, e) as (matrix, rhs)."""
    unique = {}
    for _, group in sorted((poly_in_unknowns - target).split(("x1", "x2")).items(),
                           reverse=True):
        linear = MPoly(group)
        row = [linear.coeff({name: 1}) or Fraction(0) for name in _COEFF_VARS]
        value = -Fraction(linear.coeff({}))
        entries = row + [value]
        # deduplicate up to scaling: key each equation by its entries divided
        # by the first nonzero one, and keep the first equation with each key
        pivot = next((x for x in entries if x != 0), None)
        if pivot is not None:
            unique.setdefault(tuple(Fraction(x) / pivot for x in entries), (row, value))
    return [row for row, _ in unique.values()], [value for _, value in unique.values()]


def impossibility_certificate() -> ImpossibilityCertificate:
    """Build and certify the obstruction to a positive degree-4 entry."""
    # verify the forced chain is internally consistent first
    broken = length_rule_violation(FORCED_CHAIN)
    if broken:
        raise ArithmeticError(f"chain breaks at {broken[0].word!r} / {broken[1]}")

    dt_matrix, dt_rhs = _dt_equations()
    ds_matrix, ds_rhs = _coefficient_equations(div_diff("s", _QUARTIC),
                                               FORCED_CHAIN["tst"])
    matrix, rhs = dt_matrix + ds_matrix, dt_rhs + ds_rhs
    farkas = lp_feasible(matrix, rhs)
    if farkas.feasible:
        raise ArithmeticError("expected the combined system to be infeasible")

    # stage 2: nonnegativity plus dt P = 0 forces b = c = d = e = 0, after
    # which the remaining equations are linearly inconsistent
    linear = solve_linear(*_pinned(FORCED_ZERO, 0, matrix, rhs))
    if linear.consistent:
        raise ArithmeticError("expected stage-2 system to be inconsistent")

    cert = ImpossibilityCertificate(matrix, rhs, farkas, linear)
    if not cert.verify():
        raise ArithmeticError("certificate failed its own verification")
    return cert


def forced_vanishing_is_certified() -> bool:
    """Each of b, c, d, e is zero on the cone {dt P = 0, coeffs >= 0}: the
    cone is scaling-invariant, so 'variable = 1' joined to the equations must
    be infeasible."""
    matrix, rhs = _dt_equations()
    return not any(lp_feasible(*_pinned([name], 1, matrix, rhs)).feasible
                   for name in FORCED_ZERO)


# ---------------------------------------------------------------------------
# positivity in x1, x2, x3 = x1 - x2

@dataclass(frozen=True)
class PositiveRewrite:
    feasible: bool
    coefficients: Optional[Dict[Tuple[int, int, int], Fraction]]
    farkas_multipliers: Optional[List[Fraction]]

    def expansion(self) -> MPoly:
        if not self.feasible:
            raise ValueError("no expansion for an infeasible rewrite")
        total = MPoly.zero()
        for (i, j, k), coef in self.coefficients.items():
            total = total + coef * X1 ** i * X2 ** j * (X1 - X2) ** k
        return total


def positive_rewrite(f: MPoly, d: int) -> PositiveRewrite:
    """Express a homogeneous degree-d polynomial in x1, x2 as a nonnegative
    combination of monomials in x1, x2, x3 = x1 - x2, or certify that no
    such expression exists.  Exact LP feasibility either way."""
    used = [name for name in f.variables() if name not in ("x1", "x2")]
    if used:
        raise ValueError(f"polynomial involves {used}, expected x1, x2 only")
    if f.homogeneous_part(d) != f:
        raise ValueError("polynomial is not homogeneous of the given degree")
    monomials = [(i, j, d - i - j)
                 for i in range(d + 1) for j in range(d + 1 - i)]
    x3 = X1 - X2

    def x_vector(p: MPoly) -> List[Fraction]:
        return [p.coeff({"x1": d - k, "x2": k}) for k in range(d + 1)]

    columns = [x_vector(X1 ** i * X2 ** j * x3 ** k) for (i, j, k) in monomials]
    target = x_vector(f)
    rows = [[columns[c][r] for c in range(len(monomials))]
            for r in range(d + 1)]
    result = lp_feasible(rows, target)
    if result.feasible:
        coeffs = {m: result.vector[idx] for idx, m in enumerate(monomials)
                  if result.vector[idx] != 0}
        rewrite = PositiveRewrite(True, coeffs, None)
        if rewrite.expansion() != f:
            raise ArithmeticError("rewrite does not re-expand to the input")
        return rewrite
    return PositiveRewrite(False, None, result.multipliers)
