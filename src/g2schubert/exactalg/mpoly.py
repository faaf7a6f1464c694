"""Sparse multivariate polynomials over exact rationals.

A polynomial is a mapping from exponent vectors to nonzero coefficients.
A coefficient is stored as an int when it is integral and as a Fraction
(denominator > 1) otherwise, so integral arithmetic never pays for Fraction;
the constructors take int or Fraction coefficients and raise TypeError on a
float, which is never exact.  Dividing two coefficients read out of a
polynomial needs Fraction(a) / b, since int / int is a float.  The variable
universe is closed and fixed:

    x1 x2 y1 y2 t1 t2 v alpha h f c1F c2F c3F c1Q c2Q c3Q a b c d e g

(x1, x2 are the moving Chern roots; y1, y2 the fixed flag roots; t1, t2 the
torus weights; v a twisting line class; alpha, h, f ring generators of the
quotient presentations; c*F and c*Q symbolic Chern classes of a rank-3
subbundle and its rank-4 quotient; a..e, g free Schubert cell parameters.)

This module is the only one that knows how a monomial is stored: an
exponent vector is a tuple of length 22, one slot per variable, in the
precedence order above.  Other modules treat exponent vectors as opaque
keys and reach terms by variable name: split and join regroup a polynomial
by the exponents of some named variables, named_terms spells each term out,
and addmul, the one kernel for sparse sums, accumulates scaled and shifted
terms into a dict that the MPoly constructor then takes.  The canonical term
order is graded lexicographic: higher total degree first, ties broken
lexicographically with x1 largest.  The zero polynomial has no stored terms.

All values are immutable after construction; the arithmetic methods return
new objects, so instances can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .scalars import exact as _exact

VARIABLES: Tuple[str, ...] = (
    "x1", "x2", "y1", "y2", "t1", "t2", "v", "alpha", "h", "f",
    "c1F", "c2F", "c3F", "c1Q", "c2Q", "c3Q",
    "a", "b", "c", "d", "e", "g",
)

NVARS = len(VARIABLES)
VAR_INDEX: Dict[str, int] = {name: i for i, name in enumerate(VARIABLES)}

ExpKey = Tuple[int, ...]
Coef = Union[int, Fraction]
_ZERO_EXP: ExpKey = (0,) * NVARS


class UnboundVariable(KeyError):
    """A variable name outside the fixed variable universe."""


class NotDivisible(ArithmeticError):
    """exact_divide found no exact quotient."""


def _exponent(names: Iterable[str], exponents: Iterable[int]) -> ExpKey:
    """The exponent vector of prod(name^e)."""
    key = [0] * NVARS
    for name, e in zip(names, exponents):
        if name not in VAR_INDEX:
            raise UnboundVariable(f"unknown variable {name!r}")
        if e < 0:
            raise ValueError("negative exponent")
        key[VAR_INDEX[name]] += e
    return tuple(key)


def addmul(acc: Dict[ExpKey, Coef], terms, coef=None, shift=None) -> None:
    """acc += coef * x^shift * terms, in place.

    terms is an MPoly or a dict of terms, shift an exponent vector read out
    of an MPoly, split or another addmul.  With coef None the terms are
    added unscaled.  Zero sums stay in acc; the MPoly constructor drops
    them.  The new value comes first in each sum, so a Fraction that starts
    a new key takes Fraction's forward addition, not its reflected path
    (an ABC isinstance check per call).
    """
    get = acc.get
    if shift is not None and any(shift):
        if coef is None:
            for exp, c in terms.items():
                exp = tuple(map(add, exp, shift))
                acc[exp] = c + get(exp, 0)
        else:
            for exp, c in terms.items():
                exp = tuple(map(add, exp, shift))
                acc[exp] = coef * c + get(exp, 0)
    elif coef is None:
        for exp, c in terms.items():
            acc[exp] = c + get(exp, 0)
    else:
        for exp, c in terms.items():
            acc[exp] = coef * c + get(exp, 0)


def _order_key(exp: ExpKey):
    # graded-lex: total degree, then lexicographic with x1 most significant
    return (sum(exp), exp)


class MPoly:
    """Immutable sparse polynomial with int or Fraction coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[ExpKey, Coef] | None = None):
        t = {}
        if terms:
            for exp, coef in terms.items():
                if type(coef) is not int:
                    coef = _exact(coef)
                if coef:
                    t[exp] = coef
        object.__setattr__(self, "_t", t)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # ---- constructors ----

    @staticmethod
    def zero() -> "MPoly":
        return _ZERO

    @staticmethod
    def one() -> "MPoly":
        return _ONE

    @staticmethod
    def const(value) -> "MPoly":
        c = value if type(value) is int else _exact(value)
        if c == 0:
            return _ZERO
        return MPoly({_ZERO_EXP: c})

    @staticmethod
    def var(name: str) -> "MPoly":
        if name not in VAR_INDEX:
            raise UnboundVariable(f"unknown variable {name!r}")
        return _VAR_CACHE[name]

    @staticmethod
    def monomial(exps: Mapping[str, int], coef=1) -> "MPoly":
        """Build coef * prod(var^e) from a {name: exponent} mapping."""
        return MPoly({_exponent(exps, exps.values()): coef})

    @staticmethod
    def join(names: Sequence[str], coeffs) -> "MPoly":
        """The sum of x^key * coeffs[key], where key holds the exponents of
        names; coeffs maps keys to MPolys or to dicts of terms.  The inverse
        of split."""
        acc: Dict[ExpKey, Coef] = {}
        for key, terms in coeffs.items():
            addmul(acc, terms, shift=_exponent(names, key))
        return MPoly(acc)

    @staticmethod
    def _lift(other) -> "MPoly | None":
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other)
        return None

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._t:
            return -1
        return max(sum(exp) for exp in self._t)

    def is_homogeneous(self) -> bool:
        degs = {sum(exp) for exp in self._t}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "MPoly":
        return MPoly({exp: c for exp, c in self._t.items() if sum(exp) == d})

    def variables(self) -> Tuple[str, ...]:
        """Names of the variables that actually occur, in precedence order."""
        seen = [False] * NVARS
        for exp in self._t:
            for i, e in enumerate(exp):
                if e:
                    seen[i] = True
        return tuple(VARIABLES[i] for i in range(NVARS) if seen[i])

    def terms(self) -> Iterator[Tuple[ExpKey, Coef]]:
        """Iterate (exponent, coefficient) in canonical graded-lex order."""
        for exp in sorted(self._t, key=_order_key, reverse=True):
            yield exp, self._t[exp]

    def named_terms(self) -> Iterator[Tuple[Dict[str, int], Coef]]:
        """Iterate ({name: exponent}, coefficient) in canonical order; only
        the variables that occur are named, in precedence order."""
        for exp, coef in self.terms():
            yield {VARIABLES[i]: e for i, e in enumerate(exp) if e}, coef

    def items(self):
        """Raw (exponent, coefficient) pairs in arbitrary order."""
        return self._t.items()

    def split(self, names: Sequence[str]) -> Dict[Tuple[int, ...], Dict[ExpKey, Coef]]:
        """self as a polynomial in names: {exponents of names: {rest: coef}},
        where rest is the exponent of the other variables."""
        idx = [VAR_INDEX[name] for name in names]
        out: Dict[Tuple[int, ...], Dict[ExpKey, Coef]] = {}
        for exp, coef in self._t.items():
            key = tuple([exp[i] for i in idx])
            if any(key):
                rest = list(exp)
                for i in idx:
                    rest[i] = 0
                exp = tuple(rest)
            group = out.get(key)
            if group is None:
                group = out[key] = {}
            group[exp] = coef
        return out

    def leading_term(self) -> Tuple[ExpKey, Coef]:
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self._t, key=_order_key)
        return exp, self._t[exp]

    def coeff(self, exps: Mapping[str, int]) -> Coef:
        return self._t.get(_exponent(exps, exps.values()), 0)

    def constant_value(self) -> Coef:
        """The value of a constant polynomial."""
        if not self._t:
            return 0
        if len(self._t) == 1 and _ZERO_EXP in self._t:
            return self._t[_ZERO_EXP]
        raise ValueError(f"not a constant polynomial: {self}")

    # ---- arithmetic ----

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        t = dict(self._t)
        addmul(t, o._t)
        return MPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return MPoly({exp: -c for exp, c in self._t.items()})

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if len(self._t) > len(o._t):
            big, small = self._t, o._t
        else:
            big, small = o._t, self._t
        t: Dict[ExpKey, Coef] = {}
        for exp, c in small.items():
            addmul(t, big, c, exp)
        return MPoly(t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    # ---- substitution ----

    def subs(self, assignment: Mapping[str, "MPoly | Fraction | int"]) -> "MPoly":
        """Substitute polynomials for variables; variables not mentioned in
        `assignment` are left alone."""
        images: Dict[int, MPoly] = {}
        for name, val in assignment.items():
            if name not in VAR_INDEX:
                raise UnboundVariable(f"unknown variable {name!r}")
            img = self._lift(val)
            if img is None:
                raise TypeError(f"cannot use {val!r} as a substitution value")
            images[VAR_INDEX[name]] = img
        power_cache: Dict[Tuple[int, int], MPoly] = {}

        def power(i: int, e: int) -> MPoly:
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = images[i] ** e
            return power_cache[key]

        out = _ZERO
        for exp, coef in self._t.items():
            term = MPoly.const(coef)
            untouched = [0] * NVARS
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                if i in images:
                    term = term * power(i, e)
                else:
                    untouched[i] = e
            if any(untouched):
                term = term * MPoly({tuple(untouched): Fraction(1)})
            out = out + term
        return out

    # ---- printing ----

    def __str__(self) -> str:
        if not self._t:
            return "0"
        chunks = []
        for exps, coef in self.named_terms():
            mono = " ".join(name if e == 1 else f"{name}^{e}"
                            for name, e in exps.items())
            mag = abs(coef)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag} {mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(("-" + body) if coef < 0 else body)
            else:
                chunks.append((" - " if coef < 0 else " + ") + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"MPoly({self})"


_ZERO = MPoly()
_ONE = MPoly({_ZERO_EXP: 1})
_VAR_CACHE = {
    name: MPoly({tuple(1 if j == i else 0 for j in range(NVARS)): 1})
    for i, name in enumerate(VARIABLES)
}


def exact_divide(f: MPoly, g: MPoly) -> MPoly:
    """Return q with f = q*g, or raise NotDivisible.

    Uses leading-term division in the graded-lex order; for an exact multiple
    the leading term of f is always divisible by the leading term of g, so
    the loop peels off one quotient term per step.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return MPoly.zero()
    g_exp, g_coef = g.leading_term()
    quotient: Dict[ExpKey, Fraction] = {}
    rem = f
    while not rem.is_zero():
        r_exp, r_coef = rem.leading_term()
        q_exp = tuple(a - b for a, b in zip(r_exp, g_exp))
        if any(e < 0 for e in q_exp):
            raise NotDivisible(f"({f}) is not divisible by ({g})")
        q_coef = Fraction(r_coef) / g_coef
        quotient[q_exp] = quotient.get(q_exp, Fraction(0)) + q_coef
        rem = rem - MPoly({q_exp: q_coef}) * g
    return MPoly(quotient)


def elementary_symmetric(i: int, values: Iterable[MPoly]) -> MPoly:
    """e_i of a finite list of polynomials, computed by direct expansion."""
    vals = list(values)
    if i == 0:
        return MPoly.one()
    if i > len(vals):
        return MPoly.zero()
    # running coefficients of prod (1 + z*val) up to degree i
    coeffs = [MPoly.one()] + [MPoly.zero()] * i
    for val in vals:
        for k in range(min(i, len(vals)), 0, -1):
            coeffs[k] = coeffs[k] + coeffs[k - 1] * val
    return coeffs[i]
