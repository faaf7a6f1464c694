"""Sparse multivariate polynomials over exact rationals.

A polynomial is a mapping from exponent vectors to nonzero coefficients.
A coefficient is stored as an int when it is integral and as a Fraction
(denominator > 1) otherwise, so integral arithmetic never pays for Fraction;
the constructors take int or Fraction coefficients and raise TypeError on a
float, which is never exact.  Dividing two coefficients read out of a
polynomial needs scalars.quotient, since int / int is a float, and
integral_multiple clears the denominators of the coefficients: it gives
(L f, L), with L their lcm, so that a computation can run on ints and
divide by L once; subs substitutes into L f that way, through a one-shot
Substitution.  A power of more than one term is built by one product with
its base at a time, never by squaring: MPoly.__pow__ makes n - 1 of them,
and a Substitution keeps, per variable, the list of its image's powers,
up to a fixed degree between calls (the divided-difference operators each
own one); its moved method picks out the terms it can change, by one mask
over the packed keys, so an operator substitutes only those.  The variable
universe is closed and fixed:

    x1 x2 y1 y2 t1 t2 v alpha h f c1F c2F c3F c1Q c2Q c3Q a b c d e g

(x1, x2 are the moving Chern roots; y1, y2 the fixed flag roots; t1, t2 the
torus weights; v a twisting line class; alpha, h, f ring generators of the
quotient presentations; c*F and c*Q symbolic Chern classes of a rank-3
subbundle and its rank-4 quotient; a..e, g free Schubert cell parameters.)

This module is the only one that knows how a monomial is stored.  Inside
it an exponent vector is packed into one Python int (Monagan and Pearce,
CASC 2007): one 64-bit field per variable, in the precedence order above
with x1 most significant, and above them a field holding the total degree.
A field keeps its top bit clear as a guard, so an exponent stays below
2**63; that bound is checked where exponents enter (the constructors, join,
coeff), once per addmul call on the highest product, and on each one-term
product and power, since no field can exceed the degree field.  An
exponent never wraps; past the bound the operation raises
OverflowError("exponent too large").  With this layout a monomial product
is one integer add and its n-th power one multiply by n (MPoly's product
of two one-term polynomials and power of one are just that: no sum of
terms, and no squaring), the canonical term order, graded
lexicographic (higher total degree first, ties broken lexicographically
with x1 largest), is integer order, and divisibility is one subtraction
and a test of the guard bits.

The public accessors still speak in tuples: items, terms and leading_term
give each exponent vector as a tuple of length 22, and the MPoly
constructor takes a mapping keyed by such tuples.  Other modules treat the
packed keys as opaque and reach terms by variable name: split and join
regroup a polynomial by the exponents of some named variables (split keys
each group by a tuple of those exponents, and each term inside it by an
opaque key), named_terms spells each term out, and addmul, the one kernel
for sparse sums, accumulates scaled and shifted terms into a dict of opaque
keys that the MPoly constructor then takes; key_terms reads an MPoly's
terms with their opaque keys, and ONE_KEY is the key of the monomial 1.
key_product and key_power give the key of a product and of a power of
monomials, under the same exponent guard as MPoly's, so that the parser
builds a product of one-term factors as one key, with no MPoly per factor.
exact_divide keeps its remainder as one such dict, with a heap of its
keys, and subtracts each quotient term's multiple of the divisor's tail
from it in place: the one accumulation outside addmul, because the heap
must see each key as it enters the remainder, which addmul does not report.
The zero polynomial has no stored terms.

All values are immutable after construction; the arithmetic methods return
new objects, so instances can be shared freely.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .scalars import (exact as _exact, integral_multiple as _integral_multiple,
                      quotient as _quotient)

VARIABLES: Tuple[str, ...] = (
    "x1", "x2", "y1", "y2", "t1", "t2", "v", "alpha", "h", "f",
    "c1F", "c2F", "c3F", "c1Q", "c2Q", "c3Q",
    "a", "b", "c", "d", "e", "g",
)

NVARS = len(VARIABLES)
VAR_INDEX: Dict[str, int] = {name: i for i, name in enumerate(VARIABLES)}

ExpKey = Tuple[int, ...]  # an exponent vector, one entry per variable
Coef = Union[int, Fraction]

# the packed layout: the degree field, then one field per variable, x1
# first, each _BITS wide with its top bit a guard
_BITS = 64
_FIELDS = struct.Struct(f">{NVARS + 1}Q")
_DEG_SHIFT = _BITS * NVARS
_SHIFT = tuple(_BITS * (NVARS - 1 - i) for i in range(NVARS))
_MASK = (1 << _BITS) - 1
_GUARD = sum(1 << (_BITS * i + _BITS - 1) for i in range(NVARS + 1))
# a key at or above this has total degree >= 2**63: some field has overflowed
_LIMIT = 1 << (_DEG_SHIFT + _BITS - 1)
ONE_KEY = 0  # the key of the monomial 1


class UnboundVariable(KeyError):
    """A variable name outside the fixed variable universe."""


class NotDivisible(ArithmeticError):
    """exact_divide found no exact quotient."""


def _pack(exp: Sequence[int]) -> int:
    """The key of the exponent vector exp."""
    if len(exp) != NVARS:
        raise ValueError(f"an exponent vector has {NVARS} entries, got {len(exp)}")
    if min(exp) < 0:
        raise ValueError("negative exponent")
    degree = sum(exp)
    if degree >= 1 << (_BITS - 1):
        raise OverflowError("exponent too large")
    return int.from_bytes(_FIELDS.pack(degree, *exp), "big")


def _unpack(key: int) -> ExpKey:
    """The exponent vector of key."""
    return _FIELDS.unpack(key.to_bytes(_FIELDS.size, "big"))[1:]


def _exponent(names: Iterable[str], exponents: Iterable[int]) -> int:
    """The key of prod(name^e)."""
    exp = [0] * NVARS
    for name, e in zip(names, exponents):
        if name not in VAR_INDEX:
            raise UnboundVariable(f"unknown variable {name!r}")
        exp[VAR_INDEX[name]] += e
    return _pack(exp)


def _checked(key: int) -> int:
    """A key computed from keys by a sum or a multiple; OverflowError if a
    degree reached 2**63 on the way (no field can exceed the degree field,
    and a carry out of one only raises the key)."""
    if key >= _LIMIT:
        raise OverflowError("exponent too large")
    return key


def key_product(a: int, b: int) -> int:
    """The key of the product of the monomials of keys a and b, as MPoly's
    product of two one-term polynomials computes it: OverflowError if its
    degree reaches 2**63."""
    return _checked(a + b)


def key_power(key: int, n: int) -> int:
    """The key of the n-th power of the monomial of key, as MPoly.__pow__
    computes it for one term: OverflowError if its degree reaches 2**63."""
    return _checked(key * n)


def key_terms(terms: "MPoly | Mapping[int, Coef]") -> Mapping[int, Coef]:
    """The terms of an MPoly, or of a dict of terms, as {key: coefficient}
    with opaque keys: the form addmul takes as a shift and split gives as
    the rest of each term.  Read-only."""
    return terms._t if isinstance(terms, MPoly) else terms


def addmul(acc: Dict[int, Coef], terms, coef=None, shift: int = ONE_KEY) -> None:
    """acc += coef * x^shift * terms, in place.

    terms is an MPoly or a dict of terms, shift an opaque key read out of
    an MPoly, split or another addmul.  With coef None the terms are added
    unscaled.  Zero sums stay in acc; the MPoly constructor drops them.
    OverflowError if an exponent of the product would reach 2**63.  The
    new value comes first in each sum, so a Fraction that starts a new key
    takes Fraction's forward addition, not its reflected path (an ABC
    isinstance check per call).  Every sparse sum goes through here except
    exact_divide's update of its remainder, which must also push each new
    key onto its heap.
    """
    terms = key_terms(terms)
    get = acc.get
    if shift:
        # the highest key has the highest degree, which bounds every field
        if terms and max(terms) + shift >= _LIMIT:
            raise OverflowError("exponent too large")
        if coef is None:
            for exp, c in terms.items():
                exp += shift
                acc[exp] = c + get(exp, 0)
        else:
            for exp, c in terms.items():
                exp += shift
                acc[exp] = coef * c + get(exp, 0)
    elif coef is None:
        for exp, c in terms.items():
            acc[exp] = c + get(exp, 0)
    else:
        for exp, c in terms.items():
            acc[exp] = coef * c + get(exp, 0)


class MPoly:
    """Immutable sparse polynomial with int or Fraction coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms: "Mapping[ExpKey | int, Coef] | None" = None):
        # keyed by exponent tuples, or by keys from addmul, split or key_terms
        t = {}
        if terms:
            for exp, coef in terms.items():
                if type(coef) is not int:
                    coef = _exact(coef)
                if coef:
                    t[exp if type(exp) is int else _pack(exp)] = coef
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
        return MPoly({ONE_KEY: c})

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
        acc: Dict[int, Coef] = {}
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
        return max(self._t) >> _DEG_SHIFT

    def is_homogeneous(self) -> bool:
        degs = {exp >> _DEG_SHIFT for exp in self._t}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "MPoly":
        return MPoly({exp: c for exp, c in self._t.items()
                      if exp >> _DEG_SHIFT == d})

    def variables(self) -> Tuple[str, ...]:
        """Names of the variables that actually occur, in precedence order."""
        seen = 0
        for exp in self._t:
            seen |= exp
        return tuple(name for name, e in zip(VARIABLES, _unpack(seen)) if e)

    def terms(self) -> Iterator[Tuple[ExpKey, Coef]]:
        """Iterate (exponent, coefficient) in canonical graded-lex order."""
        for exp in sorted(self._t, reverse=True):
            yield _unpack(exp), self._t[exp]

    def named_terms(self) -> Iterator[Tuple[Dict[str, int], Coef]]:
        """Iterate ({name: exponent}, coefficient) in canonical order; only
        the variables that occur are named, in precedence order."""
        for exp, coef in self.terms():
            yield {VARIABLES[i]: e for i, e in enumerate(exp) if e}, coef

    def items(self) -> Iterator[Tuple[ExpKey, Coef]]:
        """Iterate (exponent, coefficient) in arbitrary order."""
        for exp, coef in self._t.items():
            yield _unpack(exp), coef

    def split(self, names: Sequence[str]) -> Dict[Tuple[int, ...], Dict[int, Coef]]:
        """self as a polynomial in names: {exponents of names: {rest: coef}},
        where rest is the opaque key of the other variables' exponents."""
        shifts = [_SHIFT[VAR_INDEX[name]] for name in names]
        out: Dict[Tuple[int, ...], Dict[int, Coef]] = {}
        for exp, coef in self._t.items():
            key = tuple([exp >> s & _MASK for s in shifts])
            if any(key):
                exp -= sum(key) << _DEG_SHIFT
                for e, s in zip(key, shifts):
                    exp -= e << s
            group = out.get(key)
            if group is None:
                group = out[key] = {}
            group[exp] = coef
        return out

    def leading_term(self) -> Tuple[ExpKey, Coef]:
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self._t)
        return _unpack(exp), self._t[exp]

    def coeff(self, exps: Mapping[str, int]) -> Coef:
        return self._t.get(_exponent(exps, exps.values()), 0)

    def constant_value(self) -> Coef:
        """The value of a constant polynomial."""
        if not self._t:
            return 0
        if len(self._t) == 1 and ONE_KEY in self._t:
            return self._t[ONE_KEY]
        raise ValueError(f"not a constant polynomial: {self}")

    def integral_multiple(self) -> Tuple["MPoly", int]:
        """(L * self, L), with L the lcm of the denominators of the
        coefficients (scalars.integral_multiple); self itself when L = 1."""
        t = self._t
        if all(type(c) is int for c in t.values()):
            return self, 1
        coefs, scale = _integral_multiple(t.values())
        return MPoly(dict(zip(t, coefs))), scale

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
        t = dict(self._t)
        addmul(t, o._t, -1)
        return MPoly(t)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if len(self._t) == 1 == len(o._t):  # a monomial product: one add
            (exp, c), = self._t.items()
            (o_exp, o_c), = o._t.items()
            exp = _checked(exp + o_exp)
            return MPoly({exp: c * o_c})
        if len(self._t) > len(o._t):
            big, small = self._t, o._t
        else:
            big, small = o._t, self._t
        t: Dict[int, Coef] = {}
        for exp, c in small.items():
            addmul(t, big, c, exp)
        return MPoly(t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self ** n: one multiply of the key and one power of the
        coefficient for one term; otherwise the base times itself n - 1
        times, never a square (Fateman 1974: fewer term pairs on three or
        more terms, about three times as many on a binomial), and 0 at once
        for the zero polynomial.  Only the exponent is bounded (the 2**63
        guard), so a library caller pays for the coefficients it asks;
        parse charges their growth and the term products first, which
        bounds parsed and CLI input."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self._t) == 1:  # a power of one term: one multiply
            (exp, c), = self._t.items()
            exp = _checked(exp * n)  # before c ** n, which may be huge
            return MPoly({exp: c ** n})
        if not n:
            return _ONE
        if not self._t:
            return _ZERO
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __hash__(self):
        # a constant, zero included, equals its value and hashes as it
        if self._t.keys() <= {ONE_KEY}:
            return hash(self._t.get(ONE_KEY, 0))
        return hash(frozenset(self._t.items()))

    # ---- substitution ----

    def subs(self, assignment: Mapping[str, "MPoly | Fraction | int"]) -> "MPoly":
        """Substitute polynomials for variables; variables not mentioned in
        `assignment` are left alone.

        A one-shot Substitution, run on L self, the integral multiple of
        self (integral_multiple), with the result multiplied by 1/L once,
        so the terms are scaled and summed with int coefficients unless
        the images carry denominators."""
        whole, scale = self.integral_multiple()
        out = Substitution(assignment)(whole)
        return out if scale == 1 else out * Fraction(1, scale)

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
_ONE = MPoly({ONE_KEY: 1})
_VAR_CACHE = {name: MPoly({_exponent((name,), (1,)): 1}) for name in VARIABLES}


# The degree up to which a Substitution keeps the image powers it builds,
# from call to call: the highest x-degree the divided-difference operators
# meet in the library's own callers (8 on the divdiff benchmark's chains; 6
# for the top classes and the verify suites' random polynomials).  A call
# that needs higher powers builds them on a copy of the list and drops them,
# so an operator's table stays bounded (224 terms in all three).
_KEPT_DEGREE = 8


class Substitution:
    """Polynomials substituted for variables, applied by a call:
    Substitution(assignment)(f) is f.subs(assignment), computed term by
    term with f's coefficients as they stand (subs runs it on the integral
    multiple of f, so an f that already is one is not scanned again).

    It holds, per substituted variable, the list [1, image, image^2, ...]
    of the powers of its image built so far.  A call reads the highest
    exponent of each variable in f and extends its list to it, one product
    by the image per power, so a power is never built by squaring and a
    lone exponent n costs n products.  The list stays for later calls up to
    _KEPT_DEGREE; higher powers are built on a copy for one call and
    dropped, so a substitution applied again and again (a divided-
    difference operator) holds a bounded table.

    moved(f) is the part of f that a call can change: its terms with a
    positive exponent in some substituted variable.  Every other term is
    its own image, so f - self(f) = m - self(m) with m = moved(f); a
    divided-difference operator substitutes only m.
    """

    __slots__ = ("_touched", "_kept", "_moving")

    def __init__(self, assignment: Mapping[str, "MPoly | Fraction | int"]):
        images: Dict[int, MPoly] = {}
        for name, val in assignment.items():
            if name not in VAR_INDEX:
                raise UnboundVariable(f"unknown variable {name!r}")
            img = MPoly._lift(val)
            if img is None:
                raise TypeError(f"cannot use {val!r} as a substitution value")
            images[VAR_INDEX[name]] = img
        self._touched = [(i, _SHIFT[i]) for i in sorted(images)]
        # the fields of the substituted variables: a key meets this mask
        # exactly when its term has one of them
        self._moving = sum(_MASK << shift for _, shift in self._touched)
        # per variable index, [image ** e for e = 0, 1, ...]
        self._kept = {i: [_ONE, img] for i, img in images.items()}

    def __call__(self, f: MPoly) -> MPoly:
        keys = f._t
        touched = self._touched
        powers = {i: self._powers(i, max((exp >> shift & _MASK for exp in keys),
                                         default=0))
                  for i, shift in touched}
        out = _ZERO
        for exp, coef in keys.items():
            term = MPoly.const(coef)
            for i, shift in touched:
                e = exp >> shift & _MASK
                if e:
                    term = term * powers[i][e]
                    exp -= (e << shift) + (e << _DEG_SHIFT)
            if exp:  # the untouched variables
                term = term * MPoly({exp: 1})
            out = out + term
        return out

    def moved(self, f: MPoly) -> MPoly:
        """The terms of f with a positive exponent in a substituted
        variable; f itself when that is every term."""
        moving = self._moving
        t = {exp: coef for exp, coef in f._t.items() if exp & moving}
        return f if len(t) == len(f._t) else MPoly(t)

    def _powers(self, i: int, top: int) -> Sequence[MPoly]:
        """[image ** e for e = 0 .. top] or longer, for the variable of
        index i: the kept list, extended up to _KEPT_DEGREE, or past it a
        copy extended to top for this call only."""
        powers = self._kept[i]
        image = powers[1]
        while len(powers) <= min(top, _KEPT_DEGREE):
            powers.append(powers[-1] * image)
        if top >= len(powers):
            powers = powers[:]
            while len(powers) <= top:
                powers.append(powers[-1] * image)
        return powers


def exact_divide(f: MPoly, g: MPoly) -> MPoly:
    """Return q with f = q*g, or raise NotDivisible.

    Uses leading-term division in the graded-lex order; for an exact multiple
    the leading term of f is always divisible by the leading term of g, so
    the loop peels off one quotient term per step.  The remainder is one
    dict, a copy of f's terms, with a max-heap of its keys (Monagan and
    Pearce, J. Symb. Comput. 46, 2011), so each step pops the largest key
    instead of scanning the remainder for it.  Each step subtracts q_coef
    x^q_exp times g's tail (its non-leading terms) from the remainder in
    place, by a loop of its own rather than addmul: the heap must see each
    key that enters the remainder, which addmul cannot report, and a call
    per step would cost more than the two or three terms of a root's tail.
    f and g are not changed.  Coefficients divide by scalars.quotient, so an
    integral polynomial divided by one with leading coefficient +-1 (every
    divided-difference root) stays in int arithmetic.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return MPoly.zero()
    g_exp = max(g._t)
    g_coef = g._t[g_exp]
    # g's tail as offsets from its leading key: the key a tail term reaches
    # from the remainder's leading key r_exp is r_exp + offset
    tail = [(exp - g_exp, c) for exp, c in g._t.items() if exp != g_exp]
    out: Dict[int, Coef] = {}
    rem = dict(f._t)
    heap = [-exp for exp in rem]  # negated: heapq pops the smallest
    heapify(heap)
    while heap:
        r_exp = -heappop(heap)
        r_coef = rem.pop(r_exp)
        if not r_coef:  # a zero sum; its key need not divide
            continue
        q_exp = r_exp - g_exp
        if q_exp & _GUARD:  # some exponent borrowed
            raise NotDivisible(f"({f}) is not divisible by ({g})")
        q_coef = _quotient(r_coef, g_coef)
        out[q_exp] = q_coef  # q_exp strictly decreases, so it is new
        # r_exp itself cancels: r_coef - q_coef g_coef is 0.  Each tail key
        # is below r_exp, hence below every key popped so far, and of no
        # higher degree: no key comes back once popped, and no degree can
        # reach the 2**63 guard.  A key joins the heap once, on entering rem.
        for offset, c in tail:
            exp = r_exp + offset
            old = rem.get(exp)
            if old is None:
                rem[exp] = -q_coef * c
                heappush(heap, -exp)
            else:
                rem[exp] = old - q_coef * c
    return MPoly(out)
