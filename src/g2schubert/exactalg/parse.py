"""Text grammar for polynomials over the fixed variable universe.

    expr    := [sign] term { ('+' | '-') term }
    term    := factor { ['*'] factor }          (juxtaposition multiplies)
    factor  := primary ['^' INT]
    primary := ('+' | '-') primary | RATIONAL | VARIABLE | '(' expr ')'
    RATIONAL:= INT ['/' INT]
    INT     := ASCII digits 0-9

Coefficients are integers or p/q rationals; '^' is the only power operator;
'*' is optional.  A sign where a primary is due is part of that primary,
so x1*-2^2 is 4 x1, and 2 - -2^2 is -2; a sign before a term is the sum's.

A sum costs time linear in its terms: each term goes into one dict by one
addmul.  A term whose factors each have one term (an INT, a p/q, a
variable, a power of one of these, any of them signed) is built as one
coefficient and one monomial key, multiplied by mpoly's key_product and
key_power, with no MPoly per factor; such a value's height (see _height)
is its coefficient's.  Every printed term has that shape.  Only a
parenthesized factor, which may have more terms, makes the rest of its
term a product of MPolys.  Either way each product and power is charged,
and raises, as if every factor were an MPoly: the same products and bits
at the same offsets, and the exponent guard's OverflowError at the same
step.

One parse spends at most 100 000 bits of coefficient growth, or 16 per
character of the input if that is more, and at most 300 000 term
products, or 7 per character if that is more, a product of coefficients
of heights a and b counting as 1 + a b / 2^21 + max(a, b) / 2^13
(_pair_cost): the product itself, and the carrying of the larger
coefficient, which costs as much when the other is 1.  It raises
PolySyntaxError past either budget, at the offset of the product or of
the power's exponent.  Both are charged before each product and power,
from the term counts and heights of its factors, so 3^9999999, and the
250 000 term products of a product of two 500-term polynomials with
33 000-bit coefficients on one side or on both, are refused before they
are computed.  Printing (MPoly.__str__) emits canonical graded-lex form,
and parse(print(f)) == f: a printed term is a literal coefficient times
powers of variables, so it grows no coefficient, and each power of one
term in it is charged one term product, whatever its exponent.  An INT of
more digits than Python's int-string conversion limit
(sys.get_int_max_str_digits, 4300 by default) raises PolySyntaxError at
its offset; no printable coefficient has that many, since printing it
would hit the same limit.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb

from .mpoly import (ONE_KEY, VARIABLES, MPoly, addmul, key_power, key_product,
                    key_terms)
from .scalars import exact

# one parse may spend at most this many term products, or _PRODUCTS_PER_CHAR
# per character of its input if that is more: a product charges
# len(a) * len(b), a power _power_products (n - 1 products by its base, or
# one for a single term), each weighted by _pair_cost
_MAX_TERM_PRODUCTS = 300_000
_PRODUCTS_PER_CHAR = 7
# and at most this many bits of coefficient growth, or _BITS_PER_CHAR per
# character if that is more (see _height)
_MAX_COEF_BITS = 100_000
_BITS_PER_CHAR = 16


class PolySyntaxError(ValueError):
    """Syntax error, carrying the byte offset of the offending token."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class UnknownVariable(PolySyntaxError):
    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown variable {name!r}", pos)
        self.name = name


_PUNCT = set("+-*^()/")
_DIGITS = set("0123456789")  # str.isdigit would take '²' and '١' too
# Python's int-string conversion limit, 0 for none: the limit and its getter
# came with Python 3.11 and 3.10.7
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _pair_cost(a: int, b: int) -> int:
    """The term products charged for multiplying two coefficients of
    heights a and b and adding the result into a sum: within a factor of
    about 2 of what that costs next to a product of small coefficients,
    from 1000 to 200 000 bits.  The quadratic part is the product (two
    4096-bit coefficients count 9 times, two 33 000-bit ones 524); the
    linear part is carrying the larger one, which costs as much when the
    other is 1 (a 33 000-bit coefficient times 1 counts 5 times, a
    99 000-bit one 13)."""
    return 1 + (a * b >> 21) + ((a if a > b else b) >> 13)


def _power_products(k: int, height: int, n: int, limit: int) -> int:
    """An upper bound on the term products MPoly.__pow__ spends on the n-th
    power of a k-term polynomial of the given height: none for k = 0, one
    for k = 1, whatever n, and otherwise its n - 1 products with the base,
    the e-th power having at most comb(e + k - 1, k - 1) terms, of height
    at most e (height + log2 k); exact in term pairs for a dense base.
    Counting stops once the bound passes limit."""
    if k <= 1:
        return k
    step = height + _log2_ceil(k)
    products = 0
    for e in range(1, n):
        if products > limit:
            break
        products += comb(e + k - 1, k - 1) * k * _pair_cost(e * step, height)
    return products


def _coef_height(c) -> int:
    """_height of a one-term polynomial with coefficient c: 0 for 0."""
    bits = (c.bit_length() - 1 if type(c) is int  # its denominator 1 has 1 bit
            else c.numerator.bit_length() + c.denominator.bit_length() - 2)
    return bits if bits > 0 else 0


def _height(f: MPoly) -> int:
    """About log2 |p q| for the largest coefficient p/q of f: 0 for 1 and
    for the zero polynomial.  A product of coefficients of heights a and b
    has height at most about a + b, and a sum of k of them adds log2 k, so
    a product of polynomials charges the smaller height plus log2 of the
    shorter term count, and the n-th power of a k-term polynomial of height
    h charges n (h + log2 k) - h."""
    return max(map(_coef_height, key_terms(f).values()), default=0)


def _log2_ceil(k: int) -> int:
    """ceil(log2 k), 0 for k <= 1."""
    return max(k - 1, 0).bit_length()


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    limit = _max_str_digits()
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if limit and j - i > limit:  # int() would refuse it, with no offset
                raise PolySyntaxError(f"integer literal of {j - i} digits is longer "
                                      f"than the {limit} digits Python converts", i)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# a one-term value, or the zero polynomial, as (coefficient, key, height):
# the coefficient is 0 for zero, and then the key is ONE_KEY
_ZERO_TERM = (0, ONE_KEY, 0)
_VAR_TERMS = {name: (1, key, 0) for name in VARIABLES
              for key in key_terms(MPoly.var(name))}
_PRODUCT = "product of a {}-term and a {}-term polynomial"
_POWER = "power ^{} of a {}-term polynomial"


def _as_poly(value) -> MPoly:
    """A factor's value as an MPoly."""
    if type(value) is MPoly:
        return value
    c, key, _ = value
    return MPoly({key: c})


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.products = 0  # term products spent so far
        self.budget = max(_MAX_TERM_PRODUCTS, _PRODUCTS_PER_CHAR * len(text))
        self.bits = 0  # coefficient bits grown so far
        self.bit_budget = max(_MAX_COEF_BITS, _BITS_PER_CHAR * len(text))

    def expect(self, kind: str):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def charge(self, products: int, bits: int, pos: int, what: str, *args):
        """Spend coefficient bits and term products on the step at pos,
        which what.format(*args) names."""
        self.bits += bits
        if self.bits > self.bit_budget:
            raise PolySyntaxError(f"{what.format(*args)} would take this input "
                                  f"past {self.bit_budget} coefficient bits", pos)
        self.products += products
        if self.products > self.budget:
            raise PolySyntaxError(f"{what.format(*args)} would take this input "
                                  f"past {self.budget} term products", pos)

    def parse(self) -> MPoly:
        result = self.expr()
        kind, value, pos = self.tokens[self.pos]
        if kind != "end":
            raise PolySyntaxError(f"unexpected {value!r}", pos)
        return result

    def expr(self) -> MPoly:
        # accumulated in one dict: adding each term to an MPoly would copy
        # the sum so far
        acc = {}
        tokens = self.tokens
        op = tokens[self.pos][0]
        if op in ("+", "-"):
            self.pos += 1
        while True:
            value = self.term()
            if type(value) is tuple:  # one coefficient and one key
                value = {value[1]: value[0]}
            addmul(acc, value, -1 if op == "-" else None)
            op = tokens[self.pos][0]
            if op not in ("+", "-"):
                return MPoly(acc)
            self.pos += 1

    def term(self):
        """A product of factors: one (coefficient, key, height) while each
        factor has one term or none, an MPoly from the first factor that
        may have more.  Either way each product is charged as a product of
        polynomials of those term counts and heights."""
        tokens = self.tokens
        value = self.factor()
        while True:
            kind, _, pos = tokens[self.pos]
            if kind == "*":
                self.pos += 1
            elif kind not in ("int", "name", "("):
                return value
            right = self.factor()
            if type(value) is tuple and type(right) is tuple:
                c, key, h = value
                rc, rkey, rh = right
                if not (c and rc):  # a product with zero: 0 products, 0 bits
                    value = _ZERO_TERM
                    continue
                self.charge(_pair_cost(h, rh), h if h < rh else rh, pos,
                            _PRODUCT, 1, 1)
                key = key_product(key, rkey)
                if rc != 1:
                    c *= rc
                    h = _coef_height(c)
                value = (c, key, h)
                continue
            value, right = _as_poly(value), _as_poly(right)
            a, b = _height(value), _height(right)
            self.charge(len(value) * len(right) * _pair_cost(a, b),
                        min(a, b) + _log2_ceil(min(len(value), len(right))),
                        pos, _PRODUCT, len(value), len(right))
            value = value * right

    def factor(self):
        base = self.primary()
        if self.tokens[self.pos][0] != "^":
            return base
        self.pos += 1
        _, value, pos = self.expect("int")
        n = int(value)
        if type(base) is tuple:
            c, key, h = base
            if not c:  # the zero polynomial: 1 or itself, at no charge
                return (1, ONE_KEY, 0) if n == 0 else base
            self.charge(1, max(0, (n - 1) * h), pos, _POWER, n, 1)
            key = key_power(key, n)  # before c ** n, which may be huge
            if c == 1:  # a variable's power, say: c ** n is 1
                return (c, key, 0)
            c = c ** n
            return (c, key, _coef_height(c))
        height = _height(base)
        self.charge(_power_products(len(base), height, n, self.budget),
                    max(0, n * (height + _log2_ceil(len(base))) - height),
                    pos, _POWER, n, len(base))
        return base ** n

    def primary(self):
        kind, value, pos = self.tokens[self.pos]
        self.pos += 1
        if kind == "name":
            term = _VAR_TERMS.get(value)
            if term is None:
                raise UnknownVariable(value, pos)
            return term
        if kind == "int":
            c = int(value)
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                den_tok = self.expect("int")
                den = int(den_tok[1])
                if den == 0:
                    raise PolySyntaxError("zero denominator", den_tok[2])
                c = exact(Fraction(c, den))
            return (c, ONE_KEY, _coef_height(c)) if c else _ZERO_TERM
        if kind == "-":
            base = self.primary()
            if type(base) is MPoly:
                return -base
            c, key, h = base
            return (-c, key, h)
        if kind == "+":
            return self.primary()
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise PolySyntaxError(f"expected a polynomial, found {value!r}", pos)


def parse_poly(text: str) -> MPoly:
    """Parse a polynomial in the CLI grammar."""
    return _Parser(text).parse()
