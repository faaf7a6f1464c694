"""Exact scalar types: rationals and Gaussian rationals.

A rational is stored as an int when it is integral and as a
`fractions.Fraction` (lowest terms, denominator > 1) otherwise, the rule
MPoly coefficients follow too; `exact` puts a value in that form.  Integral
arithmetic then never pays for Fraction.  Python's `/` on two ints returns a
float, so every division of rationals goes through `quotient`, which is
exact and gives an int when the quotient is integral.  `integral_multiple`
is the one place that clears denominators: it scales rationals by L, the lcm
of their denominators, and keeps L, so that exact work can run on ints and
divide by L once (MPoly.integral_multiple does the same for a polynomial's
coefficients, and integral_multiple_of_ratios for rationals given as
numerator and denominator ints, such as a random draw).  `GaussRat` adjoins
a square root of -1; it is only needed for the change of basis between the
orthonormal and isotropic octonion bases.  Both of its parts follow the
int-or-Fraction rule, and its division is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Tuple, Union

Rational = Union[int, Fraction]


def exact(value) -> Rational:
    """value as an int, or a Fraction with denominator > 1; TypeError on a
    float, which is never exact."""
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; exact scalars and MPoly "
                        f"coefficients are int or Fraction")
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def quotient(a: Rational, b: Rational) -> Rational:
    """a / b exactly, as an int when it is integral; ZeroDivisionError when
    b is 0."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = (a if isinstance(a, Fraction) else Fraction(a)) / b
    return q.numerator if q.denominator == 1 else q


def integral_multiple(values) -> Tuple[List[int], int]:
    """(L * values, L) for exact rationals: L is the least positive int with
    every L * value an int (the lcm of the denominators), and the multiples
    come back as a list of ints.  Every value passes through exact, so a
    float raises TypeError."""
    values = [x if type(x) is int else exact(x) for x in values]
    scale = 1
    for x in values:
        if type(x) is not int:
            scale = lcm(scale, x.denominator)
    if scale != 1:
        values = [x * scale if type(x) is int
                  else x.numerator * (scale // x.denominator) for x in values]
    return values, scale


def integral_multiple_of_ratios(ratios) -> Tuple[List[int], int]:
    """integral_multiple of the rationals n/d given as int pairs (n, d) with
    d > 0, computed on the ints with no Fraction built: L is the lcm of the
    reduced denominators d / gcd(n, d), and L n/d is n L // d."""
    ratios = list(ratios)
    scale = lcm(*(d // gcd(n, d) for n, d in ratios))
    return [n * scale // d for n, d in ratios], scale


class GaussRat:
    """A Gaussian rational re + im*i with exact rational parts, i^2 = -1."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is int else exact(re))
        object.__setattr__(self, "im", im if type(im) is int else exact(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def _lift(other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRat(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return self * GaussRat(quotient(o.re, n), quotient(-o.im, n))

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real GaussRat equals its rational part and hashes as it
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"
