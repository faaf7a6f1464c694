"""Seeded grammar-based fuzzing of the polynomial parser and cli._rational.

Inputs are drawn from the grammar of exactalg.parse (and of a command-line
rational), each with the value it denotes, computed by MPoly arithmetic
beside the text; some are then mutated at random (Godefroid, Kiezun &
Levin, "Grammar-based whitebox fuzzing", PLDI 2008).  Every input must
parse within a fixed time or raise PolySyntaxError at an offset inside the
text; a grammatical input may be refused only by one of the parser's
budgets or by Python's int-string limit.  Whatever parses must equal its
value, if it has one, and survive print then parse.
"""

import random
import sys
import time
from fractions import Fraction

from g2schubert import cli
from g2schubert.exactalg import MPoly, PolySyntaxError, parse_poly
from g2schubert.exactalg.mpoly import VARIABLES

SEED = 2008
SECONDS_PER_INPUT = 2  # the parser's budgets keep every input well below this
NAMES = ("x1", "x2", "y1", "t1", "alpha", "c2Q", "g")
# non-ASCII characters that str.isdigit or str.isalnum accept
ODD_DIGITS = "²٣०１"
# Python's int-string conversion limit, 0 for none
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# what may refuse a grammatical input: one of the two budgets, or a literal
# past the int-string limit
REFUSALS = ("term products", "coefficient bits", "digits Python converts")


def _apply(op, *values):
    """op(*values), or None (value unknown) if any of them is None."""
    return None if any(v is None for v in values) else op(*values)


class _Grammar:
    """Random sentences of the parse grammar, each with its value: an MPoly,
    or None when it holds a literal too long to convert."""

    def __init__(self, rng, long_share=0.01):
        self.rng = rng
        self.long_share = long_share

    def literal(self, lead="0123456789"):
        """An INT, with its int value or None."""
        rng = self.rng
        if rng.random() < self.long_share:  # sometimes past the int-string limit
            digits = rng.choice((300, 4299, 4300, 4301, 5000))
        else:
            digits = rng.randint(1, 3)
        text = rng.choice(lead) + "".join(
            rng.choice("0123456789") for _ in range(digits - 1))
        return text, None if LIMIT and digits > LIMIT else int(text)

    def primary(self, depth):
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            num, n = self.literal()
            if rng.random() < 0.3:
                den, d = self.literal(lead="123456789")
                return f"{num}/{den}", _apply(lambda a, b: MPoly.const(Fraction(a, b)), n, d)
            return num, _apply(MPoly.const, n)
        if roll < 0.75 or depth <= 0:
            name = rng.choice(NAMES)
            return name, MPoly.var(name)
        text, value = self.expr(depth - 1)
        return f"({text})", value

    def factor(self, depth):
        text, value = self.primary(depth)
        if self.rng.random() < 0.3:
            # nested powers stay small; a power of one term may be large
            single = value is not None and len(value) == 1
            n = self.rng.choice((0, 1, 2, 3, 12, 40) if single else (0, 1, 2))
            text = f"{text}^{n}"
            value = _apply(lambda f: f ** n, value)
        return text, value

    def term(self, depth):
        text, value = self.factor(depth)
        for _ in range(self.rng.randint(0, 2)):
            t, v = self.factor(depth)
            text = f"{text}{self.rng.choice(('*', ' * ', ' '))}{t}"
            value = _apply(lambda a, b: a * b, value, v)
        return text, value

    def expr(self, depth=2):
        rng = self.rng
        text, value = self.term(depth)
        if rng.random() < 0.2:
            text, value = "-" + text, _apply(lambda f: -f, value)
        for _ in range(rng.randint(0, 3)):
            op = rng.choice("+-")
            t, v = self.term(depth)
            text = f"{text} {op} {t}"
            value = _apply(lambda a, b: a + b if op == "+" else a - b, value, v)
        return text, value

    def large_product(self):
        """(2^bits * (x1^0 + ... + x1^(k-1))) * (x1^0 + ... + x1^(m-1)), in
        either order; its value is written down, not multiplied out."""
        rng = self.rng
        bits = rng.choice((0, 1000, 8000, 33000, 99000))
        k, m = rng.choice((1, 10, 100, 500)), rng.choice((1, 10, 100, 500))
        big = f"(2^{bits}*(" + "+".join(f"x1^{i}" for i in range(k)) + "))"
        small = "(" + "+".join(f"x1^{i}" for i in range(m)) + ")"
        text = f"{big}*{small}" if rng.random() < 0.5 else f"{small}*{big}"
        # x1^j arises min(j, k - 1, m - 1, k + m - 2 - j) + 1 times
        rest = (0,) * (len(VARIABLES) - 1)  # x1 comes first
        return text, MPoly({(j,) + rest: min(j, k - 1, m - 1, k + m - 2 - j) + 1
                            for j in range(k + m - 1)}) * 2 ** bits


def _mutate(rng, text):
    """text with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    extra = rng.choice(ODD_DIGITS + "+-*^()/ 7_")
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + extra + text[i:]
    if kind == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + extra + text[i + 1:]


def _inputs(count):
    """count (text, value) pairs; a mutated text has value None."""
    rng = random.Random(SEED)
    grammar = _Grammar(rng)
    for i in range(count):
        if i % 20 == 0:
            yield grammar.large_product()
            continue
        text, value = grammar.expr()
        if rng.random() < 0.3:
            yield _mutate(rng, text), None
        else:
            yield text, value


def test_parse_poly_parses_or_refuses_at_an_offset():
    parsed = refused = 0
    for text, value in _inputs(400):
        start = time.perf_counter()
        try:
            f = parse_poly(text)
        except PolySyntaxError as err:
            assert 0 <= err.pos <= len(text), text
            assert str(err).endswith(f"(at offset {err.pos})")
            if value is not None:
                assert any(r in str(err) for r in REFUSALS), (text, str(err))
            refused += 1
        else:
            if value is not None:
                assert f == value, text
            try:
                printed = str(f)
            except ValueError:  # a coefficient of more digits than print allows
                assert LIMIT and max(max(abs(Fraction(c).numerator), Fraction(c).denominator)
                                     for _, c in f.items()).bit_length() > 3 * LIMIT
            else:
                assert parse_poly(printed) == f, text
            parsed += 1
        assert time.perf_counter() - start < SECONDS_PER_INPUT, text
    # the draw reaches both outcomes
    assert parsed > 250 and refused > 60


def test_cli_rational_reads_p_over_q_or_refuses_in_one_line():
    rng = random.Random(SEED + 1)
    grammar = _Grammar(rng, long_share=0.05)
    for _ in range(400):
        text, value = grammar.literal()
        if rng.random() < 0.4:
            den, d = grammar.literal(lead="123456789")
            text, value = f"{text}/{den}", _apply(Fraction, value, d)
        if rng.random() < 0.3:
            sign = rng.choice("+-")
            text = sign + text
            value = _apply(lambda v: -v if sign == "-" else v, value)
        if rng.random() < 0.3:
            text = rng.choice(("", " ", "\t")) + text + rng.choice(("", " "))
        if rng.random() < 0.3:
            text, value = _mutate(rng, text), None
        try:
            got = cli._rational(text)
        except ValueError as err:
            assert value is None, text
            assert "\n" not in str(err)
            continue
        assert got == (Fraction(text) if value is None else value)
