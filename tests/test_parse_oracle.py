"""The polynomial parser against a reference copy of its earlier form.

_Reference is the parser as it stood before a term whose factors each have
one term was built as one coefficient and one key: every factor an MPoly,
every product and power an MPoly operation, charged from the term counts
and heights that _height scans.  The two must agree on every input: the
same value with the same int-or-Fraction storage, or the same exception
type, message and offset; and on the way there the same charges, in the
same order, at the same offsets.  A charge of no products and no bits
(a product or power of the zero polynomial) can refuse nothing, and is
left out of the comparison.  Inputs are the grammar of test_parse_fuzz,
mutated or not, at several seeds, and hand cases for the corners of the
grammar, the exponent guard, the budgets and the tokenizer.
"""

import random
from fractions import Fraction

import pytest

from g2schubert.exactalg import MPoly, PolySyntaxError, UnknownVariable, parse
from g2schubert.exactalg.mpoly import UnboundVariable, addmul, key_terms
from test_parse_fuzz import _Grammar, _mutate

SEEDS = (1, 2, 3, 4)
INPUTS_PER_SEED = 150
LIMIT = 4300  # the int-string limit the tokenizer is run under here
BIG = 2 ** 62  # twice this is a degree of 2**63, past the exponent guard


def _old_height(f: MPoly) -> int:
    bits = 2
    for c in key_terms(f).values():
        b = (c.bit_length() + 1 if type(c) is int
             else c.numerator.bit_length() + c.denominator.bit_length())
        if b > bits:
            bits = b
    return bits - 2


class _Reference:
    """The earlier parser, kept as it was, with its charges logged."""

    def __init__(self, text: str):
        self.tokens = parse._tokenize(text)
        self.pos = 0
        self.products = 0
        self.budget = max(parse._MAX_TERM_PRODUCTS, parse._PRODUCTS_PER_CHAR * len(text))
        self.bits = 0
        self.bit_budget = max(parse._MAX_COEF_BITS, parse._BITS_PER_CHAR * len(text))
        self.log = []

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def charge(self, products: int, bits: int, pos: int, what):
        self.log.append((products, bits, pos, what()))
        self.bits += bits
        if self.bits > self.bit_budget:
            raise PolySyntaxError(f"{what()} would take this input past "
                                  f"{self.bit_budget} coefficient bits", pos)
        self.products += products
        if self.products > self.budget:
            raise PolySyntaxError(f"{what()} would take this input past "
                                  f"{self.budget} term products", pos)

    def parse(self) -> MPoly:
        result = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolySyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return result

    def expr(self) -> MPoly:
        acc = {}
        op = self.advance()[0] if self.peek()[0] in ("+", "-") else "+"
        while True:
            addmul(acc, self.term(), -1 if op == "-" else None)
            if self.peek()[0] not in ("+", "-"):
                return MPoly(acc)
            op = self.advance()[0]

    def term(self) -> MPoly:
        result = self.factor()
        while True:
            kind, _, pos = self.peek()
            if kind == "*":
                self.advance()
            elif kind not in ("int", "name", "("):
                return result
            right = self.factor()
            a, b = _old_height(result), _old_height(right)
            self.charge(len(result) * len(right) * parse._pair_cost(a, b),
                        min(a, b) + parse._log2_ceil(min(len(result), len(right))),
                        pos, lambda: (f"product of a {len(result)}-term and "
                                      f"a {len(right)}-term polynomial"))
            result = result * right

    def factor(self) -> MPoly:
        base = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            n = int(tok[1])
            height = _old_height(base)
            self.charge(parse._power_products(len(base), height, n, self.budget),
                        max(0, n * (height + parse._log2_ceil(len(base))) - height),
                        tok[2], lambda: f"power ^{n} of a {len(base)}-term polynomial")
            base = base ** n
        return base

    def primary(self) -> MPoly:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "-":
            return -self.primary()
        if kind == "+":
            return self.primary()
        if kind == "int":
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("int")
                den = int(den_tok[1])
                if den == 0:
                    raise PolySyntaxError("zero denominator", den_tok[2])
                return MPoly.const(Fraction(num, den))
            return MPoly.const(num)
        if kind == "name":
            try:
                return MPoly.var(value)
            except UnboundVariable:
                raise UnknownVariable(value, pos) from None
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise PolySyntaxError(f"expected a polynomial, found {value!r}", pos)


class _Logged(parse._Parser):
    """The parser under test, with its charges logged."""

    def __init__(self, text: str):
        super().__init__(text)
        self.log = []

    def charge(self, products, bits, pos, what, *args):
        self.log.append((products, bits, pos, what.format(*args)))
        super().charge(products, bits, pos, what, *args)


def _outcome(parser_class, text):
    """(value, storage) or (exception type, message, offset), then the
    charges that spend something."""
    try:
        parser = parser_class(text)
    except Exception as err:  # the tokenizer refused it
        return (type(err), str(err), getattr(err, "pos", None)), []
    try:
        f = parser.parse()
    except Exception as err:
        outcome = (type(err), str(err), getattr(err, "pos", None))
    else:
        outcome = (f, {key: type(c) for key, c in key_terms(f).items()})
    return outcome, [entry for entry in parser.log if entry[0] or entry[1]]


def _agree(text):
    expected = _outcome(_Reference, text)
    assert _outcome(_Logged, text) == expected, text
    return expected[0]


@pytest.fixture(autouse=True)
def int_str_limit(monkeypatch):
    monkeypatch.setattr(parse, "_max_str_digits", lambda: LIMIT)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_grammar_parses_as_the_reference(seed):
    rng = random.Random(seed)
    grammar = _Grammar(rng)
    outcomes = set()
    for i in range(INPUTS_PER_SEED):
        text = (grammar.large_product() if i % 25 == 0 else grammar.expr())[0]
        if rng.random() < 0.3:
            text = _mutate(rng, text)
        outcome = _agree(text)
        outcomes.add(outcome[0] if isinstance(outcome[0], type) else MPoly)
    # the draw reaches values and refusals both
    assert MPoly in outcomes and PolySyntaxError in outcomes


ONES = "(" + "+".join(f"x1^{i}" for i in range(500)) + ")"
SQUARE = f"{ONES}*{ONES}"
HAND_CASES = [
    # juxtaposition, with and without a rational
    "2x1", "3/4x1", "3/4 x1^2 x2", "2 3 x1", "x1 x1 y1^2",
    # unary signs inside products and under powers
    "2*-x1", "--x1", "-+-x1", "2*-3^2", "-2^2", "x1*-x2^3*+y1",
    "-(x1+x2)^2", "2*-(x1-x2)", "- - 3/4",
    # a power is one exponent; a polynomial factor switches the term
    "x1^2^3", "(x1+x2)^2*x1", "x1*(x1+x2)^2*x2^3*2", "(2x1)^3", "(x1)^2x2",
    "(x1+x2)*3/4*x1", "(x1 - x1)*x2", "x1^0", "(1/2)^3 x1", "1/2^3",
    "4/2 x1", "1/2^0 x1", "(1/2)^0", "2/4^2 x1", "x1*-2^2", "2 - -2^2",
    "0/7 x1 + x2", "-0", "x1 - x1", "2x1 - 2 x1 + 0",
    # the zero polynomial in a product, and its powers
    "0^5*x1", "0^0*x1", "x1*0^3", "(0)^0 x1", "0^99999999999999999999 x1",
    f"0*x1^{BIG}*x1^{BIG}", f"x1^{BIG}*0*x1^{BIG}",
    # the exponent guard, at a power or at a product, before a later
    # syntax error or unknown variable
    f"x1^{2 * BIG}", f"x1^{2 * BIG - 1}", f"(x1*x2)^{BIG}",
    f"x1^{BIG}*x1^{BIG} +", f"x1^{BIG}*x2^{BIG} zz", f"x1^{BIG} x1^{BIG})",
    f"x1^{BIG}*(x1+x2)^{BIG}", f"x1^{2 * BIG}^2", f"x1^{BIG} x1^{BIG - 1} 1/0",
    # syntax errors, and their offsets
    "", "+", "x1 +", "x1 + + x2 ^", "x1 + zz", "2 zz", "x1/2", "1/0",
    "1/", "()", "(x1", "x1)", "x1^", "x1^x2", "x1^-2", "*x1", "x1**2",
    "2^1/2", "x1 ^ 2 ^", "((x1)", "-", "x1 -",
    # the coefficient-bit budget, at a power or a product
    "x1^7*3^9999999", "(2^60000)^2", "(3^40000 + x1)^3", "2^50000 * 2^40000",
    "(1/2)^1099511627776", "(2*x1)^1099511627776", "2^100001", "2^100002",
    "x1^3 * 2^60000 * 3^60000", "-2^70000 * -3/5^30000",
    "1/3^40000 * 5/7^40000 * x1",
    # the term-product budget, at a product of polynomials, of one term,
    # and at a power of one term
    # (SQUARE spends 251 000 with its 1000 powers; each product by the
    # 90 000-bit coefficient 11, so 4454 of them leave 5)
    SQUARE, SQUARE + "+2^90000" + "*x1" * 5000,
    SQUARE + "+2^90000" + "*x1" * 4454 + "+x1^2" * 10,
    "(2^33000*" + ONES + ")*(2^33000*" + ONES + ")",
    "(2^99000*" + ONES + ")*" + ONES,
    # the tokenizer: non-ASCII digits and space, and the int-string limit
    "x1^²", "x1 ١", "²", "١x1", "x1　+　x2", "x²", "x1_2",
    "　", "x1^٣", "x1 \t\n+ 2",
    "7" * (LIMIT + 1), "7" * LIMIT + " x1", f"x1 + 2/{'1' * (LIMIT + 1)}",
    f"x1^{'1' * (LIMIT + 1)}",
]


@pytest.mark.parametrize("text", HAND_CASES,
                         ids=[f"{i}:{case[:30]}" for i, case in enumerate(HAND_CASES)])
def test_hand_cases_parse_as_the_reference(text):
    _agree(text)


def test_the_hand_cases_reach_every_outcome():
    # each kind of refusal the parser has is among the hand cases
    kinds = set()
    for text in HAND_CASES:
        outcome = _outcome(_Reference, text)[0]
        if isinstance(outcome[0], type):
            message = outcome[1]
            kinds.add(next((k for k in ("term products", "coefficient bits",
                                        "digits Python converts", "unexpected character",
                                        "unknown variable", "exponent too large")
                            if k in message), outcome[0].__name__))
    assert {"term products", "coefficient bits", "digits Python converts",
            "unexpected character", "unknown variable", "exponent too large",
            "PolySyntaxError"} <= kinds
    # and the term-product budget refuses a product and a power of one term
    messages = [outcome[1] for outcome in map(lambda t: _outcome(_Reference, t)[0], HAND_CASES)
                if isinstance(outcome[0], type)]
    for culprit in ("product of a 1-term and a 1-term polynomial",
                    "power ^2 of a 1-term polynomial"):
        assert any(m.startswith(f"{culprit} would take this input past 300000 term "
                                "products") for m in messages), culprit
