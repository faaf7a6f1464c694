"""Inputs, operations and exact checks of the three benchmark workloads.

Inputs are generated from the workload seed with random.Random alone; the
program only ever sees the generated text and polynomials.  Each workload
turns its inputs into a list of Op records.  An Op's `run` is the timed
call into the program; its `check` and `render` run outside the timed
interval.  `check` returns None or a description of what is wrong, and
`render` gives the output text that the golden digests and the
pass-to-pass comparison use.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

PACKAGE = "g2schubert"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    render: Callable[[object], str]
    sample: bool = True  # counted in op_p50_ms / op_tail_ms


class Program:
    """The modules of the package."""

    def __init__(self):
        pkg = importlib.import_module(PACKAGE)
        self.cli = importlib.import_module(PACKAGE + ".cli")
        self.checks = pkg.checks
        self.cohomring = pkg.cohomring
        self.schubert = pkg.schubert
        self.weyl = pkg.weyl
        self.octonion = pkg.octonion
        self.exactalg = pkg.exactalg
        self.mpoly = importlib.import_module(PACKAGE + ".exactalg.mpoly")
        self.parse = importlib.import_module(PACKAGE + ".exactalg.parse")
        self.linsolve = importlib.import_module(PACKAGE + ".exactalg.linsolve")
        self.lp = importlib.import_module(PACKAGE + ".exactalg.lp")
        # kept before any tracing wraps the name, for cache_clear/cache_info
        self.family_cache = self.schubert.generate_family

    def reset_caches(self):
        """Make the next pass start as cold as a fresh g2sc process."""
        self.family_cache.cache_clear()


# ---------------------------------------------------------------------------
# verify: the nine suites of `g2sc verify all`, one op per suite

def verify_ops(prog: Program) -> List[Op]:
    seed = str(prog.checks.DEFAULT_SEED)

    def suite(name):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = prog.cli.main(["verify", name, "--format", "json",
                                      "--seed", seed])
            return code, out.getvalue()
        return run

    def check(result):
        code, _ = result
        return None if code == 0 else f"g2sc verify exited {code}"

    return [Op(f"verify {name}", suite(name), check, lambda r: r[1])
            for name in prog.checks.SUITE_NAMES]


# ---------------------------------------------------------------------------
# reduce: independent reduce / expand requests on the bundle presentations

FL_MAIN = ("x1", "x2", "alpha")
HALF_MAIN = ("x1", "x2")
QUADRIC_MAIN = ("h", "f")
CHERN = ("c1F", "c2F", "c3F", "c1Q", "c2Q", "c3Q")

# (verb, presentation, family, main variables, base variables, degree).
# One block of ten requests; a pass repeats the block.  Costs differ by
# about 50x between the cheapest and the dearest class.  The two dearest
# classes cost about the same and fill the top fifth of the block, and the
# fifth and sixth classes cost about the same, so the median and the 90th
# percentile each fall inside a cluster of samples, not on a gap.
REDUCE_BLOCK: Tuple[tuple, ...] = (
    ("expand", "FlHalfPoint", "point", HALF_MAIN, (), 10),
    ("reduce", "FlHalfBundle", None, HALF_MAIN, ("y1", "y2"), 8),
    ("reduce", "Equivariant", None, FL_MAIN, ("t1", "t2"), 5),
    ("reduce", "FlIntegralBundleY", None, FL_MAIN, ("y1", "y2"), 5),
    ("reduce", "QuadricBundle3Y", None, QUADRIC_MAIN, ("y1", "y2"), 6),
    ("reduce", "QuadricBundle3", None, QUADRIC_MAIN, CHERN, 5),
    ("expand", "Equivariant", "eq-paper", FL_MAIN, ("t1", "t2"), 4),
    ("reduce", "FlIntegralBundle", None, FL_MAIN, ("y1",) + CHERN, 5),
    ("reduce", "FlHalfBundleT", None, HALF_MAIN, ("t1", "t2"), 13),
    ("reduce", "QuadricBundle3", None, QUADRIC_MAIN, CHERN, 6),
)
REDUCE_REQUESTS = 100


@dataclass(frozen=True)
class Request:
    verb: str
    presentation: str
    family: Optional[str]
    text: str


def compositions(n: int, d: int):
    """All exponent tuples of length n summing to d."""
    if n == 1:
        yield (d,)
        return
    for a in range(d, -1, -1):
        for rest in compositions(n - 1, d - a):
            yield (a,) + rest


def _factor(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _poly_text(terms: List[Tuple[int, List[str]]]) -> str:
    out = []
    for coef, factors in terms:
        body = "*".join([str(abs(coef))] + factors)
        sign = "-" if coef < 0 else "+"
        out.append(body if not out and coef > 0 else f"{sign} {body}")
    return " ".join(out)


def dense_class(rng: random.Random, main, base, degree: int) -> str:
    """Every main-variable monomial of the given degree, each with a random
    nonzero integer coefficient and, half the time, one base variable."""
    terms = []
    for exps in compositions(len(main), degree):
        factors = [_factor(v, e) for v, e in zip(main, exps) if e]
        if base and rng.random() < 0.5:
            factors.append(rng.choice(base))
        terms.append((rng.choice((-1, 1)) * rng.randint(1, 9), factors))
    return _poly_text(terms)


def reduce_inputs(seed: int, count: int = REDUCE_REQUESTS) -> List[Request]:
    rng = random.Random(f"reduce:{seed}")
    out = []
    for i in range(count):
        verb, pres, family, main, base, degree = REDUCE_BLOCK[i % len(REDUCE_BLOCK)]
        out.append(Request(verb, pres, family,
                           dense_class(rng, main, base, degree)))
    return out


def reduce_ops(prog: Program, requests: List[Request]) -> List[Op]:
    cohomring, schubert, exactalg = prog.cohomring, prog.schubert, prog.exactalg

    def op(req: Request) -> Op:
        # the calls of cmd_reduce, and for expand also those of cmd_expand
        def run():
            fam = (schubert.generate_family(req.family)
                   if req.verb == "expand" else None)
            pres = cohomring.get_presentation(req.presentation)
            poly = exactalg.parse_poly(req.text)
            nf = pres.normal_form(poly)
            expansion = (cohomring.schubert_expand(poly, fam, pres)
                         if fam is not None else None)
            return pres, fam, nf, expansion

        def check(result):
            pres, fam, nf, expansion = result
            if pres.normal_form(nf.as_poly()) != nf:
                return "normal form is not idempotent"
            if expansion is not None:
                total = exactalg.MPoly.zero()
                for w, c in expansion.items():
                    total = total + c * fam.table[w]
                if pres.normal_form(total) != nf:
                    return "expansion does not recombine to the normal form"
            return None

        def render(result):
            _, _, nf, expansion = result
            lines = [f"{req.presentation}: {nf.as_poly()}"]
            if expansion is not None:
                lines += [f"{w.name:8s} {c}" for w, c in expansion.items()
                          if not c.is_zero()]
            return "\n".join(lines)

        return Op(f"{req.verb} {req.presentation}", run, check, render)

    return [op(req) for req in requests]


# ---------------------------------------------------------------------------
# divdiff: families, restrictions and operator chains, with no rewriting

# (x-degree, degree in the inert variables, twisted); one block per five
# inputs, so that the median and the 90th percentile of the chain times
# each fall inside one degree class
DIVDIFF_BLOCK: Tuple[Tuple[int, int, bool], ...] = (
    (4, 4, False), (5, 4, False), (6, 3, True), (7, 3, False), (8, 3, False),
)
DIVDIFF_INPUTS = 100


def divdiff_inputs(seed: int, count: int = DIVDIFF_INPUTS) -> List[Tuple[str, bool]]:
    """Dense inputs: every x-monomial of the class's x-degree, each with a
    random nonzero coefficient and a random inert monomial of the class's
    inert degree, so that the cost of a class is steady from seed to seed."""
    rng = random.Random(f"divdiff:{seed}")
    out = []
    for i in range(count):
        dx, dy, twisted = DIVDIFF_BLOCK[i % len(DIVDIFF_BLOCK)]
        inert = ("y1", "y2", "v") if twisted else ("y1", "y2")
        terms = []
        for a in range(dx, -1, -1):
            factors = [_factor(v, e) for v, e in (("x1", a), ("x2", dx - a)) if e]
            split = [0] * len(inert)
            for _ in range(dy):
                split[rng.randrange(len(inert))] += 1
            factors += [_factor(v, e) for v, e in zip(inert, split) if e]
            terms.append((rng.choice((-1, 1)) * rng.randint(1, 9), factors))
        out.append((_poly_text(terms), twisted))
    return out


def _operator_data(prog: Program):
    """Root and reflection action of each operator, built here rather than
    taken from the code under test."""
    var = prog.exactalg.MPoly.var
    x1, x2, v = var("x1"), var("x2"), var("v")
    return {
        "s": (x1 - x2, {"x1": x2, "x2": x1}),
        "t": (-x1 + 2 * x2, {"x2": x1 - x2}),
        "tv": (-x1 + 2 * x2 + v, {"x2": x1 - x2 - v}),
    }


def divdiff_ops(prog: Program, inputs: List[Tuple[str, bool]]) -> List[Op]:
    schubert, weyl = prog.schubert, prog.weyl
    ops: List[Op] = []

    def families():
        return {(kind, word): schubert.generate_family(kind, word)
                for kind in schubert.FAMILY_KINDS
                for word in weyl.LONGEST_WORDS}

    def check_families(fams):
        for kind in schubert.FAMILY_KINDS:
            a, b = (fams[(kind, w)].table for w in weyl.LONGEST_WORDS)
            if a != b:
                return f"{kind}: the two longest words give different tables"
        return None

    def render_families(fams):
        return "\n".join(f"{kind} {word} {w.name} {p}"
                         for (kind, word), fam in sorted(fams.items())
                         for w, p in fam.entries())

    ops.append(Op("families", families, check_families, render_families,
                  sample=False))

    def restrictions():
        fam = schubert.generate_family("eq-paper")
        elements = weyl.all_elements()
        return [(w, v, schubert.equivariant_restriction(fam.table[w], v))
                for w in elements for v in elements]

    def check_restrictions(rows):
        # zero unless w <= v in Bruhat order, nonzero on the diagonal
        for w, v, value in rows:
            if w is v:
                bad = value.is_zero()
            else:
                bad = not value.is_zero() and not weyl.bruhat_leq(w, v)
            if bad:
                return f"restriction of {w.name} at {v.name} is not triangular"
        return None

    ops.append(Op("restrictions", restrictions, check_restrictions,
                  lambda rows: "\n".join(f"{w.name} {v.name} {p}"
                                         for w, v, p in rows),
                  sample=False))

    data = _operator_data(prog)
    parsed = [(prog.exactalg.parse_poly(text), twisted) for text, twisted in inputs]

    def chain_op(f, twisted) -> Op:
        def run():
            chains = []
            for word in weyl.LONGEST_WORDS:
                out, chain = f, []
                for ch in reversed(word):
                    kind = "tv" if (twisted and ch == "t") else ch
                    out = schubert.div_diff(kind, out)
                    chain.append((kind, out))
                chains.append(chain)
            return chains

        def check(chains):
            if chains[0][-1][1] != chains[1][-1][1]:
                return "the two longest words give different results"
            for chain in chains:
                g = f
                for kind, quotient in chain:
                    root, action = data[kind]
                    if quotient * root != g - g.subs(action):
                        return f"quotient x root is not the numerator ({kind})"
                    g = quotient
            return None

        def render(chains):
            return "\n".join(f"{kind} {q}" for chain in chains
                             for kind, q in chain)

        return Op("chain twisted" if twisted else "chain", run, check, render)

    ops += [chain_op(f, twisted) for f, twisted in parsed]
    return ops


WORKLOADS = ("verify", "reduce", "divdiff")


def make_inputs(workload: str, seed: int):
    if workload == "verify":
        return None
    if workload == "reduce":
        return reduce_inputs(seed)
    return divdiff_inputs(seed)


def make_ops(workload: str, prog: Program, inputs) -> List[Op]:
    if workload == "verify":
        return verify_ops(prog)
    if workload == "reduce":
        return reduce_ops(prog, inputs)
    return divdiff_ops(prog, inputs)
