"""Command line interface.

Verbs:
  verify    run named verification suites (exit 0 only if everything passes)
  table     emit a Schubert polynomial family as text or JSON
  reduce    normal form of a polynomial in a named ring presentation
  expand    Schubert-basis expansion of a polynomial
  oct-mul   octonion product (8 comma-separated rational coefficients each)
  kernel    isotropic kernel E_u of a 7-vector
  bryant    the bilinear form recovered from the standard trilinear form
  cell      the parametrization of the big Schubert cell
  weyl      the Weyl group table, or one element

Polynomials use the text grammar: rational coefficients (p/q), '^' powers,
'*' optional, variables from the fixed universe.  The random seed for
verification comes from --seed, then G2SC_SEED, then a fixed default.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional

from . import checks, cohomring, octonion, schubert, weyl
from .exactalg import MPoly, parse_poly


def _poly_terms_json(poly: MPoly) -> List[dict]:
    return [{"coeff": str(coef), "exps": exps} for exps, coef in poly.named_terms()]


def _check_out(out_path: str):
    """Raise the error _write would give for out_path, before the verb does
    its work.  The file is not opened, so a verb that then fails leaves an
    existing file as it was."""
    parent = os.path.dirname(out_path) or os.curdir
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(out_path if os.path.exists(out_path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {out_path}: {os.strerror(code)}")


def _write(text: str, out_path: Optional[str]):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None
    else:
        print(text)


# the RATIONAL of the polynomial grammar, with an optional sign; Fraction's
# own grammar also takes exponents such as 1e9999999, which cost seconds
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _rational(text: str) -> Fraction:
    """A rational [sign] p or p/q given on the command line."""
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a rational p or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:  # the grammar matched: only the int-string limit is left
        raise ValueError(f"a rational of {len(text)} characters has more digits "
                         f"than Python converts") from None


# the error Python raises when it reads or prints an int of more digits than
# its int-string conversion limit, as when a result is too long to print; its
# hint, sys.set_int_max_str_digits(), names an API a command-line user cannot
# call
_INT_STR_LIMIT = re.compile(r"Exceeds the limit \((\d+) digits\) for integer "
                            r"string conversion")


def _parse_coords(text: str, count: int):
    """Comma-separated rationals: a vector of V (7, f1..f7) or an octonion
    (8, e, f1..f7)."""
    parts = [_rational(p) for p in text.split(",")]
    if len(parts) != count:
        raise ValueError("an octonion needs 8 coefficients: e, f1..f7" if count == 8
                         else "a vector needs 7 coefficients: f1..f7")
    vec = octonion.VecV(parts[-7:])
    return octonion.Oct(parts[0], vec) if count == 8 else vec


def _fmt_oct(u: octonion.Oct) -> str:
    return ",".join([str(u.re)] + [str(c) for c in u.im.coords])


def _seed(text: str) -> int:
    """A seed given by --seed or G2SC_SEED: ASCII digits with an optional
    sign, surrounding whitespace aside (int() would also take other
    scripts' digits, fullwidth ones and underscores).  One of more digits
    than Python converts raises OverflowError: argparse passes that on to
    main, which prints it in one line, where for a ValueError argparse
    would print its usage and the whole value."""
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    try:
        return int(text)
    except ValueError as exc:  # the pattern matched: only the limit is left
        limit = _INT_STR_LIMIT.match(str(exc))
        raise OverflowError(f"a seed of {len(text)} characters has more than "
                            f"the {limit[1]} digits Python converts") from None


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("G2SC_SEED")
    if env is not None:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError:
            raise ValueError(f"G2SC_SEED must be an integer, got {env!r}") from None
    return checks.DEFAULT_SEED


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    names = list(checks.SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = [checks.run_suite(name, seed) for name in names]
    failures = 0
    if args.format == "json":
        payload = []
        for rep in reports:
            payload.append({
                "suite": rep.suite,
                "seed": rep.seed,
                "passed": rep.passed,
                "results": [{"name": r.name, "passed": r.passed,
                             "detail": r.detail} for r in rep.results],
            })
            failures += len(rep.failures)
        _write(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"seed: {seed}"]
        for rep in reports:
            for r in rep.results:
                status = "PASS" if r.passed else "FAIL"
                detail = f"  [{r.detail}]" if r.detail else ""
                lines.append(f"{status} {rep.suite}: {r.name}{detail}")
            failures += len(rep.failures)
        total = sum(len(rep.results) for rep in reports)
        lines.append(f"{total - failures}/{total} checks passed")
        _write("\n".join(lines), args.out)
    return 0 if failures == 0 else 1


def cmd_table(args) -> int:
    fam = schubert.generate_family(args.family)
    if args.format == "json":
        entries = []
        for w, poly in fam.entries():
            entries.append({
                "word": w.name,
                "pair": [w.pair[0], w.pair[1]],
                "length": w.length,
                "terms": _poly_terms_json(poly),
            })
        _write(json.dumps({"family": args.family, "entries": entries},
                          indent=2), args.out)
    else:
        lines = []
        for w, poly in fam.entries():
            lines.append(f"{w.name:8s} {w.pair[0]} {w.pair[1]}   {poly}")
        _write("\n".join(lines), args.out)
    return 0


def cmd_reduce(args) -> int:
    pres = cohomring.get_presentation(args.presentation)
    poly = parse_poly(args.poly)
    nf = pres.normal_form(poly)
    if args.format == "json":
        payload = {
            "presentation": pres.name,
            "basis": [
                {"monomial": {v: e for v, e in zip(pres.main_vars, key) if e},
                 "coeff": _poly_terms_json(coef)}
                for key, coef in sorted(nf.coeffs.items())
            ],
        }
        _write(json.dumps(payload, indent=2), args.out)
    else:
        _write(str(nf.as_poly()), args.out)
    return 0


# the presentation each family's classes fit, used when expand names none;
# twisted has none, as no catalogue presentation has the twisting class v
_EXPAND_PRESENTATION = {"paper": "FlHalfBundle", "graham": "FlHalfBundle",
                        "point": "FlHalfPoint", "eq-paper": "Equivariant",
                        "eq-graham": "Equivariant"}


def cmd_expand(args) -> int:
    name = args.presentation or _EXPAND_PRESENTATION.get(args.family)
    if name is None:
        raise ValueError(f"family {args.family} fits no catalogue presentation: "
                         f"none has the twisting class v")
    pres = cohomring.get_presentation(name)
    fam = schubert.generate_family(args.family)
    poly = parse_poly(args.poly)
    expansion = cohomring.schubert_expand(poly, fam, pres)
    if args.format == "json":
        payload = {"family": args.family, "presentation": pres.name,
                   "coefficients": {w.name: _poly_terms_json(c)
                                    for w, c in expansion.items()
                                    if not c.is_zero()}}
        _write(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"{w.name:8s} {c}" for w, c in expansion.items()
                 if not c.is_zero()]
        _write("\n".join(lines) if lines else "0", args.out)
    return 0


def cmd_oct_mul(args) -> int:
    ctx = octonion.standard_forms(args.basis)
    u, v = _parse_coords(args.u, 8), _parse_coords(args.v, 8)
    _write(_fmt_oct(ctx.mul(u, v)), args.out)
    return 0


def cmd_kernel(args) -> int:
    ctx = octonion.standard_forms(args.basis)
    u = _parse_coords(args.u, 7)
    kernel = octonion.isotropic_kernel(ctx, u)
    lines = [",".join(str(c) for c in vec.coords) for vec in kernel]
    _write("\n".join(lines), args.out)
    return 0


def cmd_bryant(args) -> int:
    ctx = octonion.standard_forms("f")
    bil = octonion.bryant_form(ctx.gamma)
    lines = [" ".join(f"{x!s:>4}" for x in row) for row in bil.matrix]
    lines.append(f"nondegenerate: {bil.is_nondegenerate()}")
    lines.append(f"matches the standard form: {bil.matrix == ctx.beta.matrix}")
    _write("\n".join(lines), args.out)
    return 0


def cmd_cell(args) -> int:
    params = None
    if args.params:
        order = ("a", "b", "c", "d", "e", "g")
        items = [(name.strip(), val) for name, _, val
                 in (item.partition("=") for item in args.params.split(","))]
        names = [name for name, _ in items]
        unknown = list(dict.fromkeys(repr(name) for name in names if name not in order))
        if unknown:
            plural = "s" if len(unknown) > 1 else ""
            raise ValueError(f"unknown cell parameter{plural} {', '.join(unknown)};"
                             f" the parameters are {', '.join(order)}")
        repeated = sorted({repr(name) for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"repeated cell parameters: {', '.join(repeated)}")
        for name, val in items:
            if not val.strip():
                raise ValueError(f"cell parameter {name!r} has no value; "
                                 f"give it as {name}=p or {name}=p/q")
        values = {name: _rational(val) for name, val in items}
        params = [values.get(n, MPoly.var(n)) for n in order]
    row1, row2 = octonion.big_cell_rows(params)
    ctx = octonion.standard_forms("f")
    prod = ctx.mul(octonion.Oct.imag(row1), octonion.Oct.imag(row2))
    lines = [
        "row1: " + ", ".join(str(c) for c in row1.coords),
        "row2: " + ", ".join(str(c) for c in row2.coords),
        f"product is zero: {prod.is_zero()}",
        f"rows isotropic: "
        f"{ctx.beta(row1, row1) == 0 and ctx.beta(row2, row2) == 0}",
    ]
    _write("\n".join(lines), args.out)
    return 0


def cmd_weyl(args) -> int:
    if args.element:
        w = weyl.element(args.element)
        winv = w.inverse()
        lines = [
            f"word:    {w.name}",
            f"pair:    {w.pair[0]} {w.pair[1]}",
            f"perm:    {' '.join(str(i) for i in w.perm)}",
            f"length:  {w.length}",
            f"inverse: {winv.name}",
        ]
        _write("\n".join(lines), args.out)
    else:
        lines = []
        for w in weyl.all_elements():
            perm = " ".join(str(i) for i in w.perm)
            lines.append(f"{w.name:8s} l={w.length}  pair {w.pair[0]} {w.pair[1]}  perm {perm}")
        _write("\n".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2sc",
        description="Exact Schubert calculus for G2 flag bundles.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def out(p):
        p.add_argument("--out", default=None, help="write output to a file")

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        out(p)

    def operand_verb(name, summary):
        # argparse reads an argument that begins with "-" as an option unless
        # it looks like a negative number.  A verb with an operand has no
        # single-dash option (its help is --help alone), so here every "-"
        # followed by a non-dash passes that test: -x1, -h^2 and
        # -1,0,0,0,0,0,0 are operands.
        p = sub.add_parser(name, help=summary, add_help=False)
        p.add_argument("--help", action="help",
                       help="show this help message and exit")
        p._negative_number_matcher = re.compile(r"-[^-]")
        return p

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=checks.SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=_seed, default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="emit a Schubert polynomial table")
    p.add_argument("--family", required=True, choices=schubert.FAMILY_KINDS)
    common(p)
    p.set_defaults(func=cmd_table)

    p = operand_verb("reduce", "normal form in a ring presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = operand_verb("expand", "expand in the Schubert basis")
    p.add_argument("--family", default="point", choices=schubert.FAMILY_KINDS)
    p.add_argument("--presentation", default=None)
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = operand_verb("oct-mul", "octonion product")
    p.add_argument("--basis", choices=("f", "e"), default="f")
    p.add_argument("u")
    p.add_argument("v")
    out(p)
    p.set_defaults(func=cmd_oct_mul)

    p = operand_verb("kernel", "isotropic kernel of a vector")
    p.add_argument("--basis", choices=("f", "e"), default="f")
    p.add_argument("u")
    out(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("bryant", help="recover beta from the standard gamma")
    out(p)
    p.set_defaults(func=cmd_bryant)

    p = sub.add_parser("cell", help="big Schubert cell parametrization")
    p.add_argument("--params", default=None,
                   help="comma-separated assignments, e.g. a=1,b=0")
    out(p)
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("weyl", help="Weyl group table or one element")
    p.add_argument("element", nargs="?", default=None)
    out(p)
    p.set_defaults(func=cmd_weyl)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out:
            _check_out(args.out)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send what is left, and the flush
        # at exit, to devnull, so nothing but the exit code reports it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, ArithmeticError) as exc:
        limit = _INT_STR_LIMIT.match(str(exc))
        if limit:
            exc = f"a number of more than {limit[1]} digits is too long to read or print"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
