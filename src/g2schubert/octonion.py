"""Composition algebras on a 7-space from a compatible form pair.

An alternating trilinear form gamma and a nondegenerate symmetric bilinear
form beta on V (dim 7) are *compatible* when

    2 gamma(u, v, gamma(u, v, .)^dagger) = beta(u,u) beta(v,v) - beta(u,v)^2

for all u, v, where dagger is the beta-isomorphism V* -> V.  Such a pair
makes C = k + V an octonion algebra with product

    u v = -1/2 beta(u,v) e + gamma(u,v,.)^dagger      (u, v imaginary)

and norm N(u) = 1/2 beta(u,u) on V.  This module builds the two standard
models (the orthonormal e-basis and the isotropic f-basis), the Bryant form
recovering beta from gamma, the 3-dimensional isotropic kernels E_u, the
torus action, and the parametrization of the big Schubert cell.  Gamma is
evaluated on vectors in one place, TriForm.functional: the product, the
Bryant form and the kernels read gamma(u, v, .) from it.  What is built once
per form (beta's inverse rows, the product's structure constants) is a
functools.cached_property.  The two identity checks, check_compatible and
torus_invariance_check, return None when the identity holds and a failing
case otherwise; the verify suites in checks turn that witness into a
verdict.

The algebra operations are generic over the scalar ring: coordinates may be
ints, Fractions, GaussRats, or MPolys (the big-cell identity is checked with
polynomial coordinates), mixed freely.  Nothing here dispatches on the scalar
type: each of them answers `x == 0`, `x == y` and the arithmetic operators, so
the code only uses those.  The one exception is exact division, `_div`.

Every rational this module stores is an int when it is integral and a
Fraction (denominator > 1) otherwise: form entries, basis vectors, the unit,
the big-cell constants, kernel vectors and both parts of a GaussRat.  No
rational is divided with a bare `/`, which returns a float on two ints;
`_div` divides rationals with `quotient`, polynomials with `exact_divide`,
and GaussRats with their own exact division.  A non-integral constant such
as 1/2 is applied by dividing, never by multiplying with a Fraction, so an
integral input gives ints throughout; Fraction inputs follow Python's
arithmetic and may give an integral Fraction, equal to the int.  Products
and sums put a coordinate first and an int constant or running total
second, since int * Fraction takes Fraction's slower reflected path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg import (
    GaussRat,
    MPoly,
    NotDivisible,
    Rational,
    exact,
    exact_divide,
    integral_multiple,
    matrix_inverse,
    nullspace,
    determinant,
    quotient,
)

DIM = 7


class SingularForm(ValueError):
    """A bilinear form required to be nondegenerate is singular."""


class NotIsotropic(ValueError):
    """Kernel requested at a vector of nonzero norm."""


class NotProportional(ValueError):
    """A product that should land in a line did not."""


def _div(a, b):
    """Exact scalar division: an int for an integral quotient of rationals;
    NotDivisible may propagate for polynomials."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return quotient(a, b)
    if isinstance(a, MPoly) or isinstance(b, MPoly):
        a, b = (x if isinstance(x, MPoly) else MPoly.const(x) for x in (a, b))
        return exact_divide(a, b)
    return a / b


class VecV:
    """A vector of V in the active basis: exactly 7 scalar coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        coords = tuple(coords)
        if len(coords) != DIM:
            raise ValueError("VecV needs exactly 7 coordinates")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("VecV is immutable")

    def __getitem__(self, i: int):
        return self.coords[i]

    def __add__(self, other: "VecV") -> "VecV":
        return VecV(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "VecV") -> "VecV":
        return VecV(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "VecV":
        return VecV(tuple(-x for x in self.coords))

    def scale(self, s) -> "VecV":
        return VecV(tuple(x * s for x in self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __eq__(self, other):
        if not isinstance(other, VecV):
            return NotImplemented
        return self.coords == other.coords

    def __repr__(self):
        return "VecV(" + ", ".join(str(x) for x in self.coords) + ")"


def zero_vec() -> VecV:
    return VecV([0] * DIM)


def basis_vec(i: int) -> VecV:
    """The i-th basis vector, 1-based."""
    return VecV([1 if j == i - 1 else 0 for j in range(DIM)])


@dataclass(frozen=True)
class Oct:
    """An octonion: scalar part (coefficient of e) plus imaginary 7-vector.

    Equality compares re and im with `==`."""

    re: object
    im: VecV

    @staticmethod
    def unit() -> "Oct":
        return Oct(1, zero_vec())

    @staticmethod
    def imag(v: VecV) -> "Oct":
        return Oct(0, v)

    def __add__(self, other: "Oct") -> "Oct":
        return Oct(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Oct") -> "Oct":
        return Oct(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Oct":
        return Oct(-self.re, -self.im)

    def scale(self, s) -> "Oct":
        return Oct(self.re * s, self.im.scale(s))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im.is_zero()

    def __repr__(self):
        return f"Oct({self.re}; {self.im})"


class TriForm:
    """Alternating trilinear form, stored on ordered triples p < q < r."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[Tuple[int, int, int], Rational]):
        clean = {}
        for (p, q, r), c in coeffs.items():
            if not (1 <= p < q < r <= DIM):
                raise ValueError(f"triple {(p, q, r)} is not strictly increasing")
            c = exact(c)
            if c != 0:
                clean[(p, q, r)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TriForm is immutable")

    def support(self):
        return sorted(self.coeffs)

    def __call__(self, u: VecV, v: VecV, w: VecV):
        return _apply(self.functional(u, v), w)

    def functional(self, u: VecV, v: VecV) -> List:
        """The linear functional gamma(u, v, .) as a coefficient list; the
        one place where gamma is expanded."""
        u, v = u.coords, v.coords
        phi = [0] * DIM
        for (p, q, r), c in self.coeffs.items():
            i, j, k = p - 1, q - 1, r - 1
            phi[k] = (u[i] * v[j] - u[j] * v[i]) * c + phi[k]
            phi[j] = (u[k] * v[i] - u[i] * v[k]) * c + phi[j]
            phi[i] = (u[j] * v[k] - u[k] * v[j]) * c + phi[i]
        return phi

    def kernel_matrix(self, u: VecV) -> List[List]:
        """Matrix of v -> gamma(u, v, .): entry [j][k] = gamma(u, f_k, f_j)."""
        cols = [self.functional(u, basis_vec(k + 1)) for k in range(DIM)]
        return [[cols[k][j] for k in range(DIM)] for j in range(DIM)]


def _apply(phi: Sequence, w: VecV):
    """The value phi(w) of a functional given as a coefficient list."""
    return sum(p * x for p, x in zip(phi, w.coords))


class BilForm:
    """Symmetric bilinear form as a 7x7 rational matrix.

    The form keeps its nonzero entries as a sparse list, and dagger reads
    the rows of the inverse as (denominator, ((column, numerator), ...))
    from a cached_property, built on first use; so neither compares an
    entry with 0 per call, and dagger divides by each row's common
    denominator instead of multiplying by Fractions."""

    def __init__(self, matrix: Sequence[Sequence]):
        rows = tuple(tuple(exact(x) for x in row) for row in matrix)
        if len(rows) != DIM or any(len(r) != DIM for r in rows):
            raise ValueError("BilForm needs a 7x7 matrix")
        for i in range(DIM):
            for j in range(DIM):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("BilForm matrix must be symmetric")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "_entries", tuple(
            (i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row) if c))

    def __setattr__(self, name, value):
        raise AttributeError("BilForm is immutable")

    def __call__(self, u: VecV, v: VecV):
        u, v = u.coords, v.coords
        total = 0
        for i, j, c in self._entries:
            total = u[i] * v[j] * c + total
        return total

    def det(self) -> Rational:
        return determinant([list(r) for r in self.matrix])

    def is_nondegenerate(self) -> bool:
        return self.det() != 0

    @cached_property
    def _inverse_rows(self) -> Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]:
        inv = matrix_inverse([list(r) for r in self.matrix])
        if inv is None:
            raise SingularForm("bilinear form is degenerate")
        rows = []
        for row in inv:
            ints, d = integral_multiple(row)
            rows.append((d, tuple((j, n) for j, n in enumerate(ints) if n)))
        return tuple(rows)

    def dagger(self, phi: Sequence) -> VecV:
        """The vector v with beta(v, u) = phi(u) for all u."""
        coords = []
        for d, terms in self._inverse_rows:
            acc = 0
            for j, n in terms:
                acc = phi[j] * n + acc
            coords.append(acc if d == 1 else _div(acc, d))
        return VecV(coords)

    def support_pairs(self):
        return [(i + 1, j + 1) for i, j, _ in self._entries if i <= j]


@dataclass(frozen=True)
class AlgebraCtx:
    """A compatible (gamma, beta) pair with its octonion product.

    The structure constants of the product are a cached_property, built on
    first use, as BilForm's inverse rows are."""

    gamma: TriForm
    beta: BilForm
    basis_kind: str

    @cached_property
    def structure_constants(self) -> Tuple[Tuple[Tuple[int, int, Rational], ...], ...]:
        """The structure constants on the basis b = (e, b_1..b_7) of C, with
        b_1..b_7 the basis of V this context is written in: entry i lists
        (j, k, c) for each nonzero coordinate c = (b_i b_k)_j.  The 64
        products are taken with mul once per context."""
        basis = [Oct.unit()] + [Oct.imag(basis_vec(i)) for i in range(1, DIM + 1)]
        constants = []
        for bi in basis:
            entries = []
            for k, bk in enumerate(basis):
                prod = self.mul(bi, bk)
                entries.extend((j, k, c) for j, c in
                               enumerate((prod.re,) + prod.im.coords) if c != 0)
            constants.append(tuple(entries))
        return tuple(constants)

    def mul(self, u: Oct, v: Oct) -> Oct:
        """The octonion product on k + V."""
        uv_imag_beta = self.beta(u.im, v.im)
        re = u.re * v.re - _div(uv_imag_beta, 2)
        cross = self.beta.dagger(self.gamma.functional(u.im, v.im))
        im = v.im.scale(u.re) + u.im.scale(v.re) + cross
        return Oct(re, im)

    def mul_imag(self, u: VecV, v: VecV) -> Oct:
        return self.mul(Oct.imag(u), Oct.imag(v))

    def norm(self, u: Oct):
        return u.re * u.re + _div(self.beta(u.im, u.im), 2)

    def conjugate(self, u: Oct) -> Oct:
        return Oct(u.re, -u.im)

    def bprime(self, u: Oct, v: Oct):
        """The bilinear form of the norm on C = k + V."""
        return u.re * v.re * 2 + self.beta(u.im, v.im)


def standard_forms(basis_kind: str = "f") -> AlgebraCtx:
    """The standard compatible pair in the isotropic f-basis or the
    orthonormal e-basis."""
    if basis_kind == "f":
        # signs fixed by pushing the orthonormal-basis forms through the
        # isotropic basis change; this is the unique alternating form with
        # this support compatible with the beta below
        gamma = TriForm({
            (1, 4, 7): 1, (2, 4, 6): -1, (3, 4, 5): -1,
            (2, 3, 7): -1, (1, 5, 6): -1,
        })
        m = [[0] * DIM for _ in range(DIM)]
        for p in range(1, DIM + 1):
            m[p - 1][8 - p - 1] = -1
        m[3][3] = -2
        return AlgebraCtx(gamma, BilForm(m), "f")
    if basis_kind == "e":
        gamma = TriForm({
            (1, 2, 3): 2, (2, 5, 7): 2,
            (1, 6, 7): -2, (1, 4, 5): -2, (2, 4, 6): -2,
            (3, 4, 7): -2, (3, 5, 6): -2,
        })
        m = [[2 if i == j else 0 for j in range(DIM)] for i in range(DIM)]
        return AlgebraCtx(gamma, BilForm(m), "e")
    raise ValueError(f"unknown basis kind {basis_kind!r}")


# ---------------------------------------------------------------------------
# basis change f -> e

_I = GaussRat(0, 1)
_H = GaussRat(Fraction(1, 2))

# e-basis coordinates of f_1..f_7 (columns of the change of basis), as the
# sparse (e-index, coordinate) pairs of each f_j
_F_IN_E: Tuple[Tuple[Tuple[int, GaussRat], ...], ...] = (
    ((0, _H), (1, _H * _I)),
    ((4, _H), (5, _H * _I)),
    ((3, _H), (6, _H * _I)),
    ((2, _I),),
    ((3, -_H), (6, _H * _I)),
    ((4, -_H), (5, _H * _I)),
    ((0, -_H), (1, _H * _I)),
)


def to_e_basis(v: VecV) -> VecV:
    """Coordinates in the e-basis of a vector given in the f-basis."""
    coords = [GaussRat(0)] * DIM
    for cj, column in zip(v.coords, _F_IN_E):
        for i, entry in column:
            coords[i] = coords[i] + cj * entry
    return VecV(coords)


def push_forms_to_f() -> Tuple[TriForm, BilForm]:
    """Push the standard e-basis forms through the basis change.

    The forms are evaluated on the doubled vectors 2 f_j, whose e-basis
    coordinates are Gaussian integers, and each value of gamma is divided
    by 8 and each value of beta by 4 exactly, once.  Every value must come
    out rational; the results are compared against the standard f-basis
    forms in the consistency checks.
    """
    e_ctx = standard_forms("e")
    fs_in_e = [to_e_basis(basis_vec(j).scale(2)) for j in range(1, DIM + 1)]
    tri: Dict[Tuple[int, int, int], Rational] = {}
    for p in range(1, DIM + 1):
        for q in range(p + 1, DIM + 1):
            for r in range(q + 1, DIM + 1):
                val = e_ctx.gamma(fs_in_e[p - 1], fs_in_e[q - 1], fs_in_e[r - 1])
                if not val.is_rational():
                    raise ValueError(f"gamma(f{p},f{q},f{r}) = {val / 8} is not rational")
                if val.re != 0:
                    tri[(p, q, r)] = quotient(val.re, 8)
    mat = [[0] * DIM for _ in range(DIM)]
    for p in range(DIM):
        for q in range(DIM):
            val = e_ctx.beta(fs_in_e[p], fs_in_e[q])
            if not val.is_rational():
                raise ValueError(f"beta(f{p+1},f{q+1}) = {val / 4} is not rational")
            mat[p][q] = quotient(val.re, 4)
    return TriForm(tri), BilForm(mat)


# ---------------------------------------------------------------------------
# compatibility and the Bryant form

def spanning_sample() -> List[Tuple[VecV, VecV]]:
    """Pairs spanning all biquadratic forms: (u, v) with u, v ranging over
    basis vectors and two-element sums of basis vectors."""
    vecs = [basis_vec(i) for i in range(1, DIM + 1)]
    sums = [basis_vec(i) + basis_vec(j)
            for i in range(1, DIM + 1) for j in range(i + 1, DIM + 1)]
    pool = vecs + sums
    return [(u, v) for u in pool for v in pool]


def check_compatible(gamma: TriForm, beta: BilForm) -> Optional[Tuple]:
    """Evaluate the compatibility identity on the spanning sample of pairs:
    None when it holds, else the first failing (u, v, lhs, rhs).

    Both sides are biquadratic in (u, v), so passing on the sample returned
    by spanning_sample() certifies the identity on all of V x V.
    """
    if not beta.is_nondegenerate():
        raise SingularForm("compatibility requires a nondegenerate beta")
    for u, v in spanning_sample():
        phi = gamma.functional(u, v)
        lhs = 2 * _apply(phi, beta.dagger(phi))
        rhs = beta(u, u) * beta(v, v) - beta(u, v) ** 2
        if lhs != rhs:
            return u, v, lhs, rhs
    return None


def bryant_form(gamma: TriForm) -> BilForm:
    """Recover the compatible bilinear form, fixing wedge^7 V* = k via the
    ordered basis functional f*_{1..7}.

    Entry (p, q) is the coefficient of f*_{1..7} in omega_p ^ omega_q ^ gamma,
    omega_p = gamma(f_p,.,.), divided by -3 (exactly; a failed division
    signals corrupted input): the sum of sign(i + j + k) omega_p[i] omega_q[j]
    gamma[k] over index pairs i, j and support triples k covering 1..7.  A
    degenerate gamma gives a singular form.
    """
    indices = range(1, DIM + 1)
    omegas = [{(a, b): c for a in indices
               for b, c in enumerate(gamma.functional(basis_vec(p), basis_vec(a)), 1)
               if a < b and c != 0}
              for p in indices]
    mat = [[0] * DIM for _ in range(DIM)]
    for p in range(DIM):
        for q in range(p, DIM):
            top = 0
            for i, wi in omegas[p].items():
                for j, wj in omegas[q].items():
                    # the one triple that completes i and j, if they are disjoint
                    k = tuple(sorted(set(indices).difference(i, j)))
                    if k in gamma.coeffs:
                        term = wi * wj * gamma.coeffs[k]
                        inversions = sum(x > y for x, y in combinations(i + j + k, 2))
                        top = (-term if inversions % 2 else term) + top
            mat[p][q] = mat[q][p] = _div(-top, 3)
    return BilForm(mat)


# ---------------------------------------------------------------------------
# isotropic kernels, fixed points, cells

def isotropic_kernel(ctx: AlgebraCtx, u: VecV) -> List[VecV]:
    """Basis of E_u = {v : gamma(u, v, .) = 0} for an isotropic u != 0.

    For isotropic u this space is 3-dimensional and consists of the octonion
    annihilators of u; both facts are re-checked on the result.
    """
    if u.is_zero():
        raise ValueError("kernel requested at the zero vector")
    n = ctx.norm(Oct.imag(u))
    if n != 0:
        raise NotIsotropic(f"N(u) = {n} is nonzero")
    kernel = nullspace(ctx.gamma.kernel_matrix(u))
    if len(kernel) != 3:
        raise ArithmeticError(f"kernel has rank {len(kernel)}, expected 3")
    basis = [VecV(map(exact, vec)) for vec in kernel]
    for w in basis:
        if not ctx.mul_imag(u, w).is_zero():
            raise ArithmeticError("kernel vector does not annihilate u")
    return basis


def fixed_point_triples() -> Dict[int, Tuple[int, int, int]]:
    """For each isotropic basis vector f_i of the standard f-basis forms, the
    triple (i, a, b) with E_{f_i} spanned by f_i, f_a, f_b (a < b)."""
    ctx = standard_forms("f")
    triples: Dict[int, Tuple[int, int, int]] = {}
    for i in (1, 2, 3, 5, 6, 7):
        kernel = isotropic_kernel(ctx, basis_vec(i))
        members = set()
        for vec in kernel:
            support = [j + 1 for j in range(DIM) if vec[j] != 0]
            if len(support) != 1:
                raise ArithmeticError(f"E_f{i} is not a coordinate subspace")
            members.add(support[0])
        if i not in members or len(members) != 3:
            raise ArithmeticError(f"E_f{i} = {sorted(members)} does not contain f{i}")
        rest = sorted(members - {i})
        triples[i] = (i, rest[0], rest[1])
    return triples


def fixed_points() -> List[Tuple[int, int]]:
    """The 12 torus-fixed flags e(i j), ordered by i then by the triple."""
    triples = fixed_point_triples()
    points = []
    for i in sorted(triples):
        _, second, third = triples[i]
        points.append((i, second))
        points.append((i, third))
    return points


def cross_lambda(ctx: AlgebraCtx, u: VecV, v: VecV, w: VecV):
    """The scalar lambda with v w = lambda u, for v, w in E_u."""
    prod = ctx.mul_imag(v, w)
    if prod.re != 0:
        raise NotProportional("v w has a nonzero scalar part")
    pivot = next((j for j in range(DIM) if u[j] != 0), None)
    if pivot is None:
        raise ValueError("u must be nonzero")
    try:
        lam = _div(prod.im[pivot], u[pivot])
    except NotDivisible as exc:
        raise NotProportional(str(exc)) from exc
    if prod.im != u.scale(lam):
        raise NotProportional("v w is not a multiple of u")
    return lam


def torus_weights() -> Tuple[MPoly, ...]:
    """Weights of the standard torus action in the f-basis."""
    t1 = MPoly.var("t1")
    t2 = MPoly.var("t2")
    return (t1, t2, t1 - t2, MPoly.zero(), t2 - t1, -t2, -t1)


def torus_invariance_check(ctx: AlgebraCtx) -> Optional[Tuple]:
    """Whether the torus preserves both forms, i.e. every support triple of
    gamma and support pair of beta has weight sum zero: None when it does,
    else the first offending ("gamma" or "beta", indices, weight sum)."""
    if ctx.basis_kind != "f":
        raise ValueError("torus weights are defined in the f-basis")
    weights = torus_weights()
    for form, support in (("gamma", ctx.gamma.support()),
                          ("beta", ctx.beta.support_pairs())):
        for indices in support:
            total = sum((weights[i - 1] for i in indices), MPoly.zero())
            if not total.is_zero():
                return form, indices, total
    return None


def big_cell_rows(params: Optional[Sequence] = None) -> Tuple[VecV, VecV]:
    """Rows of the big Schubert cell through e(7 6).

    The six free parameters default to the symbolic cell variables
    a, b, c, d, e, g; the dependent entries are forced by requiring both rows
    isotropic with vanishing octonion product.
    """
    if params is None:
        params = [MPoly.var(n) for n in ("a", "b", "c", "d", "e", "g")]
    if len(params) != 6:
        raise ValueError("big cell takes 6 parameters")
    a, b, c, d, e, f = [p if isinstance(p, MPoly) else exact(p) for p in params]
    x = -(a * e) - b * d - c * c
    y = -a - b * f + c * d - c * e * f
    z = -(c * f) - d * d + d * e * f
    s = c + d * e - e * e * f
    t = -d + e * f
    row1 = VecV((x, a, b, c, d, e, 1))
    row2 = VecV((y, z, s, t, f, 1, 0))
    return row1, row2


def left_mult_matrix(ctx: AlgebraCtx, u: Oct) -> List[List]:
    """Matrix of left multiplication by u on C = k + V, in the basis
    (e, b_1..b_7) with b_1..b_7 the basis of ctx.basis_kind (f_1..f_7 or
    e_1..e_7); used for exact rank computations.

    Column k is u b_k, so entry [j][k] = sum_i u_i (b_i b_k)_j, summed over
    the context's structure constants: no product is taken per call."""
    mat = [[0] * 8 for _ in range(8)]
    for ui, entries in zip((u.re,) + u.im.coords, ctx.structure_constants):
        if ui == 0:
            continue
        for j, k, c in entries:
            row = mat[j]
            row[k] = ui * c + row[k]
    return mat
