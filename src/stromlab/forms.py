"""Complex-valued exterior calculus over real coordinate charts.

Forms are stored sparsely over strictly increasing multi-indices of the
real coordinate differentials.  Coefficients may be plain complex numbers
(pointwise values) or :class:`~stromlab.jets.Jet` objects (local Taylor
data), and every operation here is generic over the two: the exterior
derivative simply differentiates jet coefficients, so nested expressions
come out exact.  A term is dropped only when its coefficient is exactly
zero (``is_zero_scalar``; a jet to its validity order), and no tolerance
decides what a form holds.

The Dolbeault operators make no holomorphic-coordinate assumption: del
and dbar are assembled from real partials through the (1,0)/(0,1)
projectors of an almost complex structure.  A structure
(:class:`AlmostComplexStructure`) is one read-only complex array of
Taylor rows, ``coeffs[i, w, v]`` the coefficient of the i-th monomial in
the dx_w component of J dx_v, with one validity order and one support
mask for all of it; it is built from its action on the complex basis in
one array product (``acs_from_complex_action``).  Type decomposition
of k-forms expands the projected basis differentials, which is exact (the
sum of the parts reproduces the input).  :class:`TypeContext` holds that
expansion as one dense array per degree, indexed by (row, p, output
multi-index, input multi-index), where row 0 is the value at the point and
the other rows its first partials; each degree up to dim/2 grows from the
one below by the Leibniz rule over a precomputed index plan, each degree k
above it is the signed-complement transpose of degree dim - k, and a
decomposition is a contraction of that array with the form's coefficients.
A context reads only forms on its own chart.  The standard
structure of a chart is constant, so ``standard_context(chart)`` builds its
context once and every point on the chart shares it; a context's tables are
read-only for that reason.

Where only the value at the point of such an expression is read, no
derivative jet is built: three kernels share one layout, Taylor rows, an
array whose first axis runs over the monomials of degree <= o of a jet
space (the value first, then the x_u) and whose last axis runs over the
multi-indices of the stacked forms.  ``_taylor_rows`` stacks jets and
numbers so, and raises for jets of different spaces or valid below o.
``_d_point`` takes d at the point of stacked k-forms: its value is the
first partials and its slopes the second partials, each times the sign
plan ``_wedge_signs(n, 1, k)``, returned as Taylor rows one order lower.
``_type_part`` takes the (p, k-p) part, whose value is T_0 a_0 and whose
slopes are T_0 a_u + T_u a_0 over the value and slope rows of the
degree-k type table.  Every read at the point is built on them:
``closedness_residual``, ``gram_curvature`` (the Chern curvature
dbar(Hbar^-1 del Hbar) of a Gram matrix), ``del_dbar_of_taylor`` and
``del_dbar_at_point`` (del dbar of a form of even degree; degree 0 gives
del dbar f), and in the other modules ``w_form`` and
``curvature_identities`` and the dbar reads of ``frame_decompose``.  No
operator of the package takes the jet-valued route (``exterior_derivative``,
``TypeContext.decompose`` and ``project`` on forms with jet coefficients):
the Calabi Ricci form, which is differentiated again, is a Wirtinger
Hessian of log det G on the standard structure (``jets.wirtinger_hessian``),
and its traces are cofactor sums over the Gram matrix.  The route stays as
the oracle of the tests, and ``exterior_derivative_with_scale`` and the
type tables are where the benchmark's tracer counts d and decompositions.

So a projection on a structure with jet entries is valid to order 1 at
most, which is what every reader of one needs: d at the point of a part
needs its slopes and no more.  ``del_dbar_at_point`` reads its form to
order 2 and the value and slope rows of the type table of one degree
higher, and ``gram_curvature`` its matrix to order 2 (its inverse, a jet
elimination without pivoting, ``mat_inv``, to order 1) and the slope rows
of the degree-1 table.  On a structure of plain complex numbers a
projection keeps the order of the form.

The certificates of the package share five shapes, each written once at
the end of this module with its normalisation: a form is closed
(``closedness_residual``), a curvature is (1,1) and annihilated by some
forms (``curvature_residual``), one side of an identity equals the other
(``identity_residual``), del dbar at the point of a form of even degree,
read from its Taylor rows (``del_dbar_at_point``), and the norm of a
holomorphic volume form (``volume_form_norm``).  A residual is a sup
divided by the largest entering term (``relative_residual``), so it never
passes on NaN or inf.

A curvature stays the one array that ``gram_curvature`` computes, the
stacked (1,1) coefficients of every entry of the matrix, from there to every
reader: the curvature certificate takes one product with the sign plan per
form for every wedge and one with the values of the degree-2 type table for
every (2,0) and (0,2) part, and ``matrix_wedge_trace`` one contraction and
one product with the sign plan.  Forms are built only for what the residual
operators compare as forms, such as a trace.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

import numpy as np

from .jets import InsufficientJetOrder, Jet, JetSpace


class ChartMismatch(Exception):
    pass


class DegreeError(Exception):
    pass


class DomainError(Exception):
    """A point or a form outside the domain where the quantity is defined."""


@dataclass(frozen=True)
class Chart:
    """A real coordinate chart whose coordinates pair into complex ones.

    Coordinate 2j + i*(2j+1) is the j-th complex coordinate, named
    ``complex_names[j]``.
    """

    name: str
    coords: tuple
    complex_names: tuple

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def ncomplex(self) -> int:
        return len(self.complex_names)

    def __post_init__(self):
        if len(self.coords) != 2 * len(self.complex_names):
            raise ValueError("chart coordinates must pair into complex ones")


@dataclass(frozen=True)
class ChartPoint:
    chart: Chart
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.chart.dim:
            raise ValueError(
                f"chart {self.chart.name!r} needs {self.chart.dim} coordinates, "
                f"got {len(self.coords)}"
            )
        if not all(math.isfinite(x) for x in self.coords):
            raise ValueError("chart point has non-finite coordinates")

    def complex_coord(self, j: int) -> complex:
        return complex(self.coords[2 * j], self.coords[2 * j + 1])


def point(chart: Chart, *coords) -> ChartPoint:
    return ChartPoint(chart, tuple(float(x) for x in coords))


# ---------------------------------------------------------------------------
# scalar helpers: coefficients are complex numbers or jets


def svalue(x) -> complex:
    return x.value if isinstance(x, Jet) else complex(x)


def smag(x) -> float:
    return abs(svalue(x))


def nan_max(values) -> float:
    """Largest of ``values`` (0.0 if there are none), or NaN if any value is NaN.

    The built-in max keeps whichever of two values compares greater, so a
    NaN that is not first is dropped and a residual gate could pass on it.
    """
    worst = 0.0
    for v in values:
        if math.isnan(v):
            return math.nan
        if v > worst:
            worst = v
    return worst


def is_zero_scalar(x) -> bool:
    """Whether x is exactly zero; a jet is read to its validity order, NaN is never zero."""
    if isinstance(x, Jet):
        if x.c[0] != 0:  # the common case; NaN is not 0 either
            return False
        return not np.any(x.c[: x.space.prefix_sizes[x.order]])
    return x == 0


# ---------------------------------------------------------------------------
# forms


class FormValue:
    """Exterior-algebra element at a point, graded by degree."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: dict | None = None):
        if degree < 0 or degree > chart.dim:
            raise DegreeError(f"degree {degree} out of range on {chart.name!r}")
        self.chart = chart
        self.degree = degree
        self.terms = {}
        if terms:
            for multi, c in terms.items():
                if len(multi) != degree:
                    raise DegreeError("multi-index length disagrees with degree")
                if not is_zero_scalar(c):
                    self.terms[multi] = c

    @staticmethod
    def zero(chart: Chart, degree: int) -> "FormValue":
        return FormValue(chart, degree)

    @staticmethod
    def scalar(chart: Chart, value) -> "FormValue":
        return FormValue(chart, 0, {(): value})

    @staticmethod
    def from_vector(chart: Chart, degree: int, vector: np.ndarray) -> "FormValue":
        """The pointwise form whose coefficients over the multi-indices, in combinations order, are ``vector``."""
        return FormValue(chart, degree, dict(zip(_ranks(chart.dim, degree), vector.tolist())))

    def to_vector(self) -> np.ndarray:
        """The coefficients of a pointwise form over the multi-indices in combinations order."""
        if any(isinstance(c, Jet) for c in self.terms.values()):
            raise TypeError("the form has jet coefficients; take .values() first")
        rank = _ranks(self.chart.dim, self.degree)
        out = np.zeros(len(rank), dtype=np.complex128)
        for m, c in self.terms.items():
            out[rank[m]] = c
        return out

    def _check(self, other: "FormValue"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch(f"{self.chart.name!r} vs {other.chart.name!r}")

    def __add__(self, other: "FormValue") -> "FormValue":
        self._check(other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return FormValue(self.chart, self.degree, terms)

    def __sub__(self, other: "FormValue") -> "FormValue":
        return self + other.scale(-1.0)

    def __neg__(self) -> "FormValue":
        return self.scale(-1.0)

    def scale(self, s) -> "FormValue":
        return FormValue(self.chart, self.degree, {m: s * c for m, c in self.terms.items()})

    def wedge(self, other: "FormValue") -> "FormValue":
        """self ^ other, each output coefficient summed in an operand-symmetric order.

        The contributions dx_I ^ dx_J = s dx_K of a term of each operand are
        summed per K in pairs {(I, J), (J, I)} sorted by that unordered pair,
        so that a ^ b and b ^ a agree exactly, not just up to rounding.  The
        index merges, their signs and that order depend only on the two
        operands' multi-indices, so they come from one plan per pair of term
        patterns (``_wedge_plan``), and a wedge does only the coefficient
        products and sums.
        """
        self._check(other)
        deg = self.degree + other.degree
        if deg > self.chart.dim:
            raise DegreeError("wedge degree exceeds chart dimension")
        ca, cb = list(self.terms.values()), list(other.terms.values())
        terms: dict = {}
        for merged, groups in _wedge_plan(tuple(self.terms), tuple(other.terms)):
            acc = None
            for group in groups:
                part = None
                for i, j, sign in group:
                    c = ca[i] * cb[j] if sign > 0 else -(ca[i] * cb[j])
                    part = c if part is None else part + c
                acc = part if acc is None else acc + part
            terms[merged] = acc
        return FormValue(self.chart, deg, terms)

    def conj(self) -> "FormValue":
        return FormValue(self.chart, self.degree, {m: c.conjugate() for m, c in self.terms.items()})

    def map_coeffs(self, fn) -> "FormValue":
        return FormValue(self.chart, self.degree, {m: fn(c) for m, c in self.terms.items()})

    def values(self) -> "FormValue":
        """Drop jet data, keeping pointwise coefficient values."""
        return self.map_coeffs(svalue)

    def coefficient(self, multi: tuple):
        return self.terms.get(tuple(multi), 0.0)

    def sup(self) -> float:
        """Sup of coefficient magnitudes in chart coordinates (residual norm).

        NaN if any magnitude is NaN, so that no residual gate can pass on it.
        """
        return nan_max(smag(c) for c in self.terms.values())

    def __repr__(self):  # pragma: no cover
        names = self.chart.coords
        bits = []
        for m, c in sorted(self.terms.items()):
            label = "^".join(f"d{names[i]}" for i in m) or "1"
            bits.append(f"({svalue(c):.4g}) {label}")
        return " + ".join(bits) if bits else f"0 (degree {self.degree})"


def _merge_indices(ma: tuple, mb: tuple):
    """Merge increasing index tuples; None if they collide, else (merged, sign)."""
    if not ma:
        return mb, 1
    if not mb:
        return ma, 1
    merged = []
    sign = 1
    i = j = 0
    while i < len(ma) and j < len(mb):
        a, b = ma[i], mb[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (len(ma) - i) % 2:
                sign = -sign
    merged.extend(ma[i:])
    merged.extend(mb[j:])
    return tuple(merged), sign


@lru_cache(maxsize=4096)
def _wedge_plan(multis_a: tuple, multis_b: tuple) -> tuple:
    """How ``FormValue.wedge`` sums the terms with these multi-indices, in this order.

    One (K, groups) per output multi-index K, in the order its first
    contribution appears in the loop over (term of a, term of b); each group
    holds the (i, j, sign) with dx_I ^ dx_J = sign dx_K of one unordered
    pair {I, J}, for terms ``multis_a[i]`` = I and ``multis_b[j]`` = J, and
    the groups come sorted by that pair.
    """
    buckets: dict = {}
    for i, ma in enumerate(multis_a):
        for j, mb in enumerate(multis_b):
            merged, sign = _merge_indices(ma, mb)
            if merged is not None:
                key = (ma, mb) if ma <= mb else (mb, ma)
                buckets.setdefault(merged, {}).setdefault(key, []).append((i, j, sign))
    return tuple((merged, tuple(tuple(groups[key]) for key in sorted(groups))) for merged, groups in buckets.items())


def d_complex(chart: Chart, j: int) -> FormValue:
    """dz_j = dx_{2j} + i dx_{2j+1}."""
    return FormValue(chart, 1, {(2 * j,): 1.0 + 0.0j, (2 * j + 1,): 1j})


def d_complex_bar(chart: Chart, j: int) -> FormValue:
    return FormValue(chart, 1, {(2 * j,): 1.0 + 0.0j, (2 * j + 1,): -1j})


_BASIS_INV_CACHE: dict = {}  # chart -> (T, T^-1)


def _complex_basis_matrices(chart: Chart):
    """(T, T^-1): T sends coefficients over [dz..., dzbar...] to real-basis ones; built once per chart."""
    pair = _BASIS_INV_CACHE.get(chart)
    if pair is None:
        m = chart.ncomplex
        T = np.zeros((chart.dim, chart.dim), dtype=np.complex128)
        for j in range(m):  # dz_j = dx_2j + i dx_2j+1, dzbar_j = dx_2j - i dx_2j+1
            T[2 * j, j] = T[2 * j, m + j] = 1.0
            T[2 * j + 1, j], T[2 * j + 1, m + j] = 1j, -1j
        pair = _BASIS_INV_CACHE[chart] = (T, np.linalg.inv(T))
    return pair


def exterior_derivative(form: FormValue) -> FormValue:
    """d, coefficient-wise from exact jet partials; degree + 1."""
    out, _ = exterior_derivative_with_scale(form)
    return out


def exterior_derivative_with_scale(form: FormValue):
    """d plus the sup of individual partial contributions (cancellation scale)."""
    chart = form.chart
    terms: dict = {}
    mags = []
    for multi, c in form.terms.items():
        if not isinstance(c, Jet):
            continue  # bare complex coefficients are constants, d kills them
        for v in range(chart.dim):
            if v in multi:
                continue
            dc = c.derivative(v)
            if is_zero_scalar(dc):
                continue
            mags.append(smag(dc))
            pos = bisect_left(multi, v)
            merged = multi[:pos] + (v,) + multi[pos:]
            contrib = dc if pos % 2 == 0 else -dc
            terms[merged] = terms[merged] + contrib if merged in terms else contrib
    return FormValue(chart, form.degree + 1, terms), nan_max(mags)


# ---------------------------------------------------------------------------
# Hermitian forms and their top powers


def hermitian_form(chart: Chart, H, offset: int = 0) -> FormValue:
    """sum_jk i H_jk dz_{offset+j} ^ dzbar_{offset+k}: the (1,1)-form of a Hermitian matrix."""
    out = FormValue.zero(chart, 2)
    for j, row in enumerate(H):
        for k, h in enumerate(row):
            out = out + d_complex(chart, offset + j).wedge(d_complex_bar(chart, offset + k)).scale(1j * h)
    return out


@lru_cache(maxsize=None)
def _hermitian_basis(chart: Chart) -> np.ndarray:
    """Row j * m + k: the coefficients of i dz_j ^ dzbar_k over the 2-indices in combinations order; read-only."""
    m = chart.ncomplex
    rows = [d_complex(chart, j).wedge(d_complex_bar(chart, k)).scale(1j).to_vector() for j in range(m) for k in range(m)]
    basis = np.array(rows)
    basis.flags.writeable = False
    return basis


def hermitian_wedge(chart: Chart, A, B) -> FormValue:
    """(i A_jk dz_j ^ dzbar_k) ^ (i B_jk dz_j ^ dzbar_k), a 4-form, for two m x m matrices of numbers.

    Each (1,1)-form is its matrix times the coefficients of the i dz_j ^
    dzbar_k (``_hermitian_basis``), and the wedge is one product with the
    sign plan, as in ``matrix_wedge_trace``.  A NaN entry makes every
    coefficient of the result NaN.
    """
    basis = _hermitian_basis(chart)
    a, b = (np.asarray(M, dtype=np.complex128).reshape(-1) @ basis for M in (A, B))
    return FormValue.from_vector(chart, 4, np.outer(a, b).reshape(-1) @ _wedge_signs(chart.dim, 2, 2))


def form_power(omega: FormValue, k: int) -> FormValue:
    """omega^k, wedged from the left; omega^0 is the constant 1."""
    if k == 0:
        return FormValue.scalar(omega.chart, 1.0 + 0.0j)
    out = omega
    for _ in range(k - 1):
        out = out.wedge(omega)
    return out


def top_ratio(a: FormValue, b: FormValue):
    """a / b for top-degree forms, where b is omega^m of a Hermitian form omega.

    Raises DomainError unless the top coefficient of b has a positive real
    part, and on NaN, so a form that is not positive yields neither a trace
    nor a norm.
    """
    top = tuple(range(a.chart.dim))
    d = b.coefficient(top)
    if not svalue(d).real > 0.0:
        raise DomainError(f"top form {svalue(d):.3g} is not positive: the form is not a metric here")
    return a.coefficient(top) / d


# ---------------------------------------------------------------------------
# almost complex structures and (p,q) machinery


class AlmostComplexStructure:
    """Endomorphism of the complexified cotangent space with square -identity, as one Taylor array.

    ``coeffs[i, w, v]`` is the coefficient of the i-th monomial of ``space``
    in the dx_w component of J dx_v, for the monomials of degree <= ``order``,
    which come first: row 0 holds J at the point and the rows of the x_u its
    slopes, the layout of ``_taylor_rows``.  Every entry is valid to the one
    ``order`` and supported on the variables of the one ``mask``.  A
    constant structure has ``space`` and ``order`` None, mask 0 and the one
    row of values.  The array is read-only, since a structure is shared
    (``standard_context``).
    """

    def __init__(self, chart: Chart, coeffs, space: JetSpace | None = None, order: int | None = None, mask: int = 0):
        self.chart, self.space, self.order, self.mask = chart, space, order, mask
        self.coeffs = np.array(coeffs, dtype=np.complex128).reshape(-1, chart.dim, chart.dim)
        self.coeffs.flags.writeable = False

    def taylor(self, order: int) -> np.ndarray:
        """The rows of the monomials of degree <= ``order``; InsufficientJetOrder if J is valid below it."""
        if self.space is not None:
            _check_order(self.order, order)
            return self.coeffs[: self.space.prefix_sizes[order]]
        return self.coeffs

    def apply(self, form: FormValue) -> FormValue:
        """J of a pointwise 1-form, with the values of the structure."""
        if form.degree != 1:
            raise DegreeError("almost complex structures act on 1-forms here")
        return FormValue.from_vector(self.chart, 1, self.coeffs[0] @ form.to_vector())


def standard_acs(chart: Chart) -> AlmostComplexStructure:
    """The integrable structure making the chart's complex pairs holomorphic: one row of values."""
    J = np.zeros((chart.dim, chart.dim), dtype=np.complex128)
    for j in range(chart.ncomplex):
        # J dz = i dz  <=>  J dx_re = -dx_im, J dx_im = dx_re
        J[2 * j + 1, 2 * j], J[2 * j, 2 * j + 1] = -1.0, 1.0
    return AlmostComplexStructure(chart, J)


def acs_from_complex_action(chart: Chart, action) -> AlmostComplexStructure:
    """Build the real matrix M = T action T^-1 from the action on [dz..., dzbar...].

    ``action[l][k]`` is the phi_l component of J phi_k, jets or numbers.
    Their Taylor rows, to the lowest order of the jets (``_taylor_rows``),
    are sent to M in one product with the (n^2, n^2) matrix of
    T[w, l] T^-1[k, v]; its entries are 0, +-1/2 and +-i/2, so every term
    is exact and each entry of M sums its terms in (l, k) order.  M is valid
    to that order and supported on the union of the jets' masks.
    """
    n = chart.dim
    T, Tinv = _complex_basis_matrices(chart)
    jets = [a for row in action for a in row if isinstance(a, Jet)]
    order = min((a.order for a in jets), default=None)
    space, rows = _taylor_rows(action, order or 0)
    coupling = np.einsum("wl,kv->lkwv", T, Tinv).reshape(n * n, n * n)
    coeffs = rows.reshape(len(rows), n * n) @ coupling
    return AlmostComplexStructure(chart, coeffs, space, order, reduce(or_, (a.mask for a in jets), 0))


@lru_cache(maxsize=None)
def _ranks(n: int, k: int) -> dict:
    """Row of each increasing k-tuple on n coordinates, in combinations order."""
    return {m: i for i, m in enumerate(combinations(range(n), k))}


@lru_cache(maxsize=None)
def _index_plan(n: int, k: int):
    """The degree-k multi-indices on n coordinates, and how each grows from degree k - 1.

    Returns ``(rank, grow)``.  ``rank`` maps each increasing k-tuple to its
    row, in combinations order.  ``grow`` holds three arrays over the
    positions (r, J, I), flattened in that order, of the product that grows
    the degree-k table: the flat (J', I') index into the degree-(k-1) table
    of the dx_{J'} coefficient of a part of dx_{I'}, the flat (w, v) index
    into the degree-1 table of the dx_w coefficient of a projector image of
    dx_v, and the sign (-1)^(k-1-r) that turns dx_{J'} ^ dx_w into dx_J.
    Here w is the r-th index of J and J' the rest, v the last index of I
    and I' the rest.
    """
    rank, prev = _ranks(n, k), _ranks(n, k - 1)
    multis = np.array(list(rank), dtype=np.intp).reshape(len(rank), k)
    drop = np.array([[prev[m[:r] + m[r + 1 :]] for r in range(k)] for m in rank], dtype=np.intp).reshape(len(rank), k)
    r, J, I = np.indices((k, len(rank), len(rank))).reshape(3, -1)
    grow = (drop[J, r] * len(prev) + drop[I, -1], multis[J, r] * n + multis[I, -1], (-1.0) ** (k - 1 - r))
    return rank, grow


@lru_cache(maxsize=None)
def _complement(n: int, k: int):
    """The complement map of k-forms on n coordinates: ``(comp, signs)``, read-only.

    For the L-th increasing k-tuple, ``comp[L]`` is the row of its
    complement L^c among the (n-k)-tuples and ``signs[L]`` the sign e_L with
    dx_L ^ dx_{L^c} = e_L dx_0 ^ ... ^ dx_{n-1}; rows are in combinations
    order.
    """
    rest = _ranks(n, n - k)
    comp, signs = [], []
    for multi in _ranks(n, k):
        other = tuple(v for v in range(n) if v not in multi)
        comp.append(rest[other])
        signs.append(_merge_indices(multi, other)[1])
    comp, signs = np.array(comp, dtype=np.intp), np.array(signs, dtype=np.float64)
    comp.flags.writeable = signs.flags.writeable = False
    return comp, signs


class TypeContext:
    """Pointwise (p,q) machinery for one almost complex structure, to order 1.

    The type table of degree k is one complex array of shape (1 + m, k + 1,
    C(n,k), C(n,k)): entry ``[0, p, J, I]`` is the dx_J coefficient of the
    (p, k-p) part of dx_I at the point, with multi-indices as rows in
    combinations order, and entry ``[1 + i, p, J, I]`` its d/dx_u for the
    i-th variable u of the structure's mask.  A constant structure, or one
    valid only to order 0, has m = 0.

    Degree 1 stacks the projectors Q = (1 + iJ)/2 and P = (1 - iJ)/2 over
    the rows of the structure's Taylor array (``AlmostComplexStructure.coeffs``)
    that hold J at the point and its d/dx_u.
    Degree k <= dim/2 grows from degree k - 1 over an index plan (``_index_plan``):
    the (p,q) part of dx_I = dx_{I'} ^ dx_v is (p-1,q)(dx_{I'}) ^ P dx_v +
    (p,q-1)(dx_{I'}) ^ Q dx_v, and the dx_J coefficient of a (k-1)-form
    wedged with a 1-form sums, over the k ways to write J as J' plus {w},
    the dx_{J'} coefficient times the dx_w one with the merge sign.  Each
    product of two stacked factors is the Leibniz rule: its value is a_0 b_0
    and its d/dx_u is a_0 b_u + a_u b_0.  A degree k with dim/2 < k < dim
    is one signed permutation of degree dim - k (``_dual_table``), so on
    the 6-dimensional twistor chart degrees 4 and 5 come from 2 and 1.

    Decomposing and projecting raise ChartMismatch for a form on another
    chart, and contract the table with the form's
    coefficient vector and build forms only for the result.  A pointwise
    form contracts with the values.  A jet form contracts the values with
    its Taylor coefficients and adds the slopes times its value to each x_u
    coefficient: on a structure with jet entries the result is valid to
    min(form order, 1), the order every reader of such a projection needs,
    and on a constant structure it keeps the form's order.  Its jets carry
    the union of the form's and the structure's masks.
    """

    def __init__(self, acs: AlmostComplexStructure):
        self.acs = acs
        self.chart = acs.chart
        n = self.chart.dim
        # the variables u of the slope rows, in table order: none on a structure valid to order 0 or constant
        self._vars = [u for u in range(acs.mask.bit_length()) if acs.mask >> u & 1] if acs.order else []
        J = acs.coeffs[[0] + [acs.space.first_order[u] for u in self._vars]]
        eye = np.zeros_like(J)
        eye[0] = np.eye(n)
        # the type axis counts p: Q dx_v is the (0,1) part of dx_v, P dx_v the (1,0) part
        tab = np.stack([(eye + 1j * J) * 0.5, (eye - 1j * J) * 0.5], axis=1)
        tab.flags.writeable = False  # a context is shared (standard_context), so its tables are too
        self._tables: dict = {1: tab}

    def _table(self, k: int) -> np.ndarray:
        """The degree-k type table, built on first use and kept read-only in ``_tables``.

        Up to dim/2 and at dim it grows from degree k - 1; between, it is
        the dual of degree dim - k (``_dual_table``).
        """
        tab = self._tables.get(k)
        if tab is None and self.chart.dim < 2 * k < 2 * self.chart.dim:
            tab = self._tables[k] = self._dual_table(k)
        if tab is None:
            prev = self._table(k - 1)
            pq = self._tables[1]
            rank, (src, pq_src, signs) = _index_plan(self.chart.dim, k)
            mt = prev.shape[0]
            prev, pq = prev.reshape(mt, k, -1), pq.reshape(mt, 2, -1)
            # only the positions where neither factor is zero (3 in 10 on the flat twistor structure)
            live = np.flatnonzero(np.any(prev != 0, axis=(0, 1))[src] & np.any(pq != 0, axis=(0, 1))[pq_src])
            lhs = np.take(prev, src[live], axis=2)[:, None]  # [:, 1, p, live]
            rhs = (np.take(pq, pq_src[live], axis=2) * signs[live])[:, :, None]  # [:, s, 1, live]: Q, P
            # the Leibniz rule over the rows: value a_0 b_0, slope a_0 b_u + a_u b_0
            grown = lhs[:1] * rhs
            grown[1:] += lhs[1:] * rhs[:1]
            # the positions of one r have distinct (J, I), so each block adds without collisions
            size = len(rank) ** 2
            tab = np.zeros((mt, k + 1, size), dtype=np.complex128)
            bounds = np.searchsorted(live, np.arange(k + 1) * size)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                targets = live[lo:hi] % size
                tab[:, :k, targets] += grown[:, 0, :, lo:hi]
                tab[:, 1:, targets] += grown[:, 1, :, lo:hi]
            tab = self._tables[k] = tab.reshape(mt, k + 1, len(rank), len(rank))
            tab.flags.writeable = False
        return tab

    def _dual_table(self, k: int) -> np.ndarray:
        """The degree-k table, for dim/2 < k < dim, as the signed-complement transpose of degree dim - k.

        The wedge pairing makes the (p, q) projection on k-forms the adjoint
        of the (m-p, m-q) projection on (dim-k)-forms, m = dim/2, so
        T_k[:, p] = C T_{dim-k}[:, m-p]^T C^T with C the signed permutation
        of ``_complement``, and 0 where m - p is not a type of degree
        dim - k.  Each entry is one entry of the lower table times +-1, and
        the value and slope rows transform alike.
        """
        n, m = self.chart.dim, self.chart.ncomplex
        low = self._table(n - k)
        comp, signs = _complement(n, k)
        lo, hi = max(0, m - (n - k)), min(k, m)  # the p with 0 <= m - p <= n - k
        # the types m - p for p = lo .. hi, then [.., L, L'] = T_{n-k}[.., L'^c, L^c] e_L e_L'
        dual = low[:, m - hi : m - lo + 1][:, ::-1][:, :, comp[:, None], comp[None, :]].swapaxes(-1, -2)
        tab = np.zeros((low.shape[0], k + 1) + dual.shape[2:], dtype=np.complex128)
        tab[:, lo : hi + 1] = dual * np.outer(signs, signs)
        tab.flags.writeable = False
        return tab

    def _check_chart(self, form: FormValue):
        if form.chart is not self.chart and form.chart != self.chart:
            raise ChartMismatch(f"a form on {form.chart.name!r} read by the context of {self.chart.name!r}")

    def _parts(self, form: FormValue, types: slice) -> list:
        """The (p, k-p) parts of a k-form, for p in ``range(k + 1)[types]``."""
        k = form.degree
        rank = _index_plan(self.chart.dim, k)[0]
        tab = self._table(k)[:, types]
        rows = [rank[m] for m in form.terms]
        coeffs = list(form.terms.values())
        jets = [c for c in coeffs if isinstance(c, Jet)]
        if not jets:
            space = None
            vector = np.zeros(len(rank), dtype=np.complex128)
            vector[rows] = coeffs
            out = (tab[0] @ vector)[..., None]
        else:
            space = self.acs.space or jets[0].space
            if any(j.space is not space for j in jets):
                raise ValueError("jets from different spaces cannot be combined")
            order = min(j.order for j in jets)
            if self.acs.space is not None:
                order = min(order, 1, self.acs.order)
            cmask = reduce(or_, (j.mask for j in jets))
            mask = cmask | self.acs.mask
            cols = space.support(cmask, order)
            matrix = np.zeros((len(rank), len(cols)), dtype=np.complex128)
            for r, c in zip(rows, coeffs):
                if isinstance(c, Jet):
                    matrix[r] = c.c[cols]
                else:
                    matrix[r, 0] = c
            out = np.zeros(tab.shape[1:-1] + (space.size,), dtype=np.complex128)
            out[..., cols] = tab[0] @ matrix
            if order and self._vars:
                out[..., space.first_order[self._vars]] += np.moveaxis(tab[1:] @ matrix[:, 0], 0, -1)
        keep = np.any(out != 0, axis=-1)  # NaN is kept, as in is_zero_scalar
        multis = list(rank)
        parts = []
        for part, kept in zip(out, keep):
            if space is None:
                terms = {multis[J]: complex(part[J, 0]) for J in np.flatnonzero(kept)}
            else:
                terms = {multis[J]: Jet(space, part[J], order, mask) for J in np.flatnonzero(kept)}
            parts.append(FormValue(self.chart, k, terms))
        return parts

    def decompose(self, form: FormValue) -> dict:
        """Partition into pure (p,q) parts; the parts sum back to the input."""
        self._check_chart(form)
        k = form.degree
        if k == 0:
            return {(0, 0): form}
        if not form.terms:
            return {}
        return {(p, k - p): part for p, part in enumerate(self._parts(form, slice(None)))}

    def project(self, form: FormValue, p: int, q: int) -> FormValue:
        self._check_chart(form)
        k = form.degree
        if k == 0:
            return form if (p, q) == (0, 0) else FormValue.zero(self.chart, 0)
        if p + q != k or p < 0 or q < 0 or not form.terms:
            return FormValue.zero(self.chart, k)
        return self._parts(form, slice(p, p + 1))[0]


@lru_cache(maxsize=None)
def standard_context(chart: Chart) -> TypeContext:
    """The type context of the chart's standard structure, built once per chart and shared.

    The standard structure holds plain complex numbers, so its tables hold
    no jets and depend only on the chart: a shared context never holds jets
    of a stale ``jet_space``.
    """
    return TypeContext(standard_acs(chart))


# ---------------------------------------------------------------------------
# generic small linear algebra over scalars-or-jets


def mat_det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    # cofactor expansion along the first row; matrices here are tiny
    det = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        term = A[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        det = term if det is None else det + term
    return det


def mat_inv(A):
    """The inverse of a Hermitian positive-definite matrix of jets or numbers, by Gauss-Jordan without pivoting.

    Every matrix the package inverts is one (the kappa Hessian, a cotangent
    Gram, Hbar, Ubar), and on those elimination without pivoting is stable
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 10),
    so no step depends on the values of the entries: no row is swapped and
    no zero multiplier is skipped.  Each pivot is inverted once and
    multiplied by, which is how a jet division computes.  A pivot whose
    value is 0 raises DomainError; on a matrix outside the contract a small
    pivot loses digits silently.  Columns of ``work`` up to the pivot's are
    never read again, so they are not updated.
    """
    n = len(A)
    work = [list(row) for row in A]
    inv = [[1.0 + 0.0j if i == j else 0.0 + 0.0j for j in range(n)] for i in range(n)]
    for col in range(n):
        if svalue(work[col][col]) == 0:
            raise DomainError("a pivot is 0: the matrix is singular or not positive definite")
        rs = 1.0 / work[col][col]
        work[col][col + 1 :] = [x * rs for x in work[col][col + 1 :]]
        inv[col] = [x * rs for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            for j in range(col + 1, n):
                work[r][j] = work[r][j] - f * work[col][j]
            for j in range(n):
                inv[r][j] = inv[r][j] - f * inv[col][j]
    return inv


# ---------------------------------------------------------------------------
# reads at the point from stacked Taylor coefficients: three kernels, and the
# Chern curvature of a Hermitian Gram matrix in a holomorphic frame


@lru_cache(maxsize=None)
def _wedge_signs(n: int, ka: int, kb: int) -> np.ndarray:
    """Sign plan of the wedge of a ka-form and a kb-form on n coordinates.

    Entry ``[I * C(n, kb) + J, K]`` is the sign s with dx_I ^ dx_J = s dx_K,
    and 0 where I and J share an index or do not merge to K; rows and
    columns are multi-indices in combinations order.
    """
    rows, cols, out = _ranks(n, ka), _ranks(n, kb), _ranks(n, ka + kb)
    signs = np.zeros((len(rows), len(cols), len(out)), dtype=np.complex128)
    for ma, i in rows.items():
        for mb, j in cols.items():
            merged, sign = _merge_indices(ma, mb)
            if merged is not None:
                signs[i, j, out[merged]] = sign
    return signs.reshape(len(rows) * len(cols), len(out))


def _taylor_rows(entries, order: int):
    """``(space, rows)``: the Taylor coefficients to ``order`` of a nested list of jets and numbers.

    ``rows[i, ...]`` holds the coefficient of the i-th monomial of
    ``space`` in each entry, for the monomials of degree <= ``order``, which
    come first: the monomial axis comes first and the list's shape follows.
    A number fills row 0.  ``space`` is that of the jets, or None if there
    are none, and then ``rows`` is the one row of values.  Raises
    ValueError for jets of different spaces and InsufficientJetOrder for a
    jet valid below ``order``, so no coefficient beyond a jet's validity is
    read.
    """
    cells = np.array(entries, dtype=object)
    jets = [e for e in cells.flat if isinstance(e, Jet)]
    space = jets[0].space if jets else None
    if any(e.space is not space for e in jets):
        raise ValueError("jets from different spaces cannot be combined")
    _check_order(min((e.order for e in jets), default=order), order)
    size = space.prefix_sizes[order] if jets else 1
    rows = np.zeros((size, cells.size), dtype=np.complex128)
    for i, e in enumerate(cells.flat):
        if isinstance(e, Jet):
            rows[:, i] = e.c[:size]
        else:
            rows[0, i] = e
    return space, rows.reshape((size,) + cells.shape)


def _check_order(valid: int, order: int) -> None:
    """InsufficientJetOrder unless coefficients valid to ``valid`` reach ``order``."""
    if valid < order:
        raise InsufficientJetOrder(f"a read at the point needs coefficients to order {order}; they are valid to order {valid}")


def _d_point(space: JetSpace, rows: np.ndarray, k: int) -> np.ndarray:
    """d at the point of stacked k-forms, as Taylor rows one order lower.

    ``rows[i, ..., I]`` is the coefficient of the i-th monomial of ``space``
    in the dx_I coefficient of a form, multi-indices in combinations order,
    to order 1 or 2 (``_taylor_rows``).  Since d(f dx_I) = sum_v d_v f
    dx_v ^ dx_I, the value of d(form) is the first partials times the sign
    plan of a 1-form and a k-form (``_wedge_signs``); from rows to order 2
    its slopes are the second partials times the same plan, in the rows of
    the monomials x_u.  So d of rows to order 2 can be read by d again.  A
    NaN among the partials makes every coefficient of the result NaN.
    """
    n = space.nvars
    first = rows[space.first_order]  # [v, ..., I] = d_v
    if len(rows) <= 1 + n:
        partials = first[:, None]
    else:
        # [v, u, ..., I] = d_v d_u; the coefficient of x_u^2 is half of d2/dx_u^2, and doubling is exact
        second = rows[space.second_order] * (1.0 + np.eye(n)).reshape((n, n) + (1,) * (rows.ndim - 1))
        partials = np.empty((n, 1 + n) + rows.shape[1:], dtype=np.complex128)
        partials[:, 0] = first
        partials[:, space.first_order] = second
    moved = np.moveaxis(partials, 0, -2)  # [row, ..., v, I]
    return moved.reshape(moved.shape[:-2] + (-1,)) @ _wedge_signs(n, 1, k)


def _type_part(ctx: TypeContext, space: JetSpace | None, rows: np.ndarray, k: int, p: int) -> np.ndarray:
    """The (p, k-p) part at the point of stacked k-forms, as Taylor rows to the same order, 0 or 1.

    ``rows`` are laid out as ``_d_point`` returns them.  The part follows
    the Leibniz rule over the value and slope rows of ``ctx._table(k)``:
    its value is T_0 a_0 and its d/dx_u is T_0 a_u + T_u a_0.  Slopes need
    a structure valid to order 1 (InsufficientJetOrder) whose jets, if it
    has any, are of ``space`` (ValueError).
    """
    tab = ctx._table(k)[:, p]
    out = rows @ tab[0].T
    if len(rows) > 1:
        if ctx.acs.order == 0:
            raise InsufficientJetOrder("the slopes of a type part need a structure valid to order 1")
        if ctx.acs.space is not None and space is not ctx.acs.space:
            raise ValueError("jets from different spaces cannot be combined")
        if ctx._vars:
            out[space.first_order[ctx._vars]] += np.einsum("uJI,...I->u...J", tab[1:], rows[0])
    return out


def gram_curvature(H, ctx: TypeContext):
    """R = dbar(Hbar^-1 del Hbar) at the point, for an n x n matrix of jet entries.

    The result is one complex array of shape (n, n, C(dim, 2)): ``R[i, j, r]``
    is the dx_u ^ dx_w coefficient of R_ij at the point, where (u, w) is the
    r-th pair u < w in combinations order (``_ranks(dim, 2)``).  R_ij is the
    (1,1) part of d X_ij with X = Hbar^-1 del Hbar, taken with the values of
    the type table; for a (1,0)-form X that is its dbar.  For an actual
    holomorphic-frame Gram the entries are pure (1,1).

    d X is read at the point only, so the whole matrix goes through the
    three kernels: Hbar read to order 2 (``_taylor_rows``) gives d Hbar with
    its slopes (``_d_point``) and its (1,0) part del Hbar with its slopes
    (``_type_part``); the Leibniz rule gives X to order 1, whose slopes are
    d(Hbar^-1)_ik del Hbar_kj + Hbar^-1_ik d(del Hbar_kj); and d X at the
    point takes one pointwise (1,1) projection for every entry.

    The value and the slopes of Hbar^-1 come from one ``mat_inv`` on the
    entries read to order 1, a jet elimination without pivoting, which is
    stable since Hbar is Hermitian positive definite.  The pointwise
    alternatives, d(Hbar^-1) = -Hbar^-1 dHbar Hbar^-1 from an explicit
    inverse or from LU solves, lose more digits at the domain edges
    where Hbar is ill-conditioned (the Eguchi-Hanson cutoff |x| = 0.05a and
    the radial-h cutoff at base radius 0.03) and fail the asd and the
    anomaly gates there.
    """
    space, G = _taylor_rows([[e.to_order(2) for e in row] for row in H], 2)
    _, Ginv = _taylor_rows(mat_inv([[e.to_order(1).conjugate() for e in row] for row in H]), 1)
    # the entries of Hbar as 0-forms, then del Hbar with its slopes
    Y = _type_part(ctx, space, _d_point(space, np.conj(G)[..., None], 0), 1, 1)
    # X = Hbar^-1 del Hbar to order 1: value G_0 Y_0, slope G_0 Y_u + G_u Y_0
    X = np.einsum("ik,rkjw->rijw", Ginv[0], Y)
    X[1:] += np.einsum("rik,kjw->rijw", Ginv[1:], Y[0])
    return _type_part(ctx, space, _d_point(space, X, 1), 2, 1)[0]


def _check_curvature_chart(F: np.ndarray, chart: Chart) -> int:
    """C(dim, 2), the number of coefficients per entry of a curvature on ``chart``; ChartMismatch if ``F`` has another."""
    pairs = math.comb(chart.dim, 2)
    if F.shape[-1] != pairs:
        raise ChartMismatch(f"a curvature on {chart.name!r} has {pairs} coefficients per entry, got {F.shape[-1]}")
    return pairs


def matrix_wedge_trace(A: np.ndarray, B: np.ndarray, chart: Chart) -> FormValue:
    """tr(A wedge B), a 4-form, for curvatures stacked as ``gram_curvature`` returns them.

    One contraction of the stacked coefficients gives sum_ij A_ij[I] B_ji[J]
    for every pair of 2-indices (I, J), and one product with the sign plan
    sends each pair to dx_I ^ dx_J.  A NaN coefficient anywhere makes every
    coefficient of the result NaN.
    """
    _check_curvature_chart(A, chart)
    _check_curvature_chart(B, chart)
    pairs = np.einsum("ijI,jiJ->IJ", A, B)
    return FormValue.from_vector(chart, 4, pairs.reshape(-1) @ _wedge_signs(chart.dim, 2, 2))


# ---------------------------------------------------------------------------
# the certificate shapes shared by the residual operators


def relative_residual(diff_sup: float, scale: float) -> float:
    """Sup residual divided by the local magnitude of the largest entering term.

    Scales below 1 keep absolute semantics so near-zero identities are not
    inflated by noise.  A non-finite diff or scale gives inf, which fails
    every ``<= tol`` gate.
    """
    if not (math.isfinite(diff_sup) and math.isfinite(scale)):
        return math.inf
    return diff_sup / max(scale, 1.0)


def closedness_residual(form: FormValue) -> float:
    """d(form) = 0 at the point: the sup of d(form) relative to its cancellation scale and |form|.

    d is read at the point from the form's Taylor rows to order 1
    (``_d_point``), so its jet coefficients must be valid to order >= 1 and
    of one space.  The cancellation scale is the largest first partial that
    enters d, as ``exterior_derivative_with_scale`` gives it.
    """
    n, k = form.chart.dim, form.degree
    space, rows = _taylor_rows([form.coefficient(m) for m in _ranks(n, k)], 1)
    if space is None:  # constant coefficients: d is 0
        return relative_residual(0.0, form.sup())
    # d_v of the dx_I coefficient enters d unless v is in I
    scale = _array_sup(rows[space.first_order].reshape(-1)[_wedge_signs(n, 1, k).any(axis=1)])
    return relative_residual(_array_sup(_d_point(space, rows, k)), nan_max([scale, form.sup()]))


def _array_sup(a: np.ndarray) -> float:
    """Largest magnitude in ``a`` (0.0 if it is empty), or NaN if any entry is NaN.

    Magnitudes are ``hypot(re, im)``, which equals the built-in ``abs`` of a
    complex bit for bit; ``np.abs`` of a complex array rounds differently in
    about a third of the entries.
    """
    return float(np.max(np.hypot(a.real, a.imag), initial=0.0))


def curvature_residual(F: np.ndarray, forms, ctx: TypeContext) -> float:
    """F is (1,1) and F_ij ^ form = 0 for each form, relative to the entering terms.

    ``F`` is a curvature stacked as ``gram_curvature`` returns it, on the
    chart of ``ctx``, and ``forms`` a list of pointwise forms on that chart.
    Each form is wedged with every entry in one product with the sign plan
    (``_wedge_signs``), and the (2,0) and (0,2) parts of every entry come
    from one product with the values of the degree-2 type table of ``ctx``.
    The sup of the wedges and of those parts is compared against
    sup|F| sup|form| and sup|F|.  Rounding is monotone, so sup|F| sup|form|
    is bit for bit the largest product of a coefficient of an entry and one
    of the form.  A NaN anywhere in F or in a form makes the scale NaN and
    the residual inf.
    """
    chart = ctx.chart
    f = F.reshape(-1, _check_curvature_chart(F, chart))
    sup_F = _array_sup(f)
    sups = [_array_sup(f @ ctx._table(2)[0, ::2].transpose(0, 2, 1))]
    scales = [sup_F]
    for form in forms:
        if form.chart != chart:
            raise ChartMismatch(f"{form.chart.name!r} vs {chart.name!r}")
        if form.degree + 2 > chart.dim:
            raise DegreeError("wedge degree exceeds chart dimension")
        b = form.to_vector()
        wedged = (f[:, :, None] * b).reshape(len(f), -1) @ _wedge_signs(chart.dim, 2, form.degree)
        sups.append(_array_sup(wedged))
        scales.append(sup_F * _array_sup(b))
    return relative_residual(nan_max(sups), nan_max(scales))


def identity_residual(lhs: FormValue, rhs: FormValue, *scales: float) -> float:
    """lhs = rhs: the sup of lhs - rhs relative to |lhs|, |rhs| and any further term scales."""
    return relative_residual((lhs - rhs).sup(), nan_max([lhs.sup(), rhs.sup(), *scales]))


def del_dbar_of_taylor(ctx: TypeContext, space: JetSpace, coeffs: np.ndarray, degree: int, order: int) -> FormValue:
    """del dbar at the point of the form of even ``degree`` whose Taylor rows are ``coeffs``.

    ``coeffs[i, I]`` is the coefficient of the i-th monomial of ``space``
    (those of degree <= 2 at least) in the dx_I coefficient of the form,
    multi-indices in combinations order, valid to ``order`` >= 2; the
    degree is even and at most dim - 2, as ``del_dbar_at_point`` checks.  For
    degree 2q the result is the (q+1, q+1) part of d of the (q, q+1) part of
    d(form), read by the kernels without a derivative jet: d with its slopes
    (``_d_point``), the part with its slopes (``_type_part``), then d and
    the part at the value.  So the structure is read to order 1: one with
    jet entries valid only to order 0 raises InsufficientJetOrder.  A NaN
    among the partials makes every coefficient of the result NaN.
    """
    if order < 2:
        raise InsufficientJetOrder(f"del dbar at the point needs coefficients to order 2; they are valid to order {order}")
    q = degree // 2
    dbar = _type_part(ctx, space, _d_point(space, coeffs, degree), degree + 1, q)
    dd = _type_part(ctx, space, _d_point(space, dbar, degree + 1), degree + 2, q + 1)
    return FormValue.from_vector(ctx.chart, degree + 2, dd[0])


def del_dbar_at_point(ctx: TypeContext, form: FormValue) -> FormValue:
    """del dbar of a form of even degree at the point, read from its Taylor rows (``del_dbar_of_taylor``).

    Degree 0 gives del dbar f = -dbar del f of a function, and degree 2 del
    dbar of a (1,1)-form such as a metric.  The form must be on the chart of
    ``ctx`` (ChartMismatch) and of even degree at most dim - 2
    (DegreeError), and its jet coefficients valid to order >= 2; its
    coefficients of degree <= 2 are read.  Constant coefficients have no
    partials, so a form without jets has del dbar 0.
    """
    ctx._check_chart(form)
    n, k = ctx.chart.dim, form.degree
    if k % 2 or k > n - 2:
        raise DegreeError(f"del dbar at the point reads a form of even degree up to {n - 2}, got degree {k}")
    space, rows = _taylor_rows([form.coefficient(m) for m in _ranks(n, k)], 2)
    if space is None:
        return FormValue.zero(ctx.chart, k + 2)
    return del_dbar_of_taylor(ctx, space, rows, k, 2)


def volume_form_norm(vol: FormValue, omega: FormValue) -> float:
    """sqrt(m! |vol ^ vol_bar| / omega^m) for a holomorphic volume form and a Hermitian form.

    The modulus drops the constant phase of vol ^ vol_bar; the ratio raises
    DomainError unless omega^m is positive.
    """
    m = omega.chart.ncomplex
    numer = vol.wedge(vol.conj()).map_coeffs(abs)
    return math.sqrt(math.factorial(m) * top_ratio(numer, form_power(omega, m)).real)
