"""Complex-valued exterior calculus over real coordinate charts.

Forms (:class:`FormValue`) and almost complex structures
(:class:`AlmostComplexStructure`) share one layout, Taylor rows: a
read-only complex array whose first axis runs over the monomials of degree
<= o of a jet space (the value first, then the x_u) and whose other axes
over multi-indices in combinations order, with one validity order and one
support mask for all of it; a pointwise form or a constant structure has the
one row of values.  ``_stacked`` stacks jets and numbers so
(``FormValue.of_terms``).  Sums and differences of forms, and the
(1,1)-form of a matrix (``hermitian_form``, one exact product with the
chart's basis, through which a NaN entry reaches every coefficient), are
whole-array operations; scalings and wedges multiply one column by another,
each product rounded as the jets and numbers the columns stand for would
round it (``_product``), so nested expressions come out exact.  A column is
a term of a form unless every coefficient of it is exactly 0 to the form's
order (NaN counts as a term); products and wedges multiply only terms, and
no tolerance decides what a form holds.

``Chart.pairs`` is the one pairing of real coordinates into complex ones:
the complex basis T (its columns dz_j, dzbar_j), the standard structure
and ``complex_coord`` read it.  The Dolbeault operators make no
holomorphic-coordinate assumption: del and dbar are assembled from real
partials through the (1,0)/(0,1) projectors of an almost complex structure,
which is built from its action on the complex basis in one array product
(``acs_from_complex_action``).
:class:`TypeContext` holds the type decomposition of k-forms as one dense
array per degree, indexed by (row, p, output multi-index, input
multi-index), row 0 the value at the point and the others its first
partials; each degree up to dim/2 grows from the one below by the Leibniz
rule over an index plan, each degree above is the signed-complement
transpose of degree dim - k, and a decomposition contracts it with a form's
rows.  A context reads only forms on its own chart; ``standard_context``
builds the constant standard one once per chart, read-only since shared.

Every read at the point goes through two kernels on Taylor rows: ``_d_point``
takes d of stacked k-forms (its value the first partials, its slopes the
second partials, times the sign plan ``_wedge_signs(n, 1, k)``) and
``_type_part`` the (p, k-p) part (value T_0 a_0, slopes T_0 a_u + T_u a_0).
On them are built ``closedness_residual``, ``gram_curvature`` (the Chern
curvature dbar(Hbar^-1 del Hbar) of a Gram matrix, its inverse a jet
elimination without pivoting, ``mat_inv``), ``del_dbar_of_taylor`` and
``del_dbar_at_point`` (degree 0 gives del dbar f), and in the other modules
``w_form``, ``curvature_identities`` and the dbar reads of
``frame_decompose``.  A projection on a structure with jet entries is valid
to order 1, all that d at the point of a part needs; on a constant
structure it keeps the form's order.  No operator takes the jet-valued
route, d of derivative jets (``exterior_derivative_with_scale``) and the
contraction with a jet form's rows (``TypeContext.decompose``); it stays as
the oracle of the tests, since it shares neither kernel, and the benchmark's
tracer counts d and decompositions on it.  Its d inserts each index with a
sign of its own, so it also checks the parity rule that signs every wedge
(``_merge_indices``).

The certificates share five shapes, each written once at the end of this
module with its normalisation: a form is closed (``closedness_residual``), a
curvature is (1,1) and annihilated by some forms (``curvature_residual``),
one side of an identity equals the other (``identity_residual``), del dbar
at the point of a form of even degree (``del_dbar_at_point``), and the norm
of a holomorphic volume form (``volume_form_norm``).  A residual is a sup
divided by the largest entering term (``relative_residual``), so it never
passes on NaN or inf.  Every relative residual of the package is one of
these shapes; an operator names at most further terms of the scale
(``identity_residual``).  A curvature stays the one array that
``gram_curvature`` computes, the stacked (1,1) coefficients of every entry,
up to every reader (``curvature_residual``, ``matrix_wedge_trace``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import mul, or_

import numpy as np

from .jets import InsufficientJetOrder, Jet, JetSpace, _mul_coeffs


class ChartMismatch(Exception):
    pass


class DegreeError(Exception):
    pass


class DomainError(Exception):
    """A point or a form outside the domain where the quantity is defined."""


@dataclass(frozen=True)
class Chart:
    """A real coordinate chart whose coordinates pair into complex ones.

    The j-th complex coordinate, named ``complex_names[j]``, is z_j = x_re
    + i x_im for (re, im) = ``pairs[j]``, the one spelling of the pairing
    that every reader takes.
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

    @property
    def pairs(self) -> tuple:
        """((0, 1), (2, 3), ...): the (re, im) coordinates of each complex coordinate."""
        return tuple((2 * j, 2 * j + 1) for j in range(self.ncomplex))

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
        re, im = self.chart.pairs[j]
        return complex(self.coords[re], self.coords[im])


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


def _product(space, order: int | None, mask: int, x_jets: bool, y_jets: bool):
    """x * y for columns of forms, each a number or the 1-D Taylor rows of a jet, rounded as ``Jet`` and numbers multiply.

    Two jets make one ``jets._mul_coeffs``, ``x`` the left factor; a jet and
    a number scale the jet's coefficients by the number, the jet's array
    first, as ``Jet`` does (numpy's complex multiply is not symmetric in its
    operands); two numbers multiply as Python does.
    """
    if x_jets and y_jets:
        return lambda x, y: _mul_coeffs(space, x, y, order, mask)
    return (lambda x, y: y * x) if y_jets else mul


# ---------------------------------------------------------------------------
# forms


class FormValue:
    """A k-form at a point, as one read-only complex array of Taylor rows.

    ``coeffs[i, I]`` is the coefficient of the i-th monomial of ``space`` in
    the dx_I coefficient, multi-indices in combinations order (``_ranks``),
    for the monomials of degree <= ``order``: row 0 holds the values.  Every
    coefficient is valid to the one ``order`` and supported on the variables
    of the one ``mask``; a pointwise form has ``space`` and ``order`` None,
    mask 0 and one row.  Read-only, so a form can be shared.
    """

    def __init__(self, chart: Chart, degree: int, coeffs, space: JetSpace | None = None, order: int | None = None, mask: int = 0):
        n = len(chart.coords)
        if degree < 0 or degree > n:
            raise DegreeError(f"degree {degree} out of range on {chart.name!r}")
        self.chart, self.degree, self.space, self.order, self.mask = chart, degree, space, order, mask
        coeffs = np.array(coeffs, dtype=np.complex128, ndmin=2, copy=None)
        self.coeffs = coeffs[: space.prefix_sizes[order]] if space is not None else coeffs
        self.coeffs.setflags(write=False)

    @staticmethod
    def of_terms(chart: Chart, degree: int, terms: dict) -> "FormValue":
        """sum c dx_multi over ``terms`` = {multi: c}, jets or numbers, valid to their lowest order on the union of their masks.

        DegreeError for a multi-index that is no strictly increasing
        ``degree``-tuple of the chart's coordinates.
        """
        rank = _ranks(chart.dim, degree)
        entries = [0.0] * len(rank)
        for multi, c in terms.items():
            if multi not in rank:
                raise DegreeError(f"{multi} is no increasing {degree}-tuple of the {chart.dim} coordinates of {chart.name!r}")
            entries[rank[multi]] = c
        return FormValue(chart, degree, *_stacked(entries, None))

    @staticmethod
    def zero(chart: Chart, degree: int) -> "FormValue":
        return FormValue(chart, degree, np.zeros(math.comb(chart.dim, degree)))

    @staticmethod
    def scalar(chart: Chart, value) -> "FormValue":
        return FormValue.of_terms(chart, 0, {(): value})

    def _join(self, other):
        """(space, order, mask, rows) of what this form and ``other``, a form or a jet, make; ChartMismatch or ValueError for two jet spaces."""
        if isinstance(other, FormValue) and self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch(f"{self.chart.name!r} vs {other.chart.name!r}")
        if self.space is None or other.space is None:
            space, order = (self.space, self.order) if other.space is None else (other.space, other.order)
        elif self.space is not other.space:
            raise ValueError("jets from different spaces cannot be combined")
        else:
            space, order = self.space, min(self.order, other.order)
        return space, order, self.mask | other.mask, space.prefix_sizes[order] if space is not None else 1

    def _rows(self, size: int) -> np.ndarray:
        """The first ``size`` rows of ``coeffs``, a pointwise form's padded with zero slopes."""
        if len(self.coeffs) >= size:
            return self.coeffs[:size]
        out = np.zeros((size, self.coeffs.shape[1]), dtype=np.complex128)
        out[0] = self.coeffs[0]
        return out

    @cached_property
    def _live(self) -> tuple:
        """The columns that hold a term: a coefficient other than 0 to the form's order, NaN included."""
        return tuple(self.coeffs.any(axis=0).nonzero()[0].tolist())

    def _columns(self, size: int) -> dict:
        """{column: coefficient} of the terms: a number on a pointwise form, else the first ``size`` Taylor rows."""
        if self.space is not None:
            live = self._live
            return dict(zip(live, self.coeffs[:size].T[list(live)]))  # contiguous columns gather fastest
        return {t: v for t, v in enumerate(self.coeffs[0].tolist()) if v}

    def _elementwise(self, other: "FormValue", op) -> "FormValue":
        space, order, mask, size = self._join(other)
        if self.degree != other.degree:
            raise DegreeError("cannot add or subtract forms of different degree")
        return FormValue(self.chart, self.degree, op(self._rows(size), other._rows(size)), space, order, mask)

    def __add__(self, other: "FormValue") -> "FormValue":
        return self._elementwise(other, np.add)

    def __sub__(self, other: "FormValue") -> "FormValue":
        return self._elementwise(other, np.subtract)

    def __neg__(self) -> "FormValue":
        return FormValue(self.chart, self.degree, -self.coeffs, self.space, self.order, self.mask)

    def scale(self, s) -> "FormValue":
        """s times the form, for a number or a jet s as the left factor of each term (``_product``); an absent term stays 0."""
        if isinstance(s, Jet):
            space, order, mask, size = self._join(s)
            s = s.c[:size]
        elif self.space is not None:
            space, order, mask, size, s = self.space, self.order, self.mask, len(self.coeffs), complex(s)
        else:  # numbers, multiplied as Python does
            s = complex(s)
            return FormValue(self.chart, self.degree, [s * c if c else c for c in self.coeffs[0].tolist()])
        times = _product(space, order, mask, not isinstance(s, complex), self.space is not None)
        columns = {t: times(s, c) for t, c in self._columns(size).items()}
        return _of_columns(self.chart, self.degree, columns, size, space, order, mask)

    def wedge(self, other: "FormValue") -> "FormValue":
        """self ^ other, each output coefficient summed in an operand-symmetric order.

        The contributions dx_I ^ dx_J = s dx_K of a term of each operand are
        summed per K in pairs {(I, J), (J, I)} sorted by that unordered pair,
        so that a ^ b and b ^ a agree exactly.  The merges, signs and order
        come from one plan per pair of term patterns (``_wedge_plan``), and a
        wedge does only the products of terms (``_product``) and the sums.
        """
        space, order, mask, size = self._join(other)
        deg = self.degree + other.degree
        if deg > self.chart.dim:
            raise DegreeError("wedge degree exceeds chart dimension")
        ca, cb = self._columns(size), other._columns(size)
        times = _product(space, order, mask, self.space is not None, other.space is not None)
        columns = {}
        for target, groups in _wedge_plan(self.chart.dim, self.degree, other.degree, tuple(ca), tuple(cb)):
            acc = None
            for group in groups:
                part = None
                for i, j, sign in group:
                    c = times(ca[i], cb[j])
                    c = c if sign > 0 else -c
                    part = c if part is None else part + c
                acc = part if acc is None else acc + part
            columns[target] = acc
        return _of_columns(self.chart, deg, columns, size, space, order, mask)

    def conj(self) -> "FormValue":
        return FormValue(self.chart, self.degree, np.conj(self.coeffs), self.space, self.order, self.mask)

    def values(self) -> "FormValue":
        """The pointwise form of the values: row 0."""
        return FormValue(self.chart, self.degree, self.coeffs[:1])

    def to_order(self, order: int) -> "FormValue":
        """The form read to ``order``: its rows of degree <= order, valid to min(order, self.order), sharing ``coeffs``."""
        if self.space is None or order >= self.order:
            return self
        return FormValue(self.chart, self.degree, self.coeffs, self.space, order, self.mask)

    def coefficient(self, multi: tuple):
        """The dx_multi coefficient: a number on a pointwise form, else a jet valid to the form's order."""
        return _jet(self.space, self.coeffs[:, _ranks(self.chart.dim, self.degree)[tuple(multi)]], self.order, self.mask)

    def sup(self) -> float:
        """Sup of coefficient magnitudes in chart coordinates (residual norm).

        NaN if any magnitude is NaN, so that no residual gate can pass on it.
        """
        return nan_max(map(abs, self.coeffs[0].tolist()))


def _jet(space: JetSpace | None, rows: np.ndarray, order: int | None, mask: int):
    """The Taylor rows of one coefficient as a jet valid to ``order``, zero above them; its value without a space."""
    if space is None:
        return complex(rows[0])
    c = np.zeros(space.size, dtype=np.complex128)
    c[: len(rows)] = rows
    return Jet(space, c, order, mask)


def _of_columns(chart: Chart, degree: int, columns: dict, size: int, space, order, mask: int) -> FormValue:
    """The form with the coefficients ``columns`` = {column: a number or ``size`` Taylor rows}, the others 0.

    A jet form's terms (``FormValue._live``) are read from ``columns``
    alone, values first, since every other column is 0.
    """
    n = math.comb(chart.dim, degree)
    out = [0j] * n if space is None else np.zeros((n, size), dtype=np.complex128)
    for t, c in columns.items():
        out[t] = c
    form = FormValue(chart, degree, out if space is None else out.T, space, order, mask)
    if space is not None:
        form._live = tuple(sorted(t for t, c in columns.items() if c[0] != 0 or c.any()))
    return form


def _merge_indices(ma: tuple, mb: tuple):
    """(merged, sign) with dx_ma ^ dx_mb = sign dx_merged, for increasing index tuples.

    Sorting ma + mb takes one transposition for each pair a in ma, b in mb
    with a > b, so the sign is -1 to the number of such pairs.  Tuples that
    share an index give (None, 0).
    """
    if not set(ma).isdisjoint(mb):
        return None, 0
    inversions = sum(a > b for a in ma for b in mb)
    return tuple(sorted(ma + mb)), -1 if inversions % 2 else 1


@lru_cache(maxsize=4096)
def _wedge_plan(n: int, ka: int, kb: int, live_a: tuple, live_b: tuple) -> tuple:
    """How ``FormValue.wedge`` sums a ka-form and a kb-form with terms in the columns ``live_a`` and ``live_b``.

    One (K, groups) per output column K; each group holds the (i, j, sign)
    with dx_I ^ dx_J = sign dx_K of one unordered pair {I, J}, for I the
    multi-index of column i of a and J that of column j of b, and the groups
    come sorted by that pair.
    """
    multis_a, multis_b, out = list(_ranks(n, ka)), list(_ranks(n, kb)), _ranks(n, ka + kb)
    buckets: dict = {}
    for i in live_a:
        for j in live_b:
            merged, sign = _merge_indices(multis_a[i], multis_b[j])
            if merged is not None:
                key = tuple(sorted((multis_a[i], multis_b[j])))
                buckets.setdefault(out[merged], {}).setdefault(key, []).append((i, j, sign))
    return tuple((target, tuple(tuple(groups[key]) for key in sorted(groups))) for target, groups in buckets.items())


@lru_cache(maxsize=None)
def d_complex(chart: Chart, j: int) -> FormValue:
    """dz_j = dx_re + i dx_im, column j of T."""
    return FormValue(chart, 1, _complex_basis_matrices(chart)[0][:, j].copy())


@lru_cache(maxsize=None)
def d_complex_bar(chart: Chart, j: int) -> FormValue:
    """dzbar_j = dx_re - i dx_im, column m + j of T."""
    return FormValue(chart, 1, _complex_basis_matrices(chart)[0][:, chart.ncomplex + j].copy())


_BASIS_INV_CACHE: dict = {}  # chart -> (T, T^-1)


def _complex_basis_matrices(chart: Chart):
    """(T, T^-1): T sends coefficients over [dz..., dzbar...] to real-basis ones, T^-1 = T^H / 2 exactly; built once per chart."""
    pair = _BASIS_INV_CACHE.get(chart)
    if pair is None:
        m = chart.ncomplex
        T = np.zeros((chart.dim, chart.dim), dtype=np.complex128)
        for j, (re, im) in enumerate(chart.pairs):
            T[re, j] = T[re, m + j] = 1.0
            T[im, j], T[im, m + j] = 1j, -1j
        pair = _BASIS_INV_CACHE[chart] = (T, T.conj().T * 0.5)
    return pair


def exterior_derivative_with_scale(form: FormValue):
    """d of a form with jet coefficients, and the sup of the partials that enter it (cancellation scale).

    Each term is read as a jet and differentiated, and each d_v c dx_v ^
    dx_I is inserted at its bisect position, with the sign of that many
    transpositions, not through ``_merge_indices``; a derivative exactly 0
    to its order enters neither.
    """
    chart = form.chart
    terms: dict = {}
    mags = []
    multis = list(_ranks(chart.dim, form.degree))
    live = form._live if form.space is not None else []  # constant coefficients: d kills them
    for multi in (multis[i] for i in live):
        c = form.coefficient(multi)
        for v in (v for v in range(chart.dim) if v not in multi):
            dc = c.derivative(v)
            if not np.any(dc.c[: dc.space.prefix_sizes[dc.order]]):
                continue
            mags.append(smag(dc))
            pos = bisect_left(multi, v)
            merged = multi[:pos] + (v,) + multi[pos:]
            contrib = dc if pos % 2 == 0 else -dc
            terms[merged] = terms[merged] + contrib if merged in terms else contrib
    return FormValue.of_terms(chart, form.degree + 1, terms), nan_max(mags)


# ---------------------------------------------------------------------------
# Hermitian forms and their top powers


def hermitian_form(chart: Chart, H, offset: int = 0) -> FormValue:
    """sum_jk i H_jk dz_{offset+j} ^ dzbar_{offset+k}: the (1,1)-form of a square matrix of jets or numbers.

    One product of the entries' Taylor rows (``_stacked``) with the
    ``_hermitian_basis`` rows of the block at ``offset``: their entries 0,
    +-1, +-i and 2 make every term exact, so a coefficient has the bits of
    its at most two nonzero terms up to the sign of a zero, and a NaN entry
    reaches every coefficient.  ChartMismatch for a matrix that is not
    square or a block past the chart's complex coordinates.
    """
    m, size = chart.ncomplex, len(H)
    if any(len(row) != size for row in H) or not 0 <= offset <= m - size:
        shape = f"{size} rows of lengths {[len(row) for row in H]}"
        raise ChartMismatch(f"{chart.name!r} has {m} complex coordinates: no square block of {shape} at offset {offset}")
    rows, space, order, mask = _stacked(H, None)
    basis = _hermitian_basis(chart).reshape(m, m, -1)[offset : offset + size, offset : offset + size]
    return FormValue(chart, 2, rows.reshape(len(rows), -1) @ basis.reshape(size * size, -1), space, order, mask)


@lru_cache(maxsize=None)
def _hermitian_basis(chart: Chart) -> np.ndarray:
    """Row j * m + k: the coefficients of i dz_j ^ dzbar_k over the 2-indices in combinations order; read-only."""
    m = chart.ncomplex
    rows = [d_complex(chart, j).wedge(d_complex_bar(chart, k)).scale(1j).coeffs[0] for j in range(m) for k in range(m)]
    basis = np.array(rows)
    basis.flags.writeable = False
    return basis


def hermitian_wedge(chart: Chart, A, B) -> FormValue:
    """(i A_jk dz_j ^ dzbar_k) ^ (i B_jk dz_j ^ dzbar_k), a 4-form, for two m x m matrices of numbers.

    Each (1,1)-form is ``hermitian_form``, and the wedge one product with
    the sign plan.  A NaN entry makes every coefficient NaN.
    """
    a, b = (hermitian_form(chart, M).coeffs[0] for M in (A, B))
    return FormValue(chart, 4, np.outer(a, b).reshape(-1) @ _wedge_signs(chart.dim, 2, 2))


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
    in the dx_w component of J dx_v, the layout of ``FormValue``: valid to
    one ``order`` on one ``mask``, a constant structure one row of values.
    Read-only, since a structure is shared (``standard_context``).
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
        return FormValue(self.chart, 1, self.coeffs[0] @ _pointwise(form))


def standard_acs(chart: Chart) -> AlmostComplexStructure:
    """The integrable structure making the chart's complex pairs holomorphic, J dz = i dz: one row of values."""
    m = chart.ncomplex
    return acs_from_complex_action(chart, np.diag([1j] * m + [-1j] * m))


def acs_from_complex_action(chart: Chart, action) -> AlmostComplexStructure:
    """Build the real matrix M = T action T^-1 from the action on [dz..., dzbar...].

    ``action[l][k]`` is the phi_l component of J phi_k, jets or numbers.
    Their Taylor rows, to the lowest order of the jets (``_stacked``),
    are sent to M in one product with the (n^2, n^2) matrix of
    T[w, l] T^-1[k, v]; its entries are 0, +-1/2 and +-i/2, so every term
    is exact and each entry of M sums its terms in (l, k) order.  M is valid
    to that order and supported on the union of the jets' masks.
    """
    n = chart.dim
    T, Tinv = _complex_basis_matrices(chart)
    rows, space, order, mask = _stacked(action, None)
    coupling = np.einsum("wl,kv->lkwv", T, Tinv).reshape(n * n, n * n)
    return AlmostComplexStructure(chart, rows.reshape(len(rows), n * n) @ coupling, space, order, mask)


@lru_cache(maxsize=None)
def _ranks(n: int, k: int) -> dict:
    """Row of each increasing k-tuple on n coordinates, in combinations order."""
    return {m: i for i, m in enumerate(combinations(range(n), k))}


@lru_cache(maxsize=None)
def _index_plan(n: int, k: int):
    """The degree-k multi-indices on n coordinates, and how each grows from degree k - 1.

    Returns ``(rank, grow)``: ``rank`` maps each increasing k-tuple to its
    row, and ``grow`` holds three arrays over the positions (r, J, I),
    flattened: the flat (J', I') index into the degree-(k-1) table, the flat
    (w, v) index into the degree-1 table, and the sign (-1)^(k-1-r) turning
    dx_{J'} ^ dx_w into dx_J, with w the r-th index of J, J' the rest, v the
    last index of I and I' the rest.
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

    ``comp[L]`` is the row of the complement L^c of the L-th k-tuple among
    the (n-k)-tuples and ``signs[L]`` the e_L with dx_L ^ dx_{L^c} = e_L dx_0
    ^ ... ^ dx_{n-1}.
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
    the rows of ``AlmostComplexStructure.coeffs`` that hold J at the point
    and its d/dx_u.  Degree k <= dim/2 grows from degree k - 1 over an index
    plan (``_index_plan``): the (p,q) part of dx_{I'} ^ dx_v is
    (p-1,q)(dx_{I'}) ^ P dx_v + (p,q-1)(dx_{I'}) ^ Q dx_v, each product by
    the Leibniz rule (value a_0 b_0, d/dx_u a_0 b_u + a_u b_0).  A degree
    dim/2 < k < dim is a signed permutation of degree dim - k
    (``_dual_table``).

    Decomposing raises ChartMismatch for a form on another chart and
    contracts the table with the form's Taylor rows: the values with its
    rows in its mask, plus the slopes times its value in each x_u row.  On
    a structure with jet entries the parts are valid to min(form order, 1),
    all any reader of them needs, and on a constant one they keep the
    form's order; they carry the union of the two masks.
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
        of the (m-p, m-q) one on (dim-k)-forms, m = dim/2, so T_k[:, p] =
        C T_{dim-k}[:, m-p]^T C^T with C the signed permutation of
        ``_complement`` (0 where m - p is no type of degree dim - k).
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

    def _parts(self, form: FormValue) -> list:
        """The (p, k-p) parts of a k-form, for p = 0 .. k."""
        k = form.degree
        tab = self._table(k)
        space, order, mask = form.space, form.order, form.mask | self.acs.mask
        if space is None:
            out = (tab[0] @ form.coeffs[0])[..., None]
        else:
            if self.acs.space is not None:
                if self.acs.space is not space:
                    raise ValueError("jets from different spaces cannot be combined")
                order = min(order, 1, self.acs.order)
            cols = space.support(form.mask, order)
            matrix = form.coeffs[cols].T
            out = np.zeros(tab.shape[1:-1] + (space.prefix_sizes[order],), dtype=np.complex128)
            out[..., cols] = tab[0] @ matrix
            if order and self._vars:
                out[..., space.first_order[self._vars]] += np.moveaxis(tab[1:] @ matrix[:, 0], 0, -1)
        return [FormValue(self.chart, k, part.T, space, order, mask if space is not None else 0) for part in out]

    def decompose(self, form: FormValue) -> dict:
        """Partition into pure (p,q) parts; the parts sum back to the input."""
        self._check_chart(form)
        k = form.degree
        if k == 0:
            return {(0, 0): form}
        if not len(form._live):
            return {}
        return {(p, k - p): part for p, part in enumerate(self._parts(form))}


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
    Gram, Hbar, Ubar), where elimination without pivoting is stable (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 10), so no row
    is swapped and no zero multiplier skipped.  Each pivot is inverted once
    and multiplied by, as a jet division computes; a pivot of value 0 raises
    DomainError.  Columns of ``work`` up to the pivot's are not updated.
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


def _stacked(entries, order: int | None):
    """``(rows, space, order, mask)``: the Taylor rows of a nested list of jets and numbers, to ``order``.

    ``rows[i, ...]`` is the coefficient of the i-th monomial of ``space`` in
    each entry, the list's shape after the monomial axis.  ``order`` None
    reads to the lowest order of the jets; ``mask`` is the union of their
    masks.  Without jets ``rows`` is the one row of values and the rest None
    or 0.  ValueError for jets of different spaces, InsufficientJetOrder for
    a jet valid below ``order``.
    """
    cells = np.array(entries, dtype=object)
    jets = [e for e in cells.flat if isinstance(e, Jet)]
    if not jets:
        return cells.astype(np.complex128)[None], None, None, 0
    space = jets[0].space
    if any(e.space is not space for e in jets):
        raise ValueError("jets from different spaces cannot be combined")
    valid = min(e.order for e in jets)
    order = valid if order is None else order
    _check_order(valid, order)
    size = space.prefix_sizes[order]
    rows = np.zeros((size, cells.size), dtype=np.complex128)
    for i, e in enumerate(cells.flat):
        if isinstance(e, Jet):
            rows[:, i] = e.c[:size]
        else:
            rows[0, i] = e
    return rows.reshape((size,) + cells.shape), space, order, reduce(or_, (e.mask for e in jets), 0)


def _check_order(valid: int, order: int) -> None:
    """InsufficientJetOrder unless coefficients valid to ``valid`` reach ``order``."""
    if valid < order:
        raise InsufficientJetOrder(f"a read at the point needs coefficients to order {order}; they are valid to order {valid}")


def _d_point(space: JetSpace, rows: np.ndarray, k: int) -> np.ndarray:
    """d at the point of stacked k-forms, as Taylor rows one order lower.

    ``rows[i, ..., I]`` are Taylor rows to order 1 or 2 of stacked forms.
    Since d(f dx_I) = sum_v d_v f dx_v ^ dx_I, the value of d(form) is the
    first partials times the sign plan ``_wedge_signs(n, 1, k)``, and from
    rows to order 2 its slopes are the second partials times the same plan,
    so d can read them again.  A NaN among the partials makes every
    coefficient of the result NaN.
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
    three kernels: Hbar read to order 2 (``_stacked``) gives d Hbar with
    its slopes (``_d_point``) and its (1,0) part del Hbar with its slopes
    (``_type_part``); the Leibniz rule gives X to order 1, whose slopes are
    d(Hbar^-1)_ik del Hbar_kj + Hbar^-1_ik d(del Hbar_kj); and d X at the
    point takes one pointwise (1,1) projection for every entry.

    The value and the slopes of Hbar^-1 come from one ``mat_inv`` on the
    entries read to order 1; the pointwise d(Hbar^-1) = -Hbar^-1 dHbar
    Hbar^-1, by an explicit inverse or LU solves, loses more digits where
    Hbar is ill-conditioned and fails the asd and anomaly gates at the
    domain edges (|x| = 0.05a on Eguchi-Hanson, base radius 0.03 for h).
    """
    G, space, _, _ = _stacked([[e.to_order(2) for e in row] for row in H], 2)
    Ginv = _stacked(mat_inv([[e.to_order(1).conjugate() for e in row] for row in H]), 1)[0]
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
    return FormValue(chart, 4, pairs.reshape(-1) @ _wedge_signs(chart.dim, 2, 2))


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

    d is read from the form's Taylor rows to order 1 (``_d_point``), so a
    form with jets must be valid to order >= 1.  The cancellation scale is
    the largest first partial that enters d.
    """
    n, k, space = form.chart.dim, form.degree, form.space
    if space is None:  # constant coefficients: d is 0
        return relative_residual(0.0, form.sup())
    _check_order(form.order, 1)
    rows = form.to_order(1).coeffs
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


def _pointwise(form: FormValue) -> np.ndarray:
    """The values of a pointwise form, multi-indices in combinations order; TypeError for a form with jets."""
    if form.space is not None:
        raise TypeError("the form has jet coefficients; take .values() first")
    return form.coeffs[0]


def curvature_residual(F: np.ndarray, forms, ctx: TypeContext) -> float:
    """F is (1,1) and F_ij ^ form = 0 for each form, relative to the entering terms.

    ``F`` is stacked as ``gram_curvature`` returns it and ``forms`` are
    pointwise forms, on the chart of ``ctx``.  Each form is wedged with
    every entry in one product with the sign plan (``_wedge_signs``), and
    the (2,0) and (0,2) parts come from one product with the values of the
    degree-2 type table; their sups are compared against sup|F| sup|form|
    (rounding is monotone, so that is bit for bit the largest product of
    coefficients) and sup|F|.  A NaN anywhere makes the residual inf.
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
        b = _pointwise(form)
        wedged = (f[:, :, None] * b).reshape(len(f), -1) @ _wedge_signs(chart.dim, 2, form.degree)
        sups.append(_array_sup(wedged))
        scales.append(sup_F * _array_sup(b))
    return relative_residual(nan_max(sups), nan_max(scales))


def identity_residual(lhs: FormValue, rhs: FormValue, *scales: float) -> float:
    """lhs = rhs: the sup of lhs - rhs relative to |lhs|, |rhs| and any further term scales."""
    return relative_residual((lhs - rhs).sup(), nan_max([lhs.sup(), rhs.sup(), *scales]))


def del_dbar_of_taylor(ctx: TypeContext, space: JetSpace, coeffs: np.ndarray, degree: int) -> FormValue:
    """del dbar at the point of the form of even ``degree`` whose Taylor rows are ``coeffs``.

    ``coeffs[i, I]`` is the coefficient of the i-th monomial of ``space`` in
    the dx_I coefficient of the form, multi-indices in combinations order,
    for the monomials of degree <= 2 (fewer rows raise InsufficientJetOrder),
    of even degree at most dim - 2.  For degree 2q the result is the
    (q+1, q+1) part of d of the (q, q+1) part of d(form): d and the part with
    their slopes (``_d_point``, ``_type_part``), then at the value, so a
    structure with jet entries valid only to order 0 raises
    InsufficientJetOrder.  A NaN among the partials makes every coefficient
    of the result NaN.
    """
    _check_order(bisect_right(space.prefix_sizes, len(coeffs)) - 1, 2)
    q = degree // 2
    dbar = _type_part(ctx, space, _d_point(space, coeffs, degree), degree + 1, q)
    dd = _type_part(ctx, space, _d_point(space, dbar, degree + 1), degree + 2, q + 1)
    return FormValue(ctx.chart, degree + 2, dd[0])


def del_dbar_at_point(ctx: TypeContext, form: FormValue) -> FormValue:
    """del dbar of a form of even degree at the point, read from its Taylor rows (``del_dbar_of_taylor``).

    Degree 0 gives del dbar f = -dbar del f, degree 2 del dbar of a metric.
    The form must be on the chart of ``ctx`` (ChartMismatch), of even degree
    at most dim - 2 (DegreeError) and, with jets, valid to order >= 2; a
    pointwise form has del dbar 0.
    """
    ctx._check_chart(form)
    n, k = ctx.chart.dim, form.degree
    if k % 2 or k > n - 2:
        raise DegreeError(f"del dbar at the point reads a form of even degree up to {n - 2}, got degree {k}")
    if form.space is None:
        return FormValue.zero(ctx.chart, k + 2)
    return del_dbar_of_taylor(ctx, form.space, form.to_order(2).coeffs, k)


def volume_form_norm(vol: FormValue, omega: FormValue) -> float:
    """sqrt(m! |vol ^ vol_bar| / omega^m) for a holomorphic volume form and a Hermitian form.

    The modulus drops the constant phase of vol ^ vol_bar; the ratio raises
    DomainError unless omega^m is positive.
    """
    m = omega.chart.ncomplex
    top = vol.wedge(vol.conj()).coeffs
    numer = FormValue(vol.chart, 2 * vol.degree, np.hypot(top.real, top.imag))  # abs, bit for bit
    return math.sqrt(math.factorial(m) * top_ratio(numer, form_power(omega, m)).real)
