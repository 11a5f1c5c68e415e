"""Checks and generic routes that only the tests use.

Each one computes by a route no operator of the package takes, so the
tests can hold the package's closed forms against it: a form evaluated on
tangent vectors by minors, J^2 = -1 entry by entry, metric
skew-hermiticity of a curvature, the tables of I, J and K written out
entry by entry, the frame Gram of the twistor ansatz, the complex
components of a 1-form through the basis change T^-1, the curvature
certificate wedge by wedge and pair of terms by pair of terms, del dbar of a
2-form and i del dbar of a function through derivative jets and jet-valued
projections, the Chern-Ricci form, the Chern scalar and the extremal
residual of a Calabi metric through jet-valued forms and wedges, and the
Chern curvature of a Gram matrix at the point and its tr(R wedge R) in
50-digit arithmetic.
"""

from itertools import combinations

import mpmath
import numpy as np

from stromlab.forms import (
    DegreeError,
    FormValue,
    _complex_basis_matrices,
    del_dbar_at_point,
    exterior_derivative,
    form_power,
    identity_residual,
    mat_det,
    nan_max,
    smag,
    svalue,
    top_ratio,
)
from stromlab.jets import Jet
from stromlab.strominger import _frame_gram


def form_linear_combo(forms, coeffs) -> FormValue:
    """sum_k coeffs[k] forms[k], for forms of one degree and scalar or jet coefficients."""
    out = FormValue.zero(forms[0].chart, forms[0].degree)
    for f, c in zip(forms, coeffs):
        out = out + f.scale(c)
    return out


def acs_entries(acs) -> list:
    """The entries of a structure as jets, or as numbers on a constant one: ``[w][v]`` is the dx_w component of J dx_v."""
    n = acs.chart.dim
    if acs.space is None:
        return [[complex(acs.coeffs[0, w, v]) for v in range(n)] for w in range(n)]
    c = np.zeros((acs.space.size, n, n), dtype=np.complex128)
    c[: len(acs.coeffs)] = acs.coeffs
    return [[Jet(acs.space, c[:, w, v].copy(), acs.order, acs.mask) for v in range(n)] for w in range(n)]


def quaternion_table(which: str, kh) -> list:
    """I, J or K on [dz1, dz2, dzbar1, dzbar2] of a 4-manifold chart, written out from the Hessian ``kh``; columns are images."""
    k11, k12 = kh[0][0], kh[0][1]
    k21, k22 = kh[1][0], kh[1][1]
    z = 0.0 + 0.0j
    if which == "I":
        return [
            [1j, z, z, z],
            [z, 1j, z, z],
            [z, z, -1j, z],
            [z, z, z, -1j],
        ]
    if which == "J":
        return [
            [z, z, -2 * k12, 2 * k11],
            [z, z, -2 * k22, 2 * k21],
            [-2 * k21, 2 * k11, z, z],
            [-2 * k22, 2 * k12, z, z],
        ]
    return [
        [z, z, 2j * k12, -2j * k11],
        [z, z, 2j * k22, -2j * k21],
        [-2j * k21, 2j * k11, z, z],
        [-2j * k22, 2j * k12, z, z],
    ]


def stacked(M) -> np.ndarray:
    """A matrix of pointwise forms of one degree as stacked coefficients, as ``gram_curvature`` returns them."""
    return np.array([[entry.to_vector() for entry in row] for row in M])


def entry_forms(F, chart) -> list:
    """A stacked curvature as a matrix of pointwise 2-forms."""
    return [[FormValue.from_vector(chart, 2, entry) for entry in row] for row in F]


def evaluate(form: FormValue, *vectors) -> complex:
    """The form evaluated on degree-many tangent vectors (given as real components)."""
    if len(vectors) != form.degree:
        raise DegreeError("wrong number of vectors")
    total = 0.0 + 0.0j
    for multi, c in form.terms.items():
        minor = np.array([[vec[i] for i in multi] for vec in vectors], dtype=np.complex128)
        total += svalue(c) * np.linalg.det(minor)
    return total


def square_residual(acs) -> float:
    """Sup over entries of |J^2 + identity| at the point."""
    n = acs.chart.dim
    residuals = []
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += complex(acs.coeffs[0, i, k]) * complex(acs.coeffs[0, k, j])
            target = -1.0 if i == j else 0.0
            residuals.append(abs(acc - target))
    return nan_max(residuals)


def conjugation_residual(F, H) -> float:
    """Metric skew-hermiticity of a curvature: Hbar F + (Hbar F)^dagger = 0 entrywise.

    ``F`` is a matrix of pointwise 2-forms.  The dagger conjugate-transposes
    the matrix and conjugates the form coefficients, which swaps the
    (1,0)/(0,1) slots.
    """
    n = len(F)
    Hbar = [[svalue(e).conjugate() for e in row] for row in H]
    HF = [
        [form_linear_combo([F[k][j] for k in range(n)], [Hbar[i][k] for k in range(n)]) for j in range(n)]
        for i in range(n)
    ]
    return nan_max((HF[i][j] + HF[j][i].conj()).sup() for i in range(n) for j in range(n))


def pairwise_curvature_terms(F, forms, ctx):
    """(diff sup, scale) of ``curvature_residual``, entry by entry and form by form.

    Each entry is wedged with each form through ``FormValue.wedge``, the
    scale of that wedge is the largest product of a term of the entry and a
    term of the form, colliding pairs included, and the (2,0) and (0,2)
    parts come from ``TypeContext.decompose`` on ``ctx``.
    """
    sups, scales = [], []
    for row in F:
        for entry in row:
            for form in forms:
                sups.append(entry.wedge(form).sup())
                scales.append(nan_max(smag(a) * smag(b) for a in entry.terms.values() for b in form.terms.values()))
            parts = ctx.decompose(entry)
            sups += [parts[key].sup() for key in ((2, 0), (0, 2)) if key in parts]
            scales.append(entry.sup())
    return nan_max(sups), nan_max(scales)


def jet_del_dbar(ctx, form: FormValue) -> FormValue:
    """del dbar of a (q,q)-form at the point through derivative jets and jet-valued projections.

    d of the form as a form of derivative jets, its (q,q+1) part on ``ctx``
    (valid to order 1 on a structure with jet entries), d of that as
    derivative jets again, read at its value, and its (q+1,q+1) part: the
    route ``forms.del_dbar_at_point`` took before it read the Taylor
    coefficients as arrays.
    """
    q = form.degree // 2
    dbar = ctx.project(exterior_derivative(form), q, q + 1)
    return ctx.project(exterior_derivative(dbar).values(), q + 1, q + 1)


def i_ddbar(ctx, f):
    """i del dbar f with jet coefficients, through derivative jets and jet-valued projections; real (1,1) for real f."""
    dbar_f = ctx.project(exterior_derivative(FormValue.scalar(ctx.chart, f)), 0, 1)
    return ctx.project(exterior_derivative(dbar_f), 1, 1).scale(1j)


def read_to(form: FormValue, order: int) -> FormValue:
    """The form with each jet coefficient read to ``order``."""
    return form.map_coeffs(lambda c: c.to_order(order) if isinstance(c, Jet) else c)


def wedge_trace(omega: FormValue, rho: FormValue):
    """m (rho ^ omega^{m-1}) / omega^m, with omega read to the order of rho's jets: tr_omega rho by wedges."""
    orders = [c.order for c in rho.terms.values() if isinstance(c, Jet)]
    if orders:
        omega = read_to(omega, min(orders))
    m = omega.chart.ncomplex
    return float(m) * top_ratio(rho.wedge(form_power(omega, m - 1)), form_power(omega, m))


def ricci_form(gram, ctx) -> FormValue:
    """-i del dbar log det of a Gram matrix, by ``i_ddbar``: the Chern-Ricci form as a jet-valued form."""
    return i_ddbar(ctx, mat_det(gram).log()).scale(-1.0)


def wedge_extremal_residual(omega: FormValue, rho: FormValue, s, ctx) -> float:
    """The extremal residual of ``calabi.extremal_residual_of`` through jet-valued forms and wedges.

    rho is the Chern-Ricci form (``ricci_form``) and s the Chern scalar as
    a jet valid to order >= 4; i del dbar s comes from ``i_ddbar`` and Lap s
    from ``wedge_trace``.  The right side is the package's, through
    ``del_dbar_at_point``.
    """
    m = omega.chart.ncomplex
    omega2 = read_to(omega, 2)
    i_ddbar_s = i_ddbar(ctx, s)
    lap_s = wedge_trace(omega2, i_ddbar_s)
    lhs = i_ddbar_s.values().wedge(rho.values()).scale(2.0 * (m - 1))
    s2 = s.to_order(2)
    rhs = del_dbar_at_point(ctx, omega2.scale(lap_s * 2.0 + s2 * s2)).scale(1j)
    return identity_residual(lhs, rhs)


def frame_gram(data):
    """Gram matrix of the holomorphic frame {dzeta, zeta dw_1, zeta dw_2} of curvature data, at its order."""
    return _frame_gram(data.A, data.B, data.Lvec, data.U)


def to_complex_components(form: FormValue) -> list:
    """Components of a 1-form in the [dz..., dzbar...] basis, through T^-1."""
    if form.degree != 1:
        raise DegreeError("complex components only for 1-forms")
    chart = form.chart
    Tinv = _complex_basis_matrices(chart)[1]
    comps = []
    for k in range(chart.dim):
        acc = 0.0 + 0.0j
        for v in range(chart.dim):
            c = form.terms.get((v,))
            if c is not None:
                acc = acc + Tinv[k, v] * c
        comps.append(acc)
    return comps


def _mp_partials(x, dim, order):
    """Value, first partials and (order 2) second partials of a jet or a number, as mpmath numbers."""
    if not hasattr(x, "partial"):
        return mpmath.mpc(complex(x)), [mpmath.mpc(0)] * dim, [[mpmath.mpc(0)] * dim for _ in range(dim)]

    def unit(*vs):
        return tuple(sum(v == u for v in vs) for u in range(dim))

    first = [mpmath.mpc(x.partial(unit(u))) for u in range(dim)]
    second = [[mpmath.mpc(x.partial(unit(u, w))) for w in range(dim)] for u in range(dim)] if order == 2 else None
    return mpmath.mpc(x.value), first, second


def mp_gram_curvature(H, acs, dps: int = 50) -> list:
    """(1,1) part of d(Hbar^-1 del Hbar) at the point, in ``dps``-digit arithmetic.

    The inputs are the double-precision Taylor coefficients of H (to order 2)
    and of the structure J (to order 1); from there every step runs in
    mpmath: the inverse, d(Hbar^-1) = -Hbar^-1 dHbar Hbar^-1, the projector
    P = (1 - iJ)/2 and its slopes, the Leibniz sum and the (1,1) part of
    each dx_u ^ dx_w, (P dx_u) ^ (Q dx_w) + (Q dx_u) ^ (P dx_w).  Returns the
    coefficients, as ``dps``-digit mpmath numbers, in nested lists
    [i][j][(a, b)] over a < b.
    """
    dim, n = acs.chart.dim, len(H)
    with mpmath.workdps(dps):
        taylor = [[_mp_partials(e, dim, 2) for e in row] for row in H]
        G = mpmath.matrix([[t[0].conjugate() for t in row] for row in taylor])
        dG = [mpmath.matrix([[t[1][u].conjugate() for t in row] for row in taylor]) for u in range(dim)]
        ddG = [[[[taylor[k][j][2][u][v].conjugate() for v in range(dim)] for u in range(dim)] for j in range(n)] for k in range(n)]
        Ginv = G**-1
        dGinv = [-Ginv * dG[u] * Ginv for u in range(dim)]
        J = [[_mp_partials(e, dim, 1) for e in row] for row in acs_entries(acs)]
        P = [[((1 if w == v else 0) - 1j * J[w][v][0]) / 2 for v in range(dim)] for w in range(dim)]
        Q = [[(1 if w == v else 0) - P[w][v] for v in range(dim)] for w in range(dim)]
        dP = [[[-1j * J[w][v][1][u] / 2 for v in range(dim)] for w in range(dim)] for u in range(dim)]
        Y = [[[mpmath.fsum(P[w][v] * dG[v][k, j] for v in range(dim)) for w in range(dim)] for j in range(n)] for k in range(n)]
        dY = [
            [
                [
                    [mpmath.fsum(dP[u][w][v] * dG[v][k, j] + P[w][v] * ddG[k][j][u][v] for v in range(dim)) for w in range(dim)]
                    for u in range(dim)
                ]
                for j in range(n)
            ]
            for k in range(n)
        ]
        pairs = list(combinations(range(dim), 2))
        part11 = {
            (a, b): [
                [P[a][u] * Q[b][w] - P[b][u] * Q[a][w] + Q[a][u] * P[b][w] - Q[b][u] * P[a][w] for w in range(dim)]
                for u in range(dim)
            ]
            for a, b in pairs
        }
        R = []
        for i in range(n):
            row = []
            for j in range(n):
                dX = [
                    [mpmath.fsum(dGinv[u][i, k] * Y[k][j][w] + Ginv[i, k] * dY[k][j][u][w] for k in range(n)) for w in range(dim)]
                    for u in range(dim)
                ]
                row.append(
                    {
                        ab: mpmath.fsum(dX[u][w] * m[u][w] for u in range(dim) for w in range(dim))
                        for ab, m in part11.items()
                    }
                )
            R.append(row)
    return R


def _parity(seq) -> int:
    """+1 or -1: the sign of the permutation that sorts distinct ``seq``."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return -1 if inversions % 2 else 1


def mp_wedge_trace(R, dim, dps: int = 50) -> dict:
    """tr(R wedge R) = sum_ij R_ij ^ R_ji in ``dps``-digit arithmetic, for ``mp_gram_curvature`` output.

    dx_I ^ dx_J is sign(sort(I + J)) dx_sort(I + J), with the sign the
    parity of the sorting permutation.  Returns the coefficients of the
    4-form as mpmath numbers keyed by increasing 4-tuples.
    """
    n = len(R)
    out = {}
    with mpmath.workdps(dps):
        for K in combinations(range(dim), 4):
            terms = []
            for I in combinations(K, 2):
                J = tuple(v for v in K if v not in I)
                sign = _parity(I + J)
                terms += [sign * R[i][j][I] * R[j][i][J] for i in range(n) for j in range(n)]
            out[K] = mpmath.fsum(terms)
    return out
