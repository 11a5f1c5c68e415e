"""Residual operators for the Strominger system under the twistor ansatz.

Everything here is a pointwise check: the conformally balanced equation
d(|Omega| omega^2) = 0, the Hermitian-Yang-Mills equation for the
quotient-bundle curvature, the anomaly cancellation equation, and the
curvature trace identities that reduce tr(R wedge R) to a closed form.

All residuals are sup norms over stored coefficients in chart
coordinates, divided by the magnitude of the largest term entering the
identity; the normalisation lives in the shared helpers of
:mod:`stromlab.forms` (``closedness_residual``, ``curvature_residual``,
``identity_residual``), and an operator only names the further terms whose
size enters the scale.  Both sides of every identity come out of
independent jet pipelines; in particular tr(R wedge R) is computed once
from the frame Gram matrix and once from its reduction, never shared.

The curvatures R (of the frame Gram) and F' (of the quotient Gram) are the
stacked arrays that ``gram_curvature`` returns, read as they are by
``curvature_residual`` and ``matrix_wedge_trace``; only their traces, which
enter identities of forms, are built as forms (``_trace``).

Every second-order read at the point goes through the kernels of
:mod:`stromlab.forms` and their one layout, Taylor rows with the monomial
axis first: W's Taylor coefficients are products of stacked rows
(``_stacked``, ``jets._mul_coeffs``), del dbar of (A/B) W reads them
(``del_dbar_of_taylor``), dbar del log A, log B and log s are -del dbar at
degree 0 (``del_dbar_at_point``), and the radial reduction reads d rho and
d of the sphere coordinates at the point (``_d_point``).  No module but
``jets`` and ``forms`` reads a jet's Taylor coefficients.

The operators at one point share its geometry.  ``balanced_residual`` asks
``twistor.twistor_frame`` for an order-1 frame; HYM, the anomaly and the
identities share one :class:`AnsatzCurvatureData` on the order-4 frame,
which ``twistor.frame_decompose`` then reads too.  Both are kept by the
rule of ``jets.kept``; the data refers to its frame and never the frame to
it, so neither is held by a reference cycle.

The radial dichotomy (``radial_h_residual``) takes h(rho), rho = |x|^2, as
a ``jets.Profile``; both branches, ``Profile.linear(0.0)`` and
``Profile.log_slope(-1.5)``, pass it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .forms import (
    Chart,
    ChartPoint,
    DomainError,
    FormValue,
    _array_sup,
    _d_point,
    _stacked,
    _wedge_signs,
    closedness_residual,
    curvature_residual,
    del_dbar_at_point,
    del_dbar_of_taylor,
    gram_curvature,
    identity_residual,
    mat_inv,
    matrix_wedge_trace,
)
from .hyperkahler import HyperkahlerModel, _base_coords, _radius2, flat_model, quaternion_operator
from .jets import Profile, _mul_coeffs, kept
from .twistor import AnsatzMetric, AnsatzParams, twistor_frame


# ---------------------------------------------------------------------------
# conformally balanced equation


def balanced_residual(model: HyperkahlerModel, params: AnsatzParams, p: ChartPoint) -> float:
    """Conformally balanced residual of the ansatz metric at a point.

    The norm profile s^4 e^{-2h-2g} is used for |Omega|; its agreement with
    the honest top-form ratio is certified separately, and the constant
    factor is killed by d anyway.  d is read only at the point, so it
    asks the point's kept frame for order 1.
    """
    ansatz = AnsatzMetric(twistor_frame(model, p, 1), params)
    omega = ansatz.metric
    return closedness_residual(omega.wedge(omega).scale(ansatz.norm_profile()))


# ---------------------------------------------------------------------------
# the frame Gram matrix and its pieces


class AnsatzCurvatureData:
    """Shared jet assembly for the curvature-level operators on the point's kept order-4 frame.

    It reads the point's kept order-4 frame (``twistor_frame``), with its
    type context and frame coefficients, which ``frame_decompose`` then
    shares; the profiles of ``params`` and the metric sit beside the frame
    in ``ansatz``.  The pieces of the frame Gram (the weights A and B, L and
    the quotient Gram U), the frame and quotient curvatures and tr(R ^ R)
    are cached properties, so the operators reading them at one point pay
    for each once, and an operator that reads none of them, such as
    ``hym_residual`` with a replacement curvature, builds only the frame
    and the metric.  L and U need the global coordinates w1, w2, so only
    flat models have them (``twistor.w_field_jets``).
    """

    def __init__(self, model: HyperkahlerModel, params: AnsatzParams, p: ChartPoint):
        self.fr = twistor_frame(model, p, 4)
        self.ansatz = AnsatzMetric(self.fr, params)

    @cached_property
    def A(self):
        """s^2 / (2 e^{2g}), the weight of dzeta in the frame Gram."""
        fr = self.fr
        return fr.s * fr.s * (-2.0 * self.ansatz.g).exp() * 0.5

    @cached_property
    def B(self):
        """s^3 / e^{2h+g}, the weight of the quotient Gram U in the frame Gram."""
        fr = self.fr
        return fr.s * fr.s * fr.s * (-2.0 * self.ansatz.h - self.ansatz.g).exp()

    @cached_property
    def Lvec(self) -> list:
        """zeta L_i, with L_i the dzeta component of dw_i (``twistor.frame_coefficients``)."""
        L = self.fr.coefficients[0]
        return [self.fr.zeta * L[0], self.fr.zeta * L[1]]

    @cached_property
    def U(self) -> list:
        """The quotient Gram E K E^H, with E the rows (C_i, D_i) and K the inverse of the kappa Hessian."""
        _, C, D = self.fr.coefficients
        K = mat_inv(self.fr.kh)
        E = [[C[0], D[0]], [C[1], D[1]]]
        EK = [[E[i][0] * K[0][j] + E[i][1] * K[1][j] for j in range(2)] for i in range(2)]
        Ebar = [[e.conjugate() for e in row] for row in E]
        return [[EK[i][0] * Ebar[j][0] + EK[i][1] * Ebar[j][1] for j in range(2)] for i in range(2)]

    @cached_property
    def quotient_curvature(self) -> np.ndarray:
        """F' = dbar(Ubar^-1 del Ubar) at the point, stacked as ``gram_curvature`` returns it; do not mutate.

        On flat N, F' vanishes: over 40 seed-2 flat points its largest
        coefficient read at most 2e-15, against up to 5.2 for R.  So there the
        HYM residual, the quotient trace and the tr(F' ^ F') term of the
        anomaly read rounding only; they get their teeth on a non-flat base.
        """
        return gram_curvature(self.U, self.fr.ctx)

    @cached_property
    def frame_curvature(self) -> np.ndarray:
        """R = dbar(Hbar^-1 del Hbar) of the frame Gram at the point, stacked; do not mutate.

        ``gram_curvature`` reads H to order 2, so H is built from A, B, L
        and U read to order 2.
        """
        A, B = self.A.to_order(2), self.B.to_order(2)
        L = [l.to_order(2) for l in self.Lvec]
        U = [[e.to_order(2) for e in row] for row in self.U]
        return gram_curvature(_frame_gram(A, B, L, U), self.fr.ctx)

    @cached_property
    def tr_RR(self) -> FormValue:
        """tr(R ^ R) of the frame curvature, read by the anomaly and the identities."""
        R = self.frame_curvature
        return matrix_wedge_trace(R, R, self.fr.chart)

    def w_form(self) -> np.ndarray:
        """W = dbar L^T Ubar^-1 del Lbar: its Taylor coefficients to order 2, stacked.

        Entry ``[i, r]`` is the coefficient of the i-th monomial of the
        frame's jet space in the coefficient of the r-th 2-index, in
        combinations order, of the (1,1)-form W.  The rows are the
        monomials of degree <= 2, which come first, so row 0 is W at the
        point and the array multiplies with ``jets._mul_coeffs`` at order
        2.  Its readers take its value and del dbar of (A/B) W, so L is
        read to order 3 and its partials to 2, and Ubar^-1 is formed from U
        read to order 2.  With the Taylor coefficients of J and Ubar^-1
        stacked the same way, dbar L = (dL + i J dL)/2, Ubar^-1 dbar L and
        the wedge are three products of ``jets._mul_coeffs`` over whole
        arrays, at order 2.
        """
        fr = self.fr
        n = fr.chart.dim
        # dL[:, i, v]: d/dx_v of L_i
        dL, space, _, _ = _stacked([[l.to_order(3).derivative(v) for v in range(n)] for l in self.Lvec], 2)
        mask = space.full_mask
        J = fr.ctx.acs.taylor(2)
        dbar_L = (dL + 1j * _mul_coeffs(space, J[:, None], dL[:, :, None], 2, mask).sum(axis=-1)) * 0.5
        Ubar_inv = _stacked(mat_inv([[e.conjugate().to_order(2) for e in row] for row in self.U]), 2)[0]
        # V[:, j, w] = sum_i dbar L_i Ubar^-1_ij, then W = sum_j V_j ^ conj(dbar L_j)
        V = _mul_coeffs(space, Ubar_inv[..., None], dbar_L[:, :, None], 2, mask).sum(axis=1)
        pairs = _mul_coeffs(space, V[..., None], np.conj(dbar_L)[:, :, None], 2, mask).sum(axis=1)
        return pairs.reshape(len(pairs), n * n) @ _wedge_signs(n, 1, 1)


def _frame_gram(A, B, L, U):
    """Gram matrix of the holomorphic frame {dzeta, zeta dw_1, zeta dw_2}.

    It is assembled from the weights A = s^2 / (2 e^{2g}) and
    B = s^3 / e^{2h+g}, the quotient Gram U and the frame coefficients L:
    H[0][0] = A, H[0][i+1] = A Lbar_i, H[i+1][0] = A L_i, H[i+1][j+1] = A L_i Lbar_j + B U_ij.
    """
    H = [[None] * 3 for _ in range(3)]
    H[0][0] = A
    for i in range(2):
        H[0][i + 1] = A * L[i].conjugate()
        H[i + 1][0] = A * L[i]
        for j in range(2):
            H[i + 1][j + 1] = A * L[i] * L[j].conjugate() + B * U[i][j]
    return H


def _trace(F: np.ndarray, chart: Chart) -> FormValue:
    """tr F of a stacked curvature: its diagonal entries added in index order."""
    return FormValue(chart, 2, np.add.accumulate(np.diagonal(F).T)[-1])


def _curvature_data(model: HyperkahlerModel, params: AnsatzParams, p: ChartPoint) -> AnsatzCurvatureData:
    """The order-4 curvature data of the point, shared by HYM, the anomaly and the identities (``jets.kept``)."""
    return kept((AnsatzCurvatureData, model, params, p), 4, lambda: AnsatzCurvatureData(model, params, p))


# ---------------------------------------------------------------------------
# Hermitian-Yang-Mills


def hym_residual(
    model: HyperkahlerModel, params: AnsatzParams, p: ChartPoint, curvature: np.ndarray | None = None
) -> float:
    """F' wedge omega^2 plus the (2,0)/(0,2) purity of F', relative sup.

    A replacement curvature, stacked on the twistor chart as
    ``gram_curvature`` returns it, can be passed to probe that the check has
    teeth.  On flat N the quotient curvature F' itself vanishes to rounding (see
    ``AnsatzCurvatureData.quotient_curvature``), so there this residual
    reads rounding: only a replacement curvature or a non-flat base gives
    the HYM check teeth.
    """
    data = _curvature_data(model, params, p)
    F = curvature if curvature is not None else data.quotient_curvature
    omega = data.ansatz.metric.values()
    return curvature_residual(F, [omega.wedge(omega)], data.fr.ctx)


# ---------------------------------------------------------------------------
# curvature identities


def curvature_identities(model: HyperkahlerModel, params: AnsatzParams, p: ChartPoint) -> dict:
    """Residuals of the trace reduction, the quotient trace, the
    tr(R wedge R) reduction, and the closed form of W.

    Keys: c1_res, trace_res, c2_res, w_res.
    """
    data = _curvature_data(model, params, p)
    fr = data.fr
    ctx = fr.ctx

    Fq = data.quotient_curvature
    tr_R = _trace(data.frame_curvature, fr.chart)
    tr_Fq = _trace(Fq, fr.chart)

    # del dbar reads its argument to order 2, so the logs are taken there; dbar del = -del dbar
    A2, B2 = data.A.to_order(2), data.B.to_order(2)
    ddbar_logA = del_dbar_at_point(ctx, FormValue.scalar(fr.chart, A2.log())).scale(-1.0)
    ddbar_logB = del_dbar_at_point(ctx, FormValue.scalar(fr.chart, B2.log())).scale(-1.0)
    c1_rhs = ddbar_logA + ddbar_logB.scale(2.0) + tr_Fq
    c1_res = identity_residual(tr_R, c1_rhs, ddbar_logB.sup())

    trace_res = identity_residual(tr_Fq, FormValue.zero(fr.chart, 2), _array_sup(Fq))

    # W = dbar L^T Ubar^-1 del Lbar evaluates in closed form to
    # (i/s)(alpha omega_I + beta omega_J + gamma omega_K); the prefactor is
    # pinned by hand computation on the flat model and by the tr(R^R)
    # reduction holding at machine precision.
    W = data.w_form()
    w_target = fr.fiber_form().scale(1j * fr.s.reciprocal())
    w_res = identity_residual(FormValue(fr.chart, 2, W[0]), w_target.values())

    # tr(R^R) against 2 del dbar((A/B) W) + 2 (dbar del log B)^2 + tr(F'^F')
    tr_RR = data.tr_RR
    ratio, space, _, _ = _stacked([A2 / B2], 2)
    Y = _mul_coeffs(space, ratio, W, 2, space.full_mask)
    del_dbar_Y = del_dbar_of_taylor(ctx, space, Y, degree=2)
    c2_rhs = (
        del_dbar_Y.scale(2.0)
        + ddbar_logB.wedge(ddbar_logB).scale(2.0)
        + matrix_wedge_trace(Fq, Fq, fr.chart)
    )
    c2_res = identity_residual(tr_RR, c2_rhs, del_dbar_Y.sup() * 2.0, ddbar_logB.sup() ** 2)
    return {"c1_res": c1_res, "trace_res": trace_res, "c2_res": c2_res, "w_res": w_res}


# ---------------------------------------------------------------------------
# anomaly cancellation


def anomaly_residual(
    model: HyperkahlerModel, params: AnsatzParams, p: ChartPoint, curvature: np.ndarray | None = None
) -> float:
    """i del dbar omega - (alpha'/4)(tr R^R - tr F^F) with F the quotient curvature.

    Every term comes out of its own jet pipeline: the torsion term from the
    metric field, tr(R wedge R) from the frame Gram, tr(F wedge F) from the
    quotient Gram.  A replacement F is stacked as for ``hym_residual``.
    """
    data = _curvature_data(model, params, p)
    torsion = del_dbar_at_point(data.fr.ctx, data.ansatz.metric).scale(1j)

    tr_RR = data.tr_RR
    F = curvature if curvature is not None else data.quotient_curvature
    tr_FF = matrix_wedge_trace(F, F, data.fr.chart)

    quarter = params.alpha_prime / 4.0
    return identity_residual(torsion, (tr_RR - tr_FF).scale(quarter), quarter * tr_RR.sup(), quarter * tr_FF.sup())


# ---------------------------------------------------------------------------
# the radial reduction of the anomaly obstruction


def radial_h_residual(h_profile: Profile, p: ChartPoint) -> float:
    """Residual of (del dbar h)^2 = del dbar h wedge (3 del dbar log s), g constant, for h = h_profile(rho).

    The left side is assembled from the radial expansion
    2i dbar del h = h'' drho ^ Jdrho + h' (dalpha ^ I drho + ...) - 4 h' (fiber form)
    with J the pointwise twistor structure; the right side uses the
    independent Dolbeault machinery for log s.
    """
    rho_val = _radius2(_base_coords(p.chart, p.coords))
    if rho_val <= 0.0:
        raise DomainError("radial profile is singular at rho = 0")
    fr = twistor_frame(flat_model(), p, 2)
    chart = fr.chart
    rho = _radius2(fr.x)
    rows, space, _, _ = _stacked([[rho], [fr.alpha], [fr.beta], [fr.gamma]], 1)
    d_rho, d_alpha, d_beta, d_gamma = (FormValue(chart, 1, v) for v in _d_point(space, rows, 0)[0])
    h1, h2 = h_profile.derivatives(rho_val)

    Id_rho = quaternion_operator(fr.kh, "I", chart).apply(d_rho)
    Jd_rho = quaternion_operator(fr.kh, "J", chart).apply(d_rho)
    Kd_rho = quaternion_operator(fr.kh, "K", chart).apply(d_rho)
    frak_d_rho = (
        Id_rho.scale(fr.alpha) + Jd_rho.scale(fr.beta) + Kd_rho.scale(fr.gamma)
    )
    sphere_term = (
        d_alpha.wedge(Id_rho) + d_beta.wedge(Jd_rho) + d_gamma.wedge(Kd_rho)
    )
    X = (
        d_rho.wedge(frak_d_rho).scale(h2)
        + sphere_term.scale(h1)
        + fr.fiber_form().scale(-4.0 * h1)
    ).values()
    P = X.scale(1.0 / 2j)  # dbar del h per the expansion

    log_s_hessian = del_dbar_at_point(fr.ctx, FormValue.scalar(chart, fr.s.log())).scale(-1.0)
    lhs = P.wedge(P)
    rhs = P.wedge(log_s_hessian.scale(3.0))
    return identity_residual(lhs, rhs, P.sup() ** 2, P.sup() * log_s_hessian.sup() * 3.0)
