"""Residual operators for the Strominger system under the twistor ansatz.

Everything here is a pointwise check: the conformally balanced equation
d(|Omega| omega^2) = 0, the Hermitian-Yang-Mills equation for the
quotient-bundle curvature, the anomaly cancellation equation, and the
curvature trace identities that reduce tr(R wedge R) to a closed form.

All residuals are sup norms over stored coefficients in chart
coordinates, divided by the magnitude of the largest term entering the
identity; the normalisation lives in the shared helpers of
:mod:`stromlab.forms` (``closedness_residual``, ``curvature_residual``,
``identity_residual``).  Only the anomaly and the tr(R wedge R)
reduction, whose scales are term by term, and the quotient trace, scaled
by the curvature it traces, build their own.  Both sides of
every identity come out of independent jet pipelines; in particular
tr(R wedge R) is computed once from the frame Gram matrix and once from its
reduction, never shared.

The curvatures R (of the frame Gram) and F' (of the quotient Gram) are the
stacked arrays that ``gram_curvature`` returns, read as they are by
``curvature_residual`` and ``matrix_wedge_trace``; only their traces, which
enter identities of forms, are built as forms (``_trace``).

The operators at one point share its geometry.  ``balanced_residual`` asks
``twistor.twistor_frame`` for an order-1 frame; HYM, the anomaly and the
identities share one :class:`AnsatzCurvatureData` on the order-4 frame,
which ``twistor.frame_decompose`` then reads too.  Both are kept by the
rule of ``jets.kept``; the data refers to its frame and never the frame to
it, so neither is held by a reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .forms import (
    Chart,
    ChartPoint,
    DomainError,
    FormValue,
    _array_sup,
    closedness_residual,
    curvature_residual,
    dbar_del_scalar,
    del_dbar_at_point,
    differential_of_scalar,
    gram_curvature,
    identity_residual,
    mat_conj_transpose,
    mat_inv,
    mat_mul,
    matrix_wedge_trace,
    nan_max,
    relative_residual,
)
from .hyperkahler import HyperkahlerModel, flat_model, quaternion_operator
from .jets import Jet, jet_space, kept
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
    """Shared jet assembly for the curvature-level operators (flat models only: the frame needs w1, w2).

    It reads the point's kept order-4 frame (``twistor_frame``), with its
    type context and frame coefficients, which ``frame_decompose`` then
    shares; the profiles of ``params`` and the metric sit beside the frame
    in ``ansatz``.  The frame and quotient curvatures and tr(R ^ R) are
    cached properties, so the operators reading them at one point pay for
    each once.
    """

    def __init__(self, model: HyperkahlerModel, params: AnsatzParams, p: ChartPoint):
        self.fr = fr = twistor_frame(model, p, 4)
        self.ansatz = ansatz = AnsatzMetric(fr, params)
        L, C, D = fr.coefficients
        self.A = fr.s * fr.s * (-2.0 * ansatz.g).exp() * 0.5
        self.B = fr.s * fr.s * fr.s * (-2.0 * ansatz.h - ansatz.g).exp()
        self.Lvec = [fr.zeta * L[0], fr.zeta * L[1]]
        K = mat_inv(fr.kh)
        E = [[C[0], D[0]], [C[1], D[1]]]
        self.U = mat_mul(mat_mul(E, K), mat_conj_transpose(E))

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
        """tr(R ^ R) of the frame curvature, read by the anomaly and the identities; do not mutate."""
        R = self.frame_curvature
        return matrix_wedge_trace(R, R, self.fr.chart)

    def w_form(self) -> FormValue:
        """W = dbar L^T Ubar^-1 del Lbar as a (1,1)-form with jet coefficients valid to order 2.

        Its readers take its value and the first derivatives of (A/B) W, so
        Ubar^-1 is formed from U read to order 2 and dbar L_i = (dL_i + i J dL_i)/2
        from L read to order 3, so its jet products sum to the order of dL, 2.
        """
        fr = self.fr
        Ubar_inv = mat_inv([[e.conjugate().to_order(2) for e in row] for row in self.U])
        dL = [differential_of_scalar(l.to_order(3), fr.chart) for l in self.Lvec]
        dbar_L = [(d + fr.ctx.acs.apply(d).scale(1j)).scale(0.5) for d in dL]
        out = FormValue.zero(fr.chart, 2)
        for i in range(2):
            for j in range(2):
                out = out + dbar_L[i].scale(Ubar_inv[i][j]).wedge(dbar_L[j].conj())
        return out


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
    out = F[0, 0]
    for i in range(1, len(F)):
        out = out + F[i, i]
    return FormValue.from_vector(chart, 2, out)


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

    # dbar_del_scalar reads its argument to order 2, so the logs are taken there
    A2, B2 = data.A.to_order(2), data.B.to_order(2)
    ddbar_logA = dbar_del_scalar(ctx, A2.log())
    ddbar_logB = dbar_del_scalar(ctx, B2.log())
    c1_rhs = ddbar_logA + ddbar_logB.scale(2.0) + tr_Fq
    c1_res = identity_residual(tr_R, c1_rhs, ddbar_logB.sup())

    trace_res = relative_residual(tr_Fq.sup(), nan_max([1.0, _array_sup(Fq)]))

    # W = dbar L^T Ubar^-1 del Lbar evaluates in closed form to
    # (i/s)(alpha omega_I + beta omega_J + gamma omega_K); the prefactor is
    # pinned by hand computation on the flat model and by the tr(R^R)
    # reduction holding at machine precision.
    W = data.w_form()
    w_target = fr.fiber_form().scale(1j * fr.s.reciprocal())
    w_res = identity_residual(W.values(), w_target.values())

    # tr(R^R) against 2 del dbar((A/B) W) + 2 (dbar del log B)^2 + tr(F'^F')
    tr_RR = data.tr_RR
    del_dbar_Y = del_dbar_at_point(ctx, W.scale(A2 / B2))
    c2_rhs = (
        del_dbar_Y.scale(2.0)
        + ddbar_logB.wedge(ddbar_logB).scale(2.0)
        + matrix_wedge_trace(Fq, Fq, fr.chart)
    )
    c2_res = relative_residual(
        (tr_RR - c2_rhs).sup(),
        nan_max([tr_RR.sup(), del_dbar_Y.sup() * 2.0, ddbar_logB.sup() ** 2, 1.0]),
    )
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
    diff = torsion - (tr_RR - tr_FF).scale(quarter)
    scale = nan_max([torsion.sup(), quarter * tr_RR.sup(), quarter * tr_FF.sup()])
    return relative_residual(diff.sup(), scale)


# ---------------------------------------------------------------------------
# the radial reduction of the anomaly obstruction


@dataclass(frozen=True)
class RadialProfile:
    """h = h(rho) given by a jet-capable callable of rho."""

    fn: object

    def derivatives(self, rho: float):
        space = jet_space(1, 2)
        jet = self.fn(Jet.variable(space, 0, rho))
        return jet.partial((1,)), jet.partial((2,))

    @staticmethod
    def constant() -> "RadialProfile":
        return RadialProfile(lambda r: r * 0.0)

    @staticmethod
    def log_slope(slope: float) -> "RadialProfile":
        """h = slope log rho; slope -3/2 (h' = -3/(2 rho)) is the nonconstant branch of the dichotomy."""
        return RadialProfile(lambda r: r.log() * slope)


def radial_h_residual(h_profile: RadialProfile, p: ChartPoint) -> float:
    """Residual of (del dbar h)^2 = del dbar h wedge (3 del dbar log s), g constant.

    The left side is assembled from the radial expansion
    2i dbar del h = h'' drho ^ Jdrho + h' (dalpha ^ I drho + ...) - 4 h' (fiber form)
    with J the pointwise twistor structure; the right side uses the
    independent Dolbeault machinery for log s.
    """
    rho_val = sum(x * x for x in p.coords[2:])
    if rho_val <= 0.0:
        raise DomainError("radial profile is singular at rho = 0")
    fr = twistor_frame(flat_model(), p, 2)
    chart = fr.chart
    rho = fr.x[0] * fr.x[0] + fr.x[1] * fr.x[1] + fr.x[2] * fr.x[2] + fr.x[3] * fr.x[3]
    d_rho = differential_of_scalar(rho, chart)
    h1, h2 = h_profile.derivatives(rho_val)

    Id_rho = quaternion_operator(fr.kh, "I", chart).apply(d_rho)
    Jd_rho = quaternion_operator(fr.kh, "J", chart).apply(d_rho)
    Kd_rho = quaternion_operator(fr.kh, "K", chart).apply(d_rho)
    frak_d_rho = (
        Id_rho.scale(fr.alpha) + Jd_rho.scale(fr.beta) + Kd_rho.scale(fr.gamma)
    )
    d_alpha = differential_of_scalar(fr.alpha, chart)
    d_beta = differential_of_scalar(fr.beta, chart)
    d_gamma = differential_of_scalar(fr.gamma, chart)
    sphere_term = (
        d_alpha.wedge(Id_rho) + d_beta.wedge(Jd_rho) + d_gamma.wedge(Kd_rho)
    )
    X = (
        d_rho.wedge(frak_d_rho).scale(h2)
        + sphere_term.scale(h1)
        + fr.fiber_form().scale(-4.0 * h1)
    ).values()
    P = X.scale(1.0 / 2j)  # dbar del h per the expansion

    log_s_hessian = dbar_del_scalar(fr.ctx, fr.s.log())
    lhs = P.wedge(P)
    rhs = P.wedge(log_s_hessian.scale(3.0))
    return identity_residual(lhs, rhs, P.sup() ** 2, P.sup() * log_s_hessian.sup() * 3.0)
