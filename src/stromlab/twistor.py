"""Twistor-space geometry over a hyperkahler 4-manifold.

The twistor space of N is CP^1 x N with the complex structure that acts as
the standard structure along the sphere and as alpha I + beta J + gamma K
along N, where (alpha, beta, gamma) is the unit vector of the sphere point.
The action along N is ``hyperkahler.quaternion_action``, the one place
alpha I + beta J + gamma K is written; the twistor chart's first pair is
the sphere coordinate and its last two are z1, z2 of N.  Removing the fiber
at infinity leaves C x N, which carries a nowhere vanishing holomorphic
volume form and the two-parameter family of Hermitian ansatz metrics
studied here.

For flat N = R^4 the total space is biholomorphic to C^3, with an explicit
chart map; the differentials of its coordinates w1, w2 decompose in the
local coframe {dzeta, theta_1, theta_2} with the coefficients of
``frame_coefficients``, which is where the quotient-bundle curvature
computations start.

The operators at one point share its :class:`TwistorFrame` through
``twistor_frame`` (``jets.kept``).  A frame holds no ansatz profiles; the
profiles of one :class:`AnsatzParams` and the metric they make are an
:class:`AnsatzMetric` beside it.  Params made twice from the same
arguments compare equal (see :class:`AnsatzParams`), so the memo hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .forms import (
    AlmostComplexStructure,
    Chart,
    ChartPoint,
    DomainError,
    FormValue,
    TypeContext,
    _d_point,
    _stacked,
    _type_part,
    acs_from_complex_action,
    d_complex,
    d_complex_bar,
    nan_max,
    svalue,
    volume_form_norm,
)
from .hyperkahler import (
    TWISTOR_EH,
    TWISTOR_FLAT,
    HyperkahlerModel,
    _base_coords,
    _radius2,
    kappa_hermitian_jets,
    quaternion_action,
    triple_forms,
)
from .jets import Jet, kept, seed_jets, wirtinger

C3_CHART = Chart("c3", ("zr", "zi", "w1r", "w1i", "w2r", "w2i"), ("zeta", "w1", "w2"))


# ---------------------------------------------------------------------------
# the sphere of complex structures


def sphere_jets(zr: Jet, zi: Jet):
    """alpha, beta, gamma and s = 1 + |zeta|^2 as jets: zeta's stereographic image on the unit sphere."""
    mod2 = zr * zr + zi * zi
    s = mod2 + 1.0
    inv = s.reciprocal()
    return (1.0 - mod2) * inv, 2.0 * zr * inv, 2.0 * zi * inv, s


# ---------------------------------------------------------------------------
# ansatz parameters


def _radial_h(x1: Jet, x2: Jet, x3: Jet, x4: Jet) -> Jet:
    """h = -(3/2) log rho with rho = |x|^2, away from the base origin.

    Near the origin the coupling solution with this h fails its own gates
    before the log is singular.  Worst over four flat points (zeta = 0.5 or
    0.4 + 0.3i, the base along x1 or (1, 1, -1, 1)/2), against gates of 1e-8:

        base radius   anomaly   c1_res    c2_res
        0.003         5.6e-7    6.0e-7    5.6e-7
        0.01          1.1e-8    7.6e-9    1.1e-8
        0.02          9.9e-10   2.7e-10   9.9e-10
        0.03          8.6e-11   4.1e-11   8.6e-11
        0.05          1.3e-11   6.4e-12   1.3e-11

    so the domain stops at base radius 0.03.
    """
    rho = _radius2((x1, x2, x3, x4))
    if rho.value.real < 0.03**2:
        raise DomainError(
            f"base radius {math.sqrt(rho.value.real):.3g} < 0.03: h = -(3/2) log rho loses its gates near the origin"
        )
    return rho.log() * (-1.5)


@dataclass(frozen=True)
class _Constant:
    """The profile of constant ``value``: a constant jet in the space and at the order of its first argument."""

    value: float

    def __call__(self, first: Jet, *_: Jet) -> Jet:
        return Jet.constant(first.space, self.value, first.order)


def _log_s_squared(zr: Jet, zi: Jet) -> Jet:
    """g = 2 log s with s = 1 + |zeta|^2, the profile of the constant-norm branch."""
    return (zr * zr + zi * zi + 1.0).log() * 2.0


@dataclass(frozen=True)
class AnsatzParams:
    """Conformal profiles of the ansatz metric.

    ``g_fn(zr, zi)`` and ``h_fn(x1, x2, x3, x4)`` take jets and return a
    jet; both must be real-valued.  ``alpha_prime``, the coupling constant
    of the anomaly equation, is positive (ValueError otherwise).
    Params compare by value: the constructors build their profiles from
    ``_Constant`` values and module functions, so equal arguments, however
    they are spelled, give equal params with equal hashes.
    """

    g_fn: object
    h_fn: object
    alpha_prime: float = 2.0

    def __post_init__(self):
        if not self.alpha_prime > 0.0:
            raise ValueError(f"alpha' (alpha_prime) must be positive, got {self.alpha_prime}")

    @staticmethod
    def constants(g: float = 0.0, h: float = 0.0, alpha_prime: float = 2.0) -> "AnsatzParams":
        return AnsatzParams(_Constant(g), _Constant(h), alpha_prime)

    @staticmethod
    def coupling_solution(alpha_prime: float = 2.0, radial_h: bool = False) -> "AnsatzParams":
        """The constant conformal factor solving the anomaly equation.

        e^{2g} = alpha'/4 makes the torsion term match the curvature term
        exactly (certified numerically at machine precision for both the
        constant and the radial h branch, on flat R^4 only); h = -(3/2) log
        rho is the nonconstant branch of the radial dichotomy.  That h
        comes from the radial reduction on flat R^4, and nothing certifies
        the radial branch on another base: the anomaly is checked on flat
        models alone.
        """
        gval = 0.5 * math.log(alpha_prime / 4.0) if alpha_prime > 0.0 else 0.0  # the constructor refuses alpha' <= 0
        return AnsatzParams(_Constant(gval), _radial_h if radial_h else _Constant(0.0), alpha_prime)

    @staticmethod
    def constant_norm_branch() -> "AnsatzParams":
        """h = 0 and g = 2 log s, the branch where the volume form has constant norm."""
        return AnsatzParams(_log_s_squared, _Constant(0.0))


# ---------------------------------------------------------------------------
# per-point assembly shared by the residual operators

class TwistorFrame:
    """Jets of every basic quantity of the twistor space at one point, each valid to ``order``.

    zeta, the base jets ``x`` and the coordinates the domain check reads
    come from ``Chart.pairs``.  The kappa Hessian costs two orders on a
    model that is not flat, so there the coordinates are seeded two orders
    higher for kappa only; the coordinate jets the frame holds, and so the
    sphere, are those seeds read to ``order``.  The type context of the
    twistor structure and the frame coefficients are cached properties,
    built on first use; do not mutate them.  A frame holds no ansatz
    profiles: those sit beside it, in an :class:`AnsatzMetric` that refers
    to the frame, so a frame is freed as soon as its last holder lets it go.
    """

    def __init__(self, model: HyperkahlerModel, p: ChartPoint, order: int):
        chart = model.twistor_chart
        if p.chart != chart:
            raise ValueError(f"point lives on {p.chart.name!r}, expected {chart.name!r}")
        model.check_domain(_base_coords(chart, p.coords))
        self.model = model
        self.chart = chart
        self.order = order
        seeds = seed_jets(p.coords, order if model.flat else order + 2)
        self.jets = jets = [x.to_order(order) for x in seeds]
        re, im = chart.pairs[0]
        self.zr, self.zi = jets[re], jets[im]
        self.x = _base_coords(chart, jets)
        self.zeta = self.zr + 1j * self.zi
        self.alpha, self.beta, self.gamma, self.s = sphere_jets(self.zr, self.zi)
        self.kh = kappa_hermitian_jets(model, chart, seeds)
        self.triple = triple_forms(chart, self.kh)
        self.dzeta, *self.dz = (d_complex(chart, j) for j in range(chart.ncomplex))
        self.dzeta_bar, *self.dzb = (d_complex_bar(chart, j) for j in range(chart.ncomplex))

    @cached_property
    def ctx(self) -> TypeContext:
        """The type context of the twistor structure (``ctx.acs``)."""
        return TypeContext(_twistor_acs_from_frame(self))

    @cached_property
    def coefficients(self):
        """(L, C, D) of :func:`frame_coefficients`."""
        return frame_coefficients(self)

    def fiber_form(self) -> FormValue:
        """alpha omega_I + beta omega_J + gamma omega_K."""
        return self.triple.combination(self.alpha, self.beta, self.gamma)

    def fubini_study(self) -> FormValue:
        """Round metric of radius 1 on the zeta-plane: 2i/s^2 dzeta^dzeta_bar."""
        s2inv = (self.s * self.s).reciprocal()
        return self.dzeta.wedge(self.dzeta_bar).scale(2j * s2inv)

    def volume_3form(self) -> FormValue:
        return (
            self.triple.omega_I.scale(-2.0 * self.zeta)
            + self.triple.omega_J.scale(1.0 - self.zeta * self.zeta)
            + self.triple.omega_K.scale(1j * (1.0 + self.zeta * self.zeta))
        ).wedge(self.dzeta)


def _twistor_acs_from_frame(fr: TwistorFrame) -> AlmostComplexStructure:
    """i on dzeta and alpha I + beta J + gamma K on the base, at the sphere point of zeta."""
    action = quaternion_action(fr.kh, fr.alpha, fr.beta, fr.gamma, fr.chart)
    m = fr.chart.ncomplex
    action[0][0], action[m][m] = 1j, -1j  # dzeta, dzeta_bar
    return acs_from_complex_action(fr.chart, action)


def twistor_frame(model: HyperkahlerModel, p: ChartPoint, order: int) -> TwistorFrame:
    """A frame of order >= ``order`` at the point, shared by the operators there (``jets.kept``)."""
    return kept((TwistorFrame, model, p), order, lambda: TwistorFrame(model, p, order))


class AnsatzMetric:
    """The profiles g, h of ``params`` on a frame and the Hermitian ansatz form they make.

    It refers to its frame and the frame never to it, so no reference cycle
    keeps either alive.
    """

    def __init__(self, fr: TwistorFrame, params: AnsatzParams):
        self.fr = fr
        self.g = params.g_fn(fr.zr, fr.zi)
        self.h = params.h_fn(*fr.x)

    @cached_property
    def metric(self) -> FormValue:
        """The Hermitian ansatz form."""
        fr = self.fr
        s2inv = (fr.s * fr.s).reciprocal()
        conf = (2.0 * self.h + self.g).exp() * s2inv
        return fr.fiber_form().scale(conf) + fr.fubini_study().scale((2.0 * self.g).exp())

    def norm_profile(self) -> Jet:
        """s^4 e^{-2h-2g}: the volume-form norm up to a constant."""
        s2 = self.fr.s * self.fr.s
        return s2 * s2 * (-2.0 * self.h - 2.0 * self.g).exp()


def omega_norm(model: HyperkahlerModel, params: AnsatzParams, p: ChartPoint) -> float:
    """Norm of the holomorphic volume form against the ansatz metric.

    sqrt(|Omega^Omega_bar| / (omega^3/3!)); the modulus drops the constant
    phase of Omega^Omega_bar, and the ratio raises DomainError unless
    omega^3 is positive.  Only ratios across points are meaningful since
    the overall constant is conventional.
    """
    fr = twistor_frame(model, p, 0)
    return volume_form_norm(fr.volume_3form().values(), AnsatzMetric(fr, params).metric.values())


# ---------------------------------------------------------------------------
# the explicit chart map for flat N


def c3_chart_map(direction: str, p: ChartPoint) -> ChartPoint:
    """Biholomorphism between C^3 and the flat twistor space.

    ``to_twistor``: (zeta, w1, w2) -> (zeta, u1, u2) with u1 = (w1 - i zeta
    w2_bar)/s; ``to_c3`` is its inverse (``_to_c3``).
    """
    if direction == "to_twistor":
        if p.chart != C3_CHART:
            raise ValueError("to_twistor expects a C^3 chart point")
        zeta, w1, w2 = (p.complex_coord(j) for j in range(3))
        s = 1.0 + abs(zeta) ** 2
        u1 = (w1 - 1j * zeta * w2.conjugate()) / s
        u2 = (w2 + 1j * zeta * w1.conjugate()) / s
        return ChartPoint(
            TWISTOR_FLAT, (zeta.real, zeta.imag, u1.real, u1.imag, u2.real, u2.imag)
        )
    if direction == "to_c3":
        if p.chart != TWISTOR_FLAT:
            raise ValueError("to_c3 expects a flat twistor chart point")
        zeta, u1, u2 = (p.complex_coord(j) for j in range(3))
        w1, w2 = _to_c3(zeta, u1, u2)
        return ChartPoint(
            C3_CHART, (zeta.real, zeta.imag, w1.real, w1.imag, w2.real, w2.imag)
        )
    raise ValueError(f"unknown direction {direction!r}")


def _to_c3(zeta, u1, u2):
    """(w1, w2) = (u1 + i zeta u2_bar, u2 - i zeta u1_bar), the C^3 coordinates of a flat twistor point, for numbers or jets."""
    return u1 + 1j * zeta * u2.conjugate(), u2 - 1j * zeta * u1.conjugate()


def w_field_jets(fr: TwistorFrame):
    """The global holomorphic coordinates w1, w2 as scalar jets on the twistor chart."""
    if not fr.model.flat:
        raise DomainError("global holomorphic coordinates exist only on a flat model")
    return _to_c3(fr.zeta, *(fr.jets[re] + 1j * fr.jets[im] for re, im in fr.chart.pairs[1:]))


# ---------------------------------------------------------------------------
# the (1,0)-coframe away from zeta = 0


def theta_coframe_jets(fr: TwistorFrame):
    """theta_1, theta_2: (1,0)-forms completing dzeta to a coframe for zeta != 0."""
    if abs(svalue(fr.zeta)) == 0.0:
        raise DomainError("theta coframe is singular at zeta = 0")
    inv = fr.zeta.reciprocal()
    k11, k12 = fr.kh[0][0], fr.kh[0][1]
    k21, k22 = fr.kh[1][0], fr.kh[1][1]
    theta1 = (
        fr.dz[0].scale(2j * inv * k12) + fr.dz[1].scale(2j * inv * k22) + fr.dzb[0]
    )
    theta2 = (
        fr.dz[0].scale(2j * inv * k11) + fr.dz[1].scale(2j * inv * k21) - fr.dzb[1]
    )
    return theta1, theta2


# ---------------------------------------------------------------------------
# decomposition of the global coframe (flat model)


@dataclass(frozen=True)
class FrameDecomposition:
    """dw_i = L_i dzeta + C_i theta_1 - D_i theta_2 with E rows (C_i, D_i), and its certificates."""

    L: tuple
    E: tuple
    simp_residual: float
    loc_residual: float
    reconstruction_residual: float


def frame_coefficients(fr: TwistorFrame):
    """(L, C, D): the dzeta, dzbar_1 and dzbar_2 components of dw_1, dw_2, as Wirtinger derivatives of w."""
    # E carries 1/zeta and det E = |zeta|^2 on flat, so the curvatures lose
    # digits as zeta -> 0: for coupling_solution() at (zeta, 0, 0.4, 0.8,
    # -0.3, 0.5), anomaly_residual reads 3.3e-10 at zeta = 1e-3, 5.1e-9 at
    # 3e-4, 8.5e-8 at 1e-4 and 1.6e-2 at 2e-7, and the curvature identities
    # 9.4e-9 at 1e-4 and 6.0e-7 at 1e-5.  An exact solution would fail the
    # 1e-8 gates below about 1e-4, so the domain stops at 1e-3.
    if abs(svalue(fr.zeta)) < 1e-3:
        raise DomainError("frame decomposition is singular at |zeta| < 1e-3")
    w = w_field_jets(fr)
    zeta, z1, z2 = fr.chart.pairs
    L = [wirtinger(wi, *zeta, bar=False) for wi in w]
    C = [wirtinger(wi, *z1, bar=True) for wi in w]
    D = [wirtinger(wi, *z2, bar=True) for wi in w]
    return L, C, D


def frame_decompose(model: HyperkahlerModel, p: ChartPoint) -> FrameDecomposition:
    """Decompose {dw_1, dw_2} in {dzeta, theta_1, theta_2} and certify it.

    ``simp_residual`` checks the dbar-compatibility system satisfied by the
    C, D coefficient fields.  Over a general hyperkahler base it reads

        dbar C_i = i (beta - i gamma) (C_i m_12 - D_i m_11),
        dbar D_i = i (beta - i gamma) (C_i m_22 - D_i m_12),

    with m_jk = kappa_{1 jbar kbar} thetabar_1 - kappa_{2 jbar kbar}
    thetabar_2 (``hyperkahler.kappa_third_jets``).  The decomposition needs
    the global coordinates w1, w2, so only flat models are accepted
    (``w_field_jets``); there the Hessian is constant, every kappa_{i jbar
    kbar} is exactly 0, and the system checked is dbar C_i = dbar D_i = 0.
    ``loc_residual`` checks the corresponding equation for 2 zeta dbar L;
    ``reconstruction_residual`` compares dw with the frame rebuilt from the
    Wirtinger derivatives L, C, D.  It reads the point's kept frame, with
    its context and coefficients: the order-4 one of the curvature data
    when that was built first.
    """
    fr = twistor_frame(model, p, 2)
    L, C, D = fr.coefficients
    chart, ctx = fr.chart, fr.ctx
    # every residual is read at its value: d w and the dbar terms come from d
    # at the point of w, C, D and L as 0-forms, and the right-hand sides from
    # the values of their factors
    rows, space, _, _ = _stacked([[f] for f in (*w_field_jets(fr), *C, *D, *L)], 1)
    d_fields = _d_point(space, rows, 0)
    dw = [FormValue(chart, 1, v) for v in d_fields[0, :2]]
    dbar = [FormValue(chart, 1, v) for v in _type_part(ctx, space, d_fields[:, 2:], 1, 0)[0]]
    theta1, theta2 = (t.values() for t in theta_coframe_jets(fr))
    one_minus_alpha = svalue(1.0 - fr.alpha)
    two_zeta = svalue(2.0 * fr.zeta)

    locs = []
    rebuilds = []
    for i in range(2):
        c, d, l = svalue(C[i]), svalue(D[i]), svalue(L[i])
        lhs_L = dbar[4 + i].scale(two_zeta)
        rhs_L = -(theta1.scale(one_minus_alpha) - fr.dzb[0].scale(2.0)).scale(c) + (
            theta2.scale(one_minus_alpha) + fr.dzb[1].scale(2.0)
        ).scale(d)
        locs.append((lhs_L - rhs_L).sup())
        rebuilt = fr.dzeta.scale(l) + theta1.scale(c) - theta2.scale(d)
        rebuilds.append((dw[i] - rebuilt).sup())

    return FrameDecomposition(
        L=tuple(svalue(l) for l in L),
        E=tuple((svalue(C[i]), svalue(D[i])) for i in range(2)),
        simp_residual=nan_max(form.sup() for form in dbar[:4]),  # dbar C_i and dbar D_i
        loc_residual=nan_max(locs),
        reconstruction_residual=nan_max(rebuilds),
    )
