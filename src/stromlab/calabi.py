"""Chern-Ricci flat balanced metrics on total spaces of canonical bundles.

Over a base with a constant-Chern-scalar metric, the fiber-norm ansatz
e^{u+f} omega + i e^{v+g} del R wedge dbar R / R produces a metric whose
volume-form norm is constant exactly on the branch v = -n u, g = -n f + c,
and which is balanced once f solves a first-order profile equation.  The
operators here certify each piece pointwise: constant norm, balancedness
d(omega^n) = 0, vanishing Chern scalar, and the fourth-order extremal
(Euler-Lagrange) equation that every Chern-Ricci flat balanced metric
satisfies.

Charts carry the standard complex structure (base coordinates plus the
fiber coordinate t are holomorphic); the zero section t = 0 is excluded.

The operators share one :class:`CanonicalBundleFrame` per (base, params,
point): its metric, Chern-Ricci form and Chern scalar are cached
properties, built on first use.  A frame's order is the validity order of
its metric.  Only the fiber part of the metric differentiates anything, and
only R, so only the seeds, the base metric, its determinant h and R are
built to order + 1; u, v, f, g and the factor R^-1 e^{v+g} are built to
the order.  Every frame on a chart reads the chart's one shared type
context (``forms.standard_context``).  ``_frame`` keeps frames by the rule of ``jets.kept``, which keeps two
values: a point certifies the theorem metric and then a must-fail profile,
and the theorem frame survives the second.  Each operator reads the frame
only to the order it needs: ``extremal_residual`` at order 6,
``chern_scalar`` at 2, ``km_balanced_residual`` at 1 and ``volume_norm`` at
0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .forms import (
    Chart,
    ChartPoint,
    DomainError,
    FormValue,
    TypeContext,
    _complex_basis_matrices,
    closedness_residual,
    d_complex,
    d_complex_bar,
    del_dbar_at_point,
    form_power,
    hermitian_form,
    i_ddbar,
    identity_residual,
    mat_det,
    standard_context,
    svalue,
    top_ratio,
    volume_form_norm,
)
from .jets import Jet, jet_space, kept, seed_jets, wirtinger


class ZeroSectionError(DomainError):
    pass


# ---------------------------------------------------------------------------
# base models


@dataclass(frozen=True)
class BaseKahlerModel:
    """A Kahler base of complex dimension ``n``, given by its metric on one chart.

    ``metric(zjets)`` returns [h_{j kbar}] with jet entries from the 2n base
    real-coordinate jets; ``total_chart`` adds the fiber coordinate t.
    """

    n: int
    chart: Chart
    total_chart: Chart
    metric: object


def _charts(name: str):
    base = Chart(f"{name}_base", ("y1", "y2"), ("z",))
    total = Chart(f"{name}_total", ("y1", "y2", "tr", "ti"), ("z", "t"))
    return base, total


def _fubini_study_cp1_metric(zjets):
    mod2 = zjets[0] * zjets[0] + zjets[1] * zjets[1]
    return [[((1.0 + mod2) ** 2).reciprocal()]]


def _flat_metric(zjets):
    return [[zjets[0] * 0.0 + 1.0]]


def fubini_study_cp1() -> BaseKahlerModel:
    return BaseKahlerModel(1, *_charts("fubini_study_cp1"), _fubini_study_cp1_metric)


def flat_torus_chart() -> BaseKahlerModel:
    return BaseKahlerModel(1, *_charts("flat_torus_chart"), _flat_metric)


# ---------------------------------------------------------------------------
# profiles of the fiber norm


@dataclass(frozen=True)
class Profile:
    """Smooth function of the fiber-norm variable, jet-capable."""

    fn: object

    def __call__(self, R):
        return self.fn(R)

    @staticmethod
    def zero() -> "Profile":
        return Profile(lambda R: R * 0.0)

    @staticmethod
    def linear(slope: float) -> "Profile":
        return Profile(lambda R: R * slope)


def solve_profile_f(s_const: float, c: float, c0: float, n: int) -> Profile:
    """Closed-form profile with e^{(n+1)f} = (n+1) (s/n) e^c R + C0.

    Differentiating gives e^{(n+1)f - c} f' = s/n, the reduction of the
    balanced condition over a base of constant Chern scalar s and complex
    dimension n: d(omega^n) = n [f' e^{nf} - (s/n) e^{c-f}] dR ^ omega_B^n,
    from rho_B ^ omega_B^{n-1} = (s/n) omega_B^n.  The returned profile is
    self-certifying through :func:`profile_ode_residual`.
    """
    k = (n + 1) * (s_const / n) * math.exp(c)

    def fn(R):
        arg = R * k + c0
        if svalue(arg).real <= 0.0:
            raise ValueError("profile argument must stay positive on the sampled range")
        return arg.log() * (1.0 / (n + 1))

    return Profile(fn)


def profile_ode_residual(profile: Profile, s_const: float, c: float, n: int, R_value: float) -> float:
    """|e^{(n+1)f - c} f' - s/n| at one fiber-norm value."""
    space = jet_space(1, 1)
    R = Jet.variable(space, 0, R_value)
    f = profile(R)
    fprime = f.derivative(0).value
    return abs(math.exp((n + 1) * svalue(f).real - c) * fprime - s_const / n)


# ---------------------------------------------------------------------------
# the ansatz metric


@dataclass(frozen=True)
class CalabiParams:
    """Conformal data (u, v on the base; f, g of the fiber norm; constant c).

    On the constant-length branch v = -n u and g = -n f + c are enforced
    at construction, which is exactly the condition for the holomorphic
    volume form to have constant norm.
    """

    u_fn: object
    v_fn: object
    f_profile: Profile
    g_profile: Profile
    c: float = 0.0

    @staticmethod
    def constant_length(base: BaseKahlerModel, u_fn=None, f_profile: Profile | None = None, c: float = 0.0):
        n = base.n
        u = u_fn or (lambda zjets: zjets[0] * 0.0)
        f = f_profile or Profile.zero()
        return CalabiParams(
            u_fn=u,
            v_fn=lambda zjets: u(zjets) * (-float(n)),
            f_profile=f,
            g_profile=Profile(lambda R: f(R) * (-float(n)) + c),
            c=c,
        )

    @staticmethod
    def plain(u=0.0, v=0.0, f_profile: Profile | None = None, g_profile: Profile | None = None):
        return CalabiParams(
            u_fn=lambda zjets: zjets[0] * 0.0 + u,
            v_fn=lambda zjets: zjets[0] * 0.0 + v,
            f_profile=f_profile or Profile.zero(),
            g_profile=g_profile or Profile.zero(),
        )


class CanonicalBundleFrame:
    """Jets of the ansatz data at a point of the total-space chart, with a metric valid to ``order``.

    The metric, the Chern-Ricci form and the Chern scalar are cached
    properties, so every operator reading the frame pays for each once; do
    not mutate them.  The metric's fiber part is del R ^ dbar R, so the
    seeds, ``hmat``, ``h`` and ``R`` are valid to order + 1; nothing
    differentiates u, v, f or g, so they are built from the base jets and R
    read to order.  The metric is valid to order, the Ricci form and the
    scalar to order - 2: the extremal equation (the Hessian of the
    Laplacian of s, read at the point) needs order 6, the Chern scalar 2,
    d(omega^n) 1 and the volume norm 0.
    """

    def __init__(self, base: BaseKahlerModel, params: CalabiParams, p: ChartPoint, order: int):
        if p.chart != base.total_chart:
            raise ValueError(f"point lives on {p.chart.name!r}, expected {base.total_chart.name!r}")
        t = p.complex_coord(base.n)
        if abs(t) == 0.0:
            raise ZeroSectionError("the fiber-norm ansatz is singular on the zero section")
        self.base = base
        self.chart = base.total_chart
        self.order = order
        self.jets = seed_jets(p.coords, order + 1)
        self.zjets = self.jets[: 2 * base.n]
        self.t = self.jets[2 * base.n] + 1j * self.jets[2 * base.n + 1]
        self.hmat = base.metric(self.zjets)
        self.h = mat_det(self.hmat)
        self.R = self.t * self.t.conjugate() / self.h
        self.ctx = standard_context(self.chart)
        # nothing differentiates u, v, f or g: they are valid to order
        zjets = [x.to_order(order) for x in self.zjets]
        self.u = params.u_fn(zjets)
        self.v = params.v_fn(zjets)
        R = self.R.to_order(order)
        self.f = params.f_profile(R)
        self.g = params.g_profile(R)

    def dR_split(self):
        m = self.chart.ncomplex
        del_R = FormValue.zero(self.chart, 1)
        dbar_R = FormValue.zero(self.chart, 1)
        for j in range(m):
            del_R = del_R + d_complex(self.chart, j).scale(wirtinger(self.R, 2 * j, 2 * j + 1, bar=False))
            dbar_R = dbar_R + d_complex_bar(self.chart, j).scale(
                wirtinger(self.R, 2 * j, 2 * j + 1, bar=True)
            )
        return del_R, dbar_R

    @cached_property
    def metric(self) -> FormValue:
        """e^{u+f} omega_B + i e^{v+g} del R ^ dbar R / R, valid to the frame's order.

        The fiber part differentiates R, seeded one order higher, so R is
        read to the frame's order in the factor R^-1 e^{v+g}, and the base
        metric before its product.
        """
        top = self.order
        del_R, dbar_R = self.dR_split()
        fiber = del_R.wedge(dbar_R).scale(1j * self.R.to_order(top).reciprocal() * (self.v + self.g).exp())
        base = hermitian_form(self.chart, [[e.to_order(top) for e in row] for row in self.hmat])
        return base.scale((self.u + self.f).exp()) + fiber

    @cached_property
    def ricci(self) -> FormValue:
        """rho = -i del dbar log det g, from the Gram matrix g_{a bbar} of the metric."""
        return chern_ricci_form(hermitian_matrix_of(self.metric, self.chart), self.ctx)

    @cached_property
    def scalar(self):
        """The Chern scalar s, as a jet."""
        return chern_scalar_of(self.metric, self.ricci)

    def volume_form(self) -> FormValue:
        out = d_complex(self.chart, 0)
        for j in range(1, self.chart.ncomplex):
            out = out.wedge(d_complex(self.chart, j))
        return out


def _frame(base: BaseKahlerModel, params: CalabiParams, p: ChartPoint, order: int) -> CanonicalBundleFrame:
    """A frame of order >= ``order`` at the point, shared by the operators (``jets.kept``)."""
    return kept((CanonicalBundleFrame, base, params, p), order, lambda: CanonicalBundleFrame(base, params, p, order))


def _read_to(form: FormValue, order: int) -> FormValue:
    """The form with each jet coefficient read to ``order``."""
    return form.map_coeffs(lambda c: c.to_order(order) if isinstance(c, Jet) else c)


def omega0_d_residual(base: BaseKahlerModel, p: ChartPoint) -> float:
    """Relative sup of d(omega_0) for the undeformed induced metric."""
    return closedness_residual(_frame(base, CalabiParams.plain(), p, 1).metric)


# ---------------------------------------------------------------------------
# Chern scalar curvature


def hermitian_matrix_of(omega: FormValue, chart: Chart):
    """Coefficients g_{a bbar} of a (1,1)-form i g_{a bbar} dz^a ^ dzbar^b.

    Each dx_v ^ dx_w is expanded in the complex basis through T^-1.
    """
    m = chart.ncomplex
    Tinv = _complex_basis_matrices(chart)[1]
    G = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            # omega(d/dz_a, d/dzbar_b) = i g_{a bbar}
            acc = None
            for (v, w), cf in omega.terms.items():
                xa = Tinv[a, v] * Tinv[m + b, w] - Tinv[a, w] * Tinv[m + b, v]
                if xa == 0.0:
                    continue
                term = cf * xa
                acc = term if acc is None else acc + term
            G[a][b] = (0.0 + 0.0j if acc is None else acc) * (-1j)
    return G


def chern_ricci_form(gram, ctx: TypeContext) -> FormValue:
    """rho = -i del dbar log det(Gram)."""
    det = mat_det(gram)
    return i_ddbar(ctx, det.log()).scale(-1.0)


def chern_scalar_of(omega: FormValue, rho: FormValue):
    """s = trace of the Chern-Ricci form rho against the metric omega.

    Uses dim * (rho ^ omega^{dim-1}) / omega^dim, which avoids any frame
    choice; omega is read to the order of rho's jets.  Returns a jet when
    the inputs carry jets.
    """
    orders = [c.order for c in rho.terms.values() if isinstance(c, Jet)]
    if orders:
        omega = _read_to(omega, min(orders))
    m = omega.chart.ncomplex
    return float(m) * top_ratio(rho.wedge(form_power(omega, m - 1)), form_power(omega, m))


def chern_scalar(base: BaseKahlerModel, params: CalabiParams, p: ChartPoint) -> float:
    """Chern scalar of the total-space ansatz metric."""
    fr = _frame(base, params, p, 2)
    return svalue(fr.scalar).real


def base_chern_scalar(base: BaseKahlerModel, z_point) -> float:
    """Chern scalar of the base metric on the base chart."""
    jets = seed_jets(z_point, 3)
    hmat = base.metric(jets)
    ctx = standard_context(base.chart)
    return svalue(chern_scalar_of(hermitian_form(base.chart, hmat), chern_ricci_form(hmat, ctx))).real


# ---------------------------------------------------------------------------
# the certificate residuals


def volume_norm(base: BaseKahlerModel, params: CalabiParams, p: ChartPoint) -> float:
    """sqrt(|Omega^Omega_bar| / (omega^m/m!)), Omega = dz_1^...^dz_m."""
    fr = _frame(base, params, p, 0)
    return volume_form_norm(fr.volume_form(), fr.metric.values())


def constant_norm_residual(base: BaseKahlerModel, params: CalabiParams, points) -> float:
    """Relative variance of the volume-form norm over a sample."""
    vals = [volume_norm(base, params, p) for p in points]
    mean = sum(vals) / len(vals)
    return sum((v - mean) ** 2 for v in vals) / (len(vals) * mean * mean)


def km_balanced_residual(base: BaseKahlerModel, params: CalabiParams, p: ChartPoint) -> float:
    """Relative sup of d(omega^n) on the (n+1)-dimensional total space."""
    fr = _frame(base, params, p, 1)
    return closedness_residual(form_power(_read_to(fr.metric, 1), base.n))


def extremal_residual_of(omega: FormValue, rho: FormValue, s, ctx: TypeContext) -> float:
    """Euler-Lagrange residual 2(n-1) i del dbar s ^ rho - i del dbar((2 Lap s + s^2) omega).

    Takes the metric omega, its Chern-Ricci form rho and its Chern scalar s
    (a jet, as ``chern_scalar_of`` returns it).  Only values at the point
    are compared: s must be valid to order >= 4 (its Hessian feeds the
    Laplacian, which the outer del dbar differentiates twice), omega and
    the Laplacian are read to order 2, and rho at its value.
    """
    m = omega.chart.ncomplex
    omega2 = _read_to(omega, 2)
    i_ddbar_s = i_ddbar(ctx, s)
    lap_s = float(m) * top_ratio(i_ddbar_s.wedge(form_power(omega2, m - 1)), form_power(omega2, m))
    lhs = i_ddbar_s.values().wedge(rho.values()).scale(2.0 * (m - 1))
    s2 = s.to_order(2)
    rhs = del_dbar_at_point(ctx, omega2.scale(lap_s * 2.0 + s2 * s2)).scale(1j)
    return identity_residual(lhs, rhs)


def extremal_residual(base: BaseKahlerModel, params: CalabiParams, p: ChartPoint) -> float:
    fr = _frame(base, params, p, 6)
    return extremal_residual_of(fr.metric, fr.ricci, fr.scalar, fr.ctx)


def theorem_metric_params(base: BaseKahlerModel, c: float = 0.0, c0: float = 1.0) -> CalabiParams:
    """Constant-length parameters with f solving the balanced reduction.

    The base must have constant Chern scalar; the scalar is sampled at the
    chart origin and trusted to the constancy checks elsewhere.
    """
    s0 = base_chern_scalar(base, (0.0,) * (2 * base.n))
    f = solve_profile_f(s0, c, c0, base.n)
    return CalabiParams.constant_length(base, f_profile=f, c=c)
