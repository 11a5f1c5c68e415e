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
The profiles f, g are ``jets.Profile`` values; :class:`CalabiParams` hold
closures, so they compare by identity and a caller builds them once.

The operators share one :class:`CanonicalBundleFrame` per (base, params,
point).  A frame caches, each built on first use:

- ``gram``, the Gram matrix G = [g_{a bbar}] as jets, built from the
  ansatz: G = e^{u+f} diag(h, 0) + (e^{v+g} / R) [R_a R_bbar], the scaled
  base block plus the fiber's rank-one block, R_a and R_bbar the Wirtinger
  derivatives of R;
- ``metric``, the (1,1)-form of G (``forms.hermitian_form``, exact
  products), one read-only Taylor array valid to the order;
- ``det``, det G, computed once;
- ``ricci``, the Chern-Ricci matrix P = -[d_a dbar_b log det G], a
  Wirtinger Hessian valid to order - 2 (``ricci_matrix``);
- ``scalar``, the Chern scalar s = tr(G^-1 P), a cofactor sum over G
  (``metric_trace``), valid to order - 2.

The Laplacian of s in the extremal equation is the same trace of the
Hessian of s; the Ricci form is read only at its value, and no jet-valued
Ricci form is built.  A frame's order is the validity order of G and its
metric.  Only the rank-one block differentiates anything, and only R, so
only the seeds, the base metric, its determinant h and R are built to
order + 1; u, v, f, g and the factor R^-1 e^{v+g} are built to the order.
A frame refuses, with :class:`ZeroSectionError`, a point so near the zero
section that R^-1 is not finite to its order.
Every frame on a chart reads the chart's shared ``forms.standard_context``.
``_frame`` keeps frames by the rule of ``jets.kept``, which keeps two
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
    closedness_residual,
    d_complex,
    del_dbar_at_point,
    form_power,
    hermitian_form,
    hermitian_wedge,
    identity_residual,
    mat_det,
    standard_context,
    svalue,
    volume_form_norm,
)
from .jets import Jet, Profile, jet_space, kept, seed_jets, wirtinger, wirtinger_hessian


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


def solve_profile_f(s_const: float, c: float, c0: float, n: int) -> Profile:
    """Closed-form profile with e^{(n+1)f} = (n+1) (s/n) e^c R + C0.

    Differentiating gives e^{(n+1)f - c} f' = s/n, the reduction of the
    balanced condition over a base of constant Chern scalar s and complex
    dimension n: d(omega^n) = n [f' e^{nf} - (s/n) e^{c-f}] dR ^ omega_B^n,
    from rho_B ^ omega_B^{n-1} = (s/n) omega_B^n.  The returned profile is
    self-certifying through :func:`profile_ode_residual`, and raises
    DomainError at an R where the argument of its log is not positive.
    """
    k = (n + 1) * (s_const / n) * math.exp(c)

    def fn(R):
        arg = R * k + c0
        if svalue(arg).real <= 0.0:
            raise DomainError("profile argument must stay positive on the sampled range")
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
    """Conformal data (u, v on the base; f, g of the fiber norm).

    On the constant-length branch v = -n u and g = -n f + c are enforced
    at construction, which is exactly the condition for the holomorphic
    volume form to have constant norm.
    """

    u_fn: object
    v_fn: object
    f_profile: Profile
    g_profile: Profile

    @staticmethod
    def constant_length(base: BaseKahlerModel, u_fn=None, f_profile: Profile | None = None, c: float = 0.0):
        n = base.n
        u = u_fn or (lambda zjets: zjets[0] * 0.0)
        f = f_profile or Profile.linear(0.0)
        return CalabiParams(
            u_fn=u,
            v_fn=lambda zjets: u(zjets) * (-float(n)),
            f_profile=f,
            g_profile=Profile(lambda R: f(R) * (-float(n)) + c),
        )

    @staticmethod
    def plain():
        """u = v = f = g = 0: the metric omega_0 induced from the base."""
        zero = Profile.linear(0.0)
        return CalabiParams(lambda zjets: zjets[0] * 0.0, lambda zjets: zjets[0] * 0.0, zero, zero)


class CanonicalBundleFrame:
    """Jets of the ansatz data at a point of the total-space chart, with a Gram matrix valid to ``order``.

    The Gram matrix, its (1,1)-form (the metric) and determinant, the
    Chern-Ricci matrix and the Chern scalar are cached properties, so every
    operator reading the frame pays for each once; G is built first, as
    jets, and the metric is read-only (``FormValue``); do not mutate the
    jets of the others.  The rank-one block of G is R_a R_bbar, so the
    seeds, ``hmat``, ``h`` and ``R`` are valid to order + 1; nothing
    differentiates u, v, f or g, so they are built from the base jets and R
    read to order.  G, the metric and det G are valid to order, the Ricci
    matrix and the scalar to order - 2: the extremal equation (the Hessian
    of the Laplacian of s, read at the point) needs order 6, the Chern
    scalar 2, d(omega^n) 1 and the volume norm 0.  ZeroSectionError where
    R^-1 is not finite to the order: R(0) = 0, or |R(0)|^-(order + 1)
    overflows.
    """

    def __init__(self, base: BaseKahlerModel, params: CalabiParams, p: ChartPoint, order: int):
        if p.chart != base.total_chart:
            raise ValueError(f"point lives on {p.chart.name!r}, expected {base.total_chart.name!r}")
        self.base = base
        self.chart = base.total_chart
        self.order = order
        self.jets = seed_jets(p.coords, order + 1)
        self.zjets = self.jets[: 2 * base.n]
        self.t = self.jets[2 * base.n] + 1j * self.jets[2 * base.n + 1]
        self.hmat = base.metric(self.zjets)
        self.h = mat_det(self.hmat)
        self.R = self.t * self.t.conjugate() / self.h
        try:  # the Taylor factors of R^-1 to the order are R(0)^-(j+1), j <= order
            abs(svalue(self.R)) ** -(order + 1)
        except (ZeroDivisionError, OverflowError):
            raise ZeroSectionError(f"R = {svalue(self.R).real:.3g} is too near the zero section for R^-1 to order {order}") from None
        self.ctx = standard_context(self.chart)
        # nothing differentiates u, v, f or g: they are valid to order
        zjets = [x.to_order(order) for x in self.zjets]
        self.u = params.u_fn(zjets)
        self.v = params.v_fn(zjets)
        R = self.R.to_order(order)
        self.f = params.f_profile(R)
        self.g = params.g_profile(R)

    @cached_property
    def metric(self) -> FormValue:
        """e^{u+f} omega_B + i e^{v+g} del R ^ dbar R / R, the (1,1)-form of ``gram``, valid to the frame's order."""
        return hermitian_form(self.chart, self.gram)

    @cached_property
    def gram(self) -> list:
        """G = e^{u+f} diag(h, 0) + (e^{v+g} / R) [R_a R_bbar], as jets valid to the frame's order.

        R_a = dR/dz_a and R_bbar = dR/dzbar_b are read from R, seeded one
        order higher; R is read to the frame's order in the factor
        c = R^-1 e^{v+g}, formed once, and the base block h before its
        product.  The rank-one block takes m products for c R_a and m^2 for
        the entries, the base block n^2.
        """
        top = self.order
        c = self.R.to_order(top).reciprocal() * (self.v + self.g).exp()
        pairs = _complex_pairs(self.chart)
        c_del = [c * wirtinger(self.R, re, im, bar=False) for re, im in pairs]
        dbar = [wirtinger(self.R, re, im, bar=True) for re, im in pairs]
        G = [[a * b for b in dbar] for a in c_del]
        scale = (self.u + self.f).exp()
        for j, row in enumerate(self.hmat):
            for k, h in enumerate(row):
                G[j][k] = scale * h.to_order(top) + G[j][k]
        return G

    @cached_property
    def det(self):
        """det [g_{a bbar}], as a jet."""
        return mat_det(self.gram)

    @cached_property
    def ricci(self) -> list:
        """The Chern-Ricci matrix P of the metric (``ricci_matrix``), valid to order - 2."""
        return ricci_matrix(self.det, self.chart)

    @cached_property
    def scalar(self):
        """The Chern scalar s = tr(G^-1 P), as a jet valid to order - 2."""
        return metric_trace(self.gram, self.det, self.ricci)

    def volume_form(self) -> FormValue:
        out = d_complex(self.chart, 0)
        for j in range(1, self.chart.ncomplex):
            out = out.wedge(d_complex(self.chart, j))
        return out


def _frame(base: BaseKahlerModel, params: CalabiParams, p: ChartPoint, order: int) -> CanonicalBundleFrame:
    """A frame of order >= ``order`` at the point, shared by the operators (``jets.kept``)."""
    return kept((CanonicalBundleFrame, base, params, p), order, lambda: CanonicalBundleFrame(base, params, p, order))


def omega0_d_residual(base: BaseKahlerModel, p: ChartPoint) -> float:
    """Relative sup of d(omega_0) for the undeformed induced metric."""
    return closedness_residual(_frame(base, CalabiParams.plain(), p, 1).metric)


# ---------------------------------------------------------------------------
# Chern scalar curvature


def _complex_pairs(chart: Chart) -> tuple:
    return tuple((2 * j, 2 * j + 1) for j in range(chart.ncomplex))


def ricci_matrix(det: Jet, chart: Chart) -> list:
    """P = -[d_a dbar_b log det G] over the chart's complex coordinates: rho = i P_{a bbar} dz^a ^ dzbar^b.

    The Chern-Ricci form rho = -i del dbar log det G of a metric with Gram
    determinant ``det``, as the Wirtinger Hessian (``jets.wirtinger_hessian``)
    of -log det G; its entries are jets valid to ``det.order - 2``.
    """
    return wirtinger_hessian(det.log() * -1.0, _complex_pairs(chart))


def metric_trace(gram: list, det, A: list):
    """tr(G^-1 A) for a Gram matrix G with determinant ``det`` and a matrix A of jets.

    This is m (i A ^ omega^{m-1}) / omega^m for omega = i G_{a bbar} dz^a ^
    dzbar^b and the (1,1)-form of A.  By cofactors, it is sum_a det(G with
    column a taken from A) / det G, the derivative of det(G + tA) at t = 0
    over det G, so no inverse and no form is built.  G and det G are read
    to the lowest order of A's jets, and entries of G may be plain numbers.
    Raises DomainError unless det G has a positive real part (NaN
    included), so a Gram matrix that is not positive yields no trace.
    """
    if not svalue(det).real > 0.0:
        raise DomainError(f"Gram determinant {svalue(det):.3g} is not positive: the form is not a metric here")
    order = min(e.order for row in A for e in row if isinstance(e, Jet))
    G = [[e.to_order(order) if isinstance(e, Jet) else e for e in row] for row in gram]
    m = len(G)
    num = None
    for a in range(m):
        term = mat_det([[A[i][b] if b == a else G[i][b] for b in range(m)] for i in range(m)])
        num = term if num is None else num + term
    return num / det.to_order(order)


def chern_scalar(base: BaseKahlerModel, params: CalabiParams, p: ChartPoint) -> float:
    """Chern scalar of the total-space ansatz metric."""
    fr = _frame(base, params, p, 2)
    return svalue(fr.scalar).real


def base_chern_scalar(base: BaseKahlerModel, z_point) -> float:
    """Chern scalar of the base metric on the base chart."""
    hmat = base.metric(seed_jets(z_point, 2))
    det = mat_det(hmat)
    return svalue(metric_trace(hmat, det, ricci_matrix(det, base.chart))).real


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
    return closedness_residual(form_power(fr.metric.to_order(1), base.n))


def extremal_residual_of(omega: FormValue, gram: list, det, ricci: list, s, ctx: TypeContext) -> float:
    """Euler-Lagrange residual 2(n-1) i del dbar s ^ rho - i del dbar((2 Lap s + s^2) omega).

    Takes the metric omega, its Gram matrix G and det G, its Chern-Ricci
    matrix P (``ricci_matrix``) and its Chern scalar s (a jet, as
    ``metric_trace`` returns it).  Only values at the point are compared:
    s must be valid to order >= 4, since its Hessian H_s =
    [d_a dbar_b s] gives Lap s = tr(G^-1 H_s) (``metric_trace``), which the
    outer del dbar differentiates twice; omega is read to order 2, and P
    and H_s at their values.
    """
    m = omega.chart.ncomplex
    hess_s = wirtinger_hessian(s, _complex_pairs(omega.chart))
    lap_s = metric_trace(gram, det, hess_s)
    values = [[[svalue(e) for e in row] for row in M] for M in (hess_s, ricci)]
    lhs = hermitian_wedge(omega.chart, *values).scale(2.0 * (m - 1))
    s2 = s.to_order(2)
    rhs = del_dbar_at_point(ctx, omega.to_order(2).scale(lap_s * 2.0 + s2 * s2)).scale(1j)
    return identity_residual(lhs, rhs)


def extremal_residual(base: BaseKahlerModel, params: CalabiParams, p: ChartPoint) -> float:
    fr = _frame(base, params, p, 6)
    return extremal_residual_of(fr.metric, fr.gram, fr.det, fr.ricci, fr.scalar, fr.ctx)


def theorem_metric_params(base: BaseKahlerModel, c: float = 0.0, c0: float = 1.0) -> CalabiParams:
    """Constant-length parameters with f solving the balanced reduction.

    The base must have constant Chern scalar; the scalar is sampled at the
    chart origin and trusted to the constancy checks elsewhere.
    """
    s0 = base_chern_scalar(base, (0.0,) * (2 * base.n))
    f = solve_profile_f(s0, c, c0, base.n)
    return CalabiParams.constant_length(base, f_profile=f, c=c)
