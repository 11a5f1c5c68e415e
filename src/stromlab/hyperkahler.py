"""Hyperkahler 4-manifold models: flat R^4 and the Eguchi-Hanson space.

A model is data (:class:`HyperkahlerModel`): its Kahler potential on the
holomorphic chart where the (2,0)-form is dz1 wedge dz2, exact to any jet
order through the AD tower; the chart of its twistor space; its domain
check; and the fact ``flat``, which promises the constant Hessian 1/2 and
the global holomorphic coordinates w1, w2 on the twistor space.  A new
base is one model class and its constructor.

The data read from the potential is computed once each: the Hessian
kappa_{i jbar} (:func:`kappa_hermitian_jets`), its dbar derivatives
kappa_{i jbar kbar}, the triple (omega_I, omega_J, omega_K) and the action
of alpha I + beta J + gamma K on 1-forms (:func:`quaternion_action`), which
gives both I, J, K and the twistor structure.  On every chart z1 and z2
are the last two complex coordinates, and the four real coordinates of the
base are read from ``Chart.pairs`` (:func:`_base_coords`).

The hyperkahler condition pins the complex Monge-Ampere determinant of
the potential to 1/4, which is the certification oracle: a candidate
potential is only trusted once :func:`det_residual` vanishes on a sample.
It and :func:`asd_residual` read one kept Hessian per base point, valid
to order 2.

The Eguchi-Hanson model lives on the punctured double cover C^2 minus the
origin; the Z_2 quotient and the zero section are never represented, so
all identities here are local ones.  Points with |x| < 0.05a raise
:class:`DomainError`: closer to the origin the exact potential fails its
own gates in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .forms import (
    AlmostComplexStructure,
    Chart,
    ChartPoint,
    DomainError,
    FormValue,
    acs_from_complex_action,
    curvature_residual,
    d_complex,
    gram_curvature,
    hermitian_form,
    mat_det,
    mat_inv,
    standard_context,
    svalue,
)
from .jets import Jet, kept, seed_jets, wirtinger, wirtinger_hessian

FLAT_CHART = Chart("flat_r4", ("x1", "x2", "x3", "x4"), ("z1", "z2"))
EH_CHART = Chart("eguchi_hanson_cover", ("x1", "x2", "x3", "x4"), ("z1", "z2"))
TWISTOR_FLAT = Chart("twistor_flat", ("zr", "zi", "x1", "x2", "x3", "x4"), ("zeta", "z1", "z2"))
TWISTOR_EH = Chart("twistor_eguchi_hanson", ("zr", "zi", "x1", "x2", "x3", "x4"), ("zeta", "z1", "z2"))

MONGE_AMPERE_TARGET = 0.25


class HyperkahlerModel:
    """A hyperkahler 4-manifold: its potential, its charts, its domain and whether it is flat.

    ``kappa(xjets)`` is the Kahler potential as a jet of the four real
    coordinate jets of ``chart``; ``twistor_chart`` is the chart of the
    twistor space, the sphere coordinate first; ``check_domain(coords)``
    raises :class:`DomainError` at base points where the potential is not
    trusted.  ``flat`` promises that the Hessian kappa_{i jbar} is the
    constant 1/2 delta_ij and that the twistor space has the global
    holomorphic coordinates w1, w2.

    Each model is a frozen dataclass subclass whose fields are its
    parameters, so two models built from equal arguments compare and hash
    equal; the caches of the curvature operators key on them.
    """

    chart: Chart
    twistor_chart: Chart
    flat = False

    def kappa(self, xjets) -> Jet:
        raise NotImplementedError

    def check_domain(self, coords) -> None:
        """Raise DomainError where the potential is not trusted; no-op unless overridden."""


def _radius2(xjets):
    """rho = |x|^2 = x1^2 + x2^2 + x3^2 + x4^2, for jets or numbers."""
    return xjets[0] * xjets[0] + xjets[1] * xjets[1] + xjets[2] * xjets[2] + xjets[3] * xjets[3]


@dataclass(frozen=True)
class FlatR4(HyperkahlerModel):
    """R^4 = C^2 with kappa = |z|^2 / 2."""

    chart = FLAT_CHART
    twistor_chart = TWISTOR_FLAT
    flat = True

    def kappa(self, xjets) -> Jet:
        return _radius2(xjets) * 0.5


@dataclass(frozen=True)
class EguchiHanson(HyperkahlerModel):
    """The Eguchi-Hanson metric with resolution parameter ``a``, on the punctured double cover."""

    a: float
    chart = EH_CHART
    twistor_chart = TWISTOR_EH

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("Eguchi-Hanson scale must be positive")

    def kappa(self, xjets) -> Jet:
        t = _radius2(xjets)
        a2 = self.a * self.a
        a4 = a2 * a2
        s = (t * t + a4).sqrt()
        return (s - a2 * ((a2 + s) / t).log()) * 0.5

    def check_domain(self, coords) -> None:
        # Near the origin the exact potential loses its own gates before
        # it is singular, and the loss scales with a: at (r, r, -r, r)/2
        # with |x| = 0.01a, det_residual reads 9.3e-10 and asd_residual
        # 4.7e-7 for a = 0.5, 1 and 2 (gates 1e-9 and 1e-8); at
        # (0.01, 0, 0, 0) with a = 1 they read 2.8e-9 and 2.0e-7, and at
        # |x| = 1e-5 det reads 2.4e3.  At |x| = 0.05a they read 1.6e-11
        # and 4.5e-10, so the domain stops there.
        t = _radius2(coords)
        if t < (0.05 * self.a) ** 2:
            raise DomainError(
                f"|x| = {math.sqrt(t):.3g} < 0.05 a: the Eguchi-Hanson potential loses its gates near the origin"
            )


def flat_model() -> HyperkahlerModel:
    return FlatR4()


def eguchi_hanson(a: float = 1.0) -> HyperkahlerModel:
    return EguchiHanson(a)


# ---------------------------------------------------------------------------
# jets of the potential


def _base_coords(chart: Chart, values) -> list:
    """x1..x4 of ``values``, one per real coordinate of ``chart``: the pairs of z1 and z2, its last two complex coordinates."""
    return [values[i] for pair in chart.pairs[-2:] for i in pair]


def kappa_hermitian_jets(model: HyperkahlerModel, chart: Chart, xjets):
    """[kappa_{i jbar}] from ``xjets``, the coordinate jets of ``chart``, valid two orders below them; exact constants on a flat model.

    z1 and z2 are the last two pairs of ``chart``, a base or a twistor
    chart, which the potential and the Wirtinger derivatives read.  On other
    models the potential is evaluated once and
    :func:`jets.wirtinger_hessian` takes all four entries in two gathers.
    """
    if model.flat:
        half, zero = (Jet.constant(xjets[0].space, c, xjets[0].order) for c in (0.5, 0.0))
        return [[half, zero], [zero, half]]
    return wirtinger_hessian(model.kappa(_base_coords(chart, xjets)), chart.pairs[-2:])


def kappa_third_jets(chart: Chart, kh):
    """kappa_{i jbar kbar} indexed [i][j][k]: the dbar_k derivatives of the Hessian ``kh``.

    ``kh`` is :func:`kappa_hermitian_jets` on ``chart``, whose last two
    pairs are z1 and z2; on a flat model it is constant, so every entry is
    exactly 0.  These are the coefficients of the dbar-system of
    ``twistor.frame_decompose``, which states the system and, accepting
    flat models only, checks it with them at 0.
    """
    return [[[wirtinger(kij, re, im, bar=True) for re, im in chart.pairs[-2:]] for kij in row] for row in kh]


# ---------------------------------------------------------------------------
# the Kahler triple


@dataclass(frozen=True)
class HyperkahlerTriple:
    omega_I: FormValue
    omega_J: FormValue
    omega_K: FormValue

    def combination(self, alpha, beta, gamma) -> FormValue:
        return (
            self.omega_I.scale(alpha)
            + self.omega_J.scale(beta)
            + self.omega_K.scale(gamma)
        )


def triple_forms(chart: Chart, kh) -> HyperkahlerTriple:
    """(omega_I, omega_J, omega_K) on ``chart``, whose last two complex coordinates are z1, z2.

    omega_I = i ddbar kappa from the potential Hessian ``kh``, as returned
    by :func:`kappa_hermitian_jets` (jet coefficients) or its values
    (pointwise ones); omega_J + i omega_K = dz1 wedge dz2.
    """
    z1 = chart.ncomplex - 2
    omega_I = hermitian_form(chart, kh, z1)
    holo2 = d_complex(chart, z1).wedge(d_complex(chart, z1 + 1))
    omega_J = (holo2 + holo2.conj()).scale(0.5)
    omega_K = (holo2 - holo2.conj()).scale(-0.5j)
    return HyperkahlerTriple(omega_I, omega_J, omega_K)


# ---------------------------------------------------------------------------
# quaternionic action on 1-forms


def quaternion_action(kh, alpha, beta, gamma, chart: Chart):
    """alpha I + beta J + gamma K on the complex basis [dz..., dzbar...] of ``chart``; columns are images.

    z1, z2 are the last two complex coordinates of ``chart`` and ``kh`` is
    the potential Hessian there (:func:`kappa_hermitian_jets`); every other
    basis form is annihilated.  The coefficients may be jets: the twistor
    structure passes the sphere point (alpha, beta, gamma) of zeta.
    """
    m = chart.ncomplex
    a, b = m - 2, m - 1
    ab, bb = a + m, b + m
    ia = 1j * alpha
    bp = -2.0 * (beta + 1j * gamma)
    bm = -2.0 * (beta - 1j * gamma)
    k11, k12 = kh[0][0], kh[0][1]
    k21, k22 = kh[1][0], kh[1][1]
    action = [[0.0 + 0.0j] * (2 * m) for _ in range(2 * m)]
    action[a][a] = action[b][b] = ia
    action[a][ab], action[a][bb] = bm * k12, -bm * k11
    action[b][ab], action[b][bb] = bm * k22, -bm * k21
    action[ab][a], action[ab][b] = bp * k21, -bp * k11
    action[bb][a], action[bb][b] = bp * k22, -bp * k12
    action[ab][ab] = action[bb][bb] = -ia
    return action


_UNITS = {"I": (1, 0, 0), "J": (0, 1, 0), "K": (0, 0, 1)}


def quaternion_operator(kh, which: str, chart: Chart) -> AlmostComplexStructure:
    """I, J or K as an operator on 1-forms of ``chart``, from the potential Hessian ``kh``.

    On a six-coordinate chart the fiber directions are annihilated, so the
    result is the quaternionic action on the 4-manifold factor only (no
    square -identity there).
    """
    if which not in _UNITS:
        raise ValueError(f"unknown quaternion label {which!r}")
    return acs_from_complex_action(chart, quaternion_action(kh, *_UNITS[which], chart))


# ---------------------------------------------------------------------------
# certification residuals


def det_residual(model: HyperkahlerModel, p: ChartPoint) -> float:
    """|det [kappa_{i jbar}] - 1/4| (``forms.mat_det``), from the values of the point's Hessian.

    The Hessian is the order-2 one that :func:`asd_residual` reads at the
    same point (see :func:`_base_geometry`), read to order 0: its values do
    not depend on the order it is built to, and order-0 jet products round
    as the products of a higher-order jet do at the point.
    """
    model.check_domain(_base_coords(model.chart, p.coords))
    return abs(svalue(mat_det([[e.to_order(0) for e in row] for row in _base_geometry(model, p)[0]])) - MONGE_AMPERE_TARGET)


def cotangent_gram(model: HyperkahlerModel, xjets):
    """Gram <dz_i, dz_j> of the holomorphic coframe under the omega_I metric."""
    return _dz_gram(kappa_hermitian_jets(model, model.chart, xjets))


def _dz_gram(kh):
    """<dz_i, dz_j> = (kappa^-1)_{ji}: the Gram is the transpose of the inverse Hessian ``kh``."""
    inv = mat_inv(kh)
    return [[inv[j][i] for j in range(2)] for i in range(2)]


def asd_residual(model: HyperkahlerModel, p: ChartPoint, gram=None) -> float:
    """Anti-self-duality of the Chern curvature of the cotangent bundle.

    Returns the sup over the coefficients of F wedge omega_{I,J,K} and of
    the (2,0)/(0,2) parts of F, relative to the size of the entering terms.
    A perturbed, non-hyperkahler Gram can be passed to probe failure; either
    way the Hessian and the triple are the point's kept ones
    (:func:`_base_geometry`), and the type context the chart's shared one.
    """
    model.check_domain(_base_coords(model.chart, p.coords))
    kh, triple = _base_geometry(model, p)
    if gram is None:
        gram = _dz_gram(kh)
    ctx = standard_context(model.chart)
    F = gram_curvature(gram, ctx)
    return curvature_residual(F, [triple.omega_I, triple.omega_J, triple.omega_K], ctx)


def _base_geometry(model: HyperkahlerModel, p: ChartPoint):
    """The Hessian of the potential at a base point and its triple at the point (``jets.kept``).

    Seeded at order 4, the Hessian is valid to order 2 (4 on flat, where it
    is constant).  ``asd_residual`` (plain and perturbed) and
    ``det_residual`` read them, so a point pays for one Hessian.
    """

    def build():
        kh = kappa_hermitian_jets(model, model.chart, seed_jets(p.coords, 4))
        # the certificate reads the triple at the point only
        return kh, triple_forms(model.chart, [[svalue(e) for e in row] for row in kh])

    return kept((_base_geometry, model, p), 2, build)
