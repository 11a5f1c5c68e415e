"""Hyperkahler 4-manifold models: flat R^4 and the Eguchi-Hanson space.

A model is data (:class:`HyperkahlerModel`): its Kahler potential on the
holomorphic chart where the (2,0)-form is dz1 wedge dz2, exact to any jet
order through the AD tower; the chart of its twistor space; its domain
check; and the fact ``flat``, which promises the constant Hessian 1/2 and
the global holomorphic coordinates w1, w2 on the twistor space.  A new
base is one model class and its constructor.

The hyperkahler condition pins the complex Monge-Ampere determinant of
the potential to 1/4, which is the certification oracle: a candidate
potential is only trusted once :func:`det_residual` vanishes on a sample.

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
    TypeContext,
    acs_from_complex_action,
    curvature_residual,
    d_complex,
    gram_curvature,
    hermitian_form,
    mat_inv,
    standard_acs,
    svalue,
)
from .jets import Jet, seed_jets, wirtinger

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
        t = sum(x * x for x in coords)
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


def kappa_hermitian_jets(model: HyperkahlerModel, xjets, offset_pair: int = 0):
    """[kappa_{i jbar}] with jet entries; exact constants on a flat model.

    ``offset_pair`` gives the complex-coordinate offset of z1 inside the jet
    variables (2 on twistor charts, 0 on the bare 4-manifold chart).
    """
    if model.flat:
        space = xjets[0].space
        order = xjets[0].order
        half = Jet.constant(space, 0.5, order)
        zero = Jet.constant(space, 0.0, order)
        return [[half, zero], [zero, half]]
    k = model.kappa(xjets[2 * offset_pair : 2 * offset_pair + 4])
    out = []
    for i in range(2):
        row = []
        di = wirtinger(k, 2 * (offset_pair + i), 2 * (offset_pair + i) + 1, bar=False)
        for j in range(2):
            row.append(wirtinger(di, 2 * (offset_pair + j), 2 * (offset_pair + j) + 1, bar=True))
        out.append(row)
    return out


def kappa_third_jets(model: HyperkahlerModel, xjets, offset_pair: int = 0):
    """kappa_{i jbar kbar} indexed [i][j][k]; vanishes identically on flat."""
    k = model.kappa(xjets[2 * offset_pair : 2 * offset_pair + 4])
    out = []
    for i in range(2):
        di = wirtinger(k, 2 * (offset_pair + i), 2 * (offset_pair + i) + 1, bar=False)
        plane = []
        for j in range(2):
            dij = wirtinger(di, 2 * (offset_pair + j), 2 * (offset_pair + j) + 1, bar=True)
            plane.append(
                [
                    wirtinger(dij, 2 * (offset_pair + l), 2 * (offset_pair + l) + 1, bar=True)
                    for l in range(2)
                ]
            )
        out.append(plane)
    return out


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


def triple_forms(chart: Chart, kh, offset_pair: int) -> HyperkahlerTriple:
    """(omega_I, omega_J, omega_K) on ``chart``.

    omega_I = i ddbar kappa from the potential Hessian ``kh``, as returned
    by :func:`kappa_hermitian_jets` with the same ``offset_pair`` (jet
    coefficients) or its values (pointwise ones); omega_J + i omega_K =
    dz1 wedge dz2.
    """
    omega_I = hermitian_form(chart, kh, offset_pair)
    holo2 = d_complex(chart, offset_pair).wedge(d_complex(chart, offset_pair + 1))
    omega_J = (holo2 + holo2.conj()).scale(0.5)
    omega_K = (holo2 - holo2.conj()).scale(-0.5j)
    return HyperkahlerTriple(omega_I, omega_J, omega_K)


# ---------------------------------------------------------------------------
# quaternionic action on 1-forms


def quaternion_complex_action(which: str, kh):
    """Action of I, J or K on [dz1, dz2, dzbar1, dzbar2]; columns are images."""
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
    if which == "K":
        return [
            [z, z, 2j * k12, -2j * k11],
            [z, z, 2j * k22, -2j * k21],
            [-2j * k21, 2j * k11, z, z],
            [-2j * k22, 2j * k12, z, z],
        ]
    raise ValueError(f"unknown quaternion label {which!r}")


def quaternion_operator(kh, which: str, chart: Chart, offset_pair: int = 0) -> AlmostComplexStructure:
    """I, J or K as an operator on 1-forms of ``chart``, from the potential Hessian ``kh``.

    ``kh`` is :func:`kappa_hermitian_jets` with the same ``offset_pair``.
    On a six-coordinate chart the fiber directions are annihilated, so the
    result is the quaternionic action on the 4-manifold factor only (no
    square -identity there).
    """
    action4 = quaternion_complex_action(which, kh)
    m = chart.ncomplex
    n = chart.dim
    action = [[0.0 + 0.0j for _ in range(n)] for _ in range(n)]
    # complex basis ordering: [dz_0..dz_{m-1}, dzbar_0..dzbar_{m-1}]
    slots = [offset_pair, offset_pair + 1, m + offset_pair, m + offset_pair + 1]
    for r in range(4):
        for c in range(4):
            action[slots[r]][slots[c]] = action4[r][c]
    return acs_from_complex_action(chart, action)


# ---------------------------------------------------------------------------
# certification residuals


def det_residual(model: HyperkahlerModel, p: ChartPoint) -> float:
    """|kappa_{1 1bar} kappa_{2 2bar} - kappa_{1 2bar} kappa_{2 1bar} - 1/4|."""
    model.check_domain(p.coords)
    xjets = seed_jets(p.coords, 2)
    kh = kappa_hermitian_jets(model, xjets)
    det = kh[0][0] * kh[1][1] - kh[0][1] * kh[1][0]
    return abs(svalue(det) - MONGE_AMPERE_TARGET)


def cotangent_gram(model: HyperkahlerModel, xjets):
    """Gram <dz_i, dz_j> of the holomorphic coframe under the omega_I metric."""
    return _dz_gram(kappa_hermitian_jets(model, xjets))


def _dz_gram(kh):
    """<dz_i, dz_j> = (kappa^-1)_{ji}: the Gram is the transpose of the inverse Hessian ``kh``."""
    inv = mat_inv(kh)
    return [[inv[j][i] for j in range(2)] for i in range(2)]


def asd_residual(model: HyperkahlerModel, p: ChartPoint, gram=None) -> float:
    """Anti-self-duality of the Chern curvature of the cotangent bundle.

    Returns the sup over the coefficients of F wedge omega_{I,J,K} and of
    the (2,0)/(0,2) parts of F, relative to the size of the entering terms.
    A perturbed, non-hyperkahler Gram can be passed to probe failure.
    """
    model.check_domain(p.coords)
    xjets = seed_jets(p.coords, 4)
    ctx = TypeContext(standard_acs(model.chart))
    kh = kappa_hermitian_jets(model, xjets)
    # the certificate reads the triple at the point only
    triple = triple_forms(model.chart, [[svalue(e) for e in row] for row in kh], 0)
    if gram is None:
        gram = _dz_gram(kh)
    F = gram_curvature(gram, ctx)
    return curvature_residual(F, [triple.omega_I, triple.omega_J, triple.omega_K], ctx)
