import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from stromlab.forms import (
    FormValue,
    d_complex,
    d_complex_bar,
    nan_max,
    point,
    standard_acs,
    svalue,
)
from stromlab.hyperkahler import (
    EH_CHART,
    FLAT_CHART,
    TWISTOR_EH,
    DomainError,
    asd_residual,
    cotangent_gram,
    det_residual,
    eguchi_hanson,
    flat_model,
    kappa_hermitian_jets,
    kappa_third_jets,
    quaternion_action,
    quaternion_operator,
    triple_forms,
)
from stromlab.jets import Jet, seed_jets, wirtinger
from stromlab.twistor import TwistorFrame

from coframe_oracle import coframe_gram
from form_oracles import exterior_derivative, project, quaternion_table, terms_of


def sample_points(chart, n, seed, lo=-1.4, hi=1.4, min_r2=0.4):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        coords = tuple(rng.uniform(lo, hi) for _ in range(4))
        if sum(x * x for x in coords) >= min_r2:
            pts.append(point(chart, *coords))
    return pts


FLAT = flat_model()
EH = eguchi_hanson(1.0)


def triple_values(model, p):
    t = triple_forms(model.chart, kappa_hermitian_jets(model, model.chart, seed_jets(p.coords, 2)))
    return t.omega_I.values(), t.omega_J.values(), t.omega_K.values()


def quaternion_at(model, p):
    """I, J and K on the 1-forms of the 4-manifold chart, at the point's values."""
    kh = kappa_hermitian_jets(model, model.chart, seed_jets(p.coords, 2))
    return {which: quaternion_operator(kh, which, model.chart) for which in "IJK"}


# -- potential jets ----------------------------------------------------------


def test_flat_kappa_jet_values():
    # through the AD tower of the potential, which the flat Hessian shortcut skips
    p = point(FLAT_CHART, 0.3, -0.7, 1.1, 0.4)
    kappa = FLAT.kappa(seed_jets(p.coords, 3))

    def d(jet, i, bar):
        return wirtinger(jet, 2 * (i - 1), 2 * i - 1, bar=bar)

    k1 = d(kappa, 1, False)
    assert d(k1, 1, True).value == pytest.approx(0.5)
    assert d(d(kappa, 2, False), 2, True).value == pytest.approx(0.5)
    assert d(k1, 2, True).value == pytest.approx(0.0, abs=1e-15)
    assert d(d(k1, 1, False), 1, True).value == pytest.approx(0.0, abs=1e-15)
    # the third derivatives come from the constant flat Hessian, so they are exactly 0
    third = kappa_third_jets(FLAT_CHART, kappa_hermitian_jets(FLAT, FLAT_CHART, seed_jets(p.coords, 3)))
    assert all(not k.c.any() for plane in third for row in plane for k in row)


def third_wirtinger_derivatives(model, xjets):
    """kappa_{i jbar kbar} as three Wirtinger derivatives of the potential of the last four of ``xjets``."""
    base = len(xjets) - 4
    k = model.kappa(xjets[base:])

    def d(jet, i, bar):
        return wirtinger(jet, base + 2 * i, base + 2 * i + 1, bar=bar)

    return [[[d(d(d(k, i, False), j, True), l, True) for l in range(2)] for j in range(2)] for i in range(2)]


def test_kappa_third_jets_are_the_third_derivatives_of_the_potential():
    # the Hessian route against kappa differentiated three times, on the base
    # chart and on a twistor frame, whose Hessian is seeded two orders above
    # its coordinate jets
    cases = []
    for p in sample_points(EH_CHART, 3, seed=71):
        xj = seed_jets(p.coords, 4)
        cases.append((EH_CHART, kappa_hermitian_jets(EH, EH_CHART, xj), xj))
    tp = point(TWISTOR_EH, 0.5, 0.3, 0.6, -0.2, 0.8, 0.5)
    fr = TwistorFrame(EH, tp, 3)
    cases += [(fr.chart, fr.kh, fr.jets), (fr.chart, fr.kh, seed_jets(tp.coords, 5))]
    for chart, kh, xj in cases:
        third = kappa_third_jets(chart, kh)
        oracle = third_wirtinger_derivatives(EH, xj)
        n = kh[0][0].space.prefix_sizes[min(third[0][0][0].order, oracle[0][0][0].order)]
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    assert np.array_equal(third[i][j][l].c[:n], oracle[i][j][l].c[:n])
            np.testing.assert_allclose(third[i][0][1].c[:n], third[i][1][0].c[:n], rtol=1e-13, atol=1e-16)


def test_flat_determinant_exact():
    p = point(FLAT_CHART, 0.9, 0.1, -0.5, 0.3)
    assert det_residual(FLAT, p) < 1e-15


def eh_radial_derivatives(t: float, a: float) -> list:
    """kappa and d^k kappa/dt^k, k <= 4, for the Eguchi-Hanson profile.

    Closed forms used as an independent oracle against the AD tower.
    """
    a2, a4 = a * a, a ** 4
    s = math.sqrt(t * t + a4)
    kappa = 0.5 * (s - a2 * math.log((a2 + s) / t))
    k1 = s / (2 * t)
    k2 = -a4 / (2 * t * t * s)
    k3 = a4 * (2 * s * s + t * t) / (2 * t ** 3 * s ** 3)
    k4 = -a4 * 0.5 * (6 / (t ** 4 * s) + 3 / (t ** 2 * s ** 3) + 3 / s ** 5)
    return [kappa, k1, k2, k3, k4]


def test_eh_radial_profile_matches_ad_tower():
    # closed-form t-derivatives vs the jet of the potential in a single variable
    from stromlab.jets import Jet, jet_space

    t0, a = 1.7, 1.0
    space = jet_space(1, 4)
    t = Jet.variable(space, 0, t0)
    a2 = a * a
    s = (t * t + a2 * a2).sqrt()
    kappa = (s - a2 * ((a2 + s) / t).log()) * 0.5
    oracle = eh_radial_derivatives(t0, a)
    for k in range(5):
        assert kappa.partial((k,)) == pytest.approx(oracle[k], rel=1e-12)


def test_eh_mixed_partials_chain_rule_oracle():
    # kappa_{i jbar} = kappa' delta_ij + kappa'' zbar_i z_j
    p = point(EH_CHART, 0.6, -0.2, 0.8, 0.5)
    z = [p.complex_coord(0), p.complex_coord(1)]
    t = sum(abs(w) ** 2 for w in z)
    _, k1, k2, _, _ = eh_radial_derivatives(t, 1.0)
    kh = kappa_hermitian_jets(EH, EH_CHART, seed_jets(p.coords, 2))
    for i in (1, 2):
        for j in (1, 2):
            expected = k1 * (i == j) + k2 * z[i - 1].conjugate() * z[j - 1]
            assert kh[i - 1][j - 1].value == pytest.approx(expected, rel=1e-10)


@functools.cache
def symbolic_eh_kappa_series(order):
    """(t, a, [kappa^(j)(t) / j! for j = 0..order]) of the Eguchi-Hanson potential in sympy."""
    import sympy

    t, a = sympy.symbols("t a", positive=True)
    kappa = (sympy.sqrt(t**2 + a**4) - a**2 * sympy.log((a**2 + sympy.sqrt(t**2 + a**4)) / t)) / 2
    return t, a, [sympy.diff(kappa, t, j) / sympy.factorial(j) for j in range(order + 1)]


def symbolic_eh_kappa_taylor(a, base, order):
    """Taylor coefficients at ``base`` of the Eguchi-Hanson potential, from sympy, keyed by exponent tuples.

    kappa(t) = (sqrt(t^2 + a^4) - a^2 log((a^2 + sqrt(t^2 + a^4)) / t)) / 2 is
    expanded in one variable, k_j = kappa^(j)(t0) / j! by sympy to 30
    digits, and composed with the exact polynomial t(x) = t0 + 2 base.y +
    |y|^2 of the offset y: the coefficient of y^m is sum_j k_j [y^m] (t - t0)^j.
    ``a`` and ``base`` must be exact binary fractions, so the rationals
    below are the floats the jets see.
    """
    import mpmath
    import sympy

    t, a_, series = symbolic_eh_kappa_series(order)
    ys = sympy.symbols("y0:4")
    xs = [sympy.Rational(Fraction(x)) for x in base]
    t0 = sum(x * x for x in xs)
    step = sympy.Poly(sum(2 * x * y + y * y for x, y in zip(xs, ys)), *ys)
    out = {}
    with mpmath.workdps(30):
        power = sympy.Poly(1, *ys)
        for k in series:
            k_j = mpmath.mpf(str(sympy.N(k.subs({t: t0, a_: sympy.Rational(Fraction(a))}), 35)))
            for expo, c in power.terms():
                if sum(expo) <= order:
                    out[expo] = out.get(expo, mpmath.mpf(0)) + k_j * mpmath.mpf(c.p) / c.q
            power = power * step
    return {expo: float(v) for expo, v in out.items()}


@pytest.mark.parametrize("a, base", [(1.0, (0.75, -0.5, 0.625, 0.375)), (0.5, (-0.25, 0.875, 0.125, -0.5)), (2.0, (1.5, 0.25, -1.25, 0.75))])
def test_eh_kappa_taylor_coefficients_match_sympy(a, base):
    # every coefficient to order 4, against a route that shares nothing with Jet._compose
    want = symbolic_eh_kappa_taylor(a, base, 4)
    jet = eguchi_hanson(a).kappa(seed_jets(base, 4))
    space = jet.space
    assert len(want) == space.size == 70
    for expo, w in want.items():
        got = complex(jet.c[space.index[expo]])
        assert abs(got - w) <= 1e-12 * abs(w), (expo, got, w)


def test_eh_determinant_certification():
    pts = sample_points(EH_CHART, 1000, seed=17)
    assert nan_max(det_residual(EH, p) for p in pts) <= 1e-9


def test_eh_domain_error_at_origin():
    with pytest.raises(DomainError):
        det_residual(EH, point(EH_CHART, 0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_eh_gates_hold_at_the_domain_edge(a):
    r = 0.05 * a
    p = point(EH_CHART, r / 2, r / 2, -r / 2, r / 2)
    model = eguchi_hanson(a)
    assert det_residual(model, p) <= 1e-9
    assert asd_residual(model, p) <= 1e-8


def test_perturbed_potential_fails_certification():
    # flat kappa + 0.1 |z1|^4 violates the determinant identity at |z1| = 1
    bad = point(FLAT_CHART, 1.0, 0.0, 0.2, 0.1)
    xj = seed_jets(bad.coords, 2)
    z1sq = xj[0] * xj[0] + xj[1] * xj[1]
    t = z1sq + xj[2] * xj[2] + xj[3] * xj[3]
    kappa = t * 0.5 + 0.1 * z1sq * z1sq
    from stromlab.jets import wirtinger

    kh = [
        [
            svalue(wirtinger(wirtinger(kappa, 2 * i, 2 * i + 1, bar=False), 2 * j, 2 * j + 1, bar=True))
            for j in range(2)
        ]
        for i in range(2)
    ]
    det = kh[0][0] * kh[1][1] - kh[0][1] * kh[1][0]
    assert abs(det - 0.25) >= 0.01


# -- the triple --------------------------------------------------------------


def test_flat_triple_closed_forms():
    p = point(FLAT_CHART, 0.4, 0.8, -0.3, 0.6)
    omega_I, omega_J, omega_K = triple_values(FLAT, p)
    dz1, dz2 = d_complex(FLAT_CHART, 0), d_complex(FLAT_CHART, 1)
    dzb1, dzb2 = d_complex_bar(FLAT_CHART, 0), d_complex_bar(FLAT_CHART, 1)
    expected_I = (dz1.wedge(dzb1) + dz2.wedge(dzb2)).scale(0.5j)
    assert (omega_I - expected_I).sup() < 1e-14
    holo = dz1.wedge(dz2)
    assert (omega_J + omega_K.scale(1j) - holo).sup() < 1e-14


@pytest.mark.parametrize("model,chart", [(FLAT, FLAT_CHART), (EH, EH_CHART)])
def test_triple_orthogonality_and_volume(model, chart):
    for p in sample_points(chart, 5, seed=23):
        omega_I, omega_J, omega_K = triple_values(model, p)
        assert omega_J.wedge(omega_K).sup() < 1e-12
        assert omega_I.wedge(omega_J).sup() < 1e-12
        assert omega_I.wedge(omega_K).sup() < 1e-12
        vol2_I = omega_I.wedge(omega_I)
        vol2_J = omega_J.wedge(omega_J)
        vol2_K = omega_K.wedge(omega_K)
        assert (vol2_I - vol2_J).sup() < 1e-9
        assert (vol2_I - vol2_K).sup() < 1e-9


@pytest.mark.parametrize("model,chart", [(FLAT, FLAT_CHART), (EH, EH_CHART)])
def test_triple_is_closed(model, chart):
    for p in sample_points(chart, 4, seed=31):
        t = triple_forms(chart, kappa_hermitian_jets(model, model.chart, seed_jets(p.coords, 3)))
        for omega in (t.omega_I, t.omega_J, t.omega_K):
            assert exterior_derivative(omega).values().sup() <= 1e-10


def test_two_zero_form_is_dbar_closed_type_20():
    # omega_J + i omega_K = dz1 ^ dz2 exactly, hence (2,0) and closed
    from stromlab.forms import TypeContext, standard_acs

    for p in sample_points(EH_CHART, 3, seed=5):
        t = triple_forms(EH_CHART, kappa_hermitian_jets(EH, EH_CHART, seed_jets(p.coords, 3)))
        form = t.omega_J + t.omega_K.scale(1j)
        ctx = TypeContext(standard_acs(EH_CHART))
        parts = ctx.decompose(form.values())
        for key, part in parts.items():
            if key != (2, 0):
                assert part.sup() < 1e-12
        dbar = project(ctx, exterior_derivative(form), 2, 1)
        assert dbar.values().sup() < 1e-12


# -- quaternionic action -----------------------------------------------------


def test_flat_action_table_cases():
    q = quaternion_at(FLAT, point(FLAT_CHART, 0.2, -0.4, 0.9, 0.3))
    dz1, dz2 = d_complex(FLAT_CHART, 0), d_complex(FLAT_CHART, 1)
    dzb1, dzb2 = d_complex_bar(FLAT_CHART, 0), d_complex_bar(FLAT_CHART, 1)
    assert (q["J"].apply(dz1) + dzb2).sup() < 1e-14
    assert (q["K"].apply(dz2) - dzb1.scale(1j)).sup() < 1e-14
    assert (q["I"].apply(dz1) - dz1.scale(1j)).sup() < 1e-14


@pytest.mark.parametrize("model,chart", [(FLAT, FLAT_CHART), (EH, EH_CHART)])
def test_quaternion_action_at_the_unit_vectors_is_the_written_out_table(model, chart):
    p = point(chart, 0.6, -0.2, 0.8, 0.5)
    kh = kappa_hermitian_jets(model, model.chart, seed_jets(p.coords, 2))
    space = kh[0][0].space

    def coefficients(entry):
        return entry.c if isinstance(entry, Jet) else Jet.constant(space, entry).c

    for which, unit in (("I", (1, 0, 0)), ("J", (0, 1, 0)), ("K", (0, 0, 1))):
        for got_row, want_row in zip(quaternion_action(kh, *unit, chart), quaternion_table(which, kh), strict=True):
            for got, want in zip(got_row, want_row, strict=True):
                assert np.array_equal(coefficients(got), coefficients(want))
    with pytest.raises(ValueError):
        quaternion_operator(kh, "L", chart)


@pytest.mark.parametrize("model,chart", [(FLAT, FLAT_CHART), (EH, EH_CHART)])
def test_quaternion_relations(model, chart):
    rng = random.Random(2)
    for p in sample_points(chart, 3, seed=41):
        q = quaternion_at(model, p)
        eta = FormValue.of_terms(chart, 1, {(v,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for v in range(4)})
        for which in "IJK":
            twice = q[which].apply(q[which].apply(eta))
            assert (twice + eta).sup() < 1e-10
        # K(J(I eta)) = -eta realizes IJK = -id on vectors
        out = q["K"].apply(q["J"].apply(q["I"].apply(eta)))
        assert (out + eta).sup() < 1e-10
        # pairwise anticommutation
        ij = q["J"].apply(q["I"].apply(eta))
        ji = q["I"].apply(q["J"].apply(eta))
        assert (ij + ji).sup() < 1e-10


# -- anti-self-duality -------------------------------------------------------


def test_flat_curvature_vanishes():
    p = point(FLAT_CHART, 0.7, 0.2, -0.6, 0.9)
    assert asd_residual(FLAT, p) < 1e-13


def test_eh_asd_residual():
    for p in sample_points(EH_CHART, 6, seed=57):
        assert asd_residual(EH, p) <= 1e-8


@pytest.mark.parametrize("model,chart", [(FLAT, FLAT_CHART), (EH, EH_CHART)])
def test_triple_of_the_hessian_values_is_the_value_of_the_jet_triple(model, chart):
    # asd_residual builds the triple from the values of the Hessian; it must equal the jet triple's values bit for bit
    for p in sample_points(chart, 4, seed=59):
        kh = kappa_hermitian_jets(model, model.chart, seed_jets(p.coords, 4))
        pointwise = triple_forms(chart, [[svalue(e) for e in row] for row in kh])
        jet_valued = triple_forms(chart, kh)
        for name in ("omega_I", "omega_J", "omega_K"):
            assert terms_of(getattr(pointwise, name)) == terms_of(getattr(jet_valued, name).values())


@pytest.mark.parametrize("model,chart", [(FLAT, FLAT_CHART), (EH, EH_CHART)])
def test_cotangent_gram_matches_the_generic_coframe_gram(model, chart):
    # the closed form (kappa^-1)^T against the inverse of the real 4x4
    # metric of omega_I, every jet coefficient up to the Gram's order
    dz = [d_complex(chart, 0), d_complex(chart, 1)]
    for p in sample_points(chart, 3, seed=61):
        xj = seed_jets(p.coords, 4)
        omega_I = triple_forms(chart, kappa_hermitian_jets(model, chart, xj)).omega_I
        oracle = coframe_gram(omega_I, standard_acs(chart), dz)
        gram = cotangent_gram(model, xj)
        scale = max(max(abs(c) for c in e.c) for row in oracle for e in row)
        for g_row, o_row in zip(gram, oracle):
            for g, o in zip(g_row, o_row):
                assert o.order >= g.order >= 2
                valid = g.space.degrees <= g.order
                assert max(abs(g.c - o.c)[valid]) <= 1e-14 * scale


def test_perturbed_gram_breaks_asd():
    p = point(EH_CHART, 0.8, -0.1, 0.6, 0.4)
    xj = seed_jets(p.coords, 4)
    gram = cotangent_gram(EH, xj)
    bump = (xj[0] * xj[0] + xj[1] * xj[1]) * (xj[2] * xj[2] + xj[3] * xj[3])
    gram[0][0] = gram[0][0] + bump * 0.5
    assert asd_residual(EH, p, gram=gram) > 1e-3
