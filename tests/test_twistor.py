import math
import random

import numpy as np
import pytest

from stromlab.forms import (
    DomainError,
    FormValue,
    d_complex,
    d_complex_bar,
    form_power,
    mat_inv,
    nan_max,
    point,
    svalue,
    top_ratio,
)
from stromlab.hyperkahler import eguchi_hanson, flat_model
from stromlab import jets
from stromlab.jets import seed_jets
from stromlab.sampling import random_ansatz_params, sample_points
from stromlab.twistor import (
    C3_CHART,
    TWISTOR_FLAT,
    AnsatzMetric,
    AnsatzParams,
    TwistorFrame,
    c3_chart_map,
    frame_decompose,
    omega_norm,
    sphere_jets,
    frame_coefficients,
    theta_coframe_jets,
    w_field_jets,
)

from coframe_oracle import coframe_gram
from form_oracles import evaluate, exterior_derivative, project, square_residual, to_complex_components

FLAT = flat_model()
EH = eguchi_hanson(1.0)


def twistor_points(model, n, seed, min_zeta=0.25):
    def accept(c):
        return c[0] ** 2 + c[1] ** 2 >= min_zeta**2 and sum(x * x for x in c[2:]) >= 0.35

    return sample_points(model.twistor_chart, seed, 0, n, -1.3, 1.3, accept)


# -- sphere map ---------------------------------------------------------------


def sphere_values(zeta):
    """(alpha, beta, gamma) at zeta, from the jets the twistor frame uses."""
    zr, zi = seed_jets((zeta.real, zeta.imag), 0)
    return tuple(svalue(x).real for x in sphere_jets(zr, zi)[:3])


def test_sphere_map_anchors():
    assert sphere_values(0j) == pytest.approx((1.0, 0.0, 0.0))
    assert sphere_values(1.0 + 0.0j) == pytest.approx((0.0, 1.0, 0.0))
    assert sphere_values(1j) == pytest.approx((0.0, 0.0, 1.0))


def test_sphere_map_unit_norm_bulk():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(10000):
        zeta = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        alpha, beta, gamma = sphere_values(zeta)
        worst = max(worst, abs(alpha**2 + beta**2 + gamma**2 - 1.0))
    assert worst <= 1e-14


# -- the twistor almost complex structure -------------------------------------


def test_acs_squares_to_minus_identity():
    for model in (FLAT, EH):
        for p in twistor_points(model, 4, seed=3):
            assert square_residual(TwistorFrame(model, p, 2).ctx.acs) <= 1e-12


def test_acs_at_zeta_zero_restricts_to_I():
    p = point(TWISTOR_FLAT, 0.0, 0.0, 0.7, -0.2, 0.4, 0.9)
    acs = TwistorFrame(FLAT, p, 2).ctx.acs
    dz1 = d_complex(TWISTOR_FLAT, 1)
    dz2 = d_complex(TWISTOR_FLAT, 2)
    assert (acs.apply(dz1) - dz1.scale(1j)).sup() <= 1e-14
    assert (acs.apply(dz2) - dz2.scale(1j)).sup() <= 1e-14


def test_acs_dzeta_eigenform():
    p = point(TWISTOR_FLAT, 0.4, -0.8, 0.3, 0.2, -0.5, 0.7)
    acs = TwistorFrame(FLAT, p, 2).ctx.acs
    dzeta = d_complex(TWISTOR_FLAT, 0)
    assert (acs.apply(dzeta) - dzeta.scale(1j)).sup() <= 1e-14


def test_acs_flat_beta_one_table_row():
    # at zeta = 1 the structure acts as J: du1 -> -du2_bar
    p = point(TWISTOR_FLAT, 1.0, 0.0, 0.3, -0.6, 0.8, 0.1)
    acs = TwistorFrame(FLAT, p, 2).ctx.acs
    du1 = d_complex(TWISTOR_FLAT, 1)
    dub2 = d_complex_bar(TWISTOR_FLAT, 2)
    assert (acs.apply(du1) + dub2).sup() <= 1e-14


def test_integrability_no_offtype_residue():
    rng = random.Random(21)
    for p in twistor_points(FLAT, 3, seed=8):
        fr = TwistorFrame(FLAT, p, 3)
        # random polynomial scalar and 1-form fields
        f = fr.jets[0] * 0.0
        for v in range(6):
            f = f + rng.uniform(-1, 1) * fr.jets[v] * fr.jets[(v + 1) % 6]
        form = FormValue.of_terms(fr.chart, 1, {(v,): f * rng.uniform(-1, 1) for v in range(6)})
        d = exterior_derivative(form)
        del_plus_dbar = FormValue.zero(fr.chart, 2)
        offs = []
        for (i, j), part in fr.ctx.decompose(form).items():
            for key, piece in fr.ctx.decompose(exterior_derivative(part)).items():
                if key in ((i + 1, j), (i, j + 1)):
                    del_plus_dbar = del_plus_dbar + piece
                else:
                    offs.append(piece.sup())
        scale = max(1.0, d.values().sup())
        assert nan_max(offs) <= 1e-10 * scale
        assert (del_plus_dbar.values() - d.values()).sup() <= 1e-10 * scale


# -- holomorphic volume form ---------------------------------------------------


def test_volume_at_zeta_zero_flat():
    p = point(TWISTOR_FLAT, 0.0, 0.0, 0.5, -0.3, 0.8, 0.2)
    vol = TwistorFrame(FLAT, p, 2).volume_3form().values()
    expected = (
        d_complex(TWISTOR_FLAT, 1)
        .wedge(d_complex(TWISTOR_FLAT, 2))
        .wedge(d_complex(TWISTOR_FLAT, 0))
    )
    assert (vol - expected).sup() <= 1e-14


def test_volume_is_3_0_and_closed():
    for model in (FLAT, EH):
        for p in twistor_points(model, 3, seed=13):
            fr = TwistorFrame(model, p, 3)
            omega = fr.volume_3form()
            parts = fr.ctx.decompose(omega.values())
            scale = max(1.0, omega.values().sup())
            for key, part in parts.items():
                if key != (3, 0):
                    assert part.sup() <= 1e-10 * scale
            assert exterior_derivative(omega).values().sup() <= 1e-10 * scale


# -- ansatz metric --------------------------------------------------------------


def test_ansatz_simplest_case_closed_form():
    p = point(TWISTOR_FLAT, 0.0, 0.0, 0.4, 0.1, -0.7, 0.3)
    fr = TwistorFrame(FLAT, p, 2)
    omega = AnsatzMetric(fr, AnsatzParams.constants()).metric.values()
    expected = fr.triple.omega_I.values() + d_complex(TWISTOR_FLAT, 0).wedge(
        d_complex_bar(TWISTOR_FLAT, 0)
    ).scale(2j)
    assert (omega - expected).sup() <= 1e-14


def test_ansatz_squared_closed_form():
    # omega^2 = 2 e^{4h+2g}/s^4 vol_N + 2 e^{2h+3g}/s^2 (fiber form)^(round form)
    for k in range(20):
        params = random_ansatz_params(seed=7, pair_index=k)
        p = twistor_points(FLAT, 1, seed=100 + k)[0]
        fr = TwistorFrame(FLAT, p, 2)
        ansatz = AnsatzMetric(fr, params)
        omega = ansatz.metric.values()
        lhs = omega.wedge(omega)
        s, g, h = fr.s, ansatz.g, ansatz.h
        vol = fr.triple.omega_I.wedge(fr.triple.omega_I).scale(0.5)
        t1 = vol.scale((4.0 * h + 2.0 * g).exp() * (s**4).reciprocal() * 2.0)
        t2 = (
            fr.fiber_form()
            .wedge(fr.fubini_study())
            .scale((2.0 * h + 3.0 * g).exp() * (s * s).reciprocal() * 2.0)
        )
        rhs = (t1 + t2).values()
        assert (lhs - rhs).sup() <= 1e-10 * max(1.0, lhs.sup())


def test_ansatz_is_1_1_for_random_profiles():
    for k in range(5):
        params = random_ansatz_params(seed=19, pair_index=k)
        p = twistor_points(FLAT, 1, seed=300 + k)[0]
        fr = TwistorFrame(FLAT, p, 2)
        omega = AnsatzMetric(fr, params).metric.values()
        parts = fr.ctx.decompose(omega)
        scale = max(1.0, omega.sup())
        assert parts.get((0, 2), FormValue.zero(fr.chart, 2)).sup() <= 1e-10 * scale
        assert parts.get((2, 0), FormValue.zero(fr.chart, 2)).sup() <= 1e-10 * scale


@pytest.mark.parametrize("model", [FLAT, EH])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_frame_quantities_are_valid_to_the_frame_order(model, order):
    p = twistor_points(model, 1, seed=29)[0]
    fr = TwistorFrame(model, p, order)
    ansatz = AnsatzMetric(fr, random_ansatz_params(seed=37, pair_index=1))
    held = [*fr.jets, fr.zeta, fr.alpha, fr.beta, fr.gamma, fr.s, ansatz.g, ansatz.h, *fr.kh[0], *fr.kh[1]]
    assert {jet.order for jet in held} == {order}
    # the Hessian of a frame is the prefix of the Hessian of a higher-order frame
    top = TwistorFrame(model, p, order + 1)
    for row, top_row in zip(fr.kh, top.kh):
        for e, t in zip(row, top_row):
            n = e.space.prefix_sizes[order]
            assert np.array_equal(e.c[:n], t.c[:n])


def test_ansatz_positivity():
    rng = random.Random(5)
    for p in twistor_points(EH, 3, seed=23):
        params = random_ansatz_params(seed=31, pair_index=1)
        fr = TwistorFrame(EH, p, 2)
        omega = AnsatzMetric(fr, params).metric.values()
        acs = fr.ctx.acs
        for _ in range(10):
            v = [rng.uniform(-1, 1) for _ in range(6)]
            # vector action is the transpose of the 1-form action
            jv = [
                sum(complex(acs.coeffs[0, u, w]) * v[u] for u in range(6)).real for w in range(6)
            ]
            val = evaluate(omega, v, jv)
            assert val.real > 0.0
            assert abs(val.imag) <= 1e-12 * abs(val.real)


# -- the volume-form norm -------------------------------------------------------


def test_norm_ratio_profile():
    # |Omega| e^{2h+2g} / s^4 is the same at any two points, over flat R^4 and Eguchi-Hanson
    params = random_ansatz_params(seed=47, pair_index=2)
    for model, count in ((FLAT, 2), (EH, 3)):
        vals = []
        for p in twistor_points(model, count, seed=53):
            ansatz = AnsatzMetric(TwistorFrame(model, p, 2), params)
            norm = omega_norm(model, params, p)
            ratio = norm * math.exp(2.0 * svalue(ansatz.h).real + 2.0 * svalue(ansatz.g).real)
            ratio /= svalue(ansatz.fr.s).real ** 4
            vals.append(ratio)
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-9)


def test_norm_constant_on_branch():
    params = AnsatzParams.constant_norm_branch()
    norms = [omega_norm(FLAT, params, p) for p in twistor_points(FLAT, 4, seed=61)]
    for n in norms[1:]:
        assert n == pytest.approx(norms[0], rel=1e-10)


def test_ansatz_constructors_give_equal_params_for_equal_arguments():
    # the point memo keys on params, so equal arguments, however spelled, must give an equal key
    spellings = [AnsatzParams.coupling_solution(), AnsatzParams.coupling_solution(2.0), AnsatzParams.coupling_solution(alpha_prime=2.0)]
    for params in spellings[1:]:
        assert params == spellings[0] and hash(params) == hash(spellings[0])
    for build in (
        lambda: AnsatzParams.coupling_solution(radial_h=True),
        AnsatzParams.constants,
        AnsatzParams.constant_norm_branch,
    ):
        assert build() == build() and hash(build()) == hash(build())
    assert AnsatzParams.constants(0.5, 0.25) == AnsatzParams.constants(h=0.25, g=0.5)
    assert AnsatzParams.coupling_solution() != AnsatzParams.coupling_solution(radial_h=True)


def test_random_ansatz_params_compare_and_hash_by_value():
    first, second = random_ansatz_params(3, 5), random_ansatz_params(3, 5)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != random_ansatz_params(3, 6)


def test_every_random_cubic_pair_shares_two_polynomial_plans():
    # the plans are keyed by exponent tuples, not coefficients: one for the cubic in (zr, zi), one for h
    jets._polynomial_plan.cache_clear()
    for order in (1, 4):
        xs = seed_jets((0.4, -0.3, 0.8, -1.1, 0.2, 0.6), order)
        for i in range(64):
            params = random_ansatz_params(11, i)
            params.g_fn(*xs[:2])
            params.h_fn(*xs[2:])
    assert jets._polynomial_plan.cache_info().currsize == 2


def test_norm_rejects_a_metric_that_is_not_positive():
    p = twistor_points(FLAT, 1, seed=67)[0]
    omega = AnsatzMetric(TwistorFrame(FLAT, p, 2), AnsatzParams.constants()).metric.values()
    assert top_ratio(form_power(omega, 3), form_power(omega, 3)) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        top_ratio(form_power(omega, 3), form_power(omega.scale(-1.0), 3))


def test_norm_scaling_homogeneity():
    # omega -> 4 omega divides the norm by 8
    base = AnsatzParams.constants()
    scaled = AnsatzParams.constants(g=math.log(2.0), h=0.5 * math.log(2.0))
    p = twistor_points(FLAT, 1, seed=67)[0]
    n0 = omega_norm(FLAT, base, p)
    n1 = omega_norm(FLAT, scaled, p)
    assert n1 == pytest.approx(n0 / 8.0, rel=1e-12)


# -- the explicit chart map ------------------------------------------------------


def test_chart_map_round_trip():
    rng = random.Random(71)
    for _ in range(25):
        p = point(C3_CHART, *(rng.uniform(-2, 2) for _ in range(6)))
        q = c3_chart_map("to_twistor", p)
        back = c3_chart_map("to_c3", q)
        for a, b in zip(p.coords, back.coords):
            assert a == pytest.approx(b, abs=1e-14)


def test_chart_map_identity_at_zeta_zero():
    p = point(C3_CHART, 0.0, 0.0, 0.7, -0.4, 0.2, 0.9)
    q = c3_chart_map("to_twistor", p)
    assert q.coords[2:] == pytest.approx(p.coords[2:])


def test_w_differentials_are_holomorphic():
    # dw_i is (1,0) for the twistor structure and dbar-closed
    for p in twistor_points(FLAT, 3, seed=73):
        fr = TwistorFrame(FLAT, p, 3)
        w1, w2 = w_field_jets(fr)
        for w in (w1, w2):
            dw = exterior_derivative(FormValue.scalar(fr.chart, w))
            parts = fr.ctx.decompose(dw.values())
            scale = max(1.0, dw.values().sup())
            assert parts.get((0, 1), FormValue.zero(fr.chart, 1)).sup() <= 1e-10 * scale
            dbar_dw = project(fr.ctx, exterior_derivative(dw), 1, 1)
            assert dbar_dw.values().sup() <= 1e-10 * scale


def test_expression_of_fiber_form_in_w_coordinates():
    # alpha omega_I + beta omega_J + gamma omega_K
    #   = (i/2s)(dw1^dw1b + dw2^dw2b + rho dzeta^dzetab
    #            + i u2 dw1^dzetab - i u1 dw2^dzetab - i u2b dzeta^dw1b + i u1b dzeta^dw2b)
    for p in twistor_points(FLAT, 3, seed=79):
        fr = TwistorFrame(FLAT, p, 2)
        w1, w2 = w_field_jets(fr)
        dw1 = exterior_derivative(FormValue.scalar(fr.chart, w1)).values()
        dw2 = exterior_derivative(FormValue.scalar(fr.chart, w2)).values()
        dzeta = d_complex(fr.chart, 0)
        dzetab = d_complex_bar(fr.chart, 0)
        u1 = complex(p.coords[2], p.coords[3])
        u2 = complex(p.coords[4], p.coords[5])
        rho = abs(u1) ** 2 + abs(u2) ** 2
        s = svalue(fr.s).real
        rhs = (
            dw1.wedge(dw1.conj())
            + dw2.wedge(dw2.conj())
            + dzeta.wedge(dzetab).scale(rho)
            + dw1.wedge(dzetab).scale(1j * u2)
            - dw2.wedge(dzetab).scale(1j * u1)
            - dzeta.wedge(dw1.conj()).scale(1j * u2.conjugate())
            + dzeta.wedge(dw2.conj()).scale(1j * u1.conjugate())
        ).scale(1j / (2.0 * s))
        lhs = fr.fiber_form().values()
        assert (lhs - rhs).sup() <= 1e-12 * max(1.0, lhs.sup())


# -- theta coframe ----------------------------------------------------------------


def test_theta_flat_closed_form():
    p = point(TWISTOR_FLAT, 0.6, -0.2, 0.4, 0.8, -0.3, 0.5)
    zeta = complex(0.6, -0.2)
    t1, t2 = (t.values() for t in theta_coframe_jets(TwistorFrame(FLAT, p, 2)))
    expected1 = d_complex(TWISTOR_FLAT, 2).scale(1j / zeta) + d_complex_bar(TWISTOR_FLAT, 1)
    expected2 = d_complex(TWISTOR_FLAT, 1).scale(1j / zeta) - d_complex_bar(TWISTOR_FLAT, 2)
    assert (t1 - expected1).sup() <= 1e-14
    assert (t2 - expected2).sup() <= 1e-14


def test_theta_are_1_0_forms():
    for model in (FLAT, EH):
        for p in twistor_points(model, 3, seed=83):
            fr = TwistorFrame(model, p, 2)
            t1, t2 = theta_coframe_jets(fr)
            acs = fr.ctx.acs
            for t in (t1, t2):
                tv = t.values()
                jt = acs.apply(tv)
                assert (jt - tv.scale(1j)).sup() <= 1e-12


def test_theta_completes_coframe():
    for p in twistor_points(FLAT, 2, seed=89):
        t1, t2 = (t.values() for t in theta_coframe_jets(TwistorFrame(FLAT, p, 2)))
        dzeta = d_complex(TWISTOR_FLAT, 0)
        top = dzeta.wedge(t1).wedge(t2)
        assert top.sup() > 1e-3  # nondegenerate wherever zeta != 0


def test_del_theta1_matches_closed_form():
    # del theta_1 = -(1+alpha)/(2 zeta) dzeta ^ theta_1
    for p in twistor_points(FLAT, 3, seed=97):
        fr = TwistorFrame(FLAT, p, 3)
        t1, _ = theta_coframe_jets(fr)
        del_t1 = project(fr.ctx, exterior_derivative(t1), 2, 0)
        zeta = svalue(fr.zeta)
        alpha = svalue(fr.alpha)
        expected = fr.dzeta.wedge(t1.values()).scale(-(1.0 + alpha) / (2.0 * zeta))
        assert (del_t1.values() - expected).sup() <= 1e-9 * max(1.0, expected.sup())


# -- Gram identities ---------------------------------------------------------------


@pytest.mark.parametrize("model", [FLAT, EH])
def test_gram_identities(model):
    params = random_ansatz_params(seed=3, pair_index=4)
    for p in twistor_points(model, 2, seed=101):
        fr = TwistorFrame(model, p, 2)
        ansatz = AnsatzMetric(fr, params)
        t1, t2 = theta_coframe_jets(fr)
        omega = ansatz.metric.values()
        gram = coframe_gram(
            omega, fr.ctx.acs, [d_complex(fr.chart, 0), t1.values(), t2.values()]
        )
        s = svalue(fr.s).real
        e2g = math.exp(2.0 * svalue(ansatz.g).real)
        e2hg = math.exp(2.0 * svalue(ansatz.h).real + svalue(ansatz.g).real)
        zeta2 = abs(svalue(fr.zeta)) ** 2
        kh = [[svalue(e) for e in row] for row in fr.kh]
        kinv = [
            [svalue(e) for e in row]
            for row in mat_inv(kh)
        ]
        factor = s**3 / (zeta2 * e2hg)
        assert abs(svalue(gram[0][0]) - s * s / (2.0 * e2g)) <= 1e-10 * abs(svalue(gram[0][0]))
        assert abs(svalue(gram[0][1])) <= 1e-10 * abs(svalue(gram[0][0]))
        assert abs(svalue(gram[0][2])) <= 1e-10 * abs(svalue(gram[0][0]))
        scale = abs(factor)
        assert abs(svalue(gram[1][1]) - factor * kinv[0][0]) <= 1e-10 * scale
        assert abs(svalue(gram[1][2]) - (-factor * kinv[0][1])) <= 1e-10 * scale
        assert abs(svalue(gram[2][2]) - factor * kinv[1][1]) <= 1e-10 * scale


# -- frame decomposition -------------------------------------------------------------


def test_frame_decompose_closed_form():
    p = point(TWISTOR_FLAT, 0.5, 0.3, 0.2, -0.6, 0.9, 0.4)
    zeta = complex(0.5, 0.3)
    u1 = complex(0.2, -0.6)
    u2 = complex(0.9, 0.4)
    res = frame_decompose(FLAT, p)
    L, E = res.L, res.E
    assert L[0] == pytest.approx(1j * u2.conjugate(), abs=1e-12)
    assert L[1] == pytest.approx(-1j * u1.conjugate(), abs=1e-12)
    assert E[0][0] == pytest.approx(0.0, abs=1e-12)
    assert E[0][1] == pytest.approx(1j * zeta, abs=1e-12)
    assert E[1][0] == pytest.approx(-1j * zeta, abs=1e-12)
    assert E[1][1] == pytest.approx(0.0, abs=1e-12)
    assert res.reconstruction_residual <= 1e-12


def test_wirtinger_frame_coefficients_match_the_basis_change_of_dw():
    # L, C, D are the Wirtinger derivatives of w; T^-1 reads the same components off dw
    for p in twistor_points(FLAT, 3, seed=107):
        fr = TwistorFrame(FLAT, p, 3)
        L, C, D = frame_coefficients(fr)
        for i, w in enumerate(w_field_jets(fr)):
            comps = to_complex_components(exterior_derivative(FormValue.scalar(fr.chart, w)))
            for got, want in ((L[i], comps[0]), (C[i], comps[4]), (D[i], comps[5])):
                assert got.order == want.order == 2
                n = got.space.prefix_sizes[got.order]
                np.testing.assert_allclose(got.c[:n], want.c[:n], rtol=0.0, atol=1e-15)


def test_frame_decompose_raises_a_domain_error_at_the_determinant_cutoff():
    # det E = |zeta|^2 on flat; the decomposition refuses |zeta| < 1e-3
    with pytest.raises(DomainError):
        frame_decompose(FLAT, point(TWISTOR_FLAT, 1e-8, 0.0, 0.4, 0.8, -0.3, 0.5))


def test_frame_residuals_random_points():
    for p in twistor_points(FLAT, 5, seed=103):
        res = frame_decompose(FLAT, p)
        assert res.simp_residual <= 1e-9
        assert res.loc_residual <= 1e-9
        assert res.reconstruction_residual <= 1e-11


def test_alpha_prime_must_be_positive_by_name():
    # the paper's alpha' is a positive coupling constant; a negative one would scale the anomaly by a negative quarter
    for bad in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError, match="alpha' .* must be positive"):
            AnsatzParams.coupling_solution(bad)
        with pytest.raises(ValueError, match="alpha' .* must be positive"):
            AnsatzParams.constants(alpha_prime=bad)
    g, h = AnsatzParams.constants().g_fn, AnsatzParams.constants().h_fn
    with pytest.raises(ValueError, match="alpha' .* must be positive"):
        AnsatzParams(g, h, alpha_prime=-1.0)
    assert AnsatzParams(g, h, alpha_prime=0.5).alpha_prime == 0.5
