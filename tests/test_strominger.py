import gc
import math
import random
import weakref

import numpy as np
import pytest

from stromlab.calabi import (
    CalabiParams,
    CanonicalBundleFrame,
    Profile,
    extremal_residual,
    fubini_study_cp1,
    km_balanced_residual,
    theorem_metric_params,
)
from stromlab.forms import (
    ChartMismatch,
    DomainError,
    FormValue,
    TypeContext,
    _array_sup,
    _ranks,
    closedness_residual,
    curvature_residual,
    d_complex,
    del_dbar_at_point,
    gram_curvature,
    mat_inv,
    matrix_wedge_trace,
    nan_max,
    point,
    standard_acs,
    standard_context,
    svalue,
)
from stromlab.hyperkahler import EH_CHART, asd_residual, cotangent_gram, det_residual, eguchi_hanson, flat_model, quaternion_operator
from stromlab import hyperkahler, jets, strominger, twistor
from stromlab.jets import InsufficientJetOrder, Jet, jet_space, seed_jets
from stromlab.sampling import random_ansatz_params, sample_points
from stromlab.twistor import (
    C3_CHART,
    TWISTOR_EH,
    TWISTOR_FLAT,
    AnsatzMetric,
    AnsatzParams,
    TwistorFrame,
    frame_decompose,
    omega_norm,
    w_field_jets,
)
from stromlab.strominger import (
    AnsatzCurvatureData,
    _trace,
    anomaly_residual,
    balanced_residual,
    curvature_identities,
    hym_residual,
    radial_h_residual,
)

from form_oracles import (
    conjugation_residual,
    entry_forms,
    exterior_derivative,
    form_linear_combo,
    frame_gram,
    i_ddbar,
    mp_gram_curvature,
    mp_wedge_trace,
    project,
    stacked,
    terms_of,
)

FLAT = flat_model()
EH = eguchi_hanson(1.0)


def twistor_points(model, n, seed, min_zeta=0.3):
    def accept(c):
        return c[0] ** 2 + c[1] ** 2 >= min_zeta**2 and sum(x * x for x in c[2:]) >= 0.4

    return sample_points(model.twistor_chart, seed, 0, n, -1.2, 1.2, accept)


# -- conformally balanced ------------------------------------------------------


def test_balanced_flat_simplest():
    p = twistor_points(FLAT, 1, seed=1)[0]
    assert balanced_residual(FLAT, AnsatzParams.constants(), p) <= 1e-9


@pytest.mark.parametrize("model", [FLAT, EH])
def test_balanced_random_profiles(model, subtests=None):
    for k in range(6):
        params = random_ansatz_params(seed=5, pair_index=k)
        p = twistor_points(model, 1, seed=200 + k)[0]
        assert balanced_residual(model, params, p) <= 1e-8


def test_flat_balanced_order_one_frame_matches_order_three():
    # the flat kappa Hessian is constant, so the order-1 frame gives the same bits
    for k, p in enumerate(twistor_points(FLAT, 4, seed=61)):
        params = random_ansatz_params(seed=7, pair_index=k)
        ansatz = AnsatzMetric(TwistorFrame(FLAT, p, 3), params)
        omega = ansatz.metric
        assert balanced_residual(FLAT, params, p) == closedness_residual(omega.wedge(omega).scale(ansatz.norm_profile()))


def test_balanced_counterexample_without_sphere_factor():
    # dropping the 1/s^2 factor on the fiber part breaks the equation
    p = twistor_points(FLAT, 1, seed=9)[0]
    fr = TwistorFrame(FLAT, p, 3)
    ansatz = AnsatzMetric(fr, AnsatzParams.constants())
    broken = fr.fiber_form().scale((2.0 * ansatz.h + ansatz.g).exp()) + fr.fubini_study().scale(
        (2.0 * ansatz.g).exp()
    )
    assert closedness_residual(broken.wedge(broken).scale(ansatz.norm_profile())) >= 1e-3


# -- generic Chern curvature -----------------------------------------------------


def test_constant_gram_curvature_vanishes():
    p = point(C3_CHART, 0.4, -0.2, 0.7, 0.1, 0.3, 0.5)

    def h_field(pt, order):
        jets = seed_jets(pt.coords, order)
        one = jets[0] * 0.0 + 1.0
        return [
            [one * 2.0, one * (0.3 + 0.1j), one * 0.0],
            [one * (0.3 - 0.1j), one * 1.5, one * 0.0],
            [one * 0.0, one * 0.0, one * 1.0],
        ]

    R = gram_curvature(h_field(p, 2), TypeContext(standard_acs(C3_CHART)))
    assert R.shape == (3, 3, 15)
    assert _array_sup(R) <= 1e-14


def test_conformal_gram_trace():
    # H = e^{2 phi} Id_3 has tr R = 3 dbar del (2 phi)
    p = point(C3_CHART, 0.4, -0.2, 0.7, 0.1, 0.3, 0.5)

    def phi_of(jets):
        return jets[0] * jets[2] + 0.5 * jets[4] * jets[4] * jets[1] + jets[3]

    def h_field(pt, order):
        jets = seed_jets(pt.coords, order)
        e = (2.0 * phi_of(jets)).exp()
        zero = jets[0] * 0.0
        return [[e, zero, zero], [zero, e, zero], [zero, zero, e]]

    ctx = TypeContext(standard_acs(C3_CHART))
    R = gram_curvature(h_field(p, 3), ctx)
    jets = seed_jets(p.coords, 3)
    expected = del_dbar_at_point(ctx, FormValue.scalar(C3_CHART, 2.0 * phi_of(jets))).scale(-1.0)
    diff = (_trace(R, C3_CHART) - expected.scale(3.0)).sup()
    assert diff <= 1e-10 * max(1.0, expected.sup())
    # conformal shift against the constant-Gram baseline
    entries = entry_forms(R, C3_CHART)
    for i in range(3):
        for j in range(3):
            entry = entries[i][j]
            target = expected if i == j else FormValue.zero(C3_CHART, 2)
            assert (entry - target).sup() <= 1e-10 * max(1.0, expected.sup())


def test_trace_equals_ddbar_log_det():
    params = random_ansatz_params(seed=23, pair_index=0)
    p = twistor_points(FLAT, 1, seed=31)[0]
    data = AnsatzCurvatureData(FLAT, params, p)
    H = frame_gram(data)
    det = (
        H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
        - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
        + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0])
    )
    expected = del_dbar_at_point(data.fr.ctx, FormValue.scalar(data.fr.chart, det.conjugate().log())).scale(-1.0)
    tr = _trace(data.frame_curvature, data.fr.chart)
    assert (tr - expected).sup() <= 1e-10 * max(1.0, tr.sup())


def jet_path_curvature(H, ctx):
    """dbar(Hbar^-1 del Hbar) through jet projections on the type context (valid to order 1), then evaluated.

    Also returns the scale of the entering terms: the largest sup of the
    (1,1) part of one Leibniz term, d(Hbar^-1)_ik ^ del Hbar_kj or
    Hbar^-1_ik d(del Hbar_kj), at the point.
    """
    n = len(H)
    Hbar = [[e.conjugate() for e in row] for row in H]
    Hbar_inv = mat_inv(Hbar)
    del_Hbar = [[project(ctx, exterior_derivative(FormValue.scalar(ctx.chart, e)), 1, 0) for e in row] for row in Hbar]
    X = [
        [form_linear_combo([del_Hbar[k][j] for k in range(n)], [Hbar_inv[i][k] for k in range(n)]) for j in range(n)]
        for i in range(n)
    ]
    R = [[project(ctx, exterior_derivative(X[i][j]), 1, 1).values() for j in range(n)] for i in range(n)]
    terms = []
    for i in range(n):
        for k in range(n):
            d_inv = exterior_derivative(FormValue.scalar(ctx.chart, Hbar_inv[i][k])).values()
            for j in range(n):
                terms.append(project(ctx, d_inv.wedge(del_Hbar[k][j].values()), 1, 1))
                terms.append(project(ctx, exterior_derivative(del_Hbar[k][j]).values().scale(svalue(Hbar_inv[i][k])), 1, 1))
    return R, nan_max(t.sup() for t in terms)


def eh_cotangent_gram(p):
    return cotangent_gram(EH, seed_jets(p.coords, 4)), TypeContext(standard_acs(EH_CHART))


def test_pointwise_gram_curvature_matches_the_jet_path():
    # the frame Gram on the jet-valued twistor context and the Eguchi-Hanson
    # cotangent Gram on the constant context have curvatures of order 1
    cases = []
    for k, p in enumerate(twistor_points(FLAT, 2, seed=131)):
        data = AnsatzCurvatureData(FLAT, random_ansatz_params(seed=137, pair_index=k), p)
        cases.append((frame_gram(data), data.fr.ctx))
    cases += [eh_cotangent_gram(p) for p in sample_points(EH_CHART, 133, 0, 2, -1.5, 1.5)]
    for H, ctx in cases:
        want, _ = jet_path_curvature(H, ctx)
        got = gram_curvature(H, ctx)
        scale = nan_max(e.sup() for row in want for e in row)
        assert scale >= 0.01
        assert got.dtype == np.complex128
        for row_got, row_want in zip(entry_forms(got, ctx.chart), want):
            for g, w in zip(row_got, row_want):
                assert (g - w).sup() <= 1e-13 * scale


def test_quotient_gram_curvature_is_zero_on_flat_within_rounding():
    # F' vanishes on flat N: both paths read rounding only, so each is held
    # against the terms that cancel, not against the other
    for k, p in enumerate(twistor_points(FLAT, 2, seed=131)):
        data = AnsatzCurvatureData(FLAT, random_ansatz_params(seed=137, pair_index=k), p)
        want, entering = jet_path_curvature(data.U, data.fr.ctx)
        assert entering >= 0.01
        assert nan_max(e.sup() for row in want for e in row) <= 1e-14 * max(1.0, entering)
        assert _array_sup(gram_curvature(data.U, data.fr.ctx)) <= 1e-14 * max(1.0, entering)


def relative_error(pairs) -> float:
    """sup |got - want| over sup |want|, for pairs of a double and an mpmath coefficient."""
    pairs = [(complex(g), w) for g, w in pairs]
    return nan_max(float(abs(g - w)) for g, w in pairs) / nan_max(float(abs(w)) for _, w in pairs)


def test_gram_curvature_against_50_digits_at_the_domain_edges():
    # where Hbar is worst conditioned: the Eguchi-Hanson cutoff |x| = 0.05a
    # (|F| = 1200) and the radial-h cutoff at base radius 0.03 (|R| up to
    # 1e11, |tr R^R| 1.7e13); an explicit pointwise inverse of Hbar reads
    # 4e-7 on F at the first and fails the tr(R^R) check at the second
    r = 0.05
    cases = [eh_cotangent_gram(point(EH_CHART, r / 2, r / 2, -r / 2, r / 2))]
    params = AnsatzParams.coupling_solution(radial_h=True)
    for p in radial_points(0.03):
        data = AnsatzCurvatureData(FLAT, params, p)
        cases.append((frame_gram(data), data.fr.ctx))
    for k, (H, ctx) in enumerate(cases):
        want = mp_gram_curvature(H, ctx.acs)
        got = gram_curvature(H, ctx)
        rank = _ranks(ctx.chart.dim, 2)
        pairs = ((got[i, j, rank[ab]], c) for i, row in enumerate(want) for j, w in enumerate(row) for ab, c in w.items())
        assert relative_error(pairs) <= 1e-10
        if k:  # the anomaly reads tr(R^R) at the radial-h edge to within this rounding
            tr_RR = matrix_wedge_trace(got, got, ctx.chart)
            want_RR = mp_wedge_trace(want, ctx.chart.dim)
            assert relative_error((tr_RR.coefficient(K), c) for K, c in want_RR.items()) <= 1e-9


def poisoned_above(x, order):
    """x with every coefficient of degree > order set to NaN; the jet keeps its claimed order."""
    c = x.c.copy()
    c[x.space.prefix_sizes[order] :] = math.nan
    return Jet(x.space, c, x.order, x.mask)


def same_form(a, b) -> bool:
    return a.degree == b.degree and terms_of(a) == terms_of(b)


def test_gram_curvature_and_dbar_del_read_their_inputs_to_order_two():
    p = twistor_points(FLAT, 1, seed=141)[0]
    data = AnsatzCurvatureData(FLAT, random_ansatz_params(seed=143, pair_index=0), p)
    ctx = data.fr.ctx
    for H in (frame_gram(data), data.U):
        want = gram_curvature(H, ctx)
        got = gram_curvature([[poisoned_above(e, 2) for e in row] for row in H], ctx)
        assert np.array_equal(got, want)
        # the same poison one degree lower reaches the result
        seen = gram_curvature([[poisoned_above(e, 1) for e in row] for row in H], ctx)
        assert math.isnan(_array_sup(seen))
    f = data.B.log()
    assert f.order == 4
    del_dbar = lambda g: del_dbar_at_point(ctx, FormValue.scalar(ctx.chart, g))
    assert same_form(del_dbar(poisoned_above(f, 2)), del_dbar(f))
    assert math.isnan(del_dbar(poisoned_above(f, 1)).sup())


def test_readers_lowered_one_order_too_far_raise(monkeypatch):
    p = twistor_points(FLAT, 1, seed=145)[0]
    params = AnsatzParams.coupling_solution()
    data = AnsatzCurvatureData(FLAT, params, p)
    H, f, ctx = frame_gram(data), data.B.log(), data.fr.ctx
    to_order = Jet.to_order
    jets._KEPT.clear()
    with monkeypatch.context() as m:
        m.setattr(Jet, "to_order", lambda self, o: to_order(self, max(o - 1, 0)))
        with pytest.raises(InsufficientJetOrder):
            gram_curvature(H, ctx)
        with pytest.raises(InsufficientJetOrder):
            del_dbar_at_point(ctx, FormValue.scalar(ctx.chart, f.to_order(2)))
        with pytest.raises(InsufficientJetOrder):
            hym_residual(FLAT, params, p)
    jets._KEPT.clear()
    # the input of del dbar at the point, alone, read to order 1, one below
    # the order 2 it needs: the metric form for the anomaly, log A (the first
    # of the two logs) for the identities, and then, with the logs at their
    # order, the stacked Taylor coefficients of (A/B) W.  R and F' still get
    # their order, and each operator raises where del dbar reads its input
    del_dbar, del_dbar_stacked = strominger.del_dbar_at_point, strominger.del_dbar_of_taylor
    lowered = []

    def del_dbar_lowered(ctx, form):
        lowered.append(form.degree)
        return del_dbar(ctx, form.to_order(1))

    def del_dbar_stacked_lowered(ctx, space, coeffs, degree, order):
        lowered.append("stacked")
        return del_dbar_stacked(ctx, space, coeffs, degree, min(order, 1))

    for name, lowering, ops in (
        ("del_dbar_at_point", del_dbar_lowered, (anomaly_residual, curvature_identities)),
        ("del_dbar_of_taylor", del_dbar_stacked_lowered, (curvature_identities,)),
    ):
        with monkeypatch.context() as m:
            m.setattr(strominger, name, lowering)
            for op in ops:
                with pytest.raises(InsufficientJetOrder, match="coefficients to order 2; they are valid to order 1"):
                    op(FLAT, params, p)
    assert lowered == [2, 0, "stacked"]
    jets._KEPT.clear()


def test_curvature_data_is_memoised_per_object():
    p = twistor_points(FLAT, 1, seed=139)[0]
    data = AnsatzCurvatureData(FLAT, AnsatzParams.constants(), p)
    assert data.frame_curvature is data.frame_curvature
    assert data.quotient_curvature is data.quotient_curvature
    assert AnsatzCurvatureData(FLAT, AnsatzParams.constants(), p) is not data


def test_one_point_builds_the_quotient_and_frame_curvatures_once(monkeypatch):
    # HYM, the anomaly and the identities share the cached curvatures of one curvature data
    p, params = twistor_points(FLAT, 1, seed=187)[0], AnsatzParams.coupling_solution()
    sizes, build = [], strominger.gram_curvature
    monkeypatch.setattr(strominger, "gram_curvature", lambda H, ctx: sizes.append(len(H)) or build(H, ctx))
    jets._KEPT.clear()
    for op in (hym_residual, anomaly_residual, curvature_identities):
        op(FLAT, params, p)
    assert sizes == [2, 3]  # U, then the frame Gram


def test_params_named_per_operator_share_one_curvature_data(monkeypatch):
    # each operator names the coupling solution itself; equal params make them one
    # key, so the point builds U and the frame Gram once (5 gram_curvature calls and three
    # order-4 frames when every call made new, unequal params)
    p = twistor_points(FLAT, 1, seed=187)[0]
    sizes, build = [], strominger.gram_curvature
    monkeypatch.setattr(strominger, "gram_curvature", lambda H, ctx: sizes.append(len(H)) or build(H, ctx))
    orders, init = [], TwistorFrame.__init__

    def recording_init(self, *args):
        init(self, *args)
        orders.append(self.order)

    monkeypatch.setattr(TwistorFrame, "__init__", recording_init)
    jets._KEPT.clear()
    for op in (hym_residual, anomaly_residual, curvature_identities):
        op(FLAT, AnsatzParams.coupling_solution(), p)
    assert len(sizes) == 2
    assert orders == [4]


def kept_value(*key):
    """The value ``jets.kept`` holds under ``key``."""
    return jets._KEPT[key][-1]


def cold(fn, *args, **kwargs):
    """``fn`` on an empty ``jets.kept`` memo."""
    jets._KEPT.clear()
    return fn(*args, **kwargs)


def test_shared_curvature_data_gives_the_cold_cache_values():
    p = twistor_points(FLAT, 1, seed=149)[0]
    params = random_ansatz_params(seed=151, pair_index=0)
    ops = (hym_residual, anomaly_residual, curvature_identities)
    want = [cold(op, FLAT, params, p) for op in ops]
    jets._KEPT.clear()
    assert [op(FLAT, params, p) for op in ops] == want


def test_shared_curvature_data_tells_params_apart():
    p = twistor_points(FLAT, 1, seed=157)[0]
    first = AnsatzParams.coupling_solution(alpha_prime=2.0)
    second = AnsatzParams.constants(g=1.0)
    want_first = cold(anomaly_residual, FLAT, first, p)
    want_second = cold(anomaly_residual, FLAT, second, p)
    assert want_first <= 1e-8 < want_second
    assert anomaly_residual(FLAT, first, p) == want_first
    assert anomaly_residual(FLAT, second, p) == want_second
    assert anomaly_residual(FLAT, first, p) == want_first


def test_shared_curvature_data_survives_a_cleared_jet_space_cache():
    p = twistor_points(FLAT, 1, seed=163)[0]
    params = AnsatzParams.coupling_solution(alpha_prime=2.0)
    want = cold(curvature_identities, FLAT, params, p)
    hym_residual(FLAT, params, p)
    jet_space.cache_clear()
    assert curvature_identities(FLAT, params, p) == want
    data = kept_value(AnsatzCurvatureData, FLAT, params, p)
    assert data.fr.zr.space is jet_space(6, 4)
    assert kept_value(TwistorFrame, FLAT, p) is data.fr


def with_a_nan(F):
    """A copy of a stacked curvature on the twistor chart with a NaN on the dx4^dx5 coefficient of F_11."""
    F = F.copy()
    F[1, 1, _ranks(6, 2)[(4, 5)]] = complex(float("nan"), 0.0)
    return F


def test_a_nan_injected_call_leaves_the_shared_data_clean():
    p = twistor_points(FLAT, 1, seed=83)[0]
    params = AnsatzParams.coupling_solution(alpha_prime=2.0)
    want_anomaly = cold(anomaly_residual, FLAT, params, p)
    want_hym = cold(hym_residual, FLAT, params, p)
    F = with_a_nan(AnsatzCurvatureData(FLAT, params, p).quotient_curvature)
    assert not anomaly_residual(FLAT, params, p, curvature=F) <= 1e-8
    assert anomaly_residual(FLAT, params, p) == want_anomaly
    assert not hym_residual(FLAT, params, p, curvature=F) <= 1e-8
    assert hym_residual(FLAT, params, p) == want_hym


def test_curvature_entries_are_1_1_and_metric_skew():
    params = random_ansatz_params(seed=29, pair_index=1)
    p = twistor_points(FLAT, 1, seed=37)[0]
    data = AnsatzCurvatureData(FLAT, params, p)
    R = data.frame_curvature
    scale = max(1.0, _array_sup(R))
    # with no forms to wedge, curvature_residual is the (2,0)/(0,2) purity against max(1, |R|)
    assert curvature_residual(R, [], data.fr.ctx) <= 1e-10
    assert conjugation_residual(entry_forms(R, data.fr.chart), frame_gram(data)) <= 1e-9 * scale


def test_frame_gram_is_positive_and_exposes_weights():
    p = twistor_points(FLAT, 1, seed=41)[0]
    import numpy as np

    data = AnsatzCurvatureData(FLAT, AnsatzParams.constants(), p)
    eig = np.linalg.eigvalsh(np.array([[svalue(e) for e in row] for row in frame_gram(data)]))
    assert eig.min() > 0.0
    zeta = complex(p.coords[0], p.coords[1])
    s = 1.0 + abs(zeta) ** 2
    assert svalue(data.A).real == pytest.approx(s * s / 2.0, rel=1e-12)
    assert svalue(data.B).real == pytest.approx(s**3, rel=1e-12)


# -- quotient bundle -------------------------------------------------------------


def test_quotient_gram_flat_closed_form():
    p = twistor_points(FLAT, 1, seed=43)[0]
    data = AnsatzCurvatureData(FLAT, AnsatzParams.constants(), p)
    U = [[svalue(e) for e in row] for row in data.U]
    F = data.quotient_curvature
    zeta2 = p.coords[0] ** 2 + p.coords[1] ** 2
    assert U[0][0] == pytest.approx(2.0 * zeta2, rel=1e-12)
    assert U[1][1] == pytest.approx(2.0 * zeta2, rel=1e-12)
    assert abs(U[0][1]) <= 1e-13
    assert _array_sup(F) <= 1e-12


def test_quotient_curvature_no_sphere_volume_component():
    p = twistor_points(FLAT, 1, seed=47)[0]
    F = AnsatzCurvatureData(FLAT, AnsatzParams.constants(), p).quotient_curvature
    assert _array_sup(F[..., _ranks(6, 2)[(0, 1)]]) <= 1e-12


# -- Hermitian-Yang-Mills --------------------------------------------------------


def test_hym_flat_profiles():
    assert hym_residual(FLAT, AnsatzParams.constants(), twistor_points(FLAT, 1, seed=53)[0]) <= 1e-9
    for k in range(4):
        params = random_ansatz_params(seed=59, pair_index=k)
        p = twistor_points(FLAT, 1, seed=400 + k)[0]
        assert hym_residual(FLAT, params, p) <= 1e-8


def test_quotient_curvature_vanishes_on_flat():
    # so on flat N the HYM residual, the quotient trace and tr(F' ^ F') read
    # rounding only, while the frame curvature R is of order 1
    profiles = [AnsatzParams.coupling_solution(), AnsatzParams.coupling_solution(radial_h=True)]
    profiles += [random_ansatz_params(seed=2, pair_index=k) for k in range(2)]
    for params, p in zip(profiles * 2, twistor_points(FLAT, 8, seed=2)):
        data = AnsatzCurvatureData(FLAT, params, p)
        assert _array_sup(data.quotient_curvature) <= 1e-13
        assert _array_sup(data.frame_curvature) >= 0.1


def test_hym_raises_a_domain_error_at_the_frame_cutoff():
    p = point(TWISTOR_FLAT, 1e-8, 0.0, 0.4, 0.8, -0.3, 0.5)
    with pytest.raises(DomainError):
        hym_residual(FLAT, AnsatzParams.coupling_solution(), p)


@pytest.mark.parametrize("zeta", [1e-4, 2e-7])
def test_curvature_operators_raise_a_domain_error_near_zeta_zero(zeta):
    # an exact solution already fails the 1e-8 anomaly gate here
    p = point(TWISTOR_FLAT, zeta, 0.0, 0.4, 0.8, -0.3, 0.5)
    for op in (hym_residual, anomaly_residual, curvature_identities):
        with pytest.raises(DomainError):
            op(FLAT, AnsatzParams.coupling_solution(), p)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_eguchi_hanson_operators_raise_a_domain_error_near_the_origin(a):
    # at |x| = 0.01a the exact potential reads det 9.3e-10 and asd 4.7e-7,
    # against gates of 1e-9 and 1e-8
    model = eguchi_hanson(a)
    r = 0.01 * a
    base = (r / 2, r / 2, -r / 2, r / 2)
    with pytest.raises(DomainError):
        det_residual(model, point(EH_CHART, *base))
    with pytest.raises(DomainError):
        asd_residual(model, point(EH_CHART, *base))
    with pytest.raises(DomainError):
        balanced_residual(model, AnsatzParams.coupling_solution(), point(TWISTOR_EH, 0.4, 0.3, *base))


def test_operators_that_need_w1_w2_refuse_eguchi_hanson_with_one_domain_error():
    # the one flatness check is in w_field_jets; |zeta| >= 0.3 keeps the zeta cutoff away
    p = twistor_points(EH, 1, seed=74)[0]
    params = AnsatzParams.coupling_solution()
    no_w = "global holomorphic coordinates"
    with pytest.raises(DomainError, match=no_w):
        w_field_jets(TwistorFrame(EH, p, 3))
    with pytest.raises(DomainError, match=no_w):
        frame_decompose(EH, p)
    for op in (hym_residual, anomaly_residual, curvature_identities):
        with pytest.raises(DomainError, match=no_w):
            op(EH, params, p)


def test_hym_with_a_replacement_curvature_runs_on_eguchi_hanson():
    # a replacement curvature needs only the frame and the metric, not the Gram pieces that need w1, w2
    p = twistor_points(EH, 1, seed=74)[0]
    chart = TWISTOR_EH
    dz12 = d_complex(chart, 1).wedge(d_complex(chart, 2)).coeffs[0]
    for params in (AnsatzParams.coupling_solution(), random_ansatz_params(seed=75, pair_index=0)):
        assert hym_residual(EH, params, p, curvature=np.zeros((2, 2, 15), dtype=np.complex128)) == 0.0
        assert not hym_residual(EH, params, p, curvature=np.broadcast_to(dz12, (2, 2, 15))) <= 1e-8


def radial_points(radius):
    # zeta = 0.5 or 0.4 + 0.3i, the base along x1 or (1, 1, -1, 1)/2
    bases = [(radius, 0.0, 0.0, 0.0), (radius / 2, radius / 2, -radius / 2, radius / 2)]
    return [point(TWISTOR_FLAT, *zeta, *base) for zeta in ((0.5, 0.0), (0.4, 0.3)) for base in bases]


@pytest.mark.parametrize("radius", [0.0, 0.01])
def test_radial_h_operators_raise_a_domain_error_near_the_base_origin(radius):
    # at rho = 0 the log leaked ZeroDivisionError; at 0.01 the exact solution
    # read 1.1e-8 on the anomaly, against a gate of 1e-8
    params = AnsatzParams.coupling_solution(radial_h=True)
    for p in radial_points(radius):
        for op in (balanced_residual, hym_residual, anomaly_residual, curvature_identities):
            with pytest.raises(DomainError):
                op(FLAT, params, p)


def test_radial_h_coupling_solution_passes_at_the_domain_edge():
    params = AnsatzParams.coupling_solution(radial_h=True)
    for p in radial_points(0.03):
        assert anomaly_residual(FLAT, params, p) <= 1e-8
        assert all(v <= 1e-8 for v in curvature_identities(FLAT, params, p).values())


def count_kappa_hessians(monkeypatch) -> list:
    """Records the model of every kappa_hermitian_jets call, at every module name that binds it."""
    calls = []
    orig = hyperkahler.kappa_hermitian_jets

    def counted(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)

    for module in (hyperkahler, twistor, strominger):
        for name, value in list(vars(module).items()):
            if value is orig:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_one_kappa_hessian_per_eguchi_hanson_frame(monkeypatch):
    calls = count_kappa_hessians(monkeypatch)
    TwistorFrame(EH, twistor_points(EH, 1, seed=71)[0], 3)
    assert calls == [EH]


def test_one_kappa_hessian_per_flat_curvature_data(monkeypatch):
    p = twistor_points(FLAT, 1, seed=72)[0]
    jets._KEPT.clear()
    calls = count_kappa_hessians(monkeypatch)
    strominger._curvature_data(FLAT, AnsatzParams.coupling_solution(), p)
    assert calls == [FLAT]


def test_one_kappa_hessian_per_asd_residual(monkeypatch):
    jets._KEPT.clear()
    calls = count_kappa_hessians(monkeypatch)
    asd_residual(EH, point(EH_CHART, 0.6, -0.3, 0.5, 0.4))
    assert calls == [EH]


def test_one_kappa_hessian_per_radial_h_residual(monkeypatch):
    jets._KEPT.clear()
    calls = count_kappa_hessians(monkeypatch)
    radial_h_residual(Profile.log_slope(-1.5), point(TWISTOR_FLAT, 0.5, 0.2, 0.4, 0.8, -0.3, 0.5))
    assert calls == [FLAT]


def test_one_metric_per_twistor_frame(monkeypatch):
    p = twistor_points(FLAT, 1, seed=73)[0]
    params = AnsatzParams.coupling_solution()
    jets._KEPT.clear()
    calls = []
    orig = TwistorFrame.fiber_form

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(TwistorFrame, "fiber_form", counted)
    hym_residual(FLAT, params, p)
    anomaly_residual(FLAT, params, p)
    data = strominger._curvature_data(FLAT, params, p)
    assert calls == [data.fr]  # hym and the anomaly share one metric beside the kept frame
    assert data.ansatz.metric is data.ansatz.metric


# -- the geometry of a point, built once ---------------------------------------------


def eh_perturbed_gram(p):
    """The Eguchi-Hanson cotangent Gram at ``p`` with |z1|^2 |z2|^2 / 2 added to its 1 1bar entry: not hyperkahler."""
    xj = seed_jets(p.coords, 4)
    gram = cotangent_gram(EH, xj)
    gram[0][0] = gram[0][0] + (xj[0] * xj[0] + xj[1] * xj[1]) * (xj[2] * xj[2] + xj[3] * xj[3]) * 0.5
    return gram


def test_frame_decompose_reads_the_same_bits_from_the_curvature_data_frame():
    # cold it builds an order-2 frame; after hym_residual it reads the kept order-4 one
    p = twistor_points(FLAT, 1, seed=171)[0]
    want = cold(frame_decompose, FLAT, p)
    jets._KEPT.clear()
    hym_residual(FLAT, random_ansatz_params(seed=173, pair_index=0), p)
    assert kept_value(TwistorFrame, FLAT, p).order == 4
    assert frame_decompose(FLAT, p) == want


def test_eguchi_hanson_base_residuals_read_the_same_bits_from_the_kept_geometry():
    p = point(EH_CHART, 0.7, -0.2, 0.5, 0.6)
    ops = (
        lambda: asd_residual(EH, p),
        lambda: det_residual(EH, p),
        lambda: asd_residual(EH, p, eh_perturbed_gram(p)),
    )
    want = [cold(op) for op in ops]
    assert want[0] <= 1e-8 and want[1] <= 1e-9 and want[2] > 1e-3
    jets._KEPT.clear()
    assert [op() for op in ops] == want
    # after a cleared jet_space cache the entry is rebuilt, its jets in the new space
    jet_space.cache_clear()
    assert [op() for op in ops] == want
    assert kept_value(hyperkahler._base_geometry, EH, p)[0][0][0].space is jet_space(4, 4)


def test_eguchi_hanson_base_points_share_the_chart_context(monkeypatch):
    contexts = []

    def recording(gram, ctx):
        contexts.append(ctx)
        return gram_curvature(gram, ctx)

    monkeypatch.setattr(hyperkahler, "gram_curvature", recording)
    for p in (point(EH_CHART, 0.7, -0.2, 0.5, 0.6), point(EH_CHART, -0.4, 0.8, 0.3, -0.5)):
        asd_residual(EH, p)
    assert contexts[0] is contexts[1] is standard_context(EH_CHART)


def test_a_flat_workload_point_builds_two_frames_and_one_set_of_coefficients(monkeypatch):
    p = twistor_points(FLAT, 1, seed=175)[0]
    params = AnsatzParams.coupling_solution()
    jets._KEPT.clear()
    orders, coefficients = [], []
    init, frame_coefficients = TwistorFrame.__init__, twistor.frame_coefficients

    def recording_init(self, *args):
        init(self, *args)
        orders.append(self.order)

    def recording_coefficients(fr):
        coefficients.append(fr)
        return frame_coefficients(fr)

    monkeypatch.setattr(TwistorFrame, "__init__", recording_init)
    monkeypatch.setattr(twistor, "frame_coefficients", recording_coefficients)
    for op in (balanced_residual, hym_residual, anomaly_residual, curvature_identities):
        op(FLAT, params, p)
    frame_decompose(FLAT, p)
    # order 1 for balanced_residual, then order 4 for the curvature data, which frame_decompose shares
    assert orders == [1, 4]
    assert coefficients == [kept_value(TwistorFrame, FLAT, p)]


def test_an_eguchi_hanson_pool_entry_builds_three_kappa_hessians(monkeypatch):
    p = point(EH_CHART, 0.7, -0.2, 0.5, 0.6)
    q = twistor_points(EH, 1, seed=177)[0]
    jets._KEPT.clear()
    calls = count_kappa_hessians(monkeypatch)
    asd_residual(EH, p)
    det_residual(EH, p)
    asd_residual(EH, p, eh_perturbed_gram(p))
    balanced_residual(EH, random_ansatz_params(seed=179, pair_index=0), q)
    # the base point's, the perturbed Gram's and the twistor frame's
    assert calls == [EH, EH, EH]


def test_a_kept_frame_and_its_data_are_freed_without_the_cycle_collector():
    # nothing a kept value holds refers back to it, so once two newer values
    # are kept, reference counting alone frees it: a flat frame and the data
    # beside it, an Eguchi-Hanson base geometry and a Calabi frame
    first, second = twistor_points(FLAT, 2, seed=181)
    params = AnsatzParams.coupling_solution()
    base = point(EH_CHART, 0.7, -0.2, 0.5, 0.6)
    cp1 = fubini_study_cp1()
    theorem, linear = theorem_metric_params(cp1), CalabiParams.constant_length(cp1, f_profile=Profile.linear(1.0))
    total = point(cp1.total_chart, 0.3, -0.2, 0.6, 0.4)

    def freed(refs):
        return [ref() for ref in refs] == [None] * len(refs)

    jets._KEPT.clear()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for op in (balanced_residual, hym_residual, anomaly_residual, curvature_identities):
            op(FLAT, params, first)
        frame_decompose(FLAT, first)
        data = kept_value(AnsatzCurvatureData, FLAT, params, first)
        flat = [weakref.ref(obj) for obj in (data, data.fr, data.ansatz, data.fr.ctx)]
        asd_residual(EH, base)
        kh, triple = kept_value(hyperkahler._base_geometry, EH, base)
        eh = [weakref.ref(triple)] + [weakref.ref(e.c) for row in kh for e in row]
        extremal_residual(cp1, theorem, total)
        fr = kept_value(CanonicalBundleFrame, cp1, theorem, total)
        calabi = [weakref.ref(obj) for obj in (fr, fr.R.c, fr.jets[0].c)]
        del data, kh, triple, fr
        assert freed(flat)  # two newer: the base geometry and the Calabi frame
        km_balanced_residual(cp1, linear, total)
        assert freed(eh)
        balanced_residual(FLAT, params, second)
        assert freed(calabi)
    finally:
        if enabled:
            gc.enable()


def test_omega_norm_and_radial_h_read_the_same_bits_from_the_curvature_data_frame():
    # cold each builds a low-order frame; after hym_residual each reads the kept order-4 one
    p = twistor_points(FLAT, 1, seed=183)[0]
    params = random_ansatz_params(seed=185, pair_index=0)
    ops = (lambda: omega_norm(FLAT, params, p), lambda: radial_h_residual(Profile.log_slope(-1.5), p))
    want = [cold(op) for op in ops]
    for op, value in zip(ops, want):
        jets._KEPT.clear()
        hym_residual(FLAT, params, p)
        assert op() == value
        assert kept_value(TwistorFrame, FLAT, p).order == 4


@pytest.mark.parametrize("zeta", [1e-3, 1e-2])
def test_anomaly_of_the_coupling_solution_passes_near_the_zeta_cutoff(zeta):
    p = point(TWISTOR_FLAT, zeta, 0.0, 0.4, 0.8, -0.3, 0.5)
    assert anomaly_residual(FLAT, AnsatzParams.coupling_solution(), p) <= 1e-8


def test_hym_counterexample_random_curvature():
    p = twistor_points(FLAT, 1, seed=61)[0]
    rng = random.Random(3)
    fr = TwistorFrame(FLAT, p, 2)
    ctx = fr.ctx
    base = FormValue.of_terms(
        fr.chart, 2, {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in [(0, 2), (1, 3), (2, 3), (2, 4)]}
    )
    fake_entry = project(ctx, base, 1, 1)
    fake = stacked([[fake_entry, fake_entry.scale(0.3)], [fake_entry.scale(-0.2), fake_entry]])
    assert hym_residual(FLAT, AnsatzParams.constants(), p, curvature=fake) >= 1e-2


def test_hym_catches_a_pure_2_0_curvature_entry_by_purity_alone():
    # a (2,0) entry wedged with omega^2 is (4,2), zero on a 3-fold, so only the purity check sees it
    p = twistor_points(FLAT, 1, seed=67)[0]
    params = AnsatzParams.coupling_solution()
    data = AnsatzCurvatureData(FLAT, params, p)
    pure = project(data.fr.ctx, FormValue.of_terms(p.chart, 2, {(0, 2): 0.6, (1, 3): 0.4j, (2, 4): -0.5}), 2, 0)
    omega = data.ansatz.metric.values()
    assert pure.sup() >= 0.1
    assert pure.wedge(omega.wedge(omega)).sup() <= 1e-13
    F = data.quotient_curvature.copy()
    F[0, 1] += pure.coeffs[0]
    assert hym_residual(FLAT, params, p) <= 1e-8
    assert hym_residual(FLAT, params, p, curvature=F) >= 1e-2


# -- curvature identities ---------------------------------------------------------


def test_identities_simplest_profiles():
    p = twistor_points(FLAT, 1, seed=67)[0]
    out = curvature_identities(FLAT, AnsatzParams.constants(), p)
    for key in ("c1_res", "trace_res", "c2_res", "w_res"):
        assert out[key] <= 1e-8, key


def test_identities_random_profiles():
    for k in range(4):
        params = random_ansatz_params(seed=71, pair_index=k)
        p = twistor_points(FLAT, 1, seed=500 + k)[0]
        out = curvature_identities(FLAT, params, p)
        assert out["c1_res"] <= 1e-8
        assert out["c2_res"] <= 1e-8
        assert out["w_res"] <= 1e-8


def test_trace_residual_on_constant_norm_branch():
    params = AnsatzParams.constant_norm_branch()
    p = twistor_points(FLAT, 1, seed=73)[0]
    out = curvature_identities(FLAT, params, p)
    assert out["trace_res"] <= 1e-9


def test_w_perturbation_linear_response():
    # shifting W by 1e-3 omega_I must register at the right magnitude
    p = twistor_points(FLAT, 1, seed=79)[0]
    data = AnsatzCurvatureData(FLAT, AnsatzParams.constants(), p)
    fr = data.fr
    W = FormValue(fr.chart, 2, data.w_form()[0]) + fr.triple.omega_I.values().scale(1e-3)
    target = fr.fiber_form().scale(1j * fr.s.reciprocal()).values()
    diff = (W - target).sup()
    scale = max(W.sup(), target.sup())
    assert 1e-4 <= diff / max(scale, 1.0) <= 1e-2


# -- anomaly cancellation ----------------------------------------------------------


def test_anomaly_solution_constant_h():
    for seed in (83, 89):
        p = twistor_points(FLAT, 1, seed=seed)[0]
        params = AnsatzParams.coupling_solution(alpha_prime=2.0)
        assert anomaly_residual(FLAT, params, p) <= 1e-8
        params4 = AnsatzParams.coupling_solution(alpha_prime=4.0)
        assert anomaly_residual(FLAT, params4, p) <= 1e-8


def test_anomaly_solution_radial_h():
    for seed in (97, 101):
        p = twistor_points(FLAT, 1, seed=seed)[0]
        params = AnsatzParams.coupling_solution(alpha_prime=2.0, radial_h=True)
        assert anomaly_residual(FLAT, params, p) <= 1e-8


def test_anomaly_wrong_constant_fails():
    p = twistor_points(FLAT, 1, seed=103)[0]
    assert anomaly_residual(FLAT, AnsatzParams.constants(g=1.0, h=0.0, alpha_prime=2.0), p) >= 1e-3
    # the printed-looking choice e^{2g} = alpha'/2 also fails: wrong by a factor 2
    assert (
        anomaly_residual(
            FLAT, AnsatzParams.constants(g=0.5 * math.log(1.0), h=0.0, alpha_prime=2.0), p
        )
        >= 1e-3
    )


def test_anomaly_gate_fails_on_a_nan_curvature_coefficient():
    p = twistor_points(FLAT, 1, seed=83)[0]
    params = AnsatzParams.coupling_solution(alpha_prime=2.0)
    # F has only dzeta^dzetabar parts, so a NaN on dx4^dx5 survives in tr(F^F);
    # it is not the first term of the difference, where a plain max() drops it
    F = with_a_nan(AnsatzCurvatureData(FLAT, params, p).quotient_curvature)
    assert not anomaly_residual(FLAT, params, p, curvature=F) <= 1e-8


def test_hym_gate_fails_on_a_nan_curvature_coefficient():
    p = twistor_points(FLAT, 1, seed=83)[0]
    params = AnsatzParams.coupling_solution(alpha_prime=2.0)
    F = with_a_nan(AnsatzCurvatureData(FLAT, params, p).quotient_curvature)
    assert not hym_residual(FLAT, params, p, curvature=F) <= 1e-8


def test_hym_and_anomaly_name_a_curvature_off_the_twistor_chart():
    # a (2, 2, 6) array is a curvature on a 4-dimensional chart; the twistor chart has C(6, 2) = 15 pairs
    p = twistor_points(FLAT, 1, seed=83)[0]
    params = AnsatzParams.coupling_solution()
    F = np.zeros((2, 2, 6), dtype=np.complex128)
    for operator in (hym_residual, anomaly_residual):
        with pytest.raises(ChartMismatch, match="twistor_flat"):
            operator(FLAT, params, p, curvature=F)


def test_curvature_sup_propagates_a_nan_that_is_not_first():
    C = TWISTOR_FLAT
    F = stacked([[FormValue.of_terms(C, 2, {(0, 1): 1e-20}), FormValue.of_terms(C, 2, {(0, 1): float("nan")})]])
    assert math.isnan(_array_sup(F))


def test_type_context_survives_a_cleared_jet_space_cache():
    # the operators at one point share one curvature data object and the
    # type context of its frame; after the jet spaces are rebuilt it must
    # not hand out jets of the old space
    p = twistor_points(FLAT, 1, seed=89)[0]
    params = AnsatzParams.coupling_solution(alpha_prime=2.0)
    jet_space.cache_clear()
    fresh = anomaly_residual(FLAT, params, p)
    hym_residual(FLAT, params, p)
    jet_space.cache_clear()
    assert anomaly_residual(FLAT, params, p) == fresh


# -- radial reduction ---------------------------------------------------------------


def test_radial_dichotomy():
    def accept(c):
        return c[0] ** 2 + c[1] ** 2 >= 0.3**2 and 0.5 <= sum(x * x for x in c[2:]) <= 5.0

    pts = sample_points(TWISTOR_FLAT, 107, 0, 6, -1.4, 1.4, accept)
    for p in pts:
        assert radial_h_residual(Profile.linear(0.0), p) <= 1e-9
        assert radial_h_residual(Profile.log_slope(-1.5), p) <= 1e-9
        assert radial_h_residual(Profile.log_slope(-1.0), p) >= 1e-3


def test_log_slope_minus_three_halves_is_the_nonconstant_branch():
    # bit for bit, so a slope that divides instead of multiplying shows (slope -1 hides it)
    assert Profile.log_slope(-1.5).derivatives(0.7) == Profile(lambda r: r.log() * -1.5).derivatives(0.7)


def test_radial_residual_raises_a_domain_error_at_rho_zero():
    with pytest.raises(DomainError):
        radial_h_residual(Profile.linear(0.0), point(TWISTOR_FLAT, 0.5, 0.3, 0.0, 0.0, 0.0, 0.0))


def test_radial_expansion_matches_dolbeault_machinery():
    # the quaternionic expansion of 2i dbar del h against i del dbar h from jets
    p = twistor_points(FLAT, 1, seed=109)[0]
    fr = TwistorFrame(FLAT, p, 3)
    rho = fr.x[0] * fr.x[0] + fr.x[1] * fr.x[1] + fr.x[2] * fr.x[2] + fr.x[3] * fr.x[3]
    h = rho.log() * (-1.5) + rho * 0.2  # generic radial profile
    direct = i_ddbar(fr.ctx, h).values()

    d_rho = exterior_derivative(FormValue.scalar(fr.chart, rho)).values()
    prof_d1 = svalue((-1.5) * rho.reciprocal() + 0.2)
    prof_d2 = svalue(1.5 * (rho * rho).reciprocal())
    Id_rho = quaternion_operator(fr.kh, "I", fr.chart).apply(d_rho)
    Jd_rho = quaternion_operator(fr.kh, "J", fr.chart).apply(d_rho)
    Kd_rho = quaternion_operator(fr.kh, "K", fr.chart).apply(d_rho)
    frak = Id_rho.scale(fr.alpha) + Jd_rho.scale(fr.beta) + Kd_rho.scale(fr.gamma)
    sphere = (
        exterior_derivative(FormValue.scalar(fr.chart, fr.alpha)).wedge(Id_rho)
        + exterior_derivative(FormValue.scalar(fr.chart, fr.beta)).wedge(Jd_rho)
        + exterior_derivative(FormValue.scalar(fr.chart, fr.gamma)).wedge(Kd_rho)
    )
    X = (
        d_rho.wedge(frak).scale(prof_d2)
        + sphere.scale(prof_d1)
        + fr.fiber_form().scale(-4.0 * prof_d1)
    ).values()
    # 2i dbar del h = X and i del dbar h = -i dbar del h... so X = -2 * direct
    expansion = X.scale(-0.5)
    assert (expansion - direct).sup() <= 1e-9 * max(1.0, direct.sup())


def test_quaternion_identity_on_twistor_chart():
    # drho ^ I drho + 4 rho omega_I = J drho ^ K drho
    p = twistor_points(FLAT, 1, seed=113)[0]
    fr = TwistorFrame(FLAT, p, 2)
    rho = fr.x[0] * fr.x[0] + fr.x[1] * fr.x[1] + fr.x[2] * fr.x[2] + fr.x[3] * fr.x[3]
    d_rho = exterior_derivative(FormValue.scalar(fr.chart, rho)).values()
    Id_rho = quaternion_operator(fr.kh, "I", fr.chart).apply(d_rho)
    Jd_rho = quaternion_operator(fr.kh, "J", fr.chart).apply(d_rho)
    Kd_rho = quaternion_operator(fr.kh, "K", fr.chart).apply(d_rho)
    lhs = d_rho.wedge(Id_rho).values() + fr.triple.omega_I.values().scale(4.0 * svalue(rho))
    rhs = Jd_rho.wedge(Kd_rho).values()
    assert (lhs - rhs).sup() <= 1e-11 * max(1.0, rhs.sup())
