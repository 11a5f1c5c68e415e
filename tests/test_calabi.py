import gc
import math
import random
import weakref

import pytest

from stromlab import calabi, jets
from stromlab.forms import Chart, FormValue, TypeContext, hermitian_form, point, standard_acs, standard_context
from stromlab.jets import Jet, jet_space, seed_jets
from stromlab.calabi import (
    BaseKahlerModel,
    CalabiParams,
    CanonicalBundleFrame,
    Profile,
    ZeroSectionError,
    base_chern_scalar,
    chern_scalar,
    constant_norm_residual,
    extremal_residual,
    flat_torus_chart,
    fubini_study_cp1,
    hermitian_matrix_of,
    km_balanced_residual,
    omega0_d_residual,
    profile_ode_residual,
    solve_profile_f,
    theorem_metric_params,
    volume_norm,
)

from form_oracles import evaluate

FS = fubini_study_cp1()
TORUS = flat_torus_chart()


def total_points(base, n, seed, tmin=0.35):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        coords = [rng.uniform(-1.1, 1.1) for _ in range(4)]
        if coords[2] ** 2 + coords[3] ** 2 >= tmin:
            pts.append(point(base.total_chart, *coords))
    return pts


# -- base scalars -------------------------------------------------------------


def test_hermitian_matrix_of_inverts_hermitian_form():
    chart = FS.total_chart
    y1, y2, tr, ti = seed_jets((0.3, -0.5, 0.7, 0.2), 3)
    b = y1 * tr + 1j * (y2 - ti * ti)
    H = [[y1 * y1 + ti + 1.0, b], [b.conjugate(), y2 * tr + 2.0]]
    G = hermitian_matrix_of(hermitian_form(chart, H), chart)
    for g_row, h_row in zip(G, H):
        for g, h in zip(g_row, h_row):
            assert (g - h).order == 3
            assert max(abs(c) for c in (g - h).c) <= 1e-15


def test_base_scalars():
    # round FS normalization has Chern-Ricci form equal to twice the metric
    for z in ((0.0, 0.0), (0.4, -0.7), (1.1, 0.3)):
        assert base_chern_scalar(FS, z) == pytest.approx(2.0, abs=1e-9)
        assert base_chern_scalar(TORUS, z) == pytest.approx(0.0, abs=1e-12)


def test_base_scalar_constancy_across_sample():
    vals = [base_chern_scalar(FS, (x, y)) for x, y in ((0.1, 0.2), (-0.8, 0.5), (1.2, -1.0))]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-9


def test_scaling_divides_scalar():
    # lambda * omega has Chern scalar s / lambda
    scaled = BaseKahlerModel(
        1, FS.chart, FS.total_chart, lambda zjets: [[e * 3.0 for e in row] for row in FS.metric(zjets)]
    )
    assert base_chern_scalar(scaled, (0.3, 0.4)) == pytest.approx(2.0 / 3.0, abs=1e-10)


def fubini_study_cp2_metric(zjets):
    """g = i del dbar log q on C^2, q = 1 + |z|^2: Kahler-Einstein with s = n(n+1) = 6."""
    z = [zjets[0] + 1j * zjets[1], zjets[2] + 1j * zjets[3]]
    q_inv = (z[0] * z[0].conjugate() + z[1] * z[1].conjugate() + 1.0).reciprocal()
    # g_{j kbar} = delta_jk / q - zbar_j z_k / q^2
    return [
        [(q_inv if j == k else 0.0) - z[j].conjugate() * z[k] * q_inv * q_inv for k in range(2)]
        for j in range(2)
    ]


CP2 = BaseKahlerModel(
    2,
    Chart("cp2_base", ("y1", "y2", "y3", "y4"), ("z1", "z2")),
    Chart("cp2_total", ("y1", "y2", "y3", "y4", "tr", "ti"), ("z1", "z2", "t")),
    fubini_study_cp2_metric,
)


def test_cp2_theorem_profile_is_balanced():
    # the profile solves e^{(n+1)f - c} f' = s/n; with s in place of s/n
    # (the profile of solve_profile_f(n * s0, ...)) d(omega^n) is far from 0
    base = CP2
    s0 = base_chern_scalar(base, (0.0,) * 4)
    assert s0 == pytest.approx(6.0, abs=1e-9)
    params = theorem_metric_params(base)
    old = CalabiParams.constant_length(base, f_profile=solve_profile_f(base.n * s0, 0.0, 1.0, base.n))
    for coords in ((0.3, -0.2, 0.5, 0.1, 0.7, 0.4), (-0.6, 0.4, 0.2, -0.5, 0.5, -0.6)):
        p = point(base.total_chart, *coords)
        assert km_balanced_residual(base, params, p) <= 1e-8
        assert abs(chern_scalar(base, params, p)) <= 1e-8
        assert km_balanced_residual(base, old, p) >= 1e-3


# -- the ansatz ---------------------------------------------------------------


def test_metric_reduces_to_induced_form():
    p = total_points(TORUS, 1, seed=1)[0]
    omega = CanonicalBundleFrame(TORUS, CalabiParams.plain(), p, 1).metric.values()
    # flat base, R = |t|^2: fiber part is i dt ^ dtbar
    from stromlab.forms import d_complex, d_complex_bar

    expected = (
        d_complex(TORUS.total_chart, 0).wedge(d_complex_bar(TORUS.total_chart, 0)).scale(1j)
        + d_complex(TORUS.total_chart, 1).wedge(d_complex_bar(TORUS.total_chart, 1)).scale(1j)
    )
    assert (omega - expected).sup() <= 1e-13


def test_zero_section_rejected():
    with pytest.raises(ZeroSectionError):
        CanonicalBundleFrame(FS, CalabiParams.plain(), point(FS.total_chart, 0.1, 0.2, 0.0, 0.0), 1)


def test_omega0_kahler_iff_flat_base():
    for p in total_points(TORUS, 3, seed=3):
        assert omega0_d_residual(TORUS, p) <= 1e-10
    for p in total_points(FS, 3, seed=5):
        assert omega0_d_residual(FS, p) >= 1e-3


def test_metric_is_positive_1_1():
    p = total_points(FS, 1, seed=7)[0]
    params = theorem_metric_params(FS)
    fr = CanonicalBundleFrame(FS, params, p, 1)
    omega = fr.metric.values()
    from stromlab.forms import TypeContext, standard_acs, svalue

    ctx = TypeContext(standard_acs(FS.total_chart))
    parts = ctx.decompose(omega)
    for key in ((2, 0), (0, 2)):
        assert parts.get(key, FormValue.zero(FS.total_chart, 2)).sup() <= 1e-12
    rng = random.Random(11)
    acs = standard_acs(FS.total_chart)
    for _ in range(8):
        v = [rng.uniform(-1, 1) for _ in range(4)]
        jv = [sum(svalue(acs.mat[u][w]) * v[u] for u in range(4)).real for w in range(4)]
        assert evaluate(omega, v, jv).real > 0.0


# -- profiles -----------------------------------------------------------------


def test_profile_closed_form():
    prof = solve_profile_f(2.0, 0.0, 1.0, 1)
    space = jet_space(1, 1)
    for R in (0.25, 1.0, 3.0, 9.5):
        got = prof(Jet.variable(space, 0, R)).value.real
        assert got == pytest.approx(0.5 * math.log(1.0 + 4.0 * R), abs=1e-14)


def test_profile_ode_self_certification():
    for s_const, c, c0, n in ((2.0, 0.0, 1.0, 1), (0.7, 0.3, 2.0, 1), (3.0, -0.2, 0.5, 2)):
        prof = solve_profile_f(s_const, c, c0, n)
        for R in (0.1, 1.0, 4.0, 10.0):
            assert profile_ode_residual(prof, s_const, c, n, R) <= 1e-12


def test_profile_zero_scalar_is_constant():
    prof = solve_profile_f(0.0, 0.0, 2.0, 1)
    space = jet_space(1, 2)
    jet = prof(Jet.variable(space, 0, 1.3))
    assert jet.partial((1,)) == pytest.approx(0.0, abs=1e-15)


def test_profile_domain_error():
    prof = solve_profile_f(-1.0, 0.0, 0.5, 1)  # argument crosses zero
    space = jet_space(1, 1)
    with pytest.raises(ValueError):
        prof(Jet.variable(space, 0, 5.0))


# -- constant volume-form norm ---------------------------------------------------


def test_constant_norm_on_branch():
    pts = total_points(FS, 8, seed=13)
    params = CalabiParams.constant_length(FS, f_profile=solve_profile_f(2.0, 0.0, 1.0, 1))
    assert constant_norm_residual(FS, params, pts) <= 1e-9


def test_constant_norm_with_base_u():
    # v = -n u branch with a nonconstant u on the base
    pts = total_points(FS, 6, seed=17)
    params = CalabiParams.constant_length(
        FS, u_fn=lambda zjets: zjets[0] * 0.3 + zjets[1] * zjets[1] * 0.2
    )
    assert constant_norm_residual(FS, params, pts) <= 1e-9


def test_constant_norm_trivial_params():
    pts = total_points(FS, 5, seed=19)
    assert constant_norm_residual(FS, CalabiParams.constant_length(FS), pts) <= 1e-10


def test_norm_variance_detects_violation():
    pts = total_points(FS, 8, seed=23)
    f = Profile.zero()
    broken = CalabiParams(
        u_fn=lambda zjets: zjets[0] * 0.0,
        v_fn=lambda zjets: zjets[0] * 0.0,
        f_profile=f,
        g_profile=Profile(lambda R: f(R) * (-1.0) + R * 0.1),
    )
    assert constant_norm_residual(FS, broken, pts) >= 1e-3


# -- the balanced certificate -----------------------------------------------------


def test_km_balanced_theorem_metric():
    params = theorem_metric_params(FS)
    for p in total_points(FS, 4, seed=29):
        assert km_balanced_residual(FS, params, p) <= 1e-8


def test_km_balanced_flat_base_trivial():
    params = theorem_metric_params(TORUS)  # s = 0 gives a constant profile
    for p in total_points(TORUS, 3, seed=31):
        assert km_balanced_residual(TORUS, params, p) <= 1e-10


def test_km_balanced_wrong_profile_fails():
    bad = CalabiParams.constant_length(FS, f_profile=Profile.linear(1.0))
    p = total_points(FS, 1, seed=37)[0]
    assert km_balanced_residual(FS, bad, p) >= 1e-3


def test_chern_scalar_of_theorem_metric():
    params = theorem_metric_params(FS)
    for p in total_points(FS, 3, seed=41):
        assert abs(chern_scalar(FS, params, p)) <= 1e-8


def test_extremal_theorem_metric():
    params = theorem_metric_params(FS)
    for p in total_points(FS, 2, seed=43):
        assert extremal_residual(FS, params, p) <= 1e-8


def test_extremal_vanishes_pointwise_when_ricci_flat():
    # any Chern-Ricci flat balanced input: both sides vanish separately
    params = theorem_metric_params(TORUS)
    p = total_points(TORUS, 1, seed=47)[0]
    assert extremal_residual(TORUS, params, p) <= 1e-10


def test_full_certificate_simultaneously():
    params = theorem_metric_params(FS)
    pts = total_points(FS, 5, seed=53)
    assert constant_norm_residual(FS, params, pts) <= 1e-9
    for p in pts[:3]:
        assert km_balanced_residual(FS, params, p) <= 1e-8
        assert abs(chern_scalar(FS, params, p)) <= 1e-8
    assert extremal_residual(FS, params, pts[0]) <= 1e-8


def conformally_flat_extremal_residual(coords, c: float) -> float:
    """The extremal residual of omega = e^{c|x|^2} i sum_j dz_j ^ dzbar_j on C^3, from order-6 seeds."""
    from stromlab.calabi import chern_ricci_form, chern_scalar_of, extremal_residual_of
    from stromlab.twistor import C3_CHART

    ctx = TypeContext(standard_acs(C3_CHART))
    x = seed_jets(coords, 6)
    f = (sum((xi * xi for xi in x[1:]), x[0] * x[0]) * c).exp()
    H = [[f if i == j else 0.0 for j in range(3)] for i in range(3)]
    omega = hermitian_form(C3_CHART, H)
    rho = chern_ricci_form(H, ctx)
    return extremal_residual_of(omega, rho, chern_scalar_of(omega, rho), ctx)


def test_extremal_fails_on_nonzero_scalar_metric():
    # e^{0.2|x|^2} times the flat metric has a nonzero Chern scalar; the flat metric itself passes
    for coords in [(0.5, 0.3, 0.6, -0.4, 0.8, 0.2), (-0.7, 0.1, 0.2, 0.9, -0.3, 0.4)]:
        res = conformally_flat_extremal_residual(coords, 0.2)
        assert res >= 1e-4
        assert conformally_flat_extremal_residual(coords, 0.0) <= 1e-12


# -- the shared frame -----------------------------------------------------------


SHARED = (chern_scalar, km_balanced_residual, volume_norm, extremal_residual)


@pytest.fixture
def frames_built(monkeypatch):
    """Weak references to every frame built while the fixture is active, cache emptied first."""
    jets._KEPT.clear()
    built = []
    init = CanonicalBundleFrame.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(CanonicalBundleFrame, "__init__", recording)
    return built


def test_shared_frame_reads_equal_fresh_frames():
    for base, seed in ((FS, 59), (TORUS, 61)):
        params = theorem_metric_params(base)
        for p in total_points(base, 4, seed):
            fresh = []
            for op in SHARED:
                jets._KEPT.clear()
                fresh.append(op(base, params, p))
            # after chern_scalar the order-2 frame serves all but extremal, which rebuilds at 6
            for first in (extremal_residual, chern_scalar):
                jets._KEPT.clear()
                first(base, params, p)
                assert [op(base, params, p) for op in SHARED] == fresh


def test_workload_point_builds_two_frames(frames_built):
    params = theorem_metric_params(FS)
    linear = CalabiParams.constant_length(FS, f_profile=Profile.linear(1.0))
    p = total_points(FS, 1, seed=67)[0]
    extremal_residual(FS, params, p)
    km_balanced_residual(FS, params, p)
    km_balanced_residual(FS, linear, p)
    chern_scalar(FS, params, p)
    volume_norm(FS, params, p)
    assert [ref().order for ref in frames_built] == [6, 1]


def test_each_frame_builds_its_chern_ricci_form_once(frames_built, monkeypatch):
    # extremal_residual and chern_scalar read the one Ricci form of the frame they share
    params = theorem_metric_params(FS)
    p = total_points(FS, 1, seed=97)[0]
    ricci_forms, build = [], calabi.chern_ricci_form
    monkeypatch.setattr(calabi, "chern_ricci_form", lambda gram, ctx: ricci_forms.append(ctx) or build(gram, ctx))
    for ops in ((extremal_residual, chern_scalar), (chern_scalar, extremal_residual)):
        jets._KEPT.clear()
        for op in ops:
            op(FS, params, p)
            op(FS, params, p)
    # the order-6 frame serves chern_scalar; an order-2 frame does not serve extremal_residual
    assert len(frames_built) == len(ricci_forms) == 3


def test_cleared_jet_spaces_rebuild_the_frame(frames_built):
    params = theorem_metric_params(FS)
    p = total_points(FS, 1, seed=71)[0]
    first = chern_scalar(FS, params, p)
    chern_scalar(FS, params, p)
    assert len(frames_built) == 1
    jet_space.cache_clear()
    assert chern_scalar(FS, params, p) == first
    assert len(frames_built) == 2
    assert frames_built[1]().jets[0].space is jet_space(4, 3)


def test_shared_context_and_cleared_caches_keep_every_value():
    params = theorem_metric_params(FS)
    p = total_points(FS, 1, seed=79)[0]
    jets._KEPT.clear()
    want = [op(FS, params, p) for op in SHARED]
    for clear in (standard_context.cache_clear, jet_space.cache_clear):
        clear()
        jets._KEPT.clear()
        assert [op(FS, params, p) for op in SHARED] == want
        assert jets._KEPT[CanonicalBundleFrame, FS, params, p][-1].ctx is standard_context(FS.total_chart)


def test_frames_at_different_points_share_the_chart_context():
    params = theorem_metric_params(FS)
    p, q = total_points(FS, 2, seed=83)
    a, b = CanonicalBundleFrame(FS, params, p, 2), CanonicalBundleFrame(FS, params, q, 6)
    assert a.ctx is b.ctx is standard_context(FS.total_chart)


def test_only_the_fiber_norm_is_seeded_one_order_higher():
    # the metric differentiates R alone, so u, v, f and g are valid to the frame's order
    fr = CanonicalBundleFrame(FS, theorem_metric_params(FS), total_points(FS, 1, seed=89)[0], 6)
    assert [x.order for x in (fr.f, fr.g, fr.u, fr.v)] == [6, 6, 6, 6]
    assert fr.R.order == 7
    assert fr.metric.coefficient((0, 1)).order == 6


def test_frame_cache_keeps_two_frames(frames_built):
    p = total_points(FS, 1, seed=73)[0]
    for _ in range(10):
        volume_norm(FS, theorem_metric_params(FS), p)
    gc.collect()
    assert len(frames_built) == 10
    assert sum(ref() is not None for ref in frames_built) <= 2
