import gc
import math
import random
import weakref

import numpy as np
import pytest

from stromlab import calabi, jets
from stromlab.forms import (
    Chart,
    DomainError,
    FormValue,
    TypeContext,
    hermitian_form,
    mat_det,
    point,
    standard_acs,
    standard_context,
)
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
    metric_trace,
    omega0_d_residual,
    profile_ode_residual,
    ricci_matrix,
    solve_profile_f,
    theorem_metric_params,
    volume_norm,
)

from form_oracles import evaluate, ricci_form, wedge_extremal_residual, wedge_trace

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


def test_cp2_chern_scalar_matches_the_wedge_route():
    # m = 3: the cofactor trace of the frame against m rho ^ omega^2 / omega^3 with rho from i_ddbar
    params = theorem_metric_params(CP2)
    for coords in ((0.3, -0.2, 0.5, 0.1, 0.7, 0.4), (-0.6, 0.4, 0.2, -0.5, 0.5, -0.6)):
        fr = CanonicalBundleFrame(CP2, params, point(CP2.total_chart, *coords), 4)
        assert_jets_match(fr.scalar, wedge_trace(fr.metric, ricci_form(fr.gram, fr.ctx)), 1e-12)
        assert abs(fr.scalar.value) <= 1e-8


# -- the Gram-matrix reads against jet-valued forms ------------------------------


def assert_jets_match(got, want, rel: float):
    """Every coefficient of ``got`` to its order equals ``want``'s within ``rel`` times its largest coefficient."""
    assert got.order == want.order
    size = got.space.prefix_sizes[got.order]
    assert float(np.max(np.abs(got.c[:size] - want.c[:size]))) <= rel * float(np.max(np.abs(want.c[:size])))


def assert_forms_match(got, want, rel: float):
    """The jet coefficients of two forms agree as ``assert_jets_match`` has it, a missing term read as 0."""
    assert got.degree == want.degree
    for multi in set(got.terms) | set(want.terms):
        pair = got.coefficient(multi), want.coefficient(multi)
        zero = next(c for c in pair if isinstance(c, Jet)) * 0.0
        assert_jets_match(*(c if isinstance(c, Jet) else zero + c for c in pair), rel)


def complex_chart(m: int) -> Chart:
    return Chart(f"c{m}", tuple(f"x{i}" for i in range(2 * m)), tuple(f"z{j}" for j in range(m)))


def random_hermitian(m: int, x, rng, diagonal: float, constant: bool) -> list:
    """An m x m Hermitian matrix of jets in the seeds ``x``, diagonally dominant by ``diagonal``.

    With ``constant`` the entry (0, m-1) and its mirror are plain numbers
    (0j for m = 2), as a Gram matrix has where the metric has no term.
    """
    def poly():
        return sum((x[v] * complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for v in range(len(x))), x[0] * 0.0)

    M = [[None] * m for _ in range(m)]
    for j in range(m):
        p = poly()
        M[j][j] = (p + p.conjugate()) * 0.5 + x[j] * x[j] * 0.2 + diagonal
        for k in range(j + 1, m):
            M[j][k] = poly() * poly() + complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            M[k][j] = M[j][k].conjugate()
    if constant and m > 1:
        M[0][m - 1] = 0j if m == 2 else complex(0.15, -0.1)
        M[m - 1][0] = M[0][m - 1].conjugate()
    return M


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("constant", [False, True])
def test_metric_trace_matches_the_wedge_formula(m, constant):
    # tr(G^-1 A) by cofactors against m (i A ^ omega^{m-1}) / omega^m, in every Taylor coefficient
    rng = random.Random(100 * m + constant)
    chart = complex_chart(m)
    for _ in range(3):
        x = seed_jets([rng.uniform(-0.8, 0.8) for _ in range(2 * m)], 4)
        G = random_hermitian(m, x, rng, 2.0, constant)
        A = random_hermitian(m, [e.to_order(2) for e in x], rng, 0.5, constant)
        got = metric_trace(G, mat_det(G), A)
        assert_jets_match(got, wedge_trace(hermitian_form(chart, G), hermitian_form(chart, A)), 1e-13)
        assert got.order == 2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ricci_matrix_matches_the_i_ddbar_route(m):
    # P = -[d_a dbar_b log det G] as a (1,1)-form against -i del dbar log det G through jet-valued forms
    rng = random.Random(200 + m)
    chart = complex_chart(m)
    for constant in (False, True):
        x = seed_jets([rng.uniform(-0.8, 0.8) for _ in range(2 * m)], 5)
        G = random_hermitian(m, x, rng, 2.0, constant)
        P = ricci_matrix(mat_det(G), chart)
        assert all(e.order == 3 for row in P for e in row)
        assert_forms_match(hermitian_form(chart, P), ricci_form(G, standard_context(chart)), 1e-13)


def test_metric_trace_refuses_a_gram_matrix_that_is_not_positive():
    x = seed_jets((0.2, 0.3), 2)
    A = [[x[0] * x[1]]]
    for G in ([[x[0] * 0.0 - 1.0]], [[x[0] * 0.0 + complex(math.nan, 0.0)]]):
        with pytest.raises(DomainError):
            metric_trace(G, mat_det(G), A)


def off_branch_params() -> CalabiParams:
    """u = 0.3 y1, v = 0, f = 0.2 R and g = 0.1 R: off the constant-length branch, so rho and s are not 0."""
    return CalabiParams(
        u_fn=lambda zjets: zjets[0] * 0.3,
        v_fn=lambda zjets: zjets[0] * 0.0,
        f_profile=Profile.linear(0.2),
        g_profile=Profile.linear(0.1),
    )


GRAM_CASES = {
    "torus-plain": (TORUS, CalabiParams.plain),
    "torus-theorem": (TORUS, lambda: theorem_metric_params(TORUS)),
    "fs-plain": (FS, CalabiParams.plain),
    "fs-off-branch": (FS, off_branch_params),
}


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_gram_reads_match_the_oracle_route_with_constant_entries(case):
    # the flat torus has Gram entries 0j off the diagonal, FS none; off the branch rho and s are not 0
    base, make_params = GRAM_CASES[case]
    params = make_params()
    for p in total_points(base, 2, seed=101):
        fr = CanonicalBundleFrame(base, params, p, 6)
        constants = [e for row in fr.gram for e in row if not isinstance(e, Jet)]
        assert (len(constants) == 2) == (base is TORUS)
        rho = ricci_form(fr.gram, fr.ctx)
        assert_forms_match(hermitian_form(fr.chart, fr.ricci), rho, 1e-13)
        s = wedge_trace(fr.metric, rho)
        assert_jets_match(fr.scalar, s, 1e-12)
        want = wedge_extremal_residual(fr.metric, rho, s, fr.ctx)
        assert extremal_residual(base, params, p) == pytest.approx(want, rel=1e-9)
        assert chern_scalar(base, params, p) == pytest.approx(s.value.real, rel=1e-12)


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
    from stromlab.forms import TypeContext, standard_acs

    ctx = TypeContext(standard_acs(FS.total_chart))
    parts = ctx.decompose(omega)
    for key in ((2, 0), (0, 2)):
        assert parts.get(key, FormValue.zero(FS.total_chart, 2)).sup() <= 1e-12
    rng = random.Random(11)
    acs = standard_acs(FS.total_chart)
    for _ in range(8):
        v = [rng.uniform(-1, 1) for _ in range(4)]
        jv = [sum(complex(acs.coeffs[0, u, w]) * v[u] for u in range(4)).real for w in range(4)]
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
    f = Profile.linear(0.0)
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


@pytest.mark.parametrize("c, c0", [(0.5, 2.0), (-0.7, 0.3)])
def test_theorem_family_away_from_its_default_constants(c, c0):
    # every other test builds c = 0 and C0 = 1, where the sign of c in g = -n f + c never shows
    params = theorem_metric_params(FS, c=c, c0=c0)
    pts = total_points(FS, 6, seed=59)
    for p in pts:
        assert km_balanced_residual(FS, params, p) <= 1e-8
        assert extremal_residual(FS, params, p) <= 1e-8
        assert abs(chern_scalar(FS, params, p)) <= 1e-8
    assert constant_norm_residual(FS, params, pts) <= 1e-9


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
    from stromlab.calabi import extremal_residual_of
    from stromlab.twistor import C3_CHART

    ctx = TypeContext(standard_acs(C3_CHART))
    x = seed_jets(coords, 6)
    f = (sum((xi * xi for xi in x[1:]), x[0] * x[0]) * c).exp()
    H = [[f if i == j else 0.0 for j in range(3)] for i in range(3)]
    det = mat_det(H)
    rho = ricci_matrix(det, C3_CHART)
    return extremal_residual_of(hermitian_form(C3_CHART, H), H, det, rho, metric_trace(H, det, rho), ctx)


def test_extremal_fails_on_nonzero_scalar_metric():
    # e^{0.2|x|^2} times the flat metric has a nonzero Chern scalar; the flat metric itself passes
    for coords in [(0.5, 0.3, 0.6, -0.4, 0.8, 0.2), (-0.7, 0.1, 0.2, 0.9, -0.3, 0.4)]:
        res = conformally_flat_extremal_residual(coords, 0.2)
        assert res >= 1e-4
        assert conformally_flat_extremal_residual(coords, 0.0) <= 1e-12


def sympy_i_ddbar_times_omega0(u, xs, coords, dps: int = 30) -> dict:
    """i del dbar(u omega_0) on C^3, omega_0 = i sum_j dz_j ^ dzbar_j, at ``coords`` in ``dps``-digit arithmetic.

    omega_0 has constant coefficients, so the form is (i del dbar u) ^ omega_0,
    with i del dbar u = sum_jk i u_{j kbar} dz_j ^ dzbar_k and
    u_{j kbar} = (d_x2j - i d_x2j+1)(d_x2k + i d_x2k+1) u / 4.  The wedges
    are expanded here in the real differentials, by sorting multi-indices.
    Returns the coefficients as mpmath numbers keyed by increasing 4-tuples.
    """
    import mpmath
    import sympy

    with mpmath.workdps(dps):
        hess = sympy.lambdify(xs, sympy.hessian(u, xs), "mpmath")(*(mpmath.mpf(x) for x in coords))
        i = mpmath.mpc(0, 1)

        def wedge(a, b):
            out = {}
            for ma, ca in a.items():
                for mb, cb in b.items():
                    if not set(ma) & set(mb):
                        merged = ma + mb
                        sign = -1 if sum(x > y for k, x in enumerate(merged) for y in merged[k + 1 :]) % 2 else 1
                        key = tuple(sorted(merged))
                        out[key] = out.get(key, 0) + sign * ca * cb
            return out

        dz = [{(2 * j,): 1, (2 * j + 1,): i} for j in range(3)]
        dzbar = [{(2 * j,): 1, (2 * j + 1,): -i} for j in range(3)]
        two_forms = {}
        for j in range(3):
            for k in range(3):
                a, b = 2 * j, 2 * k
                ujk = (hess[a, b] + i * hess[a, b + 1] - i * hess[a + 1, b] + hess[a + 1, b + 1]) / 4
                for key, c in wedge(dz[j], dzbar[k]).items():
                    two_forms[key] = two_forms.get(key, 0) + i * ujk * c
        omega0 = {}
        for j in range(3):
            for key, c in wedge(dz[j], dzbar[j]).items():
                omega0[key] = omega0.get(key, 0) + i * c
        return wedge(two_forms, omega0)


EXTREMAL_POINTS = [(0.5, 0.3, 0.6, -0.4, 0.8, 0.2), (-0.7, 0.1, 0.2, 0.9, -0.3, 0.4)]


def conformally_flat_extremal_sides(monkeypatch) -> list:
    """The (lhs, rhs) that extremal_residual_of compares, at each of EXTREMAL_POINTS, for c = 0.2."""
    seen, compare = [], calabi.identity_residual
    monkeypatch.setattr(
        calabi, "identity_residual", lambda lhs, rhs, *scales: seen.append((lhs, rhs)) or compare(lhs, rhs, *scales)
    )
    for coords in EXTREMAL_POINTS:
        conformally_flat_extremal_residual(coords, 0.2)
    return seen


def assert_matches_sympy_4_form(got, want: dict):
    assert got.degree == 4 and set(got.terms) <= set(want)
    sup = max(abs(w) for w in want.values())
    assert sup >= 0.1
    assert max(abs(complex(w) - got.coefficient(K)) for K, w in want.items()) <= 1e-10 * float(sup)


def conformally_flat_scalar():
    """(c, xs, phi, s) for omega = e^{c|x|^2} omega_0 on C^3, c = 1/5: s = tr_omega rho = -9c e^{-c|x|^2}."""
    import sympy

    c = sympy.Rational(1, 5)
    xs = sympy.symbols("x0:6", real=True)
    phi = c * sum(x * x for x in xs)
    s = -3 * sympy.exp(-phi) * flat_laplacian(phi, xs)
    assert sympy.simplify(s + 9 * c * sympy.exp(-phi)) == 0
    return c, xs, phi, s


def flat_laplacian(f, xs):
    """sum_j d_j d_jbar f on C^3."""
    import sympy

    return sum(sympy.diff(f, xs[2 * j], 2) + sympy.diff(f, xs[2 * j + 1], 2) for j in range(3)) / 4


def test_extremal_right_side_matches_sympy_at_30_digits(monkeypatch):
    # For omega = e^{c|x|^2} omega_0 on C^3, log det g = 3c|x|^2, so
    # rho = -3c i del dbar |x|^2 = -3c omega_0 and s = tr_omega rho =
    # -3 e^{-c|x|^2} sum_j d_j d_jbar (c|x|^2) = -9c e^{-c|x|^2}; sympy takes
    # s from that trace.  The right side that extremal_residual_of compares is
    # i del dbar((2 Lap s + s^2) omega) with Lap s = tr_omega(i del dbar s) =
    # e^{-c|x|^2} sum_j d_j d_jbar s, held here against sympy: it checks
    # del_dbar_at_point on the calabi path against code it does not share
    import sympy

    c, xs, phi, s = conformally_flat_scalar()
    # u = (2 Lap s + s^2) e^{c|x|^2}, collected into one exponential times a polynomial
    u = sympy.factor_terms(sympy.powsimp(sympy.expand((2 * sympy.exp(-phi) * flat_laplacian(s, xs) + s**2) * sympy.exp(phi))))
    for coords, (_, rhs) in zip(EXTREMAL_POINTS, conformally_flat_extremal_sides(monkeypatch)):
        assert_matches_sympy_4_form(rhs, sympy_i_ddbar_times_omega0(u, xs, coords))


def test_extremal_left_side_matches_sympy_at_30_digits(monkeypatch):
    # The left side is 2(n-1) i del dbar s ^ rho with n = 3 and rho = -3c omega_0
    # (see the right side's test), so it is i del dbar(-12c s) ^ omega_0
    c, xs, _, s = conformally_flat_scalar()
    for coords, (lhs, _) in zip(EXTREMAL_POINTS, conformally_flat_extremal_sides(monkeypatch)):
        assert_matches_sympy_4_form(lhs, sympy_i_ddbar_times_omega0(-12 * c * s, xs, coords))


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
    # extremal_residual and chern_scalar read the one Ricci matrix of the frame they share
    params = theorem_metric_params(FS)
    p = total_points(FS, 1, seed=97)[0]
    ricci_builds, build = [], calabi.ricci_matrix
    monkeypatch.setattr(calabi, "ricci_matrix", lambda det, chart: ricci_builds.append(chart) or build(det, chart))
    for ops in ((extremal_residual, chern_scalar), (chern_scalar, extremal_residual)):
        jets._KEPT.clear()
        for op in ops:
            op(FS, params, p)
            op(FS, params, p)
    # the order-6 frame serves chern_scalar; an order-2 frame does not serve extremal_residual
    assert len(frames_built) == len(ricci_builds) == 3


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
