import math
import random
from functools import reduce
from itertools import combinations, product
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stromlab.forms import (
    AlmostComplexStructure,
    Chart,
    ChartMismatch,
    ChartPoint,
    DegreeError,
    DomainError,
    FormValue,
    TypeContext,
    _complex_basis_matrices,
    acs_from_complex_action,
    closedness_residual,
    curvature_residual,
    d_complex,
    d_complex_bar,
    del_dbar_at_point,
    exterior_derivative,
    exterior_derivative_with_scale,
    form_power,
    hermitian_form,
    hermitian_wedge,
    identity_residual,
    is_zero_scalar,
    mat_inv,
    matrix_wedge_trace,
    nan_max,
    point,
    relative_residual,
    standard_acs,
    top_ratio,
)
from stromlab.jets import InsufficientJetOrder, Jet, jet_space, seed_jets
from stromlab import forms as forms_module
from stromlab.calabi import CalabiParams, CanonicalBundleFrame, flat_torus_chart, fubini_study_cp1, theorem_metric_params
from stromlab.hyperkahler import FLAT_CHART, eguchi_hanson, flat_model
from stromlab.sampling import random_ansatz_params, sample_points
from stromlab.twistor import C3_CHART, TWISTOR_EH, TWISTOR_FLAT, AnsatzMetric, AnsatzParams, TwistorFrame
from stromlab import twistor as twistor_module

from form_oracles import i_ddbar, jet_del_dbar, pairwise_curvature_terms, square_residual, stacked, to_complex_components

LINE = Chart("complex_line", ("zr", "zi"), ("zeta",))
C2 = Chart("c2", ("x1", "x2", "x3", "x4"), ("z1", "z2"))


def random_polynomial_form(chart, degree, rng, order, coords):
    """Form whose coefficients are random cubic polynomials, as jets."""
    from itertools import combinations

    jets = seed_jets(coords, order)
    terms = {}
    for multi in combinations(range(chart.dim), degree):
        coeff = jets[0] * 0.0
        for _ in range(3):
            mono = jets[0] * 0.0 + rng.uniform(-1, 1)
            for v in range(chart.dim):
                for _ in range(rng.randrange(0, 2)):
                    mono = mono * jets[v]
            coeff = coeff + mono
        terms[multi] = coeff
    return FormValue(chart, degree, terms)


# -- wedge algebra ----------------------------------------------------------


def d_real(chart, v):
    return FormValue(chart, 1, {(v,): 1.0 + 0.0j})


def test_wedge_basis_case():
    a = d_real(C2, 0)
    b = d_real(C2, 1)
    w = a.wedge(b)
    assert w.terms == {(0, 1): 1.0 + 0.0j}


def test_wedge_odd_square_is_zero():
    a = d_real(C2, 0) + d_real(C2, 2).scale(2.5 + 1j)
    assert not a.wedge(a).terms


def test_wedge_repeated_differential_dies():
    dz = d_complex(C2, 0)
    dzb = d_complex_bar(C2, 0)
    two = dz.wedge(dzb)
    assert not two.wedge(dz.scale(3.0)).terms
    assert not dz.wedge(dz).terms


def test_wedge_degree_overflow_raises():
    dz = d_complex(LINE, 0)
    dzb = d_complex_bar(LINE, 0)
    with pytest.raises(DegreeError):
        dz.wedge(dzb).wedge(dz.wedge(dzb))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.randoms(use_true_random=False))
def test_graded_commutativity_exact(da, db, rng):
    from itertools import combinations

    def rand_form(degree):
        terms = {}
        for multi in combinations(range(C2.dim), degree):
            terms[multi] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return FormValue(C2, degree, terms)

    a, b = rand_form(da), rand_form(db)
    lhs = a.wedge(b)
    rhs = b.wedge(a).scale((-1.0) ** (da * db))
    assert lhs.terms.keys() == rhs.terms.keys()
    for m in lhs.terms:
        assert lhs.terms[m] == rhs.terms[m]  # exact coefficient arithmetic


def test_wedge_associative():
    import random

    rng = random.Random(7)
    forms = [
        FormValue(C2, 1, {(v,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for v in range(4)})
        for _ in range(3)
    ]
    left = forms[0].wedge(forms[1]).wedge(forms[2])
    right = forms[0].wedge(forms[1].wedge(forms[2]))
    for m in set(left.terms) | set(right.terms):
        assert left.coefficient(m) == pytest.approx(right.coefficient(m), abs=1e-15)


def bucket_wedge(a, b):
    """a ^ b with the index merges and the summation order worked out on every call."""
    buckets: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            merged, sign = forms_module._merge_indices(ma, mb)
            if merged is None:
                continue
            c = ca * cb if sign > 0 else -(ca * cb)
            key = (ma, mb) if ma <= mb else (mb, ma)
            buckets.setdefault(merged, {}).setdefault(key, []).append(c)
    terms: dict = {}
    for merged, groups in buckets.items():
        acc = None
        for key in sorted(groups):
            cs = groups[key]
            part = cs[0] + cs[1] if len(cs) == 2 else cs[0]
            acc = part if acc is None else acc + part
        terms[merged] = acc
    return FormValue(a.chart, a.degree + b.degree, terms)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.complex128).reshape(-1).view(np.uint64)


def assert_same_terms(got, want):
    """The same multi-indices in the same order, each coefficient the same bits."""
    assert got.degree == want.degree and list(got.terms) == list(want.terms)
    for g, w in zip(got.terms.values(), want.terms.values()):
        if isinstance(w, Jet):
            assert isinstance(g, Jet) and (g.order, g.mask) == (w.order, w.mask)
            g, w = g.c, w.c
        assert np.array_equal(bits(g), bits(w))


def random_wedge_operand(degree, rng, jets):
    """A form on the 6-dimensional flat twistor chart with some terms left out.

    Jet coefficients carry random masks and orders; one of them has an
    exactly zero value and one a NaN value.  Pointwise coefficients
    include a NaN.
    """
    space = jet_space(TWISTOR_FLAT.dim, 4)
    multis = list(combinations(range(TWISTOR_FLAT.dim), degree))
    chosen = rng.sample(multis, rng.randint(max(1, len(multis) // 2), len(multis)))
    terms = {}
    for i, m in enumerate(chosen):
        if jets:
            c = random_masked_jet(space, rng)
            if i == 0:
                c.c[0] = 0.0
            elif i == 1:
                c.c[0] = complex(math.nan, 0.0)
        else:
            c = complex(math.nan, 1.0) if i == 1 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms[m] = c
    return FormValue(TWISTOR_FLAT, degree, terms)


@pytest.mark.parametrize("jets", [False, True], ids=["complex", "jet"])
@pytest.mark.parametrize("da,db", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_wedge_plan_equals_the_bucket_wedge_term_for_term(da, db, jets):
    rng = random.Random(10 * da + db + 100 * jets)
    with np.errstate(invalid="ignore"):
        for _ in range(4):
            a = random_wedge_operand(da, rng, jets)
            b = random_wedge_operand(db, rng, jets)
            for x, y in ((a, b), (b, a), (a, a), (b, b)):
                if x.degree + y.degree <= TWISTOR_FLAT.dim:
                    assert_same_terms(x.wedge(y), bucket_wedge(x, y))
    # a ^ a of a 1-form sums every coefficient to an exact zero, which is dropped
    one = FormValue(TWISTOR_FLAT, 1, {(v,): complex(rng.uniform(-1, 1), 0.5) for v in range(6)})
    assert not one.wedge(one).terms and not bucket_wedge(one, one).terms


def test_wedge_plan_is_built_once_per_term_pattern():
    b = FormValue(TWISTOR_FLAT, 2, {(1, 2): 0.5, (0, 4): -1.0 + 0.5j, (3, 5): 2.0})
    FormValue(TWISTOR_FLAT, 1, {(0,): 1.0, (3,): 2j}).wedge(b)
    before = forms_module._wedge_plan.cache_info()
    FormValue(TWISTOR_FLAT, 1, {(0,): -3.0, (3,): 0.25}).wedge(b)
    after = forms_module._wedge_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# -- exterior derivative ----------------------------------------------------


def test_d_of_x_dx():
    jets = seed_jets((0.3, 0.8, -0.4, 0.9), 2)
    form = FormValue(C2, 1, {(1,): jets[0]})  # x1 dx2
    d = exterior_derivative(form)
    assert d.values().terms == {(0, 1): 1.0 + 0.0j}


def test_d_squared_zero_random_polynomials():
    import random

    rng = random.Random(3)
    coords = (0.5, -0.2, 0.7, 0.1)
    for degree in (0, 1, 2):
        form = random_polynomial_form(C2, degree, rng, 3, coords)
        dd = exterior_derivative(exterior_derivative(form))
        scale = max(form.sup(), 1.0)
        assert dd.sup() <= 1e-12 * scale


def test_leibniz_rule():
    import random

    rng = random.Random(11)
    coords = (0.4, 0.25, -0.7, 1.1)
    a = random_polynomial_form(C2, 1, rng, 3, coords)
    b = random_polynomial_form(C2, 1, rng, 3, coords)
    lhs = exterior_derivative(a.wedge(b))
    rhs = exterior_derivative(a).wedge(b.values()) + a.values().wedge(exterior_derivative(b)).scale(-1.0)
    diff = lhs.values() - rhs.values()
    assert diff.sup() <= 1e-11 * max(a.sup() * b.sup(), 1.0)


def test_d_of_constant_form_vanishes_but_order_zero_jet_raises():
    form = FormValue(C2, 1, {(0,): 2.0 + 0.0j})
    assert not exterior_derivative(form).terms
    jets = seed_jets((0.1, 0.2, 0.3, 0.4), 0)
    with pytest.raises(InsufficientJetOrder):
        exterior_derivative(FormValue(C2, 1, {(0,): jets[0]}))


def random_masked_jet(space, rng):
    """A jet of validity order 1 to 4 whose coefficients vanish outside a random mask.

    Some slopes are exactly zero, with or without higher coefficients in their
    variable, and some are tiny with nothing above them, so d drops exactly
    zero derivatives and keeps tiny ones.
    """
    mask = rng.randrange(1 << space.nvars)
    c = np.zeros(space.size, dtype=np.complex128)
    for i, mono in enumerate(space.monomials):
        if all(not e or mask >> v & 1 for v, e in enumerate(mono)):
            c[i] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    for v in range(space.nvars):
        roll = rng.random()
        if roll < 0.3:
            c[[i for i, mono in enumerate(space.monomials) if mono[v]]] = 0.0
            c[space.first_order[v]] = 1e-305 if roll < 0.15 else 0.0
        elif roll < 0.45:
            c[space.first_order[v]] = 0.0
    return Jet(space, c, rng.randint(1, 4), mask)


def test_d_at_point_raises_on_an_order_zero_jet(monkeypatch):
    # the reads of d at the point need first partials: closedness, and d w and the dbar terms of the frame decomposition
    space = jet_space(TWISTOR_FLAT.dim, 4)
    flat = Jet(space, random_masked_jet(space, random.Random(2)).c, 0)
    with pytest.raises(InsufficientJetOrder):
        closedness_residual(FormValue(TWISTOR_FLAT, 1, {(0,): flat}))
    constant = seed_jets((0.1, 0.2, 0.3, 0.4), 0)[0]
    with pytest.raises(InsufficientJetOrder):
        closedness_residual(FormValue(C2, 1, {(1,): constant}))
    p = point(TWISTOR_FLAT, 0.6, -0.4, 0.3, 0.8, -0.5, 0.2)
    frame = TwistorFrame(flat_model(), p, 3)
    frame.coefficients  # L, C and D are kept from the unchanged w, so only the read of d w sees the change
    w = twistor_module.w_field_jets(frame)
    for bad, expected in ((lambda x: x.to_order(0), InsufficientJetOrder), (poisoned_slope, None)):
        with monkeypatch.context() as m:
            m.setattr(twistor_module, "twistor_frame", lambda model, q, order: frame)
            m.setattr(twistor_module, "w_field_jets", lambda fr: [bad(x) for x in w])
            if expected is not None:
                with pytest.raises(expected):
                    twistor_module.frame_decompose(flat_model(), p)
            else:
                # a NaN slope of w reaches d w, and so the reconstruction residual
                assert math.isnan(twistor_module.frame_decompose(flat_model(), p).reconstruction_residual)


def poisoned_slope(x):
    """x with its d/dx_2 at the point set to NaN."""
    c = x.c.copy()
    c[x.space.first_order[2]] = math.nan
    return Jet(x.space, c, x.order, x.mask)


def closedness_forms():
    """The forms the closedness residuals read: omega^2 |Omega| on flat and Eguchi-Hanson
    twistor space, and on Calabi total spaces omega_0 and omega^n of the theorem metric."""
    ok = lambda c: c[0] ** 2 + c[1] ** 2 >= 0.09 and sum(x * x for x in c[2:]) >= 0.4
    for model, chart in ((flat_model(), TWISTOR_FLAT), (eguchi_hanson(1.0), TWISTOR_EH)):
        for i, p in enumerate(sample_points(chart, 4, 31, 3, -1.2, 1.2, ok)):
            params = AnsatzParams.coupling_solution() if i == 0 else random_ansatz_params(4, i)
            ansatz = AnsatzMetric(TwistorFrame(model, p, 1), params)
            yield ansatz.metric.wedge(ansatz.metric).scale(ansatz.norm_profile())
    for base in (fubini_study_cp1(), flat_torus_chart()):
        for p in sample_points(base.total_chart, 4, 32, 3, (-1.1, -1.1, 0.45, -1.1), 1.1):
            yield CanonicalBundleFrame(base, CalabiParams.plain(), p, 1).metric
            yield form_power(CanonicalBundleFrame(base, theorem_metric_params(base), p, 1).metric, base.n)


def test_closedness_reads_d_at_the_point_as_d_with_scale_reads_it(monkeypatch):
    forms = list(closedness_forms())
    rng = random.Random(8)
    space = jet_space(TWISTOR_FLAT.dim, 4)
    for degree in range(5):
        multis = list(combinations(range(TWISTOR_FLAT.dim), degree))
        terms = {m: random_masked_jet(space, rng) for m in rng.sample(multis, rng.randint(1, min(8, len(multis))))}
        forms.append(FormValue(TWISTOR_FLAT, degree, terms))
    seen = []
    monkeypatch.setattr(forms_module, "relative_residual", lambda diff, scale: seen.append((diff, scale)) or relative_residual(diff, scale))
    for form in forms:
        want, want_scale = exterior_derivative_with_scale(form)
        closedness_residual(form)
        diff, scale = seen[-1]
        # the cancellation scale is a largest magnitude, the same bits in any order
        assert np.array_equal(bits(scale), bits(nan_max([want_scale, form.sup()])))
        # each coefficient of d sums its k + 1 contributions in another order, which
        # moves it by at most k (k + 1) ulps of the largest of them
        k = form.degree
        assert abs(diff - want.values().sup()) <= (k + 1) ** 2 * np.finfo(float).eps * want_scale
    order_zero = forms[0].map_coeffs(lambda c: c.to_order(0))
    with pytest.raises(InsufficientJetOrder):
        exterior_derivative_with_scale(order_zero)
    with pytest.raises(InsufficientJetOrder):
        closedness_residual(order_zero)


def test_closedness_refuses_jets_of_different_spaces():
    # a 1-form on flat R^4 whose coefficients come from two jet spaces read 0.5 before the one stacker
    a = Jet.variable(jet_space(4, 4), 1, 0.3) * 0.5
    b = Jet.variable(jet_space(6, 4), 0, 0.5)
    with pytest.raises(ValueError, match="different spaces"):
        closedness_residual(FormValue(FLAT_CHART, 1, {(0,): a, (1,): b}))


# -- almost complex structures ----------------------------------------------


def test_standard_acs_squares_to_minus_id():
    acs = standard_acs(C2)
    assert square_residual(acs) <= 1e-15


def test_standard_acs_eigenforms():
    acs = standard_acs(LINE)
    dz = d_complex(LINE, 0)
    assert (acs.apply(dz) - dz.scale(1j)).sup() <= 1e-15
    eta = d_real(LINE, 0).scale(0.3) + d_real(LINE, 1).scale(-1.2 + 0.5j)
    twice = acs.apply(acs.apply(eta))
    assert (twice + eta).sup() <= 1e-15


def test_the_shared_standard_structure_is_read_only():
    # standard_context shares one structure across every point of a chart
    acs = forms_module.standard_context(C2).acs
    assert acs.coeffs.shape == (1, 4, 4) and (acs.space, acs.order, acs.mask) == (None, None, 0)
    with pytest.raises(ValueError, match="read-only"):
        acs.coeffs[0, 0, 1] = 2.0
    assert acs.coeffs[0, 0, 1] == 1.0


def test_structure_rows_are_read_to_their_validity_order():
    fr = twistor_structure_frame()
    acs = fr.ctx.acs
    space = fr.zr.space
    assert acs.order == 4 and acs.taylor(2).shape == (space.prefix_sizes[2], 6, 6)
    assert np.array_equal(acs.taylor(4), acs.coeffs)
    with pytest.raises(InsufficientJetOrder, match="to order 5; they are valid to order 4"):
        acs.taylor(5)
    # a 1-form is mapped with the values at the point, and only a 1-form
    eta = FormValue(TWISTOR_FLAT, 1, {(v,): complex(v + 1, -v) for v in range(6)})
    assert np.array_equal(acs.apply(eta).to_vector(), acs.coeffs[0] @ eta.to_vector())
    with pytest.raises(DegreeError):
        acs.apply(eta.wedge(d_complex(TWISTOR_FLAT, 0)))


def test_type_decompose_partition_and_projector_idempotence():
    import random

    rng = random.Random(5)
    acs = standard_acs(C2)
    ctx = TypeContext(acs)
    from itertools import combinations

    terms = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in combinations(range(4), 2)}
    eta = FormValue(C2, 2, terms)
    parts = TypeContext(acs).decompose(eta)
    total = FormValue.zero(C2, 2)
    for f in parts.values():
        total = total + f
    assert (total - eta).sup() <= 1e-14
    for (p, q), f in parts.items():
        again = ctx.project(f, p, q)
        assert (again - f).sup() <= 1e-12


def test_type_decompose_dz_is_10():
    acs = standard_acs(C2)
    parts = TypeContext(acs).decompose(d_complex(C2, 0))
    assert parts.get((0, 1), FormValue.zero(C2, 1)).sup() <= 1e-15
    assert (parts[(1, 0)] - d_complex(C2, 0)).sup() <= 1e-15


# -- dolbeault operators ----------------------------------------------------


def test_dbar_kills_holomorphic_monomial():
    jets = seed_jets((0.4, -0.7, 0.2, 0.5), 2)
    z1 = jets[0] + 1j * jets[1]
    z2 = jets[2] + 1j * jets[3]
    f = z1 * z1 * z2
    acs = standard_acs(C2)
    dbar = TypeContext(acs).project(exterior_derivative(FormValue.scalar(C2, f)), 0, 1)
    assert dbar.values().sup() <= 1e-13


def test_d_equals_del_plus_dbar_and_no_offtype():
    import random

    rng = random.Random(9)
    coords = (0.3, 0.7, -0.1, 0.6)
    form = random_polynomial_form(C2, 1, rng, 3, coords)
    acs = standard_acs(C2)
    ctx = TypeContext(acs)
    d = exterior_derivative(form)
    del_plus_dbar = FormValue.zero(C2, 2)
    offs = []
    for (p, q), part in ctx.decompose(form).items():
        for key, piece in ctx.decompose(exterior_derivative(part)).items():
            if key in ((p + 1, q), (p, q + 1)):
                del_plus_dbar = del_plus_dbar + piece
            else:
                offs.append(piece.sup())
    diff = del_plus_dbar.values() - d.values()
    assert diff.sup() <= 1e-10 * max(1.0, d.sup())
    assert nan_max(offs) <= 1e-10 * max(1.0, d.sup())


def test_ddbar_scalar_flat_example():
    # f = |zeta|^2 gives i dzeta ^ dzeta_bar
    jets = seed_jets((0.6, -0.9), 2)
    f = jets[0] * jets[0] + jets[1] * jets[1]
    out = i_ddbar(TypeContext(standard_acs(LINE)), f)
    expected = d_complex(LINE, 0).wedge(d_complex_bar(LINE, 0)).scale(1j)
    assert (out.values() - expected).sup() <= 1e-13


def test_ddbar_log_s_is_half_round_metric():
    # i del dbar log(1 + |zeta|^2) = omega_round / 2
    for zeta in (0.3 + 0.4j, -1.1 + 0.2j):
        jets = seed_jets((zeta.real, zeta.imag), 2)
        f = (1.0 + jets[0] * jets[0] + jets[1] * jets[1]).log()
        out = i_ddbar(TypeContext(standard_acs(LINE)), f)
        s = 1.0 + abs(zeta) ** 2
        expected = d_complex(LINE, 0).wedge(d_complex_bar(LINE, 0)).scale(1j / s**2)
        assert (out.values() - expected).sup() <= 1e-12


def test_ddbar_real_input_gives_real_11_form():
    jets = seed_jets((0.2, 0.5, 0.3, -0.4), 2)
    f = (jets[0] * jets[2] + 2.0).log() + jets[1] * jets[1] * jets[3]
    out = i_ddbar(TypeContext(standard_acs(C2)), f)
    # real (1,1): conjugate equals itself
    assert (out.values() - out.values().conj()).sup() <= 1e-13


def test_chart_point_validation():
    with pytest.raises(ValueError):
        ChartPoint(C2, (1.0, 2.0))
    with pytest.raises(ValueError):
        point(C2, 0.0, float("nan"), 1.0, 2.0)
    p = point(C2, 0.1, 0.2, 0.3, 0.4)
    assert p.complex_coord(1) == complex(0.3, 0.4)


def test_sup_and_relative_residual_propagate_nan():
    form = FormValue(C2, 1, {(0,): 1e-20, (1,): complex(float("nan"), 0.0)})
    assert math.isnan(form.sup())
    assert relative_residual(form.sup(), 1.0) == math.inf
    assert relative_residual(1e-20, float("inf")) == math.inf
    assert not relative_residual(1e-20, float("nan")) <= 1e-8


def test_nan_max_propagates_nan_in_any_position():
    nan = float("nan")
    assert math.isnan(nan_max([1e-20, nan]))
    assert math.isnan(nan_max([nan, 1.0]))
    assert math.isnan(nan_max(iter([0.0, 2.0, nan, 3.0])))
    assert nan_max([0.5, math.inf, 2.0]) == math.inf
    assert nan_max([]) == 0.0


def curvature_terms(monkeypatch, F, forms, ctx):
    """The residual of ``curvature_residual`` and the (diff sup, scale) it normalised."""
    seen = []

    def spy(diff, scale):
        seen.append((diff, scale))
        return relative_residual(diff, scale)

    with monkeypatch.context() as m:
        m.setattr(forms_module, "relative_residual", spy)
        res = curvature_residual(F, forms, ctx)
    return res, seen[-1]


def test_cancellation_scales_propagate_a_nan_that_is_not_first(monkeypatch):
    nan = complex(float("nan"), 0.0)
    ctx = TypeContext(standard_acs(C2))
    a = FormValue(C2, 2, {(0, 1): 1e-20, (0, 2): nan})
    res, (_, scale) = curvature_terms(monkeypatch, stacked([[a]]), [FormValue(C2, 2, {(2, 3): 1.0})], ctx)
    assert math.isnan(scale) and res == math.inf
    # d of 1e-20 x2 dx1 contributes 1e-20 first, then a NaN x1-slope on dx3
    x = seed_jets((0.1, 0.2, 0.3, 0.4), 1)
    slope_nan = x[0] * 0.0 + 0.5
    slope_nan.c[x[0].space.index[(1, 0, 0, 0)]] = nan
    form = FormValue(C2, 1, {(0,): x[1] * 1e-20, (2,): slope_nan})
    _, scale = exterior_derivative_with_scale(form)
    assert math.isnan(scale)


def test_shape_residuals_fail_on_a_nan_that_is_not_first():
    nan = complex(float("nan"), 0.0)
    # d of 1e-20 x2 dx1 + 0.5 dx3 is tiny; a NaN x1-slope on the dx3 coefficient is not its first term
    x = seed_jets((0.1, 0.2, 0.3, 0.4), 1)
    slope = x[0] * 0.0 + 0.5
    assert closedness_residual(FormValue(C2, 1, {(0,): x[1] * 1e-20, (2,): slope})) <= 1e-8
    slope.c[x[0].space.index[(1, 0, 0, 0)]] = nan
    assert not closedness_residual(FormValue(C2, 1, {(0,): x[1] * 1e-20, (2,): slope})) <= 1e-8

    tiny = FormValue(C2, 2, {(0, 1): 1e-20})
    poisoned = FormValue(C2, 2, {(0, 1): 1e-20, (2, 3): nan})
    zero = FormValue.zero(C2, 2)
    assert identity_residual(tiny, zero, 1.0) <= 1e-8
    for args in ((poisoned, zero), (zero, poisoned), (tiny, zero, 1.0, math.nan)):
        assert not identity_residual(*args) <= 1e-8

    ctx = TypeContext(standard_acs(C2))
    omega = hermitian_form(C2, [[1.0, 0.0], [0.0, 1.0]])
    assert curvature_residual(stacked([[tiny, tiny]]), [omega], ctx) <= 1e-8
    for forms in ([], [omega]):
        assert not curvature_residual(stacked([[tiny, poisoned]]), forms, ctx) <= 1e-8
    assert not curvature_residual(stacked([[tiny, tiny]]), [omega, poisoned], ctx) <= 1e-8


def test_pointwise_readers_refuse_a_form_with_jet_coefficients_by_name():
    x = seed_jets((0.3, -0.2, 0.5, 0.1), 1)
    form = FormValue(C2, 1, {(0,): x[0], (2,): 2.0 + 0.0j})
    ctx = TypeContext(standard_acs(C2))
    for read in (lambda: ctx.acs.apply(form), lambda: curvature_residual(np.zeros((1, 1, 6)), [form], ctx)):
        with pytest.raises(TypeError, match=r"jet coefficients; take \.values\(\) first"):
            read()
    assert ctx.acs.apply(form.values()).to_vector().tolist() == [0.0, -0.3, 0.0, -2.0]


def test_is_zero_scalar_reads_every_jet_coefficient():
    slope = seed_jets((0.0, 1.0), 2)[0]
    assert not is_zero_scalar(slope)
    assert not is_zero_scalar(Jet.constant(jet_space(2, 2), float("nan")))
    assert is_zero_scalar(slope * 0.0)


def test_is_zero_scalar_reads_no_coefficient_above_the_validity_order():
    slope = seed_jets((0.0, 1.0), 2)[0]
    assert is_zero_scalar(slope.to_order(0))
    c = (slope * slope).c.copy()  # x^2 at x = 0: zero to order 1
    c[3:] = float("nan")  # every coefficient of degree 2
    assert is_zero_scalar(Jet(slope.space, c, 1, slope.mask))
    assert not is_zero_scalar(Jet(slope.space, c, 2, slope.mask))


def test_mat_inv_raises_a_domain_error_on_a_singular_matrix():
    with pytest.raises(DomainError):
        mat_inv([[1.0 + 2.0j, 2.0 - 1.0j], [2.0 + 4.0j, 4.0 - 2.0j]])
    # dyadic values keep the elimination exact, so the second pivot is exactly 0
    x, y = seed_jets((0.5, -0.25), 2)
    with pytest.raises(DomainError):
        mat_inv([[x, y], [x * 2.0, y * 2.0]])


def random_jet_matrix(n, rng, zero_leading=False, hermitian=False):
    """A seeded n x n matrix of order-3 jets in 6 variables, diagonally dominant in value.

    With ``hermitian`` the entries below the diagonal are the conjugates of
    those above and the diagonal is real, so the matrix is Hermitian
    positive definite for n <= 3.  With ``zero_leading`` the first two rows
    are swapped and the leading entry's value is set to 0.
    """
    space = jet_space(6, 3)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c = 0.3 * (rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size))
            c[0] = (3.0 + rng.uniform()) if i == j else complex(*rng.uniform(-1.0, 1.0, 2))
            if hermitian and i == j:
                c = c.real.astype(np.complex128)
            row.append(rows[j][i].conjugate() if hermitian and j < i else Jet(space, c))
        rows.append(row)
    if zero_leading:
        rows[0], rows[1] = rows[1], rows[0]
        rows[0][0].c[0] = 0.0
    return rows


def test_mat_inv_raises_a_domain_error_on_a_zero_pivot():
    # elimination without pivoting: an invertible matrix with a zero leading value is refused, not permuted
    A = random_jet_matrix(3, np.random.default_rng(43), zero_leading=True)
    with pytest.raises(DomainError):
        mat_inv(A)
    with pytest.raises(DomainError):
        mat_inv([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("n,hermitian", [(2, False), (3, True), (4, False)])
def test_mat_inv_of_jet_matrices_against_the_identity(n, hermitian, monkeypatch):
    # oracle: A A^-1 = A^-1 A = I on every coefficient up to the validity
    # order, from plain jet products; one reciprocal per pivot
    A = random_jet_matrix(n, np.random.default_rng(40 + n), hermitian=hermitian)
    if hermitian:
        values = np.array([[e.value for e in row] for row in A])
        assert np.array_equal(values, values.conj().T) and np.linalg.eigvalsh(values).min() > 0
    calls = []
    reciprocal = Jet.reciprocal

    def counted(jet):
        calls.append(jet)
        return reciprocal(jet)

    monkeypatch.setattr(Jet, "reciprocal", counted)
    inv = mat_inv(A)
    assert len(calls) == n
    monkeypatch.undo()
    keep = A[0][0].space.prefix_sizes[3]
    for left, right in ((A, inv), (inv, A)):
        for i in range(n):
            for j in range(n):
                entry = left[i][0] * right[0][j]
                for k in range(1, n):
                    entry = entry + left[i][k] * right[k][j]
                assert entry.order == 3
                want = np.zeros(keep, dtype=np.complex128)
                want[0] = 1.0 if i == j else 0.0
                assert np.max(np.abs(entry.c[:keep] - want)) <= 1e-12


def acs_oracle(chart, action):
    """T action T^-1 entry by entry: sum over (l, k) in order, skipping zero terms."""
    n = chart.dim
    T, Tinv = _complex_basis_matrices(chart)
    mat = []
    for w in range(n):
        row = []
        for v in range(n):
            acc = 0.0 + 0.0j
            for l in range(n):
                for k in range(n):
                    a = action[l][k]
                    if T[w, l] != 0 and Tinv[k, v] != 0 and not is_zero_scalar(a):
                        acc = acc + T[w, l] * (a * Tinv[k, v])
            row.append(acc)
        mat.append(row)
    return mat


def test_acs_from_complex_action_matches_the_entrywise_sum():
    rng = random.Random(151)
    x = seed_jets([rng.uniform(-1, 1) for _ in range(6)], 4)
    pool = [
        lambda: x[0] * x[1] * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        lambda: (x[2] + 0.5).exp().to_order(2),
        lambda: x[3] * 0.0,  # exactly zero: combines nothing
        lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        lambda: 0.0 + 0.0j,
    ]
    for trial in range(5):
        action = [[rng.choice(pool)() for _ in range(6)] for _ in range(6)]
        if trial == 4:  # numbers only: a constant structure
            action = [[pool[3]() for _ in range(6)] for _ in range(6)]
        acs = acs_from_complex_action(TWISTOR_FLAT, action)
        jets = [a for a in sum(action, []) if isinstance(a, Jet)]
        # one validity order, the lowest, and one mask, the union, for the whole structure
        assert acs.order == min((a.order for a in jets), default=None)
        assert acs.mask == reduce(or_, (a.mask for a in jets), 0)
        assert len(acs.coeffs) == (x[0].space.prefix_sizes[acs.order] if jets else 1)
        assert not acs.coeffs.flags.writeable
        want = acs_oracle(TWISTOR_FLAT, action)
        for w, v in product(range(6), repeat=2):
            e = want[w][v]
            expect = np.zeros(len(acs.coeffs), dtype=np.complex128)
            if isinstance(e, Jet):
                expect[:] = e.c[: len(expect)]
            else:
                expect[0] = e
            assert np.array_equal(acs.coeffs[:, w, v], expect)


def test_complex_components_cache_is_per_chart():
    # same name, different dimension: each chart gets its own basis inverse
    line = Chart("c2", ("x", "y"), ("z",))
    assert to_complex_components(d_complex(C2, 1))[1] == pytest.approx(1.0)
    assert to_complex_components(d_complex_bar(line, 0)) == pytest.approx([0.0, 1.0])



# -- traces of matrices of forms -----------------------------------------------


def random_point_matrix(chart, n, degree, rng):
    """n x n pointwise forms, each on a random subset of the degree's multi-indices."""
    multis = list(combinations(range(chart.dim), degree))
    return [
        [
            FormValue(
                chart,
                degree,
                {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in multis if rng.random() < 0.6},
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def scaled_point_matrix(chart, n, degree, rng):
    """``random_point_matrix`` with each coefficient scaled by a random power of ten in [1e-2, 1e2]."""
    M = random_point_matrix(chart, n, degree, rng)
    return [[entry.map_coeffs(lambda c: c * 10.0 ** rng.uniform(-2, 2)) for entry in row] for row in M]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_residual_matches_the_pairwise_oracle(n, monkeypatch):
    rng = random.Random(40 + n)
    twistor = TwistorFrame(flat_model(), point(TWISTOR_FLAT, 0.6, -0.4, 0.3, 0.8, -0.5, 0.2), 1).ctx
    for chart, ctx, k in ((C2, TypeContext(standard_acs(C2)), 2), (TWISTOR_FLAT, twistor, 4)):
        for trial in range(4):
            F = scaled_point_matrix(chart, n, 2, rng)
            forms = [scaled_point_matrix(chart, 1, k, rng)[0][0] for _ in range(trial % 3)]
            res, (_, scale) = curvature_terms(monkeypatch, stacked(F), forms, ctx)
            want_diff, want_scale = pairwise_curvature_terms(F, forms, ctx)
            want = relative_residual(want_diff, want_scale)
            assert scale == want_scale
            assert abs(res - want) <= 1e-14 * want


def test_curvature_residual_refuses_a_curvature_or_a_form_off_its_chart():
    ctx = TypeContext(standard_acs(C2))
    F = stacked([[hermitian_form(C2, [[1.0, 0.5j], [-0.5j, 2.0]])]])
    assert curvature_residual(F, [], ctx) <= 1e-15
    # a curvature from outside on the 6-dimensional twistor chart has 15 coefficients, not 6
    with pytest.raises(ChartMismatch):
        curvature_residual(np.zeros((1, 1, 15), dtype=np.complex128), [], ctx)
    with pytest.raises(ChartMismatch):
        curvature_residual(F, [FormValue(TWISTOR_FLAT, 2, {(0, 1): 1.0})], ctx)
    with pytest.raises(DegreeError):
        curvature_residual(F, [FormValue(C2, 3, {(0, 1, 2): 1.0})], ctx)


def wedge_trace_oracle(A, B):
    out = FormValue.zero(A[0][0].chart, A[0][0].degree + B[0][0].degree)
    for i in range(len(A)):
        for j in range(len(A)):
            out = out + A[i][j].wedge(B[j][i])
    return out


@pytest.mark.parametrize("chart, n", [(C2, 2), (TWISTOR_FLAT, 3)])
def test_matrix_wedge_trace_matches_the_sum_of_entry_wedges(chart, n):
    rng = random.Random(220 + chart.dim)
    for trial in range(6):
        A = random_point_matrix(chart, n, 2, rng)
        B = A if trial % 2 else random_point_matrix(chart, n, 2, rng)
        got, want = matrix_wedge_trace(stacked(A), stacked(B), chart), wedge_trace_oracle(A, B)
        assert got.degree == 4
        assert (got - want).sup() <= 1e-14 * want.sup()


def test_matrix_wedge_trace_propagates_a_nan_from_any_entry():
    rng = random.Random(7)
    nan = complex(float("nan"), 0.0)
    for i, j, side in product(range(3), range(3), range(2)):
        A = random_point_matrix(TWISTOR_FLAT, 3, 2, rng)
        B = random_point_matrix(TWISTOR_FLAT, 3, 2, rng)
        M = (A, B)[side]
        M[i][j] = FormValue(TWISTOR_FLAT, 2, {**M[i][j].terms, rng.choice(list(combinations(range(6), 2))): nan})
        assert math.isnan(matrix_wedge_trace(stacked(A), stacked(B), TWISTOR_FLAT).sup())
    # every pair of entries collides, so no wedge of the NaN survives; the trace is still NaN
    one = [[FormValue(TWISTOR_FLAT, 2, {(0, 1): 1.0 + 0.0j})]]
    assert wedge_trace_oracle(one, one).sup() == 0.0
    with_nan = [[FormValue(TWISTOR_FLAT, 2, {(0, 1): nan})]]
    assert math.isnan(matrix_wedge_trace(stacked(with_nan), stacked(one), TWISTOR_FLAT).sup())


# -- del dbar at the point -------------------------------------------------------


def random_two_form(chart, space, order, rng):
    """A 2-form of jets valid to ``order``, each supported on a random mask of variables.

    One coefficient is an exactly zero jet (which the form drops), one a
    constant jet and one a plain complex number; the rest are random on the
    monomials of their mask, drawn as the union of two random masks.
    """
    multis = list(combinations(range(chart.dim), 2))
    zero, constant, number = rng.sample(range(len(multis)), 3)
    terms = {}
    for r, multi in enumerate(multis):
        if r == zero:
            terms[multi] = Jet.constant(space, 0.0, order)
        elif r == constant:
            terms[multi] = Jet.constant(space, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), order)
        elif r == number:
            terms[multi] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        else:
            terms[multi] = random_supported_jet(space, order, rng)
    return FormValue(chart, 2, terms)


def random_supported_jet(space, order, rng):
    """A jet valid to ``order``, random on the monomials of a mask drawn as the union of two random masks."""
    mask = rng.randrange(1 << space.nvars) | rng.randrange(1 << space.nvars)
    c = np.zeros(space.size, dtype=np.complex128)
    for i, mono in enumerate(space.monomials):
        if all(not e or mask >> v & 1 for v, e in enumerate(mono)):
            c[i] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Jet(space, c, order, mask)


def twistor_structure_frame():
    return TwistorFrame(flat_model(), point(TWISTOR_FLAT, 0.6, -0.4, 0.3, 0.8, -0.5, 0.2), 4)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_del_dbar_at_point_matches_the_jet_route(order):
    rng = random.Random(300 + order)
    fr = twistor_structure_frame()
    total = fubini_study_cp1().total_chart
    cases = [(fr.ctx, TWISTOR_FLAT, fr.zr.space), (forms_module.standard_context(total), total, jet_space(4, 4))]
    for ctx, chart, space in cases:
        sups = []
        for trial in range(4):
            form = random_two_form(chart, space, order, rng)
            assert len(form.terms) == (14 if chart is TWISTOR_FLAT else 5)
            got, want = del_dbar_at_point(ctx, form), jet_del_dbar(ctx, form)
            assert got.degree == 4
            # a zero del dbar (three random coefficients on the 4-dimensional chart) must be read as zero
            assert (got - want).sup() <= 1e-14 * want.sup()
            sups.append(want.sup())
        assert sum(s > 0.1 for s in sups) >= 3, sups
        # degree 0, del dbar f of functions, and on the 6-dimensional chart degree 4
        forms = [FormValue.scalar(chart, random_supported_jet(space, order, rng)) for _ in range(4)]
        if chart is TWISTOR_FLAT:
            forms.append(FormValue(chart, 4, {m: random_supported_jet(space, order, rng) for m in combinations(range(6), 4)}))
        for form in forms:
            got, want = del_dbar_at_point(ctx, form), jet_del_dbar(ctx, form)
            assert got.degree == form.degree + 2 and want.sup() >= 0.01
            assert (got - want).sup() <= 1e-14 * want.sup()


def test_del_dbar_at_point_raises_below_the_orders_it_reads():
    fr = twistor_structure_frame()
    space = fr.zr.space
    form = random_two_form(TWISTOR_FLAT, space, 4, random.Random(310))
    low = dict(form.terms)
    low[(0, 3)] = Jet(space, low[(0, 3)].c, 1)
    with pytest.raises(InsufficientJetOrder, match="to order 2; they are valid to order 1"):
        del_dbar_at_point(fr.ctx, FormValue(TWISTOR_FLAT, 2, low))
    # a structure whose jets are valid to order 0 has no slopes for the (1,2) projection
    acs = fr.ctx.acs
    flat_acs = AlmostComplexStructure(TWISTOR_FLAT, acs.coeffs[:1], acs.space, 0, acs.mask)
    with pytest.raises(InsufficientJetOrder, match="structure valid to order 1"):
        del_dbar_at_point(TypeContext(flat_acs), form)
    with pytest.raises(InsufficientJetOrder):
        jet_del_dbar(TypeContext(flat_acs), form)


def test_del_dbar_at_point_propagates_a_nan_second_partial():
    fr = twistor_structure_frame()
    space = fr.zr.space
    form = random_two_form(TWISTOR_FLAT, space, 2, random.Random(311))
    multi = next(m for m, c in form.terms.items() if isinstance(c, Jet) and c.mask & 0b101 == 0b101)
    c = form.terms[multi].c.copy()
    c[space.second_order[0, 2]] = math.nan
    poisoned = FormValue(TWISTOR_FLAT, 2, {**form.terms, multi: Jet(space, c, 2, form.terms[multi].mask)})
    got = del_dbar_at_point(fr.ctx, poisoned)
    assert got.terms and all(math.isnan(abs(v)) for v in got.terms.values())
    assert math.isnan(got.sup())


def test_del_dbar_at_point_refuses_another_chart_or_degree():
    fr = twistor_structure_frame()
    space = fr.zr.space
    x = fr.jets
    with pytest.raises(ChartMismatch):
        del_dbar_at_point(fr.ctx, FormValue(C2, 2, {(0, 1): x[2] * x[3]}))
    # the jet route read a 1-form as a silent zero 3-form
    with pytest.raises(DegreeError):
        del_dbar_at_point(fr.ctx, FormValue(TWISTOR_FLAT, 1, {(2,): x[2] * x[3]}))
    with pytest.raises(DegreeError):
        del_dbar_at_point(fr.ctx, random_two_form(TWISTOR_FLAT, space, 4, random.Random(312)).wedge(d_real(TWISTOR_FLAT, 0)))


def test_type_context_refuses_a_form_off_its_chart():
    # dx0..dx3 of a form on flat R^4 are not the first four coordinates of the twistor chart
    form = FormValue(FLAT_CHART, 2, {(0, 1): 1.0 + 0.0j, (2, 3): 1.0 + 0.0j})
    ctx = forms_module.standard_context(TWISTOR_FLAT)
    with pytest.raises(ChartMismatch):
        ctx.project(form, 1, 1)
    with pytest.raises(ChartMismatch):
        ctx.decompose(form)
    with pytest.raises(ChartMismatch):
        ctx.decompose(FormValue.scalar(FLAT_CHART, 1.0))
    # a chart equal by value is the same chart
    same = Chart(TWISTOR_FLAT.name, TWISTOR_FLAT.coords, TWISTOR_FLAT.complex_names)
    assert ctx.project(FormValue(same, 2, {(0, 1): 1.0 + 0.0j}), 1, 1).chart == TWISTOR_FLAT


# -- top forms -----------------------------------------------------------------


def test_form_power_and_top_ratio_of_a_hermitian_form():
    omega = hermitian_form(C2, [[2.0, 0.5j], [-0.5j, 1.0]])
    assert form_power(omega, 0).terms == {(): 1.0 + 0.0j}
    assert form_power(omega, 1).terms == omega.terms
    # omega^2 / 2! = det(H) (i dz1^dzb1)^(i dz2^dzb2) = 4 det(H) dx1^dy1^dx2^dy2
    assert form_power(omega, 2).coefficient((0, 1, 2, 3)) == pytest.approx(2.0 * 4.0 * 1.75)
    assert top_ratio(form_power(omega, 2).scale(3.0), form_power(omega, 2)) == pytest.approx(3.0)


@pytest.mark.parametrize("chart", [C2, C3_CHART], ids=["c2", "c3"])
def test_hermitian_wedge_matches_the_wedge_of_hermitian_forms(chart):
    rng = np.random.default_rng(chart.dim)
    m = chart.ncomplex
    for _ in range(3):
        A, B = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(2))
        want = hermitian_form(chart, A.tolist()).wedge(hermitian_form(chart, B.tolist()))
        got = hermitian_wedge(chart, A.tolist(), B.tolist())
        assert got.degree == 4 and (got - want).sup() <= 1e-14 * want.sup()
    A[0, 0] = math.nan
    assert all(math.isnan(abs(c)) for c in hermitian_wedge(chart, A, B).to_vector())


def test_top_ratio_rejects_a_form_that_is_not_positive():
    indefinite = hermitian_form(C2, [[1.0, 0.0], [0.0, -1.0]])
    numer = FormValue(C2, 4, {(0, 1, 2, 3): 1.0})
    with pytest.raises(DomainError):
        top_ratio(numer, form_power(indefinite, 2))
    with pytest.raises(DomainError):
        top_ratio(numer, FormValue(C2, 4, {(0, 1, 2, 3): complex(math.nan, 0.0)}))
    with pytest.raises(DomainError):
        top_ratio(numer, FormValue.zero(C2, 4))
