"""Type tables against a reference that expands each basis form anew.

The reference writes dx_I = dx_{i1} ^ ... ^ dx_{ik} with every factor split
as P dx_v + Q dx_v, and sums the 2^k wedges of one P/Q choice each into the
part of type (number of P factors, number of Q factors).  Every wedge is
formed anew from its k one-forms, with no shared prefix and no table.  On
a structure with jet entries the reference is read for its value and first
partials, the order to which a projection there is valid.
"""

import math
import random
from itertools import combinations, product

import numpy as np
import pytest

from stromlab.forms import AlmostComplexStructure, Chart, FormValue, TypeContext, point, standard_acs, standard_context
from stromlab.hyperkahler import flat_model
from stromlab.jets import Jet, jet_space, seed_jets
from stromlab.twistor import TWISTOR_FLAT, TwistorFrame

from form_oracles import acs_entries, project, square_residual, terms_of

C2 = Chart("c2", ("x1", "x2", "x3", "x4"), ("z1", "z2"))


def projector_images(acs):
    """[Q dx_v, P dx_v] for each v: the (0,1) and (1,0) parts of dx_v."""
    n = acs.chart.dim
    J = acs_entries(acs)
    images = []
    for v in range(n):
        q = {(w,): ((1.0 if w == v else 0.0) + 1j * J[w][v]) * 0.5 for w in range(n)}
        p = {(w,): ((1.0 if w == v else 0.0) - 1j * J[w][v]) * 0.5 for w in range(n)}
        images.append((FormValue.of_terms(acs.chart, 1, q), FormValue.of_terms(acs.chart, 1, p)))
    return images


def reference_parts(acs, multi):
    """{(p, q): part} of dx_multi, summed over all 2^k projector choices."""
    images = projector_images(acs)
    parts = {}
    for choice in product((0, 1), repeat=len(multi)):
        term = FormValue.scalar(acs.chart, 1.0 + 0.0j)
        for v, s in zip(multi, choice):
            term = term.wedge(images[v][s])
        key = (sum(choice), len(multi) - sum(choice))
        parts[key] = parts[key] + term if key in parts else term
    return parts


def coefficient_array(c, size):
    if isinstance(c, Jet):
        return c.c
    out = np.zeros(size, dtype=np.complex128)
    out[0] = c
    return out


def assert_forms_close(got, want, tol, size=1, upto=None):
    """Coefficients agree within ``tol``: all of them, or the first ``upto`` (the value and first partials with 1 + nvars)."""
    got, want = terms_of(got), terms_of(want)
    for multi in set(got) | set(want):
        a = coefficient_array(got.get(multi, 0.0), size)[:upto]
        b = coefficient_array(want.get(multi, 0.0), size)[:upto]
        assert np.max(np.abs(a - b)) <= tol, (multi, np.max(np.abs(a - b)))


def conjugated_structure():
    """The standard structure of C^2 conjugated by a fixed random real matrix."""
    A = np.random.default_rng(7).normal(size=(4, 4))
    return AlmostComplexStructure(C2, A @ standard_acs(C2).coeffs[0] @ np.linalg.inv(A))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_constant_tables_match_the_expanded_wedges(degree):
    acs = conjugated_structure()
    assert square_residual(acs) <= 1e-12
    ctx = TypeContext(acs)
    for multi in combinations(range(4), degree):
        basis = FormValue.of_terms(C2, degree, {multi: 1.0 + 0.0j})
        got = ctx.decompose(basis)
        want = reference_parts(acs, multi)
        assert set(got) == set(want)
        for key in want:
            assert_forms_close(got[key], want[key], 1e-13)
            assert_forms_close(project(ctx, basis, *key), want[key], 1e-13)


def test_a_constant_structure_keeps_the_order_of_a_jet_form():
    acs = conjugated_structure()
    ctx = TypeContext(acs)
    space = jet_space(4, 3)
    x = seed_jets((0.3, -0.2, 0.5, 0.1), 3)
    pool = [x[0] * x[1], x[2].exp(), 0.5 - 0.25j, x[3] * x[3] * x[3]]
    for i, multi in enumerate(combinations(range(4), 2)):
        c = pool[i % 4]
        got = ctx.decompose(FormValue.of_terms(C2, 2, {multi: c}))
        want = reference_parts(acs, multi)
        assert set(got) == set(want)
        for key in want:
            assert_forms_close(got[key], want[key].scale(c), 1e-13, space.size)
            if isinstance(c, Jet):
                assert (got[key].order, got[key].mask) == (3, c.mask)
    assert ctx._table(2).shape == (1, 3, 6, 6)  # the values alone


@pytest.fixture(scope="module")
def twistor_frame():
    return TwistorFrame(flat_model(), point(TWISTOR_FLAT, 0.6, -0.4, 0.3, 0.8, -0.5, 0.2), 4)


# the flat twistor structure depends on zeta alone: its union mask is 0b11
TWISTOR_MASK = 0b11


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_jet_tables_match_the_expanded_wedges(twistor_frame, degree):
    acs = twistor_frame.ctx.acs
    ctx = TypeContext(acs)
    space = twistor_frame.zr.space
    one = Jet.constant(space, 1.0)
    for multi in combinations(range(6), degree):
        got = ctx.decompose(FormValue.of_terms(acs.chart, degree, {multi: one}))
        values = ctx.decompose(FormValue.of_terms(acs.chart, degree, {multi: 1.0 + 0.0j}))
        want = reference_parts(acs, multi)
        assert set(got) == set(want)
        for key in want:
            # the value and the first partials, against the order-4 wedges
            assert_forms_close(got[key], want[key], 1e-13, space.size, upto=space.prefix_sizes[1])
            assert (got[key].order, got[key].mask) == (1, TWISTOR_MASK)
            assert_forms_close(values[key], want[key].values(), 1e-13)
    # the value and the d/dx_u of the two variables of the mask, built once
    assert ctx._table(degree).shape == (3, degree + 1, math.comb(6, degree), math.comb(6, degree))
    assert ctx._table(degree) is ctx._table(degree)


def reference_table(ctx, degree):
    """The type table of ``ctx`` in one degree, row by row and type by type, from ``reference_parts``.

    Row 0 holds the values and row 1 + i the d/dx_u of the i-th variable u
    of the structure's mask, as in ``TypeContext``.
    """
    acs, n = ctx.acs, ctx.chart.dim
    multis = list(combinations(range(n), degree))
    rows = [0] + [ctx.acs.space.first_order[u] for u in ctx._vars]
    out = np.zeros((len(rows), degree + 1, len(multis), len(multis)), dtype=np.complex128)
    for I, multi in enumerate(multis):
        for (p, _), part in reference_parts(acs, multi).items():
            for J, target in enumerate(multis):
                c = part.coefficient(target)
                out[:, p, J, I] = c.c[rows] if isinstance(c, Jet) else [c] + [0.0] * (len(rows) - 1)
    return out


@pytest.mark.parametrize("structure", ["twistor", "conjugated"])
def test_tables_above_half_the_dimension_match_the_expanded_wedges(twistor_frame, structure):
    # degree k > dim/2 is read from degree dim - k through the wedge pairing; the types p with
    # m - p out of range, (4,0) and (0,4) on a 3-fold, are zero
    ctx = TypeContext(twistor_frame.ctx.acs if structure == "twistor" else conjugated_structure())
    n = ctx.chart.dim
    degrees = [k for k in range(1, n) if 2 * k > n]
    assert degrees == ([4, 5] if structure == "twistor" else [3])
    for k in degrees:
        got, want = ctx._table(k), reference_table(ctx, k)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        assert not got.flags.writeable


def random_jet_form(fr, degree, rng):
    """Coefficients of mixed validity order and support: a derivative, products and constants."""
    x = fr.jets
    pool = [(x[2] * x[3] * x[3]).derivative(3), x[2], x[3] * x[2] + 2.0, 0.5 - 0.25j]
    multis = combinations(range(6), degree)
    return FormValue.of_terms(fr.chart, degree, {m: pool[i % 4] * rng.uniform(0.5, 1.5) for i, m in enumerate(multis)})


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_jet_parts_sum_back_project_idempotently_and_follow_the_order_rule(twistor_frame, degree):
    fr = twistor_frame
    ctx = TypeContext(fr.ctx.acs)
    space = fr.zr.space
    low = space.prefix_sizes[1]
    form = random_jet_form(fr, degree, random.Random(degree))
    parts = ctx.decompose(form)
    assert sorted(parts) == [(p, degree - p) for p in range(degree + 1)]
    total = FormValue.zero(fr.chart, degree)
    for part in parts.values():
        total = total + part
    assert_forms_close(total, form, 1e-13, space.size, upto=low)
    mask = TWISTOR_MASK | form.mask
    assert mask == 0b1111
    # the values of the jet parts are the parts of the values
    value_parts = ctx.decompose(form.values())
    for (p, q), part in parts.items():
        assert (part.order, part.mask) == (1, mask)
        again = project(ctx, part, p, q)
        assert_forms_close(again, part, 1e-13, space.size)
        assert_forms_close(project(ctx, form, p, q), part, 0.0, space.size)
        want = part.values()
        assert (value_parts[(p, q)] - want).sup() <= 1e-14 * want.sup()


def test_the_standard_context_is_built_once_per_chart_and_read_only():
    ctx = standard_context(C2)
    assert standard_context(C2) is ctx
    # every point on the chart shares the tables, so none may be written
    for k in (1, 2):
        with pytest.raises(ValueError):
            ctx._table(k)[0, 0, 0, 0] = 1.0
