"""Type tables against a reference that expands each basis form anew.

The reference writes dx_I = dx_{i1} ^ ... ^ dx_{ik} with every factor split
as P dx_v + Q dx_v, and sums the 2^k wedges of one P/Q choice each into the
part of type (number of P factors, number of Q factors).  Every wedge is
formed anew from its k one-forms, with no shared prefix and no table.
"""

import random
from itertools import combinations, product

import numpy as np
import pytest

from stromlab.forms import AlmostComplexStructure, Chart, FormValue, TypeContext, point, standard_acs
from stromlab.hyperkahler import flat_model
from stromlab.jets import Jet
from stromlab.twistor import TWISTOR_FLAT, TwistorFrame

from form_oracles import square_residual

C2 = Chart("c2", ("x1", "x2", "x3", "x4"), ("z1", "z2"))


def projector_images(acs):
    """[Q dx_v, P dx_v] for each v: the (0,1) and (1,0) parts of dx_v."""
    n = acs.chart.dim
    images = []
    for v in range(n):
        q = {(w,): ((1.0 if w == v else 0.0) + 1j * acs.mat[w][v]) * 0.5 for w in range(n)}
        p = {(w,): ((1.0 if w == v else 0.0) - 1j * acs.mat[w][v]) * 0.5 for w in range(n)}
        images.append((FormValue(acs.chart, 1, q), FormValue(acs.chart, 1, p)))
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


def assert_forms_close(got, want, tol, size=1):
    for multi in set(got.terms) | set(want.terms):
        a = coefficient_array(got.terms.get(multi, 0.0), size)
        b = coefficient_array(want.terms.get(multi, 0.0), size)
        assert np.max(np.abs(a - b)) <= tol, (multi, np.max(np.abs(a - b)))


def conjugated_structure():
    """The standard structure of C^2 conjugated by a fixed random real matrix."""
    A = np.random.default_rng(7).normal(size=(4, 4))
    J0 = np.array(standard_acs(C2).mat, dtype=np.complex128)
    J = A @ J0 @ np.linalg.inv(A)
    return AlmostComplexStructure(C2, [[complex(e) for e in row] for row in J])


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_constant_tables_match_the_expanded_wedges(degree):
    acs = conjugated_structure()
    assert square_residual(acs) <= 1e-12
    ctx = TypeContext(acs)
    for multi in combinations(range(4), degree):
        basis = FormValue(C2, degree, {multi: 1.0 + 0.0j})
        got = ctx.decompose(basis)
        want = reference_parts(acs, multi)
        assert set(got) == set(want)
        for key in want:
            assert_forms_close(got[key], want[key], 1e-13)
            assert_forms_close(ctx.project(basis, *key), want[key], 1e-13)


@pytest.fixture(scope="module")
def twistor_frame():
    return TwistorFrame(flat_model(), point(TWISTOR_FLAT, 0.6, -0.4, 0.3, 0.8, -0.5, 0.2), 4)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_jet_tables_match_the_expanded_wedges(twistor_frame, degree):
    acs = twistor_frame.acs
    ctx = TypeContext(acs)
    size = twistor_frame.zr.space.size
    for multi in combinations(range(6), degree):
        got = ctx.decompose(FormValue(acs.chart, degree, {multi: 1.0 + 0.0j}))
        want = reference_parts(acs, multi)
        assert set(got) == set(want)
        for key in want:
            assert_forms_close(got[key], want[key], 1e-13, size)
            # the flat structure depends on zeta alone: its tables live on 15 of the 210 monomials
            assert all((c.order, c.mask) == (4, 0b11) for c in got[key].terms.values())


def random_jet_form(fr, degree, rng):
    """Coefficients of mixed validity order and support: a derivative, products and constants."""
    x = fr.jets
    pool = [(x[2] * x[3] * x[3]).derivative(3), x[2], x[3] * x[2] + 2.0, 0.5 - 0.25j]
    multis = combinations(range(6), degree)
    return FormValue(fr.chart, degree, {m: pool[i % 4] * rng.uniform(0.5, 1.5) for i, m in enumerate(multis)})


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_jet_parts_sum_back_project_idempotently_and_follow_the_order_rule(twistor_frame, degree):
    fr = twistor_frame
    ctx = TypeContext(fr.acs)
    size = fr.zr.space.size
    form = random_jet_form(fr, degree, random.Random(degree))
    parts = ctx.decompose(form)
    assert sorted(parts) == [(p, degree - p) for p in range(degree + 1)]
    total = FormValue.zero(fr.chart, degree)
    for part in parts.values():
        total = total + part
    assert_forms_close(total, form, 1e-13, size)
    jets = [c for c in form.terms.values() if isinstance(c, Jet)]
    table_jets = [e for row in fr.acs.mat for e in row if isinstance(e, Jet)]
    order = min(j.order for j in jets + table_jets)
    mask = 0
    for j in jets + table_jets:
        mask |= j.mask
    assert order < fr.order and mask != fr.zr.space.full_mask  # the rule is tested, not the default
    for (p, q), part in parts.items():
        for c in part.terms.values():
            assert (c.order, c.mask) == (order, mask)
        again = ctx.project(part, p, q)
        assert_forms_close(again, part, 1e-13, size)
        assert_forms_close(ctx.project(form, p, q), part, 0.0, size)


def test_lower_order_contexts_hold_prefixes_of_the_full_tables(twistor_frame):
    ctx = TypeContext(twistor_frame.acs)
    space, mask, order = twistor_frame.zr.space, 0b11, twistor_frame.order
    assert ctx.at_order(order) is ctx and ctx.at_order(order + 3) is ctx
    lower = {o: ctx.at_order(o) for o in (1, 2, 3)}
    for o, low in lower.items():
        assert low is ctx.at_order(o) and low is not ctx
        for k in (1, 2, 3):
            assert low._table(k) is low._table(k)  # built once
    assert set(ctx._tables) == {1}  # the lower tables are built without the full ones
    for o, low in lower.items():
        rows = len(space.support(mask, o))
        for k in (1, 2, 3):
            full = ctx._table(k)
            assert low._table(k).shape == (rows,) + full.shape[1:]
            assert low._table(k).tobytes() == full[:rows].tobytes(), (o, k)


def test_a_constant_structure_is_its_own_context_at_every_order():
    ctx = TypeContext(conjugated_structure())
    assert all(ctx.at_order(o) is ctx for o in (0, 1, 4))
    with pytest.raises(ValueError):
        ctx.at_order(-1)
