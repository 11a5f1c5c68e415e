"""Checks and generic routes that only the tests use.

Each one computes by a route no operator of the package takes, so the
tests can hold the package's closed forms against it: a form evaluated on
tangent vectors by minors, J^2 = -1 entry by entry, metric
skew-hermiticity of a curvature, the frame Gram of the twistor ansatz, and
the complex components of a 1-form through the basis change T^-1.
"""

import numpy as np

from stromlab.forms import DegreeError, FormValue, _complex_basis_matrices, form_linear_combo, nan_max, svalue
from stromlab.strominger import _frame_gram


def evaluate(form: FormValue, *vectors) -> complex:
    """The form evaluated on degree-many tangent vectors (given as real components)."""
    if len(vectors) != form.degree:
        raise DegreeError("wrong number of vectors")
    total = 0.0 + 0.0j
    for multi, c in form.terms.items():
        minor = np.array([[vec[i] for i in multi] for vec in vectors], dtype=np.complex128)
        total += svalue(c) * np.linalg.det(minor)
    return total


def square_residual(acs) -> float:
    """Sup over entries of |J^2 + identity| at the point."""
    n = acs.chart.dim
    residuals = []
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += svalue(acs.mat[i][k]) * svalue(acs.mat[k][j])
            target = -1.0 if i == j else 0.0
            residuals.append(abs(acc - target))
    return nan_max(residuals)


def conjugation_residual(F, H) -> float:
    """Metric skew-hermiticity of a curvature: Hbar F + (Hbar F)^dagger = 0 entrywise.

    ``F`` is a matrix of pointwise 2-forms.  The dagger conjugate-transposes
    the matrix and conjugates the form coefficients, which swaps the
    (1,0)/(0,1) slots.
    """
    n = len(F)
    Hbar = [[svalue(e).conjugate() for e in row] for row in H]
    HF = [
        [form_linear_combo([F[k][j] for k in range(n)], [Hbar[i][k] for k in range(n)]) for j in range(n)]
        for i in range(n)
    ]
    return nan_max((HF[i][j] + HF[j][i].conj()).sup() for i in range(n) for j in range(n))


def frame_gram(data):
    """Gram matrix of the holomorphic frame {dzeta, zeta dw_1, zeta dw_2} of curvature data, at its order."""
    return _frame_gram(data.A, data.B, data.Lvec, data.U)


def to_complex_components(form: FormValue) -> list:
    """Components of a 1-form in the [dz..., dzbar...] basis, through T^-1."""
    if form.degree != 1:
        raise DegreeError("complex components only for 1-forms")
    chart = form.chart
    Tinv = _complex_basis_matrices(chart)[1]
    comps = []
    for k in range(chart.dim):
        acc = 0.0 + 0.0j
        for v in range(chart.dim):
            c = form.terms.get((v,))
            if c is not None:
                acc = acc + Tinv[k, v] * c
        comps.append(acc)
    return comps
