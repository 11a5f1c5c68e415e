"""The Gram matrix of a coframe under a positive (1,1)-form, by the generic route.

It builds the real metric g(X, Y) = omega(X, J Y) on the whole chart,
inverts it to the metric on 1-forms, and pairs the coframe with it.  No
code path of the package computes a Gram this way, so the tests use it as
an oracle for the closed forms the package uses instead.
"""

from stromlab.forms import AlmostComplexStructure, FormValue, mat_inv

from form_oracles import terms_of


def cotangent_dual_metric(omega: FormValue, J: AlmostComplexStructure):
    """Inverse of g(X, Y) = omega(X, J Y), with J at the point: the induced metric on 1-forms."""
    n = omega.chart.dim
    om = [[0.0 + 0.0j for _ in range(n)] for _ in range(n)]
    for (a, b), c in terms_of(omega).items():
        om[a][b] = c
        om[b][a] = -c
    g = [[0.0 + 0.0j for _ in range(n)] for _ in range(n)]
    for v in range(n):
        for w in range(n):
            acc = None
            for u in range(n):
                jm = complex(J.coeffs[0, w, u])  # (J_vec)_{u w} = coeffs[0, w, u]
                if jm == 0 or om[v][u] == 0:
                    continue
                term = om[v][u] * jm
                acc = term if acc is None else acc + term
            g[v][w] = 0.0 + 0.0j if acc is None else acc
    return mat_inv(g)


def hermitian_pairing(dual, f1: FormValue, f2: FormValue):
    """<f1, f2> = g*(f1, conj f2); linear in the first slot."""
    acc = None
    for (v,), c1 in terms_of(f1).items():
        for (w,), c2 in terms_of(f2).items():
            term = c1 * c2.conjugate() * dual[v][w]
            acc = term if acc is None else acc + term
    return 0.0 + 0.0j if acc is None else acc


def coframe_gram(omega: FormValue, J: AlmostComplexStructure, coframe):
    """Gram matrix <phi_i, phi_j> of a (1,0)-coframe under the metric of omega."""
    dual = cotangent_dual_metric(omega, J)
    return [[hermitian_pairing(dual, a, b) for b in coframe] for a in coframe]
