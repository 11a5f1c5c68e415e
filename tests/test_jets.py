import math
from fractions import Fraction

import numpy as np
import pytest

from stromlab import jets
from stromlab.jets import (
    InsufficientJetOrder,
    Jet,
    JetOverflowError,
    _mul_coeffs,
    jet_space,
    kept,
    polynomial,
    seed_jets,
    wirtinger,
    wirtinger_hessian,
)
from stromlab.hyperkahler import EguchiHanson
from stromlab.sampling import random_polynomial, stream


def fd_partial(f, coords, v, h=1e-4):
    """Central difference with one Richardson step."""

    def diff(step):
        up = list(coords)
        dn = list(coords)
        up[v] += step
        dn[v] -= step
        return (f(up) - f(dn)) / (2 * step)

    d1, d2 = diff(h), diff(h / 2)
    return (4 * d2 - d1) / 3


def smooth(coords):
    x, y, z = coords
    return math.exp(0.3 * x) * math.sin(y + 0.5 * z) + math.log(2.0 + x * x + z * z)


def smooth_jet(jets):
    x, y, z = jets
    return (0.3 * x).exp() * (y + 0.5 * z).sin() + (2.0 + x * x + z * z).log()


def test_seed_values():
    jets = seed_jets((1.0, -2.0, 0.5), 3)
    f = smooth_jet(jets)
    assert f.value == pytest.approx(smooth((1.0, -2.0, 0.5)), abs=1e-14)


def test_first_order_against_richardson_fd():
    coords = (0.7, -0.3, 1.1)
    jets = seed_jets(coords, 1)
    f = smooth_jet(jets)
    for v in range(3):
        mono = tuple(1 if i == v else 0 for i in range(3))
        assert f.partial(mono) == pytest.approx(fd_partial(smooth, coords, v), abs=1e-6)


def test_higher_order_mixed_partials_against_fd():
    coords = (0.4, 0.9, -0.6)

    def d1(coords_):
        jets = seed_jets(coords_, 1)
        return smooth_jet(jets).partial((1, 0, 0)).real

    def d2(coords_):
        jets = seed_jets(coords_, 2)
        return smooth_jet(jets).partial((1, 1, 0)).real

    jets = seed_jets(coords, 3)
    f = smooth_jet(jets)
    # order 2 and 3 jets vs finite differences of exact lower-order jets
    assert f.partial((1, 1, 0)) == pytest.approx(fd_partial(d1, coords, 1), abs=1e-6)
    assert f.partial((1, 1, 1)) == pytest.approx(fd_partial(d2, coords, 2), abs=1e-6)


def test_mixed_partials_commute_by_construction():
    jets = seed_jets((0.2, 0.3, -0.7), 4)
    f = smooth_jet(jets)
    a = f.derivative(0).derivative(2)
    b = f.derivative(2).derivative(0)
    assert np.allclose(a.c, b.c)


def test_derivative_lowers_order_and_raises_at_zero():
    jets = seed_jets((1.0, 2.0), 2)
    f = jets[0] * jets[1]
    d = f.derivative(0)
    assert d.order == 1
    dd = d.derivative(1)
    assert dd.order == 0
    with pytest.raises(InsufficientJetOrder):
        dd.derivative(0)


def test_reciprocal_and_division():
    jets = seed_jets((0.8, -0.4), 4)
    f = 1.0 + jets[0] * jets[0] + jets[1]
    g = f * f.reciprocal()
    assert abs(g.value - 1.0) < 1e-14
    assert np.max(np.abs(g.c[1:])) < 1e-13


def test_log_exp_roundtrip():
    jets = seed_jets((0.5, 1.5), 4)
    f = 2.0 + jets[0].sin() + jets[1] * 0.25
    g = f.log().exp()
    assert np.max(np.abs(g.c - f.c)) < 1e-12


def test_sqrt_squares_back():
    jets = seed_jets((1.2, 0.1), 4)
    f = 3.0 + jets[0] + jets[1] * jets[1]
    r = f.sqrt()
    assert np.max(np.abs((r * r).c - f.c)) < 1e-12


def test_integer_pow_matches_repeated_mul():
    jets = seed_jets((1.1, -0.2), 3)
    f = jets[0] + 2.0 * jets[1]
    assert np.allclose((f ** 3).c, (f * f * f).c)


def test_conjugate_and_abs():
    jets = seed_jets((0.3, 0.9), 3)
    z = jets[0] + 1j * jets[1]
    mod = z.abs()
    expected = math.hypot(0.3, 0.9)
    assert mod.value == pytest.approx(expected, abs=1e-14)
    # d|z|/dx = x/|z|
    assert mod.partial((1, 0)) == pytest.approx(0.3 / expected, abs=1e-12)


def test_wirtinger_holomorphic_kill():
    # f = z^2 with z = x + iy: dbar f = 0, df/dz = 2z
    jets = seed_jets((0.7, -0.2), 2)
    z = jets[0] + 1j * jets[1]
    f = z * z
    dbar = wirtinger(f, 0, 1, bar=True)
    dz = wirtinger(f, 0, 1, bar=False)
    assert abs(dbar.value) < 1e-14
    assert dz.value == pytest.approx(2 * complex(0.7, -0.2), abs=1e-14)


def test_space_cache_and_sizes():
    sp = jet_space(6, 4)
    assert sp is jet_space(6, 4)
    assert sp.size == math.comb(6 + 4, 4)


@pytest.mark.parametrize("order", [2, 4])
def test_second_order_index_reads_the_second_partials(order):
    f = smooth_jet(seed_jets((0.4, 0.9, -0.6), order))
    index = f.space.second_order
    assert index.shape == (3, 3) and (index == index.T).all()
    for u in range(3):
        for w in range(3):
            mono = tuple((v == u) + (v == w) for v in range(3))
            coefficient = f.c[index[u, w]] * (2.0 if u == w else 1.0)
            assert coefficient == f.partial(mono)
    assert jet_space(3, 1).second_order.size == 0


# -- product and derivative tables against the direct loops --------------------


def reference_mul_table(space):
    """Every pair (i, j) with deg i + deg j <= order, in loop order."""
    ii, jj, kk = [], [], []
    for i, mi in enumerate(space.monomials):
        di = sum(mi)
        for j, mj in enumerate(space.monomials):
            if di + sum(mj) > space.order:
                continue
            ii.append(i)
            jj.append(j)
            kk.append(space.index[tuple(a + b for a, b in zip(mi, mj))])
    return np.array(ii), np.array(jj), np.array(kk)


def reference_diff_table(space, v):
    src, dst, fac = [], [], []
    for i, m in enumerate(space.monomials):
        if m[v] == 0:
            continue
        lowered = list(m)
        lowered[v] -= 1
        src.append(i)
        dst.append(space.index[tuple(lowered)])
        fac.append(float(m[v]))
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), np.array(fac)


def reference_mul_coeffs(space, a, b):
    """The full product over every pair of the table, summed with bincount."""
    ii, jj, kk = reference_mul_table(space)
    prod = a[ii] * b[jj]
    out = np.bincount(kk, weights=prod.real, minlength=space.size).astype(np.complex128)
    out += 1j * np.bincount(kk, weights=prod.imag, minlength=space.size)
    return out


TABLE_SPACES = [(1, 2), (3, 0), (4, 3), (4, 7), (6, 4)]
KERNEL_SPACES = [(1, 2), (4, 3), (4, 7), (6, 4)]


@pytest.mark.parametrize("nvars,order", TABLE_SPACES)
def test_tables_match_the_direct_loops(nvars, order):
    sp = jet_space(nvars, order)
    ii, jj, kk = reference_mul_table(sp)
    perm = np.argsort(kk, kind="stable")
    got = sp.mul_table()
    for want, have in zip((ii[perm], jj[perm], kk[perm]), got):
        assert np.array_equal(want, have)
    for v in range(nvars):
        for want, have in zip(reference_diff_table(sp, v), sp.diff_table(v)):
            assert want.dtype == have.dtype
            assert np.array_equal(want, have)


def random_coeffs(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def assert_truncated_match(space, got, want, validity):
    """Coefficients up to ``validity`` agree with the reference, the rest are 0.

    The tolerance covers float64 rounding of sums over at most 6435 pairs,
    relative to the largest reference coefficient.
    """
    low = space.degrees <= validity
    scale = np.max(np.abs(want[low]))
    assert np.all(np.abs(got[low] - want[low]) <= 1e-13 * scale)
    assert np.all(got[~low] == 0)


@pytest.mark.parametrize("nvars,order", KERNEL_SPACES)
def test_truncated_product_matches_full_product(nvars, order):
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(7 * nvars + order)
    a = random_coeffs(rng, sp.size)
    b = random_coeffs(rng, sp.size)
    want = reference_mul_coeffs(sp, a, b)
    for validity in range(order + 1):
        assert_truncated_match(sp, _mul_coeffs(sp, a, b, validity, sp.full_mask), want, validity)


@pytest.mark.parametrize("nvars,order", KERNEL_SPACES)
def test_primitives_of_lower_order_jets_match_full_products(nvars, order):
    # f(g) by Horner with full products, truncated only at the end
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(11 * nvars + order)
    c = 0.3 * random_coeffs(rng, sp.size)
    c[0] = 1.5 + 0.25j
    for validity in range(order + 1):
        g = Jet(sp, c.copy(), validity)
        e0 = np.exp(c[0])
        for got, derivs in (
            (g.exp(), [e0 / math.factorial(j) for j in range(validity + 1)]),
            (g.reciprocal(), [(-1.0) ** j / c[0] ** (j + 1) for j in range(validity + 1)]),
        ):
            hat = c.copy()
            hat[0] = 0.0
            acc = np.zeros(sp.size, dtype=np.complex128)
            acc[0] = derivs[validity]
            for j in range(validity - 1, -1, -1):
                acc = reference_mul_coeffs(sp, acc, hat)
                acc[0] += derivs[j]
            assert got.order == validity
            assert_truncated_match(sp, got.c, acc, validity)


# -- truncated Horner steps and prefix pair lists against the full-order kernels -----

PREFIX_SPACES = [(4, 7), (6, 4), (3, 5)]


def per_order_subset(space, mask, order):
    """(ii, jj, starts, outs) filtered from the table for this mask and order alone."""
    ii, jj, kk = space.mul_table()
    supports = np.array([sum(1 << v for v, e in enumerate(m) if e) for m in space.monomials])
    keep = (space.degrees[kk] <= order) & ((supports[kk] & ~mask) == 0)
    ii, jj, kk = ii[keep], jj[keep], kk[keep]
    starts = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
    return ii, jj, starts, kk[starts]


def full_order_compose(jet, derivs):
    """f(jet) by Horner with every step summed to the jet's order."""
    sp, k = jet.space, jet.order
    ii, jj, starts, outs = per_order_subset(sp, jet.mask, k)
    hat = jet.c.copy()
    hat[0] = 0.0
    acc = np.zeros(sp.size, dtype=np.complex128)
    acc[0] = derivs[k]
    for j in range(k - 1, -1, -1):
        prod = np.zeros(sp.size, dtype=np.complex128)
        prod[outs] = np.add.reduceat(acc[ii] * hat[jj], starts)
        acc = prod
        acc[0] += derivs[j]
    return acc


def kernel_masks(rng, space):
    """Constant, single-variable, partial and full support masks."""
    return [0, 1 << int(rng.integers(space.nvars)), int(rng.integers(1, space.full_mask)), space.full_mask]


def assert_same_bits(got, want):
    """Equal arrays, down to the sign of zero."""
    assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("nvars,order", PREFIX_SPACES)
def test_truncated_horner_equals_the_full_order_horner_bit_for_bit(nvars, order, monkeypatch):
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(17 * nvars + order)
    composed = []
    compose = Jet._compose

    def recording(jet, derivs):
        out = compose(jet, derivs)
        composed.append((jet, derivs, out))
        return out

    monkeypatch.setattr(Jet, "_compose", recording)
    masks = kernel_masks(rng, sp)
    for mask in masks:
        for validity in range(order + 1):
            c = 0.3 * random_masked_coeffs(rng, sp, mask)
            c[0] = 1.5 + 0.25j
            g = Jet(sp, c, validity, mask)
            for primitive in (Jet.exp, Jet.log, Jet.reciprocal, Jet.sqrt, Jet.sin, Jet.cos):
                primitive(g)
    assert len(composed) == 6 * len(masks) * (order + 1)
    for jet, derivs, out in composed:
        assert (out.order, out.mask) == (jet.order, jet.mask)
        assert_same_bits(out.c, full_order_compose(jet, derivs))


@pytest.mark.parametrize("nvars,order", PREFIX_SPACES)
def test_pair_lists_are_read_only_prefixes_of_one_list_per_mask(nvars, order):
    sp = jet_space(nvars, order)
    for mask in kernel_masks(np.random.default_rng(19 * nvars + order), sp):
        whole = sp.mul_subset(mask, order)
        for validity in range(order + 1):
            sub = sp.mul_subset(mask, validity)
            for got, want, full in zip(sub, per_order_subset(sp, mask, validity), whole):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert np.shares_memory(got, full)
                assert not got.flags.writeable
            with pytest.raises(ValueError):
                sp.support(mask, validity)[0] = 0


# -- composition kernels against symbolic derivatives ---------------------------------


def symbolic_taylor(nvars, order, value, terms, primitives):
    """Taylor coefficients at 0 of f(p) for each sympy function f in ``primitives``.

    p = value + sum of c x^e over ``terms`` (exponent tuple -> Fraction).
    The partials of f(p) are taken by the chain rule in sympy's polynomial
    ring over x and symbols g_j that stand for f^(j)(p), with
    d g_j / dx_v = g_{j+1} dp/dx_v; every monomial's partial is set to
    x = 0 once, and then the g_j to sympy's j-th derivative of f at
    p(0), to 30 digits.  Returns {name: {monomial: complex}}.
    """
    import mpmath
    import sympy
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    _, *gens = ring([f"x{v}" for v in range(nvars)] + [f"g{j}" for j in range(order + 2)], QQ)
    xs, gs = gens[:nvars], gens[nvars:]
    p = QQ(value.numerator, value.denominator)
    for expo, c in terms.items():
        mono = QQ(c.numerator, c.denominator)
        for v, e in enumerate(expo):
            mono *= xs[v] ** e
        p += mono
    slopes = [p.diff(x) for x in xs]

    def partial(e, v):
        out = e.diff(xs[v])
        for j in range(order + 1):
            out += e.diff(gs[j]) * gs[j + 1] * slopes[v]
        return out

    partials = {(0,) * nvars: gs[0]}
    for mono in jet_space(nvars, order).monomials[1:]:
        v = max(i for i, e in enumerate(mono) if e)
        lower = list(mono)
        lower[v] -= 1
        partials[mono] = partial(partials[tuple(lower)], v)
    at_zero = {m: e.evaluate([(x, 0) for x in xs]).terms() for m, e in partials.items()}
    u = sympy.Symbol("u")
    out = {}
    with mpmath.workdps(30):
        for name, f in primitives.items():
            g = [mpmath.mpf(sympy.N(sympy.diff(f(u), u, j).subs(u, value), 35)) for j in range(order + 2)]
            out[name] = {
                m: complex(
                    sum(mpmath.mpf(int(c.numerator)) / int(c.denominator) * mpmath.fprod(gj**k for gj, k in zip(g, expo)) for expo, c in poly)
                    / math.prod(math.factorial(e) for e in m)
                )
                for m, poly in at_zero.items()
            }
    return out


@pytest.mark.parametrize("nvars,order", [(2, 7), (4, 4)])
def test_primitives_match_symbolic_partial_derivatives(nvars, order):
    import sympy

    rng = np.random.default_rng(23 * nvars + order)
    terms = {}
    for v in range(nvars):
        terms[tuple(int(w == v) for w in range(nvars))] = Fraction(int(rng.integers(-9, 10)), 10)
    for _ in range(3):
        expo = [0] * nvars
        expo[int(rng.integers(nvars))] += 1
        expo[int(rng.integers(nvars))] += 1
        terms[tuple(expo)] = Fraction(int(rng.integers(-9, 10)), 10)
    value = Fraction(3, 2)
    primitives = {
        "exp": sympy.exp,
        "log": sympy.log,
        "sqrt": sympy.sqrt,
        "reciprocal": lambda z: 1 / z,
        "sin": sympy.sin,
        "cos": sympy.cos,
    }
    want = symbolic_taylor(nvars, order, value, terms, primitives)
    sp = jet_space(nvars, order)
    x = seed_jets((0.0,) * nvars, order)
    p = Jet.constant(sp, float(value))
    for expo, c in terms.items():
        mono = Jet.constant(sp, float(c))
        for v, e in enumerate(expo):
            for _ in range(e):
                mono = mono * x[v]
        p = p + mono
    for name in primitives:
        got = getattr(p, name)()
        ref = want[name]
        scale = max(abs(w) for w in ref.values())
        for mono, w in ref.items():
            assert abs(got.coefficient(mono) - w) <= 1e-12 * max(abs(w), 1e-3 * scale), (name, mono)


# -- overflow --------------------------------------------------------------------


def test_overflow_is_a_named_jet_error():
    x = Jet.variable(jet_space(1, 2), 0, 800.0)
    with pytest.raises(JetOverflowError):
        x ** 3**27
    with pytest.raises(JetOverflowError) as info:
        x.exp()
    assert isinstance(info.value.__cause__, OverflowError)
    with pytest.raises(JetOverflowError), np.errstate(all="ignore"):
        Jet.variable(jet_space(1, 2), 0, 1e-200).reciprocal()
    assert issubclass(JetOverflowError, OverflowError)


# -- support masks -----------------------------------------------------------------


def outside_mask(space, mask):
    """Monomials that involve a variable outside ``mask``, from the monomial list."""
    return np.array([any(e and not mask >> v & 1 for v, e in enumerate(m)) for m in space.monomials])


def random_masked_coeffs(rng, space, mask):
    c = random_coeffs(rng, space.size)
    c[outside_mask(space, mask)] = 0.0
    return c


@pytest.mark.parametrize("nvars,order", KERNEL_SPACES)
def test_mask_restricted_product_matches_full_product_bit_for_bit(nvars, order):
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(13 * nvars + order)
    masks = [0, sp.full_mask] + [int(m) for m in rng.integers(0, sp.full_mask + 1, 6)]
    for validity in range(order + 1):
        for ma in masks:
            mb = masks[int(rng.integers(len(masks)))]
            a = random_masked_coeffs(rng, sp, ma)
            b = random_masked_coeffs(rng, sp, mb)
            got = _mul_coeffs(sp, a, b, validity, ma | mb)
            assert np.array_equal(got, _mul_coeffs(sp, a, b, validity, sp.full_mask))
            assert np.all(got[outside_mask(sp, ma | mb)] == 0)


def random_chain(rng, space, steps, track):
    """A seeded chain of jet operations on the coordinate seeds of ``space``.

    Without ``track`` the seeds are bare jets, whose masks hold every variable.
    """
    n = space.nvars
    pool = [Jet.variable(space, v, float(rng.uniform(0.5, 1.5))) for v in range(n)]
    pool.append(Jet.constant(space, 0.7 - 0.2j))
    if not track:
        pool = [Jet(space, jet.c) for jet in pool]
    for _ in range(steps):
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        op = int(rng.integers(16))
        if op == 0:
            out = a + b
        elif op == 1:
            out = a - b
        elif op == 2:
            out = a * b
        elif op == 3:
            out = a / (2.0 + b * b.conjugate()).real()
        elif op == 4:
            k = int(rng.integers(-2, 4))
            out = a**k if k >= 0 or abs(a.value) > 0.1 else a
        elif op == 5:
            out = (0.1 * a).exp()
        elif op == 6:
            out = (2.0 + a * a.conjugate()).real().log()
        elif op == 7:
            out = (3.0 + a * a.conjugate()).real().sqrt()
        elif op == 8:
            out = a.sin() * b.cos()
        elif op == 9:
            out = a.derivative(int(rng.integers(n))) if a.order > 1 else a
        elif op == 10:
            out = wirtinger(a, 0, n - 1, bool(rng.integers(2))) if a.order > 1 else a
        elif op == 11:
            out = a.conjugate() if rng.integers(2) else b.real() - a.imag()
        elif op == 12:
            out = 2.5 * a - b * (1.0 - 0.5j) if rng.integers(2) else a / 3.0
        elif op == 13:
            out = 1.0 / (2.0 + a * a.conjugate())
        elif op == 14:
            out = a ** 1.5 if a.value.real > 0.1 else -a
        else:
            out = a.abs() if abs(a.value) > 0.1 else a
        pool.append(out)
    return pool


@pytest.mark.parametrize("nvars,order", KERNEL_SPACES)
def test_support_mask_is_sound(nvars, order):
    # no chain leaves a nonzero coefficient outside the mask it tracks, and
    # every coefficient equals the one computed with no narrow mask at all
    sp = jet_space(nvars, order)
    for seed in range(4):
        key = 100 * seed + 10 * nvars + order
        with np.errstate(all="ignore"):
            pool = random_chain(np.random.default_rng(key), sp, 40, track=True)
            untracked = random_chain(np.random.default_rng(key), sp, 40, track=False)
        for jet, plain in zip(pool, untracked):
            assert np.all(jet.c[outside_mask(sp, jet.mask)] == 0)
            assert np.array_equal(jet.c, plain.c, equal_nan=True)
        # the chains must also keep some supports narrow
        assert any(0 < jet.mask < sp.full_mask for jet in pool[nvars + 1 :]) or nvars == 1


def test_mask_bookkeeping():
    sp = jet_space(4, 3)
    x = seed_jets((0.1, 0.2, 0.3, 0.4), 3)
    assert Jet.constant(sp, 2.0).mask == 0
    assert [v.mask for v in x] == [1, 2, 4, 8]
    assert (x[0] * x[2] + 1.0).mask == 0b101
    assert (x[1].exp() * 3.0).derivative(0).mask == 0b10
    assert Jet(sp, np.zeros(sp.size, dtype=np.complex128)).mask == sp.full_mask


# -- scalar operands -------------------------------------------------------------

SCALARS = [3, -2, 0.75, -1.5 + 0.25j, np.int64(4), np.float64(-0.625), np.complex128(0.5 - 1.25j)]


def scalar_operand_jets():
    sp = jet_space(4, 3)
    x = seed_jets((0.4, -0.7, 1.1, 0.2), 3)
    full = (x[0] * x[1]).exp() + x[2] * (0.3 - 0.2j)
    narrow = (x[1] * x[3] + 2.0).log().derivative(3)  # order 2, mask 0b1010
    assert (narrow.order, narrow.mask) == (2, 0b1010)
    return sp, [full, narrow]


def test_scalar_operands_equal_lifted_constants_and_build_none(monkeypatch):
    sp, operands = scalar_operand_jets()

    def lift(jet, s):
        return Jet.constant(sp, complex(s), jet.order)

    # the lifted results, before Jet.constant is taken away.  A scalar factor
    # is the right factor of its product, as numpy's complex multiply can
    # round a * b and b * a differently; a scalar divisor divides the
    # coefficients, since x / s and x * (1 / s) round differently too
    lifted = [
        (
            jet + lift(jet, s),
            lift(jet, s) + jet,
            jet - lift(jet, s),
            lift(jet, s) - jet,
            jet * lift(jet, s),
            jet * lift(jet, s),
            Jet(sp, jet.c / lift(jet, s).value, jet.order, jet.mask),
            jet.reciprocal() * lift(jet, s),
        )
        for jet in operands
        for s in SCALARS
    ]

    def no_constant(*args, **kwargs):
        raise AssertionError("a scalar operand built a constant jet")

    monkeypatch.setattr(Jet, "constant", staticmethod(no_constant))
    got = [
        (jet + s, s + jet, jet - s, s - jet, jet * s, s * jet, jet / s, s / jet)
        for jet in operands
        for s in SCALARS
    ]
    for want_row, got_row in zip(lifted, got):
        for want, have in zip(want_row, got_row):
            assert isinstance(have, Jet)
            assert np.all(have.c == want.c)
            assert (have.order, have.mask) == (want.order, want.mask)


def test_numpy_scalars_defer_to_the_jet_and_arrays_are_refused():
    _, (jet, _) = scalar_operand_jets()
    z = np.complex128(0.5 - 1.25j)
    left = z * jet
    assert isinstance(left, Jet)
    assert np.all(left.c == (jet * z).c)
    assert isinstance(np.float64(2.0) + jet, Jet)
    with pytest.raises(TypeError):
        np.ones(3) * jet
    with pytest.raises(TypeError):
        jet * np.ones(3)


def test_to_order_is_a_view_valid_to_the_lower_order():
    x, y, z = seed_jets((0.3, -0.2, 0.5), 4)
    f = (x * y + z).exp()
    low = f.to_order(2)
    assert (low.order, low.mask, low.space) == (2, f.mask, f.space)
    assert low.c is f.c  # shared, not copied
    assert f.to_order(4) is f and f.to_order(6) is f
    assert low.to_order(3) is low
    assert low.coefficient((1, 1, 0)) == f.coefficient((1, 1, 0))
    with pytest.raises(InsufficientJetOrder):
        low.coefficient((1, 1, 1))
    with pytest.raises(ValueError):
        f.to_order(-1)
    # a product of views is summed to the views' order and equals the full product there
    g = (x - z).sin()
    prod, full = low * g.to_order(2), f * g
    n = f.space.prefix_sizes[2]
    assert prod.order == 2
    assert np.array_equal(prod.c[:n], full.c[:n]) and not prod.c[n:].any()


def test_kept_serves_higher_orders_rebuilds_after_a_cleared_space_cache_and_keeps_two():
    built = []

    def get(key, order):
        def build():
            built.append((key, order))
            return object()

        return kept(key, order, build)

    jets._KEPT.clear()
    a = get("a", 2)
    assert get("a", 1) is a and get("a", 2) is a
    a3 = get("a", 3)  # a lower order does not serve
    assert a3 is not a and get("a", 2) is a3
    jet_space.cache_clear()  # values made before it are rebuilt
    a3_new = get("a", 3)
    assert a3_new is not a3
    b = get("b", 0)
    assert get("a", 0) is a3_new  # "a" is now used last, so "b" is the older one
    get("c", 0)
    assert list(jets._KEPT) == ["a", "c"]
    assert get("b", 0) is not b
    assert built == [("a", 2), ("a", 3), ("a", 3), ("b", 0), ("c", 0), ("b", 0)]


def test_kept_lets_the_oldest_value_go_before_a_build():
    seen = []

    def build():
        seen.append(list(jets._KEPT))
        return object()

    jets._KEPT.clear()
    kept("a", 0, build)
    kept("b", 0, build)
    kept("c", 0, build)
    assert seen == [[], ["a"], ["b"]]
    assert list(jets._KEPT) == ["b", "c"]


# -- the stacked polynomial and Wirtinger Hessian kernels --------------------------


def reference_polynomial(coeffs, xs):
    """The jet-by-jet sum: each monomial one product, its quotient by its last variable times that variable."""
    monomials = {}

    def monomial(expo):
        if expo not in monomials:
            v = max(i for i, e in enumerate(expo) if e)
            quotient = expo[:v] + (expo[v] - 1,) + expo[v + 1 :]
            monomials[expo] = monomial(quotient) * xs[v] if any(quotient) else xs[v]
        return monomials[expo]

    acc = xs[0] * 0.0
    for expo, c in coeffs:
        acc = acc + (monomial(expo) * c if any(expo) else c)
    return acc


def reference_wirtinger_hessian(f, pairs):
    return [[wirtinger(wirtinger(f, *pi, bar=False), *pj, bar=True) for pj in pairs] for pi in pairs]


def assert_same_jet_bits(got, want):
    """Same space, order and mask, and the same bits in every coefficient the jets are valid for, NaN included."""
    assert got.space is want.space and (got.order, got.mask) == (want.order, want.mask)
    n = got.space.prefix_sizes[got.order]
    assert np.array_equal(got.c[:n].view(np.uint64), want.c[:n].view(np.uint64))


def with_coefficient(x, index, value):
    c = x.c.copy()
    c[index] = value
    return Jet(x.space, c, x.order, x.mask)


def kernel_variables(nvars, order, rng):
    """Variable lists the kernels see: seeds, non-seed jets, mixed orders and NaN coefficients."""
    seeds = seed_jets(rng.uniform(-1.0, 1.0, nvars), order)
    cases = {
        "seeds": seeds,
        "exp of seeds": [(x * 0.7).exp() if v % 2 else x for v, x in enumerate(seeds)],
        "mixed orders": [x.to_order(max(order - v, 0)) for v, x in enumerate(seeds)],
        "NaN value": [with_coefficient(x, 0, np.nan) if v == 1 else x for v, x in enumerate(seeds)],
    }
    if order >= 1:
        slope = seeds[0].space.first_order[1]
        cases["NaN slope"] = [with_coefficient(x, slope, np.nan) if v == 1 else x for v, x in enumerate(seeds)]
    return cases


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("nvars", [2, 4])
def test_polynomial_kernel_matches_the_jet_by_jet_sum_bit_for_bit(nvars, order):
    rng = np.random.default_rng(10 * nvars + order)
    cubic = random_polynomial(stream(order, nvars, 0), nvars, 3, 0.2).coeffs
    # terms out of graded order, so quotients are built before the terms that name them
    sparse = tuple(cubic[k] for k in rng.permutation(len(cubic))[: len(cubic) // 2])
    for name, xs in kernel_variables(nvars, order, rng).items():
        for coeffs in (cubic, sparse):
            got, want = polynomial(coeffs, xs), reference_polynomial(coeffs, xs)
            if coeffs is cubic:  # every variable appears, so the masks and orders of the two agree
                assert_same_jet_bits(got, want)
            else:
                n = got.space.prefix_sizes[got.order]
                assert np.array_equal(got.c[:n].view(np.uint64), want.c[:n].view(np.uint64)), name


@pytest.mark.parametrize("order", range(5))
def test_wirtinger_hessian_matches_nested_wirtinger_bit_for_bit(order):
    rng = np.random.default_rng(40 + order)
    for base in (0, 2):
        for name, xs in kernel_variables(base + 4, order, rng).items():
            fs = [EguchiHanson(1.3).kappa(xs[base:]) if name != "NaN value" else xs[base] * xs[base + 3]]
            fs.append((xs[base] * xs[-1] * 0.4).exp() + xs[base + 1] * xs[base + 2])
            pairs = ((base, base + 1), (base + 2, base + 3))
            for f in fs:
                if f.order < 2:
                    with pytest.raises(InsufficientJetOrder):
                        wirtinger_hessian(f, pairs)
                    continue
                got, want = wirtinger_hessian(f, pairs), reference_wirtinger_hessian(f, pairs)
                for got_row, want_row in zip(got, want):
                    for g, w in zip(got_row, want_row):
                        assert g.order == f.order - 2 and g.mask == f.mask
                        assert_same_jet_bits(g, w)


def test_polynomial_refuses_jets_of_different_spaces_and_a_wrong_variable_count():
    cubic = random_polynomial(stream(1, 2, 0), 2, 3, 0.2)
    first = seed_jets((0.3, -0.4), 3)
    other = seed_jets((0.3, -0.4, 0.1), 3)
    jet_space.cache_clear()
    second = seed_jets((0.3, -0.4), 3)  # a space of the same size, made after the cache was cleared
    assert second[0].space is not first[0].space and second[0].space.size == first[0].space.size
    for xs in ((first[0], second[1]), (second[0], first[1]), (first[0], other[1])):
        with pytest.raises(ValueError, match="jets from different spaces cannot be combined"):
            cubic(*xs)
    with pytest.raises(ValueError, match="wrong variable count"):
        cubic(first[0])
    with pytest.raises(ValueError, match="wrong variable count"):
        cubic(*second, second[0])


def test_polynomial_taylor_coefficients_match_sympy():
    import sympy

    cubic = random_polynomial(stream(5, 4, 0), 4, 3, 0.2)
    point = (0.3, -0.7, 1.1, 0.45)
    ts = sympy.symbols("t0:4")
    exact = sympy.Poly(
        sum(
            sympy.Rational(c) * sympy.prod((sympy.Rational(x) + t) ** e for x, t, e in zip(point, ts, expo))
            for expo, c in cubic.coeffs
        ),
        *ts,
    )
    got = cubic(*seed_jets(point, 4))
    want = {m: complex(exact.coeff_monomial(sympy.prod(t**e for t, e in zip(ts, m)))) for m in got.space.monomials}
    scale = max(abs(w) for w in want.values())
    assert scale > 0.1 and all(want[m] == 0 for m in got.space.monomials if sum(m) == 4)
    for m, w in want.items():
        assert abs(got.coefficient(m) - w) <= 1e-15 * scale, m
