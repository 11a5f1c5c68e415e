"""Truncated multivariate Taylor arithmetic: the forward-mode AD tower.

A :class:`Jet` holds the Taylor coefficients of a smooth complex-valued
function at a point, over ``nvars`` real variables, truncated at total
degree ``order``.  Sums, products, quotients and the analytic primitives
(exp, log, sqrt, sin, cos, integer powers) propagate coefficients exactly,
so every derivative query downstream is exact up to floating-point
rounding.  Finite differences appear only as cross-checks in the test
suite, never as a primary derivative source.

Coefficients are stored densely over the graded-lexicographic monomial
list of a :class:`JetSpace`; multiplication runs through a precomputed
pair table sorted by output monomial, so that a product is one gather and
multiply plus one ``np.add.reduceat`` over the pairs the result can keep.
The coefficient kernel ``_mul_coeffs`` takes arrays whose first axis is the
monomial one and broadcasts their trailing axes, so a matrix or a form of
jets stacked into one array is multiplied in one call, bit for bit as its
entries would be one by one.
Each jet carries its own validity ``order``: differentiating lowers it by
one, reading a coefficient beyond it raises :class:`InsufficientJetOrder`,
and a product is summed only up to the lower validity order of its factors.
``Jet.to_order(o)`` reads a jet to order o: a view valid to min(o, order)
that shares the coefficient array (nothing mutates ``Jet.c`` in place), so
a reader that needs, say, first derivatives at the point asks for order 2
and every product after it sums only the pairs of degree <= 2.  The
coefficients of degree <= o are those of the full jet, and no coefficient a
result is valid for depends on an operand's coefficients above the
operand's validity order, so nothing computed from the view depends on the
coefficients above o.

Each jet also carries a support ``mask``, a bitmask of the variables it may
depend on: every coefficient of a monomial in another variable is exactly
zero.  Constants have mask 0 and the seed of variable v has ``1 << v``;
sums and products take the union of their operands' masks, while scalar
scaling, the analytic primitives, derivatives and the real-structure
helpers keep it.  A jet built from a bare coefficient array gets every
variable, so an unknown support is never narrowed.  A product sums only the
pairs whose output monomial lies in the union mask; these are all the pairs
of those outputs, in the same order, so the result is bit-identical to the
full product while a product of, say, two functions of 2 of 6 variables
touches 70 instead of 1820 pairs at order 4.

An analytic primitive f(g) is a Horner scheme in hat = g - g(0): from
acc = f^(k)(g0)/k!, each step j = k-1 .. 0 sets acc = acc * hat +
f^(j)(g0)/j!.  The acc of step j reaches the result only multiplied by
hat**j, whose terms have degree >= j, so step j multiplies only to order
k - j (Griewank and Walther, *Evaluating Derivatives*, ch. 13).  Every
coefficient a step keeps sums the same pairs in the same order as a
full-order step, so the result does not change, while an order-7
composition in 4 variables sums 11,439 instead of 45,045 pairs.  The pair
list of a mask is built once, at the space's order, and is read-only:
outputs come in graded order, so the pairs of the outputs of degree <= o
are a prefix of it, which every lower order reads as views.

Two kernels evaluate whole families of jets as stacked Taylor rows, where a
jet-by-jet loop would run tens of tiny operations (Neidinger, SIAM Review
52, 2010).  :func:`polynomial` builds all monomials of one degree in one
stacked product, each as its quotient by its last variable times that
variable, and sums the terms by ``np.add.accumulate`` in their given order,
from a plan cached per exponent tuple.  :func:`wirtinger_hessian` takes
[[d_i dbar_j f]] in two gathers over the concatenated diff tables of its
variables (``JetSpace.diff_tables``).  Both equal their jet-by-jet loops bit
for bit in every coefficient the result is valid for.

A :class:`Profile` is a jet-capable function of one real variable, such as
f, g of the Calabi fibre norm and h(rho) of the radial dichotomy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


class InsufficientJetOrder(Exception):
    """A derivative or coefficient was requested beyond a jet's valid order."""


class JetOverflowError(OverflowError):
    """A Taylor coefficient of a jet primitive or power is not finite."""


class JetSpace:
    """Monomial bookkeeping for jets in ``nvars`` real variables up to ``order``."""

    def __init__(self, nvars: int, order: int):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order
        monomials = []
        for deg in range(order + 1):
            batch = set()
            for combo in combinations_with_replacement(range(nvars), deg):
                expo = [0] * nvars
                for v in combo:
                    expo[v] += 1
                batch.add(tuple(expo))
            monomials.extend(sorted(batch))
        self.monomials = tuple(monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.size = len(self.monomials)
        self.degrees = np.array([sum(m) for m in self.monomials], dtype=np.int64)
        self.full_mask = (1 << nvars) - 1
        # prefix_sizes[o]: number of monomials of degree <= o (they come first)
        self.prefix_sizes = [int(n) for n in np.searchsorted(self.degrees, np.arange(order + 1), side="right")]
        # exponents as base-(order+1) digits: no exponent of a kept product
        # exceeds order, so the code of a product is the sum of the codes
        self._exponents = np.array(self.monomials, dtype=np.int64).reshape(self.size, nvars)
        self._digits = (order + 1) ** np.arange(nvars, dtype=np.int64)
        self._codes = self._exponents @ self._digits
        # bitmask of the variables each monomial involves
        self._supports = (self._exponents > 0) @ (1 << np.arange(nvars, dtype=np.int64))
        self._code_rank = np.argsort(self._codes)
        self._sorted_codes = self._codes[self._code_rank]
        # first_order[v]: index of the monomial x_v, whose coefficient is d/dx_v at the point
        self.first_order = self._lookup(self._digits) if order >= 1 else np.zeros(0, dtype=np.intp)
        # second_order[u, w]: index of the monomial x_u x_w, whose coefficient is d2/dx_u dx_w at
        # the point for u != w and half of it for u == w
        self.second_order = (
            self._lookup(self._digits[:, None] + self._digits[None, :]) if order >= 2 else np.zeros((0, 0), dtype=np.intp)
        )
        self._mul_table = None
        self._mul_subsets = {}
        self._diff_tables = {}

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        """Monomial indices of exponent codes that are known to exist."""
        return self._code_rank[np.searchsorted(self._sorted_codes, codes)]

    def mul_table(self):
        """(ii, jj, kk): every pair with deg ii + deg jj <= order, kk the product.

        Pairs are sorted stably by kk, so the pairs of one output monomial
        are contiguous, and the pairs of all outputs of degree <= o form a
        prefix.
        """
        if self._mul_table is None:
            ii, jj = [], []
            # rows of degree d pair with the columns of degree <= order - d,
            # which are a prefix; blocks keep temporaries O(pairs)
            for d in range(self.order + 1):
                lo = self.prefix_sizes[d - 1] if d else 0
                rows = np.arange(lo, self.prefix_sizes[d], dtype=np.intp)
                cols = np.arange(self.prefix_sizes[self.order - d], dtype=np.intp)
                ii.append(np.repeat(rows, len(cols)))
                jj.append(np.tile(cols, len(rows)))
            ii = np.concatenate(ii)
            jj = np.concatenate(jj)
            kk = self._lookup(self._codes[ii] + self._codes[jj])
            perm = np.argsort(kk, kind="stable")
            self._mul_table = (ii[perm], jj[perm], kk[perm])
        return self._mul_table

    def mul_subset(self, mask: int, order: int):
        """(ii, jj, starts, outs): the pairs of the outputs in ``mask`` of degree <= order.

        A stable subset of the sorted table's prefix for ``order``: the
        outputs are the monomials of degree <= order in the variables of
        ``mask``, each keeps all of its pairs in table order, and
        ``starts`` indexes the first pair of each output.  One list is built
        per mask, at the space's order, and made read-only; outputs come in
        graded order, so the list for a lower order is a prefix of it and is
        served as views.
        """
        key = (mask, order)
        sub = self._mul_subsets.get(key)
        if sub is None:
            full = self._mul_subsets.get((mask, self.order))
            if full is None:
                ii, jj, kk = self.mul_table()
                inside = (self._supports[kk] & ~mask) == 0
                ii, jj, kk = ii[inside], jj[inside], kk[inside]
                # every output has at least the pair (itself, 1)
                starts = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
                full = self._mul_subsets[(mask, self.order)] = (ii, jj, starts, kk[starts])
                for a in full:
                    a.flags.writeable = False
            ii, jj, starts, outs = full
            m = int(np.searchsorted(outs, self.prefix_sizes[order]))
            end = starts[m] if m < len(starts) else len(ii)
            sub = self._mul_subsets[key] = (ii[:end], jj[:end], starts[:m], outs[:m])
        return sub

    def support(self, mask: int, order: int) -> np.ndarray:
        """Indices of the monomials of degree <= order in the variables of ``mask``, ascending; read-only."""
        return self.mul_subset(mask, order)[3]

    def diff_table(self, v: int):
        """Index map realizing d/dx_v on Taylor coefficients."""
        tab = self._diff_tables.get(v)
        if tab is None:
            src = np.flatnonzero(self._exponents[:, v])
            dst = self._lookup(self._codes[src] - self._digits[v])
            fac = self._exponents[src, v].astype(np.float64)
            tab = (src, dst, fac)
            self._diff_tables[v] = tab
        return tab

    def diff_tables(self, vs: tuple):
        """The diff tables of the variables ``vs`` concatenated: row t of a (len(vs), size) array is d/dx_vs[t]."""
        tab = self._diff_tables.get(vs)
        if tab is None:
            parts = [self.diff_table(v) for v in vs]
            src = np.concatenate([p[0] for p in parts])
            dst = np.concatenate([p[1] + t * self.size for t, p in enumerate(parts)])
            fac = np.concatenate([p[2] for p in parts])
            tab = self._diff_tables[vs] = (src, dst, fac)
        return tab

    def __repr__(self):  # pragma: no cover
        return f"JetSpace(nvars={self.nvars}, order={self.order}, size={self.size})"


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


_KEPT: dict = {}  # key -> (jet_space(1, 0) at the build, order, value); the two used last, the older first


def kept(key, order: int, build):
    """The value kept under ``key`` if it was built for at least ``order``, else ``build()``, which replaces it.

    This is the one memo of what the operators at a point share (a frame,
    the data beside it, a base point's geometry); ``key`` starts with the
    kind of value.  A value made before ``jet_space.cache_clear()`` is
    rebuilt, so no reader gets jets of a stale space.  Only the two values
    used last, of any kind, are kept, and a miss lets the older of them go
    before it builds, so no build runs beside two older values.  So two
    params in a row at one flat point rebuild the frame when it is the
    older entry; no benchmark workload and no golden group does that.  The
    low coefficients of a truncated product or composition do not depend
    on the truncation order, so a reader gets the same bits from a value
    built for a higher order.  Keys compare by value: the ``AnsatzParams``
    constructors (whose profiles are constants held by value and module
    functions) and ``random_ansatz_params`` give equal params for equal
    arguments, however they are spelled, while Calabi params hold closures
    and are keyed by identity (each caller builds them once).
    """
    stamp = jet_space(1, 0)
    got = _KEPT.pop(key, None)
    if got is None or got[0] is not stamp or got[1] < order:
        got = None  # the value replaced, and the oldest one, go before the build
        if len(_KEPT) == 2:
            del _KEPT[next(iter(_KEPT))]
        got = (stamp, order, build())
    _KEPT[key] = got
    if len(_KEPT) > 2:
        del _KEPT[next(iter(_KEPT))]
    return got[2]


def _mul_coeffs(space: JetSpace, a: np.ndarray, b: np.ndarray, order: int, mask: int) -> np.ndarray:
    """Coefficients of a * b valid to degree ``order``, for factors supported in ``mask``.

    Only the pairs whose output has degree <= order and lies in ``mask``
    are summed.  The coefficients above ``order`` are exactly zero, not the
    partial sums of invalid coefficients that a full product would leave
    there; so are those outside ``mask``, which a full product would sum
    from zero factors.

    The monomial axis comes first.  ``a`` and ``b`` have the same number of
    axes, and the trailing ones broadcast against each other as numpy
    broadcasts, so one call multiplies whole arrays of jets entry by entry
    (a single jet scales an array of them as ``c[:, None]``).  Each entry
    sums the pairs of the 1-D product in the same order, so it equals that
    product bit for bit.  The operands may hold only the first monomials,
    as far as those of degree <= ``order``; the result has as many rows as
    ``a``.

    Stacking pays at low order, where a call is mostly overhead, and loses
    at high order, where the gathered (pairs, k) operands and their
    reduction over the first axis cost more than k contiguous products.
    Measured with timeit (best of 7, 2-core host, numpy 2.4): six products
    in ``jet_space(4, 7)`` take 19 us one by one and 10 us stacked at order
    2 (45 pairs), but 97 us one by one and 275 us stacked at order 6 (3003
    pairs).  So the order-6 Calabi metric is built product by product.
    """
    ii, jj, starts, outs = space.mul_subset(mask, order)
    sums = np.add.reduceat(a[ii] * b[jj], starts)
    out = np.zeros((len(a),) + sums.shape[1:], dtype=np.complex128)
    out[outs] = sums
    return out


def _cmath(fn, z):
    """fn(z) for a cmath primitive, its overflow raised as JetOverflowError."""
    try:
        return fn(z)
    except OverflowError as exc:
        raise JetOverflowError(f"{fn.__name__}({z}) overflows") from exc


class Jet:
    """Truncated Taylor expansion of a smooth function at a fixed point."""

    __slots__ = ("space", "c", "order", "mask")

    def __init__(self, space: JetSpace, c: np.ndarray, order: int | None = None, mask: int | None = None):
        self.space = space
        self.c = c
        self.order = space.order if order is None else order
        self.mask = space.full_mask if mask is None else mask

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(space: JetSpace, value, order: int | None = None) -> "Jet":
        c = np.zeros(space.size, dtype=np.complex128)
        c[0] = value
        return Jet(space, c, order, 0)

    @staticmethod
    def variable(space: JetSpace, v: int, value) -> "Jet":
        """Coordinate seed: value + (x_v - p_v)."""
        c = np.zeros(space.size, dtype=np.complex128)
        c[0] = value
        if space.order >= 1:
            unit = [0] * space.nvars
            unit[v] = 1
            c[space.index[tuple(unit)]] = 1.0
        return Jet(space, c, mask=1 << v)

    # -- queries ------------------------------------------------------

    def to_order(self, order: int) -> "Jet":
        """This jet read to ``order``: valid to min(order, self.order), sharing ``c``."""
        if order < 0:
            raise ValueError("a jet order is >= 0")
        if order >= self.order:
            return self
        return Jet(self.space, self.c, order, self.mask)

    @property
    def value(self) -> complex:
        return complex(self.c[0])

    def coefficient(self, mono: tuple) -> complex:
        if sum(mono) > self.order:
            raise InsufficientJetOrder(
                f"coefficient of degree {sum(mono)} requested from an order-{self.order} jet"
            )
        return complex(self.c[self.space.index[mono]])

    def partial(self, mono: tuple) -> complex:
        """Mixed partial derivative (coefficient times factorials)."""
        fac = 1.0
        for m in mono:
            fac *= math.factorial(m)
        return self.coefficient(mono) * fac

    def derivative(self, v: int) -> "Jet":
        """d/dx_v, exact; the result is valid one order lower."""
        if self.order < 1:
            raise InsufficientJetOrder("cannot differentiate an order-0 jet")
        src, dst, fac = self.space.diff_table(v)
        out = np.zeros(self.space.size, dtype=np.complex128)
        out[dst] = self.c[src] * fac
        return Jet(self.space, out, self.order - 1, self.mask)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        """A jet of the same space, a scalar as a complex, or None for anything else."""
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets from different spaces cannot be combined")
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return complex(other)
        return None

    # numpy defers to the reflected operators, so np.complex128(z) * jet
    # reaches __rmul__ instead of numpy's object-array path
    __array_ufunc__ = None

    # A scalar operand moves only the constant coefficient (+, -) or scales
    # the coefficients (*, /); no constant jet is built for it.  The results
    # equal those with the scalar lifted to Jet.constant(space, scalar, order),
    # taken as the right factor of a product (numpy's complex multiply may
    # round a * b and b * a differently); s / jet is jet.reciprocal() * s.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(o, Jet):
            c = self.c.copy()
            c[0] += o
            return Jet(self.space, c, self.order, self.mask)
        return Jet(self.space, self.c + o.c, min(self.order, o.order), self.mask | o.mask)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(o, Jet):
            c = self.c.copy()
            c[0] -= o
            return Jet(self.space, c, self.order, self.mask)
        return Jet(self.space, self.c - o.c, min(self.order, o.order), self.mask | o.mask)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = -self.c
        c[0] = o - self.c[0]
        return Jet(self.space, c, self.order, self.mask)

    def __neg__(self):
        return Jet(self.space, -self.c, self.order, self.mask)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(o, Jet):
            return Jet(self.space, self.c * o, self.order, self.mask)
        order = min(self.order, o.order)
        mask = self.mask | o.mask
        return Jet(self.space, _mul_coeffs(self.space, self.c, o.c, order, mask), order, mask)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, self.c * o, self.order, self.mask)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(o, Jet):
            return Jet(self.space, self.c / o, self.order, self.mask)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.reciprocal() * o

    def __pow__(self, n):
        if isinstance(n, (int, np.integer)):
            n = int(n)
            if n < 0:
                return self.reciprocal() ** (-n)
            out = Jet.constant(self.space, 1.0, self.order)
            base, k = self, n
            with np.errstate(over="ignore", invalid="ignore"):
                while k:
                    if k & 1:
                        out = out * base
                    base = base * base if k > 1 else base
                    k >>= 1
            if not np.isfinite(out.c).all():
                raise JetOverflowError(f"power {n} of a jet with value {self.value} overflows")
            return out
        return (self.log() * n).exp()

    # -- analytic primitives -------------------------------------------

    def _compose(self, derivs) -> "Jet":
        """Evaluate f(self) where derivs[j] = f^(j)(value)/j! for j = 0..order."""
        if not all(cmath.isfinite(d) for d in derivs):
            raise JetOverflowError(f"a Taylor factor at value {self.value} is not finite")
        hat = self.c.copy()
        hat[0] = 0.0
        k = self.order
        acc = np.zeros(self.space.size, dtype=np.complex128)
        acc[0] = derivs[k]
        for j in range(k - 1, -1, -1):
            # acc reaches the result only times hat**j, of degree >= j
            acc = _mul_coeffs(self.space, acc, hat, k - j, self.mask)
            acc[0] += derivs[j]
        return Jet(self.space, acc, self.order, self.mask)

    def reciprocal(self) -> "Jet":
        g0 = self.c[0]
        if g0 == 0:
            raise ZeroDivisionError("jet with zero value has no reciprocal")
        derivs = [(-1.0) ** j / g0 ** (j + 1) for j in range(self.order + 1)]
        return self._compose(derivs)

    def exp(self) -> "Jet":
        e = _cmath(cmath.exp, self.c[0])
        derivs = [e / math.factorial(j) for j in range(self.order + 1)]
        return self._compose(derivs)

    def log(self) -> "Jet":
        g0 = self.c[0]
        if g0 == 0:
            raise ZeroDivisionError("log of a jet with zero value")
        derivs = [cmath.log(g0)]
        for j in range(1, self.order + 1):
            derivs.append((-1.0) ** (j - 1) / (j * g0 ** j))
        return self._compose(derivs)

    def sqrt(self) -> "Jet":
        g0 = self.c[0]
        if g0 == 0:
            raise ZeroDivisionError("sqrt of a jet with zero value is not smooth")
        r = cmath.sqrt(g0)
        derivs = [r]
        coeff = 0.5
        for j in range(1, self.order + 1):
            derivs.append(coeff * g0 ** (0.5 - j) / math.factorial(j))
            coeff *= 0.5 - j
        return self._compose(derivs)

    def sin(self) -> "Jet":
        g0 = self.c[0]
        s, c = _cmath(cmath.sin, g0), _cmath(cmath.cos, g0)
        cycle = [s, c, -s, -c]
        derivs = [cycle[j % 4] / math.factorial(j) for j in range(self.order + 1)]
        return self._compose(derivs)

    def cos(self) -> "Jet":
        g0 = self.c[0]
        s, c = _cmath(cmath.sin, g0), _cmath(cmath.cos, g0)
        cycle = [c, -s, -c, s]
        derivs = [cycle[j % 4] / math.factorial(j) for j in range(self.order + 1)]
        return self._compose(derivs)

    # -- real-structure helpers (variables are real) --------------------

    def conjugate(self) -> "Jet":
        return Jet(self.space, np.conj(self.c), self.order, self.mask)

    def real(self) -> "Jet":
        return Jet(self.space, self.c.real.astype(np.complex128), self.order, self.mask)

    def imag(self) -> "Jet":
        return Jet(self.space, self.c.imag.astype(np.complex128), self.order, self.mask)

    def abs(self) -> "Jet":
        """|f| = sqrt(f conj f); smooth away from zeros of f."""
        return (self * self.conjugate()).real().sqrt()

    def __repr__(self):  # pragma: no cover
        return f"Jet(order={self.order}, value={self.value:.6g})"


def seed_jets(values, order: int, space: JetSpace | None = None) -> list[Jet]:
    """Coordinate jets for a point: one first-order seed per variable."""
    if space is None:
        space = jet_space(len(values), order)
    return [Jet.variable(space, v, float(x)) for v, x in enumerate(values)]


def wirtinger(jet: Jet, re_idx: int, im_idx: int, bar: bool) -> Jet:
    """d/dz or d/dzbar for the complex variable x[re_idx] + i x[im_idx]."""
    dre = jet.derivative(re_idx)
    dim = jet.derivative(im_idx)
    if bar:
        return (dre + dim * 1j) * 0.5
    return (dre - dim * 1j) * 0.5


def wirtinger_hessian(f: Jet, pairs) -> list:
    """[[d_i dbar_j f]] for the complex variables x[re] + i x[im] of ``pairs`` = ((re, im), ...).

    Entry (i, j) equals ``wirtinger(wirtinger(f, *pairs[i], bar=False),
    *pairs[j], bar=True)`` bit for bit: the same element operations on
    whole arrays, each level of d/dx one gather over the concatenated diff
    tables of the pairs' variables.  Valid to order ``f.order - 2``.
    """
    if f.order < 2:
        raise InsufficientJetOrder(f"a Wirtinger Hessian needs an order-2 jet, not order {f.order}")
    space, n = f.space, len(pairs)
    vs = tuple(v for pair in pairs for v in pair)
    src, dst, fac = space.diff_tables(vs)
    first = np.zeros(len(vs) * space.size, dtype=np.complex128)
    first[dst] = f.c[src] * fac
    first = first.reshape(len(vs), space.size)
    d = (first[0::2] - first[1::2] * 1j) * 0.5
    second = np.zeros((n, len(vs) * space.size), dtype=np.complex128)
    second[:, dst] = d[:, src] * fac
    second = second.reshape(n, len(vs), space.size)
    h = (second[:, 0::2] + second[:, 1::2] * 1j) * 0.5
    return [[Jet(space, h[i, j], f.order - 2, f.mask) for j in range(n)] for i in range(n)]


def _last_quotient(expo: tuple):
    """(x^expo / x_v, v) for the last variable x_v of the monomial x^expo."""
    v = max(i for i, e in enumerate(expo) if e)
    return expo[:v] + (expo[v] - 1,) + expo[v + 1 :], v


@lru_cache(maxsize=None)
def _polynomial_plan(exponents: tuple):
    """How :func:`polynomial` builds the monomials of ``exponents`` and reads its terms.

    Columns 0 .. nvars-1 are the variables; every other monomial a term
    needs, its quotients included, gets a column, by degree.  Returns
    (steps, column count, term columns, constant terms), a step being
    (first column, end column, quotient columns, variables) of one degree.
    """
    nvars = len(exponents[0]) if exponents else 0
    needed = set()
    for expo in exponents:
        while sum(expo) >= 2 and expo not in needed:
            needed.add(expo)
            expo = _last_quotient(expo)[0]
    cols = {tuple(int(i == v) for i in range(nvars)): v for v in range(nvars)}
    steps = []
    for deg in sorted({sum(e) for e in needed}):
        batch = sorted(e for e in needed if sum(e) == deg)
        quotients, variables = zip(*(_last_quotient(e) for e in batch))
        lo = len(cols)
        steps.append((lo, lo + len(batch), np.array([cols[q] for q in quotients]), np.array(variables)))
        cols.update((e, lo + k) for k, e in enumerate(batch))
    constants = np.array([t for t, e in enumerate(exponents) if not any(e)], dtype=np.intp)
    terms = np.array([cols.get(e, 0) for e in exponents], dtype=np.intp)
    return steps, len(cols), terms, constants


_NEG_ZERO = complex(-0.0, -0.0)  # x + _NEG_ZERO is x for every x, a zero of either sign included


def polynomial(coeffs, xs) -> Jet:
    """sum c_alpha x^alpha over ``coeffs`` = ((alpha, c_alpha), ...), of the jets ``xs``.

    All monomials of one degree are one stacked product, each its quotient
    by its last variable times that variable, and the terms are summed in
    the order of ``coeffs`` from ``xs[0] * 0.0`` by ``np.add.accumulate``.
    The result is valid to the lowest order of ``xs`` and has the union of
    their masks.  Each coefficient it is valid for equals that of the
    jet-by-jet sum (each monomial one product, scaled by its coefficient as
    a number, a constant added to the value) bit for bit: a stacked product
    sums all pairs of an output as the 1-D one does, and a monomial's
    outputs outside its own variables are set to the zeros its own product
    leaves there.  The plan is cached per exponent tuple, so polynomials of
    one shape share it.
    """
    space = xs[0].space
    if any(x.space is not space for x in xs):
        raise ValueError("jets from different spaces cannot be combined")
    steps, ncols, terms, constants = _polynomial_plan(tuple(e for e, _ in coeffs))
    order = min(x.order for x in xs)
    mask = 0
    for x in xs:
        mask |= x.mask
    mono = np.empty((space.size, ncols), dtype=np.complex128)
    mono[:, : len(xs)] = np.stack([x.c for x in xs], axis=1)
    masks = np.zeros(ncols, dtype=np.int64)
    masks[: len(xs)] = [x.mask for x in xs]
    for lo, hi, quotients, variables in steps:
        masks[lo:hi] = masks[quotients] | masks[variables]
        mono[:, lo:hi] = _mul_coeffs(space, mono[:, quotients], mono[:, variables], order, mask)
        # a monomial is exactly 0 outside its own variables, as its own product leaves it, NaN factors or not
        mono[:, lo:hi][(space._supports[:, None] & ~masks[lo:hi]) != 0] = 0.0
    values = np.array([c for _, c in coeffs], dtype=np.complex128)
    rows = np.empty((len(coeffs) + 1, space.size), dtype=np.complex128)
    rows[0] = xs[0].c * 0.0
    rows[1:] = mono[:, terms].T * values[:, None]
    rows[constants + 1] = _NEG_ZERO
    rows[constants + 1, 0] = values[constants]
    return Jet(space, np.add.accumulate(rows)[-1].copy(), order, mask)


@dataclass(frozen=True)
class Profile:
    """A function of one real variable given by a jet-capable callable ``fn``."""

    fn: object

    def __call__(self, x):
        return self.fn(x)

    def derivatives(self, x: float):
        jet = self.fn(Jet.variable(jet_space(1, 2), 0, x))
        return jet.partial((1,)), jet.partial((2,))

    @staticmethod
    def linear(slope: float) -> "Profile":
        return Profile(lambda x: x * slope)

    @staticmethod
    def log_slope(slope: float) -> "Profile":
        """slope log x; for h(rho), slope -3/2 (h' = -3/(2 rho)) is the nonconstant branch of the dichotomy."""
        return Profile(lambda x: x.log() * slope)
