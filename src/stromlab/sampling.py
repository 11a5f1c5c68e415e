"""Deterministic point sampling and random test profiles.

Every random draw comes from a counter-based Philox stream keyed by
(seed, salt) with the item index in the counter block, so point lists and
profile coefficients are reproducible regardless of evaluation order or
thread scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .forms import Chart, ChartPoint


def stream(seed: int, salt: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, salt & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    counter = np.array([0, 0, 0, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def sample_points(chart: Chart, seed: int, salt: int, count: int, lo, hi, accept=None) -> list:
    """Uniform points of the box [lo, hi] that ``accept`` takes, rejection-sampled, one stream per index.

    ``lo`` and ``hi`` are numbers or one bound per coordinate; ``accept``
    takes the coordinate tuple, and None takes every point.
    """
    pts = []
    for i in range(count):
        gen = stream(seed, salt, i)
        for _ in range(10000):
            coords = tuple(float(x) for x in gen.uniform(lo, hi, chart.dim))
            if accept is None or accept(coords):
                pts.append(ChartPoint(chart, coords))
                break
        else:  # pragma: no cover
            raise RuntimeError(f"no acceptable point for index {i}")
    return pts


# ---------------------------------------------------------------------------
# random polynomial profiles


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial over named jet variables, evaluated by Horner-free sums.

    Each monomial is built once, as its quotient by its last variable times
    that variable, so a monomial of degree d >= 2 costs one jet product; the
    graded order of ``random_polynomial`` builds every quotient first.  The
    coefficient scales the monomial as a number.
    """

    nvars: int
    coeffs: tuple  # ((expo tuple, float), ...)

    def __call__(self, *jets):
        if len(jets) != self.nvars:
            raise ValueError("wrong variable count")
        monomials: dict = {}  # exponent tuple -> jet, for degree >= 1

        def monomial(expo):
            if expo not in monomials:
                v = max(i for i, e in enumerate(expo) if e)
                quotient = expo[:v] + (expo[v] - 1,) + expo[v + 1 :]
                monomials[expo] = monomial(quotient) * jets[v] if any(quotient) else jets[v]
            return monomials[expo]

        acc = jets[0] * 0.0
        for expo, c in self.coeffs:
            acc = acc + (monomial(expo) * c if any(expo) else c)
        return acc


def random_polynomial(gen: np.random.Generator, nvars: int, degree: int, scale: float) -> Polynomial:
    entries = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            expo = [0] * nvars
            for v in combo:
                expo[v] += 1
            entries.append((tuple(expo), float(gen.uniform(-scale, scale))))
    return Polynomial(nvars, tuple(entries))


def random_ansatz_params(seed: int, pair_index: int, alpha_prime: float = 2.0, scale: float = 0.2):
    """A random cubic (g, h) pair for the ansatz metric."""
    from .twistor import AnsatzParams

    g_poly = random_polynomial(stream(seed, 101, pair_index), 2, 3, scale)
    h_poly = random_polynomial(stream(seed, 202, pair_index), 4, 3, scale)
    return AnsatzParams(
        g_fn=lambda zr, zi: g_poly(zr, zi),
        h_fn=lambda x1, x2, x3, x4: h_poly(x1, x2, x3, x4),
        alpha_prime=alpha_prime,
    )
