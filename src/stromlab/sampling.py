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
from .jets import polynomial


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
    """Real polynomial over named jet variables, evaluated by :func:`jets.polynomial`.

    That kernel builds all monomials of one degree in one stacked product,
    each as its quotient by its last variable times that variable, and sums
    the terms in the order of ``coeffs``; every cubic in as many variables
    shares its plan.
    """

    nvars: int
    coeffs: tuple  # ((expo tuple, float), ...)

    def __call__(self, *jets):
        if len(jets) != self.nvars:
            raise ValueError("wrong variable count")
        return polynomial(self.coeffs, jets)


def random_polynomial(gen: np.random.Generator, nvars: int, degree: int, scale: float) -> Polynomial:
    entries = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            expo = [0] * nvars
            for v in combo:
                expo[v] += 1
            entries.append((tuple(expo), float(gen.uniform(-scale, scale))))
    return Polynomial(nvars, tuple(entries))


def random_ansatz_params(seed: int, pair_index: int):
    """A random cubic (g, h) pair of :class:`Polynomial` values; equal arguments give equal params."""
    from .twistor import AnsatzParams

    return AnsatzParams(
        g_fn=random_polynomial(stream(seed, 101, pair_index), 2, 3, 0.2),
        h_fn=random_polynomial(stream(seed, 202, pair_index), 4, 3, 0.2),
    )
