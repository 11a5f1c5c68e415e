"""The operators read a chart's layout from ``Chart.pairs`` alone.

A scrambled chart puts each complex coordinate on other real coordinates
than (0, 1), (2, 3), ...: the twistor chart has zeta on reals 4 and 5, z1 on
2 and 3 and z2 on 0 and 1, and the base chart z1 on 2 and 3 and z2 on 0 and
1.  At points with the same complex coordinates, every certificate must
give the verdict it gives on the package's charts, and a value within
rounding of it; a reader that finds a coordinate by counting reads the
wrong one here.
"""

from dataclasses import dataclass

import pytest

from stromlab.forms import Chart, ChartPoint
from stromlab.hyperkahler import EguchiHanson, FlatR4, asd_residual, cotangent_gram, det_residual
from stromlab.jets import seed_jets
from stromlab.sampling import random_ansatz_params, sample_points
from stromlab.strominger import anomaly_residual, balanced_residual
from stromlab.twistor import AnsatzParams


@dataclass(frozen=True)
class ScrambledChart(Chart):
    """A chart whose j-th complex coordinate sits on the real coordinates ``layout[j]``."""

    layout: tuple

    @property
    def pairs(self) -> tuple:
        return self.layout


SCRAMBLED_BASE = ScrambledChart("scrambled_base", ("x3", "x4", "x1", "x2"), ("z1", "z2"), ((2, 3), (0, 1)))
SCRAMBLED_TWISTOR = ScrambledChart(
    "scrambled_twistor", ("x3", "x4", "x1", "x2", "zr", "zi"), ("zeta", "z1", "z2"), ((4, 5), (2, 3), (0, 1))
)


@dataclass(frozen=True)
class ScrambledEguchiHanson(EguchiHanson):
    chart = SCRAMBLED_BASE
    twistor_chart = SCRAMBLED_TWISTOR


@dataclass(frozen=True)
class ScrambledFlatR4(FlatR4):
    chart = SCRAMBLED_BASE
    twistor_chart = SCRAMBLED_TWISTOR


EH, SCRAMBLED_EH = EguchiHanson(1.0), ScrambledEguchiHanson(1.0)
FLAT, SCRAMBLED_FLAT = FlatR4(), ScrambledFlatR4()


def scrambled(p: ChartPoint, chart: ScrambledChart) -> ChartPoint:
    """The point of ``chart`` with the complex coordinates of ``p``, a point of the matching package chart."""
    coords = [0.0] * chart.dim
    for (re, im), (pre, pim) in zip(chart.pairs, p.chart.pairs):
        coords[re], coords[im] = p.coords[pre], p.coords[pim]
    q = ChartPoint(chart, tuple(coords))
    assert all(q.complex_coord(j) == p.complex_coord(j) for j in range(chart.ncomplex))
    return q


def perturbed_asd(model, p):
    """asd_residual of the cotangent Gram plus |z1|^2 |z2|^2 / 2 on <dz1, dz1>: a must-fail probe."""
    xj = seed_jets(p.coords, 4)
    gram = cotangent_gram(model, xj)
    gram[0][0] = gram[0][0] + (xj[0] * xj[0] + xj[1] * xj[1]) * (xj[2] * xj[2] + xj[3] * xj[3]) * 0.5
    return asd_residual(model, p, gram)


def base_points():
    return sample_points(EH.chart, 5, 0, 4, -1.4, 1.4, lambda c: sum(x * x for x in c) >= 0.4)


def twistor_points(model):
    def accept(c):
        return c[0] ** 2 + c[1] ** 2 >= 0.3**2 and sum(x * x for x in c[2:]) >= 0.4

    return sample_points(model.twistor_chart, 6, 0, 3, -1.2, 1.2, accept)


@pytest.mark.parametrize("operator", [det_residual, asd_residual], ids=["det", "asd"])
def test_base_certificates_read_the_pairs(operator):
    for p in base_points():
        want = operator(EH, p)
        assert want <= 1e-8
        assert abs(operator(SCRAMBLED_EH, scrambled(p, SCRAMBLED_BASE)) - want) <= 1e-12


def test_perturbed_asd_fails_on_both_charts():
    for p in base_points():
        assert perturbed_asd(EH, p) > 1e-3
        assert perturbed_asd(SCRAMBLED_EH, scrambled(p, SCRAMBLED_BASE)) > 1e-3


def test_balanced_residual_reads_the_pairs():
    for k, p in enumerate(twistor_points(EH)):
        params = random_ansatz_params(seed=5, pair_index=k)
        want = balanced_residual(EH, params, p)
        assert want <= 1e-8
        assert abs(balanced_residual(SCRAMBLED_EH, params, scrambled(p, SCRAMBLED_TWISTOR)) - want) <= 1e-12


@pytest.mark.parametrize("radial_h", [False, True], ids=["constant_h", "radial_h"])
def test_flat_anomaly_residual_reads_the_pairs(radial_h):
    params = AnsatzParams.coupling_solution(radial_h=radial_h)
    for p in twistor_points(FLAT):
        want = anomaly_residual(FLAT, params, p)
        assert want <= 1e-8
        assert abs(anomaly_residual(SCRAMBLED_FLAT, params, scrambled(p, SCRAMBLED_TWISTOR)) - want) <= 1e-12
