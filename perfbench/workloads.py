"""The benchmark's workloads: inputs made from a seed, and the calls at each point.

A workload object holds a pool of inputs generated from the seed.  Index 0
is the warm-up point; the timed loop walks indices 1, 2, ... modulo the pool
size.  ``calls(i)`` lists the operator calls of pool entry ``i``, each with
the gates of the tier-1 test that covers it.  The program only ever sees the
generated points and parameters.
"""

from __future__ import annotations

from stromlab import forms, jets
from stromlab.calabi import (
    CalabiParams,
    Profile,
    chern_scalar,
    constant_norm_residual,
    extremal_residual,
    fubini_study_cp1,
    km_balanced_residual,
    theorem_metric_params,
    volume_norm,
)
from stromlab.forms import ChartPoint
from stromlab.hyperkahler import (
    EH_CHART,
    asd_residual,
    cotangent_gram,
    det_residual,
    eguchi_hanson,
    flat_model,
)
from stromlab.jets import seed_jets
from stromlab.sampling import random_ansatz_params, stream
from stromlab.strominger import (
    anomaly_residual,
    balanced_residual,
    curvature_identities,
    hym_residual,
)
from stromlab.twistor import TWISTOR_EH, TWISTOR_FLAT, AnsatzParams, frame_decompose

from verdicts import Call, fails, passes

FLAT = flat_model()
EH = eguchi_hanson(1.0)


def reset_program_caches() -> None:
    """Drop every process-wide cache of the program, so set-up pays for it again."""
    jets.jet_space.cache_clear()
    forms._BASIS_INV_CACHE.clear()


def _points(chart, seed: int, salt: int, count: int, lo: float, hi: float, accept) -> list:
    """Uniform points of a box, rejection-sampled, one Philox stream per index."""
    pts = []
    for i in range(count):
        gen = stream(seed, salt, i)
        for _ in range(10000):
            coords = tuple(float(x) for x in gen.uniform(lo, hi, chart.dim))
            if accept(coords):
                pts.append(ChartPoint(chart, coords))
                break
        else:
            raise RuntimeError(f"no acceptable point for index {i}")
    return pts


def _twistor_ok(c) -> bool:
    # |zeta| >= 0.3 keeps the 1/zeta coframe tame; base radius^2 >= 0.4 keeps
    # the radial profiles and the Eguchi-Hanson potential away from the origin
    return c[0] ** 2 + c[1] ** 2 >= 0.09 and sum(x * x for x in c[2:]) >= 0.4


def _single(fn, *args) -> dict:
    return {"res": float(fn(*args))}


class Workload:
    """Defaults of a workload; subclasses set the pool and define ``calls``."""

    cycle = 1  # pool entries per repeating pattern of point kinds

    def finish(self, visited) -> list:
        """Calls over the set of visited pool indices, after the timed loop."""
        return []


class FlatStrominger(Workload):
    name = "flat-strominger"
    why = "the paper's headline check on flat twistor space: 6-variable order-4 jets and jet-valued type tables"
    pool_size = 64
    reference_points = 48
    cycle = 4
    point_cost_s = 1.0
    ops = ("balanced_residual", "hym_residual", "anomaly_residual", "curvature_identities", "frame_decompose")

    def __init__(self, seed: int):
        self.points = _points(TWISTOR_FLAT, seed, 11, self.pool_size, -1.2, 1.2, _twistor_ok)
        self.params = [self._params(seed, i) for i in range(self.pool_size)]

    @staticmethod
    def _params(seed: int, i: int) -> AnsatzParams:
        # coupling solutions (constant, then radial h) alternate with random
        # cubic profiles, on which the anomaly equation must fail
        if i % 4 == 0:
            return AnsatzParams.coupling_solution()
        if i % 4 == 2:
            return AnsatzParams.coupling_solution(radial_h=True)
        return random_ansatz_params(seed, i)

    def calls(self, i: int) -> list:
        p, params = self.points[i], self.params[i]
        coupling = i % 2 == 0
        identity_keys = ("c1_res", "c2_res", "w_res") + (("trace_res",) if coupling else ())

        def frame():
            res = frame_decompose(FLAT, p)
            return {
                "simp_residual": res.simp_residual,
                "loc_residual": res.loc_residual,
                "reconstruction_residual": res.reconstruction_residual,
            }

        return [
            Call("balanced_residual", lambda: _single(balanced_residual, FLAT, params, p), {"res": passes(1e-8)}),
            Call("hym_residual", lambda: _single(hym_residual, FLAT, params, p), {"res": passes(1e-8)}),
            Call(
                "anomaly_residual",
                lambda: _single(anomaly_residual, FLAT, params, p),
                {"res": passes(1e-8) if coupling else fails(1e-3)},
            ),
            Call(
                "curvature_identities",
                lambda: {k: float(v) for k, v in curvature_identities(FLAT, params, p).items()},
                {k: passes(1e-8) for k in identity_keys},
            ),
            Call(
                "frame_decompose",
                frame,
                {
                    "simp_residual": passes(1e-9),
                    "loc_residual": passes(1e-9),
                    "reconstruction_residual": passes(1e-11),
                },
            ),
        ]


class EguchiHansonHyperkahler(Workload):
    name = "eh-hyperkahler"
    why = "small jets under the constant standard structure, where Python call overhead dominates"
    pool_size = 512
    reference_points = 512
    point_cost_s = 0.035
    ops = ("asd_residual", "det_residual", "asd_residual_perturbed", "balanced_residual")

    def __init__(self, seed: int):
        # one pool entry is a pair: an Eguchi-Hanson base point and a twistor
        # point, so the per-entry time is one mode rather than two
        self.base_points = _points(
            EH_CHART, seed, 21, self.pool_size, -1.4, 1.4, lambda c: sum(x * x for x in c) >= 0.4
        )
        self.twistor_points = _points(TWISTOR_EH, seed, 22, self.pool_size, -1.2, 1.2, _twistor_ok)
        self.params = [random_ansatz_params(seed, i) for i in range(self.pool_size)]

    def calls(self, i: int) -> list:
        p, q, params = self.base_points[i], self.twistor_points[i], self.params[i]

        def perturbed_asd():
            xj = seed_jets(p.coords, 4)
            gram = cotangent_gram(EH, xj)
            bump = (xj[0] * xj[0] + xj[1] * xj[1]) * (xj[2] * xj[2] + xj[3] * xj[3])
            gram[0][0] = gram[0][0] + bump * 0.5
            return _single(asd_residual, EH, p, gram)

        return [
            Call("asd_residual", lambda: _single(asd_residual, EH, p), {"res": passes(1e-8)}),
            Call("det_residual", lambda: _single(det_residual, EH, p), {"res": passes(1e-9)}),
            Call("asd_residual_perturbed", perturbed_asd, {"res": fails(1e-3)}),
            Call("balanced_residual", lambda: _single(balanced_residual, EH, params, q), {"res": passes(1e-8)}),
        ]


class CalabiCanonical(Workload):
    name = "calabi-canonical"
    why = "order-7 jets in 4 variables under a constant structure; the only workload that runs calabi.py"
    pool_size = 512
    reference_points = 512
    point_cost_s = 0.03
    ops = (
        "extremal_residual",
        "km_balanced_residual",
        "km_balanced_residual_linear",
        "chern_scalar",
        "volume_norm",
        "constant_norm_residual",
    )

    def __init__(self, seed: int):
        self.base = fubini_study_cp1()
        self.params = theorem_metric_params(self.base)
        self.linear = CalabiParams.constant_length(self.base, f_profile=Profile.linear(1.0))
        self.points = _points(
            self.base.total_chart, seed, 31, self.pool_size, -1.1, 1.1, lambda c: c[2] ** 2 + c[3] ** 2 >= 0.35
        )
        # the norm is constant on the theorem branch: every point is compared
        # with the first one
        self.norm0 = volume_norm(self.base, self.params, self.points[0])

    def calls(self, i: int) -> list:
        base, params, p = self.base, self.params, self.points[i]

        def norm():
            value = volume_norm(base, params, p)
            return {"norm": value, "deviation": abs(value / self.norm0 - 1.0)}

        return [
            Call("extremal_residual", lambda: _single(extremal_residual, base, params, p), {"res": passes(1e-8)}),
            Call("km_balanced_residual", lambda: _single(km_balanced_residual, base, params, p), {"res": passes(1e-8)}),
            Call(
                "km_balanced_residual_linear",
                lambda: _single(km_balanced_residual, base, self.linear, p),
                {"res": fails(1e-3)},
            ),
            Call("chern_scalar", lambda: {"res": abs(chern_scalar(base, params, p))}, {"res": passes(1e-8)}),
            Call("volume_norm", norm, {"deviation": passes(1e-9)}),
        ]

    def finish(self, visited) -> list:
        pts = [self.points[i] for i in sorted(visited)]
        return [
            Call(
                "constant_norm_residual",
                lambda: _single(constant_norm_residual, self.base, self.params, pts),
                {"res": passes(1e-9)},
            )
        ]


WORKLOADS = {w.name: w for w in (FlatStrominger, EguchiHansonHyperkahler, CalabiCanonical)}


def op_labels() -> list:
    """Every operator label, in a fixed order; keys of the op.<label>.s metrics."""
    out = []
    for w in WORKLOADS.values():
        out.extend(label for label in w.ops if label not in out)
    return out
