"""Golden residuals: every operator output of the three benchmark workloads, held fixed.

The inputs come from ``stromlab.sampling`` on seeds 2 and 3: flat twistor
points under the two coupling solutions and random cubic profiles (on which
the anomaly equation must fail), Eguchi-Hanson base and twistor points with
a perturbed Gram as the must-fail ASD case, and canonical-bundle points over
CP^1 under the theorem metric and a linear profile (which must fail the
balanced check).  The certificates without a workload (``omega_norm``,
``omega0_d_residual``, ``radial_h_residual``, ``base_chern_scalar``) are
recorded alongside.

A value matches when |new - old| <= 1e-12 max(1, |old|); NaN and inf never
match.  The calabi extremal residuals are rounding noise (6e-13 to 1.2e-10
here), so a reordered sum can move them past that tolerance: a change that
reorders a sum on the calabi path reports the drift of the
``calabi_canonical`` group with ``--against``, and any drift there must stay at
rounding level.

``PYTHONPATH=src python tests/test_golden.py`` records the file again; with
``--drift`` it prints, per group, how many values differ from the file, the
largest |new - old| / max(1, |old|) and its key, and writes nothing.  With
``--against <checkout>`` it runs that checkout's own
``tests/test_golden.py --json`` on its own ``src/`` in a subprocess, so an
API change between the two does not break the comparison, and prints the
same per group for this checkout against it, again writing nothing.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stromlab.calabi import (
    CalabiParams,
    Profile,
    base_chern_scalar,
    chern_scalar,
    constant_norm_residual,
    extremal_residual,
    flat_torus_chart,
    fubini_study_cp1,
    km_balanced_residual,
    omega0_d_residual,
    theorem_metric_params,
    volume_norm,
)
from stromlab.hyperkahler import EH_CHART, asd_residual, cotangent_gram, det_residual, eguchi_hanson, flat_model
from stromlab.jets import seed_jets
from stromlab.sampling import random_ansatz_params, sample_points
from stromlab.strominger import (
    anomaly_residual,
    balanced_residual,
    curvature_identities,
    hym_residual,
    radial_h_residual,
)
from stromlab.twistor import TWISTOR_EH, TWISTOR_FLAT, AnsatzParams, frame_decompose, omega_norm

GOLDEN = Path(__file__).with_name("golden_residuals.json")
SEEDS = (2, 3)
REL_TOL = 1e-12

FLAT = flat_model()
EH = eguchi_hanson(1.0)
FS = fubini_study_cp1()
TORUS = flat_torus_chart()


def _twistor_ok(c):
    return c[0] ** 2 + c[1] ** 2 >= 0.3**2 and sum(x * x for x in c[2:]) >= 0.4


def _twistor_points(chart, count, seed, salt):
    return sample_points(chart, seed, salt, count, -1.2, 1.2, _twistor_ok)


def _total_points(base, count, seed, salt):
    # tr >= 0.45 keeps every point off the zero section t = 0
    return sample_points(base.total_chart, seed, salt, count, (-1.1, -1.1, 0.45, -1.1), 1.1)


def _flat_params(seed, i):
    if i % 4 == 0:
        return AnsatzParams.coupling_solution()
    if i % 4 == 2:
        return AnsatzParams.coupling_solution(radial_h=True)
    return random_ansatz_params(seed, i)


def flat_strominger(seed):
    out = {}
    for i, p in enumerate(_twistor_points(TWISTOR_FLAT, 8, seed, 11)):
        params = _flat_params(seed, i)
        out[f"{i}/balanced_residual"] = balanced_residual(FLAT, params, p)
        out[f"{i}/hym_residual"] = hym_residual(FLAT, params, p)
        out[f"{i}/anomaly_residual"] = anomaly_residual(FLAT, params, p)
        for key, value in curvature_identities(FLAT, params, p).items():
            out[f"{i}/curvature_identities/{key}"] = value
        res = frame_decompose(FLAT, p)
        out[f"{i}/frame_decompose/simp_residual"] = res.simp_residual
        out[f"{i}/frame_decompose/loc_residual"] = res.loc_residual
        out[f"{i}/frame_decompose/reconstruction_residual"] = res.reconstruction_residual
        for k, value in enumerate(res.L + sum(res.E, ())):
            out[f"{i}/frame_decompose/coefficient{k}/re"] = value.real
            out[f"{i}/frame_decompose/coefficient{k}/im"] = value.imag
        out[f"{i}/omega_norm"] = omega_norm(FLAT, params, p)
        out[f"{i}/radial_h_residual/constant"] = radial_h_residual(Profile.linear(0.0), p)
        out[f"{i}/radial_h_residual/inverse_three_halves"] = radial_h_residual(Profile.log_slope(-1.5), p)
        out[f"{i}/radial_h_residual/log_slope"] = radial_h_residual(Profile.log_slope(-1.0), p)
    return out


def eh_hyperkahler(seed):
    out = {}
    base_points = sample_points(EH_CHART, seed, 21, 16, -1.4, 1.4, lambda c: sum(x * x for x in c) >= 0.4)
    twistor_points = _twistor_points(TWISTOR_EH, 16, seed, 22)
    for i, (p, q) in enumerate(zip(base_points, twistor_points)):
        params = random_ansatz_params(seed, i)
        out[f"{i}/asd_residual"] = asd_residual(EH, p)
        out[f"{i}/det_residual"] = det_residual(EH, p)
        xj = seed_jets(p.coords, 4)
        gram = cotangent_gram(EH, xj)
        gram[0][0] = gram[0][0] + (xj[0] * xj[0] + xj[1] * xj[1]) * (xj[2] * xj[2] + xj[3] * xj[3]) * 0.5
        out[f"{i}/asd_residual_perturbed"] = asd_residual(EH, p, gram)
        out[f"{i}/balanced_residual"] = balanced_residual(EH, params, q)
        out[f"{i}/omega_norm"] = omega_norm(EH, params, q)
    return out


def calabi_canonical(seed):
    out = {}
    params = theorem_metric_params(FS)
    linear = CalabiParams.constant_length(FS, f_profile=Profile.linear(1.0))
    points = _total_points(FS, 16, seed, 31)
    for i, p in enumerate(points):
        out[f"{i}/extremal_residual"] = extremal_residual(FS, params, p)
        out[f"{i}/km_balanced_residual"] = km_balanced_residual(FS, params, p)
        out[f"{i}/km_balanced_residual_linear"] = km_balanced_residual(FS, linear, p)
        out[f"{i}/chern_scalar"] = chern_scalar(FS, params, p)
        out[f"{i}/volume_norm"] = volume_norm(FS, params, p)
    out["constant_norm_residual"] = constant_norm_residual(FS, params, points)
    for name, base in (("fubini_study_cp1", FS), ("flat_torus_chart", TORUS)):
        for i, p in enumerate(_total_points(base, 4, seed, 32)):
            out[f"{name}/{i}/omega0_d_residual"] = omega0_d_residual(base, p)
        for i, p in enumerate(sample_points(base.chart, seed, 33, 4, -1.2, 1.2)):
            out[f"{name}/{i}/base_chern_scalar"] = base_chern_scalar(base, p.coords)
    return out


GROUPS = {f.__name__: f for f in (flat_strominger, eh_hyperkahler, calabi_canonical)}


def compute(group):
    return {f"{seed}/{key}": float(v) for seed in SEEDS for key, v in GROUPS[group](seed).items()}


def matches(new, old) -> bool:
    if not (math.isfinite(new) and math.isfinite(old)):
        return False
    return abs(new - old) <= REL_TOL * max(1.0, abs(old))


@pytest.mark.parametrize("group", list(GROUPS))
def test_golden_residuals(group):
    golden = json.loads(GOLDEN.read_text())[group]
    new = compute(group)
    assert sorted(new) == sorted(golden)
    wrong = {k: (new[k], golden[k]) for k in golden if not matches(new[k], golden[k])}
    assert not wrong, wrong


def test_golden_match_rejects_nan_and_inf():
    assert matches(1.0 + 5e-13, 1.0) and matches(0.0, 5e-13)
    assert not matches(1.0 + 5e-12, 1.0)
    assert not any(matches(x, x) for x in (math.nan, math.inf, -math.inf))


def drift(new, old) -> float:
    """|new - old| / max(1, |old|), the measure ``matches`` gates; inf unless both are finite."""
    if not (math.isfinite(new) and math.isfinite(old)):
        return 0.0 if new == old else math.inf
    return abs(new - old) / max(1.0, abs(old))


def drift_report(group, new, old) -> str:
    """One line: how many values of the group differ between two runs, and the largest drift."""
    missing = sorted(set(old) ^ set(new))
    moved = {k: drift(new[k], old[k]) for k in old if k in new and new[k] != old[k]}
    line = f"{group}: {len(moved)} of {len(old)} values differ"
    if moved:
        key = max(moved, key=moved.get)
        line += f", largest drift {moved[key]:.3g} at {key}"
    if missing:
        line += f"; keys in only one of the two runs: {missing}"
    return line


def computed_in(checkout) -> dict:
    """Every group computed by ``<checkout>/tests/test_golden.py`` from ``<checkout>/src`` in a fresh interpreter."""
    src = (Path(checkout) / "src").resolve()
    script = Path(checkout).resolve() / "tests" / "test_golden.py"
    if not (src / "stromlab").is_dir() or not script.is_file():
        sys.exit(f"no src/stromlab or tests/test_golden.py in {checkout}")
    proc = subprocess.run(
        [sys.executable, str(script), "--json"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"computing the groups in {checkout} failed:\n{proc.stderr}")
    origin, values = proc.stdout.split("\n", 1)
    if Path(origin).resolve().parent.parent != src:
        sys.exit(f"the subprocess imported stromlab from {origin}, not from {src}")
    return json.loads(values)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--drift"]:
        golden = json.loads(GOLDEN.read_text())
        for g in GROUPS:
            print(drift_report(g, compute(g), golden[g]))
    elif args == ["--json"]:
        from stromlab import calabi

        print(calabi.__file__)
        print(json.dumps({g: compute(g) for g in GROUPS}))
    elif len(args) == 2 and args[0] == "--against":
        other = computed_in(args[1])
        for g in GROUPS:
            print(drift_report(g, compute(g), other[g]))
    elif args:
        sys.exit("usage: test_golden.py [--drift | --against <checkout>]")
    else:
        GOLDEN.write_text(json.dumps({g: compute(g) for g in GROUPS}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}", file=sys.stderr)
