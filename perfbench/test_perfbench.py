"""Tests of the benchmark itself: repeatable counts, the verdict checker, the tracer."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import tracing
from verdicts import Call, execute, fails, passes

run.load_program()


def _count_metrics(result):
    metrics = result["result"]["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count" or k.endswith("pair_ratio")}


@pytest.mark.parametrize("workload", ["calabi-canonical", "eh-hyperkahler"])
def test_layer_counts_repeat_at_one_seed(workload):
    first = run.run_workload(workload, seed=3, seconds=0.2, trace=True)
    second = run.run_workload(workload, seed=3, seconds=0.2, trace=True)
    assert first["result"]["correct"] and second["result"]["correct"]
    counts = _count_metrics(first)
    assert counts["jets.mul.calls"] > 0 and counts["forms.wedge.calls"] > 0
    assert counts == _count_metrics(second)


def test_checker_flags_wrong_verdict_nan_and_raise():
    def boom():
        raise ZeroDivisionError("singular")

    good = execute(Call("op", lambda: {"res": 1e-12, "aux": 3.0}, {"res": passes(1e-8)}))
    assert good.ok
    wrong_pass = execute(Call("op", lambda: {"res": 1e-3}, {"res": passes(1e-8)}))
    wrong_fail = execute(Call("op", lambda: {"res": 1e-6}, {"res": fails(1e-3)}))
    nan_pass = execute(Call("op", lambda: {"res": math.nan}, {"res": passes(1e-8)}))
    inf_fail = execute(Call("op", lambda: {"res": math.inf}, {"res": fails(1e-3)}))
    nan_ungated = execute(Call("op", lambda: {"res": 0.0, "aux": math.nan}, {"res": passes(1e-8)}))
    raised = execute(Call("op", boom, {"res": passes(1e-8)}))
    for outcome in (wrong_pass, wrong_fail, nan_pass, inf_fail, nan_ungated, raised):
        assert not outcome.ok, outcome

    tally = run.Tally({})
    for call in (Call("op", lambda: {"res": 0.0}, {"res": passes(1e-8)}), Call("op", lambda: {"res": math.nan}, {"res": passes(1e-8)})):
        tally.record(0, call, execute(call))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_drift_against_reference():
    call = Call("probe", lambda: {"res": 1.5}, {"res": fails(1e-3)})
    tally = run.Tally({"4": {"probe": {"res": 1.0}}})
    tally.record(4, call, execute(call))
    tally.record(5, call, execute(call))  # no reference for this point
    assert tally.drift_max == pytest.approx(0.5) and tally.drift_values == 1


def _leftover_wrappers():
    """Names of tracer wrappers still bound anywhere in the program."""
    return [".".join(key) for key, value in _bindings().items() if getattr(value, tracing.MARK, False)]


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if name.startswith("stromlab."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_wrappers_removed_after_traced_run():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert _leftover_wrappers()
        from stromlab import forms, hyperkahler, strominger

        assert strominger.gram_curvature is hyperkahler.gram_curvature is forms.gram_curvature
        assert getattr(strominger.gram_curvature, tracing.MARK)
    assert _leftover_wrappers() == []
    run.run_workload("calabi-canonical", seed=5, seconds=0.1, trace=True)
    assert _leftover_wrappers() == []
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_names()
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_has_ten_samples_beyond():
    assert run.tail([1.0] * 5 + [2.0]) == (2.0, 100.0, 6)
    xs = [float(i) for i in range(1, 201)]
    value, q, n = run.tail(xs)
    assert (q, n) == (95.0, 200) and sum(x > value for x in xs) == 10
    assert run.tail([float(i) for i in range(5000)])[1] == 95.0


def test_host_speed_scales_by_the_nearest_probes():
    host = hostspeed.HostSpeed()
    host.sample()
    host.maybe_sample()  # sooner than PROBE_EVERY_S after the first sample
    assert len(host.samples) == 1 and host.samples[0] > 0
    ref = hostspeed.REFERENCE_PROBE_S
    host.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    host.samples = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, ref, ref]
    assert host.scale(0.0, 1.0) == pytest.approx(1.0)  # before the first probe: the first two
    assert host.scale(3.0, 1.0) == pytest.approx(0.5)  # the probes at 2, 3, 4 and 5 s
    assert host.factor(10.0) == pytest.approx(1.0)  # after the last probe: the last two
    assert host.factor() == pytest.approx(0.5)  # the whole run: median 2 ref


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eh-hyperkahler", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_every_call_label_is_a_listed_operator():
    from workloads import WORKLOADS

    for cls in WORKLOADS.values():
        workload = cls(seed=1)
        calls = workload.calls(1) + workload.finish({1})
        assert {c.label for c in calls} <= set(cls.ops), cls.name
