"""Operator calls with the verdict each must reach, and the checker for it.

Every call the benchmark makes carries one gate per residual, copied from
the tier-1 test that covers the operator: a must-pass residual has to stay
at or below its tolerance, a must-fail residual (a probe that the check has
teeth) has to reach its threshold.  A call fails when the operator raises,
returns any non-finite value, or a gated residual gets the wrong verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Gate:
    """Expected verdict of one residual: ``value <= limit`` or ``value >= limit``."""

    must_pass: bool
    limit: float

    def holds(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        return value <= self.limit if self.must_pass else value >= self.limit


def passes(limit: float) -> Gate:
    return Gate(True, limit)


def fails(limit: float) -> Gate:
    return Gate(False, limit)


@dataclass(frozen=True)
class Call:
    """One operator call: ``run`` returns residual name -> float."""

    label: str
    run: Callable[[], dict]
    gates: dict


@dataclass(frozen=True)
class Outcome:
    label: str
    seconds: float
    values: dict
    ok: bool
    error: str | None = None


def check(values: dict, gates: dict) -> str | None:
    """None when the verdict is right, else the reason it is not."""
    for key, value in values.items():
        if not math.isfinite(value):
            return f"{key} is not finite ({value!r})"
    for key, gate in gates.items():
        if key not in values:
            return f"{key} is missing"
        if not gate.holds(values[key]):
            op = "<=" if gate.must_pass else ">="
            return f"{key} = {values[key]!r}, expected {op} {gate.limit!r}"
    return None


def execute(call: Call) -> Outcome:
    t0 = time.perf_counter()
    try:
        values = call.run()
    except Exception as exc:  # a raising operator is a counted failure, not a crash
        return Outcome(call.label, time.perf_counter() - t0, {}, False, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    error = check(values, call.gates)
    return Outcome(call.label, seconds, values, error is None, error)
