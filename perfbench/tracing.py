"""Spans and counters recorded around calls into the program's layers.

Nothing under ``src/`` knows about this module.  ``Tracer.installed()``
replaces the listed public functions and methods with timing wrappers, in
every module that binds them (``from .forms import gram_curvature`` makes a
second binding in ``strominger`` and ``hyperkahler``), and puts every
original back on exit.  Spans stay in memory as (id, name, start, end,
parent, point) and are written out as JSON when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps

import numpy as np

MARK = "__perfbench_span__"


@dataclass(frozen=True)
class Stats:
    spans: dict  # span name -> [calls, total seconds, self seconds]
    pairs: int  # coefficient pairs touched by jet products
    useful_pairs: int  # of which the result can use


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []
        self._stack: list = []  # [span id, name id, start, child seconds]
        self._next_id = 0
        self.point = -1
        self.stats: dict = {}  # name -> [calls, total seconds, self seconds]
        self.pairs = 0
        self.useful_pairs = 0
        self._pair_cache: dict = {}
        self._patches: list = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> None:
        self._stack.append([self._next_id, nid, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, nid, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((sid, nid, start - self.t0, end - self.t0, parent[0] if parent else -1, self.point))
        stat = self.stats.get(nid)
        if stat is None:
            stat = self.stats[nid] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child

    def span(self, name: str, fn):
        nid = self._name_id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def take_stats(self) -> Stats:
        """Statistics since the last call; resets them."""
        out = Stats({self.names[nid]: stat for nid, stat in self.stats.items()}, self.pairs, self.useful_pairs)
        self.stats = {}
        self.pairs = self.useful_pairs = 0
        return out

    # -- product pair counts ----------------------------------------------

    def _count_pairs(self, space, order: int, products: int) -> None:
        key = (space.nvars, space.order, order)
        counts = self._pair_cache.get(key)
        if counts is None:
            kk = space._mul_table[2]
            counts = self._pair_cache[key] = (len(kk), int(np.count_nonzero(space.degrees[kk] <= order)))
        self.pairs += products * counts[0]
        self.useful_pairs += products * counts[1]

    # -- wrappers -----------------------------------------------------------

    def _wrappers(self):
        from stromlab import calabi, forms, hyperkahler, jets, strominger, twistor

        Jet, JetSpace = jets.Jet, jets.JetSpace
        span = self.span

        def mul(orig):
            traced = span("jets.mul", orig)

            def wrapper(a, b):
                if not isinstance(b, Jet):  # scalar scaling, no coefficient product
                    return orig(a, b)
                out = traced(a, b)
                self._count_pairs(a.space, min(a.order, b.order), 1)
                return out

            return wrapper

        def compose(orig):
            traced = span("jets.compose", orig)

            def wrapper(jet, derivs):
                out = traced(jet, derivs)
                if jet.order:
                    self._count_pairs(jet.space, jet.order, jet.order)
                return out

            return wrapper

        def on_miss(name, is_miss):
            def make(orig):
                traced = span(name, orig)

                def wrapper(obj, *args):
                    return traced(obj, *args) if is_miss(obj, *args) else orig(obj, *args)

                return wrapper

            return make

        def plain(name):
            return lambda orig: span(name, orig)

        methods = [
            (Jet, "__mul__", mul),
            (Jet, "_compose", compose),
            (JetSpace, "mul_table", on_miss("jets.table_build", lambda s: s._mul_table is None)),
            (JetSpace, "diff_table", on_miss("jets.table_build", lambda s, v: v not in s._diff_tables)),
            (forms.FormValue, "wedge", plain("forms.wedge")),
            (forms.TypeContext, "_table", on_miss("forms.type_table", lambda ctx, k: k not in ctx._tables)),
            (forms.TypeContext, "decompose", plain("forms.decompose")),
            (twistor.TwistorFrame, "__init__", plain("twistor.frame")),
            (strominger.AnsatzCurvatureData, "__init__", plain("strominger.curvature_data")),
            (calabi.CanonicalBundleFrame, "__init__", plain("calabi.frame")),
        ]
        # every d goes through exterior_derivative_with_scale
        functions = [
            (forms.exterior_derivative_with_scale, plain("forms.exterior_derivative")),
            (forms.gram_curvature, plain("forms.gram_curvature")),
            (forms.mat_inv, plain("forms.mat_inv")),
            (twistor._twistor_acs_from_frame, plain("twistor.acs")),
            (hyperkahler.kappa_hermitian_jets, plain("hyperkahler.kappa")),
            (hyperkahler.kappa_third_jets, plain("hyperkahler.kappa")),
        ]
        return methods, functions

    def _patch(self, owner, attr, wrapper, orig) -> None:
        setattr(wrapper, MARK, True)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        methods, functions = self._wrappers()
        for cls, attr, make in methods:
            orig = cls.__dict__[attr]
            self._patch(cls, attr, make(orig), orig)
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("stromlab.")]
        for orig, make in functions:
            wrapper = make(orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, attr, wrapper, orig)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, names=self.names, fields=["id", "name", "start", "end", "parent", "point"])
        doc["spans"] = sorted(self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

