"""Span tracing from outside the program.

The tracer replaces each listed public function with a wrapper wherever a
caller looks it up: in the defining module and in every module of the
checkout that bound the same object under any name (``from x import f``).
Spans (name, start, end, parent) stay in memory until the run ends; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import re
import subprocess
import sys
import time
from array import array
from importlib import import_module
from pathlib import Path

import numpy as np

from bench import ROOT, child_env

#: Public functions timed as layers, by the module that defines them
#: (``module:Class.method`` for a method).
LAYER_FUNCTIONS = (
    "wpxlab.sim.world.layout_item_indices",
    "wpxlab.sim.session.build_layout",
    "wpxlab.sim.session.draw_availability",
    "wpxlab.sim.session.simulate_session",
    "wpxlab.sim.session.realize_long_term",
    "wpxlab.sim.panel.assign_templates",
    "wpxlab.sim.panel.generate_events",
    "wpxlab.sim.panel.emit_panel",
    "wpxlab.rng.stream",
    "wpxlab.metrics.layout_region_bmrs",
    "wpxlab.metrics.weighted_bmr",
    "wpxlab.dml.panel.write_panel_csv",
    "wpxlab.dml.panel.read_panel_csv",
    "wpxlab.dml.panel.split_train_test",
    "wpxlab.dml.deaverage.deaverage",
    "wpxlab.dml.pipeline.estimate_dvwpx",
    "wpxlab.dml.pipeline.crossfit_residualize",
    "wpxlab.dml.pipeline:LinearPredictor.fit",
    "wpxlab.dml.linear.ols_fit",
    "wpxlab.bandit.features.build_features",
    "wpxlab.bandit.posteriors.thompson_sample_predict",
    "wpxlab.bandit.posteriors.sample_weights",
    "wpxlab.bandit.posteriors.blr_update",
    "wpxlab.bandit.posteriors.probit_update",
    "wpxlab.bandit.ranker.select_template",
    "wpxlab.bandit.ranker.incremental_retrain",
    "wpxlab.bandit.ranker.apply_impression",
    "wpxlab.bandit.ranker.with_noise_variances",
    "wpxlab.harness.experiment.estimate_dvwpx_region_weights",
    "wpxlab.harness.experiment.ab_compare",
    "wpxlab.harness.experiment.run_experiment",
    "wpxlab.harness.cli.main",
)

CHOLESKY_CALLS = "bandit.posteriors.cholesky.calls"
DEAVERAGE_ITERATIONS = "dml.deaverage.iterations"
CLI_IMPORT_S = "harness.cli.import_s"
COUNTERS = (CHOLESKY_CALLS, DEAVERAGE_ITERATIONS)
_POSTERIORS = "wpxlab.bandit.posteriors"


def layer_name(qualname: str) -> str:
    return qualname.removeprefix("wpxlab.").replace(":", ".")


def layer_metric_names() -> list[str]:
    names = []
    for qualname in LAYER_FUNCTIONS:
        names += [f"{layer_name(qualname)}.calls", f"{layer_name(qualname)}.self_s"]
    return names + [*COUNTERS, CLI_IMPORT_S]


def _resolve(qualname: str):
    """(owner, attribute, object) for a function or method whose module is
    loaded, else None."""
    if ":" in qualname:
        module_name, path = qualname.split(":")
    else:
        module_name, _, path = qualname.rpartition(".")
    module = sys.modules.get(module_name)
    if module is None:
        return None
    *outer, attr = path.split(".")
    owner = module
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _checkout_modules() -> list:
    root = str(ROOT)
    return [
        m
        for m in list(sys.modules.values())
        if str(getattr(m, "__file__", None) or "").startswith(root)
    ]


class Tracer:
    """In-memory span recorder that patches layer functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.external: dict[str, float] = {}
        self.external_covered_s = 0.0

    def _wrap(self, name: str, fn, on_result=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = _checkout_modules()
        for qualname in LAYER_FUNCTIONS:
            found = _resolve(qualname)
            if found is None:
                continue
            owner, attr, original = found
            on_result = None
            if qualname == "wpxlab.dml.deaverage.deaverage":
                on_result = self._count_iterations
            wrapped = self._wrap(layer_name(qualname), original, on_result)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)
        linalg = import_module("numpy.linalg")
        self._patch(linalg, "cholesky", self._count_cholesky(linalg.cholesky))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_iterations(self, result) -> None:
        self.counters[DEAVERAGE_ITERATIONS] += result[1].iterations_run

    def _count_cholesky(self, original):
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == _POSTERIORS:
                counters[CHOLESKY_CALLS] += 1
            return original(*args, **kwargs)

        return counted

    def add_external(self, stats: dict[str, float], covered_s: float) -> None:
        """Fold in the layer totals of a traced child process."""
        for name, value in stats.items():
            self.external[name] = self.external.get(name, 0) + value
        self.external_covered_s += covered_s

    def covered_s(self) -> float:
        """Time inside layer spans (root spans' durations), children included."""
        return float(self.self_times().sum()) + self.external_covered_s

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - child_time

    def layer_stats(self) -> dict[str, float]:
        """Per layer ``.calls`` and ``.self_s``, plus the counters."""
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        self_s = self.self_times()
        calls = np.bincount(ids, minlength=len(self.names))
        totals = np.bincount(ids, weights=self_s, minlength=len(self.names))
        stats: dict[str, float] = dict(self.counters)
        for nid, name in enumerate(self.names):
            stats[f"{name}.calls"] = int(calls[nid])
            stats[f"{name}.self_s"] = float(totals[nid])
        for name, value in self.external.items():
            stats[name] = stats.get(name, 0) + value
        return stats

    def write(self, path: Path) -> None:
        """Write every span: name table, then per span name id, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                name_id=np.frombuffer(self.name_id, dtype=np.int64),
                start=np.frombuffer(self.start, dtype=float),
                end=np.frombuffer(self.end, dtype=float),
                parent=np.frombuffer(self.parent, dtype=np.int64),
            )


def cli_import_seconds() -> float:
    """Cumulative import time of ``wpxlab.harness.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import wpxlab.harness.cli"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*wpxlab\.harness\.cli\s*$", line)
        if match:
            return int(match.group(1)) / 1e6
    raise RuntimeError("no import time reported for wpxlab.harness.cli")
