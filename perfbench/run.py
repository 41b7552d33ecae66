"""wpxlab benchmark: run one workload, or all four each in a fresh process.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced round with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time

import bench

WORKLOADS = ("simulate", "estimate", "experiment", "serve")

#: Fresh interpreters whose import of the package ``setup_s`` takes the
#: median of: this process and two children.
IMPORT_SAMPLES = 3
_TIMED_IMPORT = (
    "import time; t0 = time.perf_counter(); import wpxlab.harness.cli; "
    "print(time.perf_counter() - t0)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import the checkout's package through its command-line entry point,
    which loads every subpackage; returns the import's seconds. Bytecode is
    compiled first and not timed: a fresh checkout pays that once."""
    import compileall

    compileall.compile_dir(str(bench.SRC / "wpxlab"), quiet=1)
    sys.path.insert(0, str(bench.SRC))
    t0 = time.perf_counter()
    import wpxlab.harness.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    loaded = sys.modules["wpxlab"].__file__ or ""
    if not loaded.startswith(str(bench.SRC)):
        raise SystemExit(f"error: imported wpxlab from {loaded}, not from {bench.SRC}")
    return import_s


def child_import_s() -> float:
    """The same import, timed in a fresh child interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_IMPORT],
        cwd=bench.ROOT,
        env=bench.child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout)


def _fresh_round(workload, seed: int, spans=None) -> tuple[float, bench.Round]:
    """Round 0 from a fresh set-up, traced when ``spans`` is given; its wall time."""
    state = workload.setup(seed)
    if spans is not None:
        spans.install()
    try:
        t0 = time.perf_counter()
        done = workload.run_round(state, 0, tracer=spans)
        return time.perf_counter() - t0, done
    finally:
        if spans is not None:
            spans.uninstall()
        workload.teardown(state)


def traced_round(workload, state, seed: int) -> tuple[bench.Round, dict[str, tuple[float, str]]]:
    """Round 0 three times: once to warm up, once traced, once untraced."""
    import tracer as tracing

    done = workload.run_round(state, 0)
    spans = tracing.Tracer()
    traced_s, traced = _fresh_round(workload, seed, spans)
    untraced_s, untraced = _fresh_round(workload, seed)
    done.merge(traced)
    done.merge(untraced)
    spans.write(bench.OUT / f"trace-{workload.__name__.split('.')[-1]}-seed{seed}.npz")

    stats = spans.layer_stats()
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.layer_metric_names():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (stats.get(name, 0), unit)
    metrics[tracing.CLI_IMPORT_S] = (tracing.cli_import_seconds(), "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.self_share"] = (spans.covered_s() / traced_s, "fraction")
    return done, metrics


def run_one(args: argparse.Namespace) -> int:
    if not (bench.SRC / "wpxlab" / "__init__.py").is_file():
        print(f"error: no package source at {bench.SRC / 'wpxlab'}", file=sys.stderr)
        return 2
    bench.limit_threads()
    import_s = [import_program()]
    workload = importlib.import_module(f"workloads.{args.workload}")

    state, prepare_s = bench.timed_setup(workload, args.seed)
    try:
        if args.trace:
            done, metrics = traced_round(workload, state, args.seed)
            done.run_checks()
        else:
            done = bench.run_rounds(workload, state, args.seconds)
            import_s += [child_import_s() for _ in range(IMPORT_SAMPLES - 1)]
            metrics = {
                "setup_s": (statistics.median(import_s) + prepare_s, "s"),
                "peak_rss_mb": (bench.peak_rss_mb(), "MB"),
                **workload.summarize(done.samples),
            }
    finally:
        workload.teardown(state)
    for problem in done.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    expected = manifest_metrics(args.trace)
    if set(metrics) != set(expected):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    bench.emit(not done.problems, done.attempted, done.failed, {m: metrics[m] for m in expected})
    return 0


def manifest_metrics(trace: int) -> list[str]:
    """The metric names BENCHMARK.json lists for this kind of run, in its order."""
    manifest = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    correct, attempted, failed = True, 0, 0
    combined: dict[str, tuple[float, str]] = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
            combined[f"{name}:{metric}"] = (entry["value"], entry["unit"])
    bench.emit(correct, attempted, failed, combined)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
