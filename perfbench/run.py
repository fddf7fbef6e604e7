"""Run one dualtherm benchmark workload and print its metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload quiet_monitor --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``: set-up
time from a fresh interpreter, then a closed loop of operations from this
one process for ``--seconds``.  ``--trace 1`` runs the workload's fixed seed
list instead, alternating untraced and traced rounds, and reports the
per-layer metrics.  Every run checks the program's outputs (see
``perfbench/checks.py``).  The last line of standard output is the result;
details go to ``perfbench/out/``.  The program is imported from ``src/`` of
the checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
# run as a script, the benchmark's own package is importable from the checkout root
sys.path.insert(0, str(ROOT))

from perfbench.tracing import OP_SPAN, Tracer, attached  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"
#: fresh interpreters launched per run to time set-up
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60.0
SPEED_PROBE_REPEATS = 7

#: traced span name -> per-layer time metric (self time, ms per spectrum)
LAYER_TIME_METRICS = {
    "fitting.select_dip_count": "fitting.select_dip_count.self_ms",
    "fitting.fit_odmr_dips.one": "fitting.fit_odmr_dips.one.ms",
    "fitting.fit_odmr_dips.two": "fitting.fit_odmr_dips.two.ms",
    "fitting.fit_pl_peak": "fitting.fit_pl_peak.ms",
    "noise.sample_poisson_counts": "noise.sample_poisson_counts.ms",
    "noise.bfield_sweep": "noise.bfield_sweep.ms",
    "noise.drift_step": "noise.drift_step.ms",
    "crossval.artifact_monitor": "crossval.artifact_monitor.ms",
    "crossval.channel_regression": "crossval.channel_regression.ms",
    "records.write_records": "records.write_records.ms",
    "records.parse_records_csv": "records.parse_records_csv.ms",
    "config.load_config": "config.load_config.ms",
    "cli": "cli.self_ms",
    "scenarios": "scenarios.self_ms",
}
COUNT_METRICS = (
    "fitting.fit_odmr_dips.one.calls",
    "fitting.fit_odmr_dips.one.iterations",
    "fitting.fit_odmr_dips.one.capped",
    "fitting.fit_odmr_dips.two.calls",
    "fitting.fit_odmr_dips.two.iterations",
    "fitting.fit_odmr_dips.two.capped",
    "fitting.fit_odmr_dips.two.kept",
    "fitting.fit_pl_peak.calls",
    "fitting.fit_pl_peak.iterations",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; exits with code 2."""


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a set-up probe: build inputs, warm up, print "ready" and exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_program() -> Any:
    """Import dualtherm from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "dualtherm" / "__init__.py").is_file():
        raise BenchmarkError(f"no dualtherm sources under {src}")
    sys.path.insert(0, str(src))
    import dualtherm
    import dualtherm.cli
    import dualtherm.config

    if Path(dualtherm.__file__).resolve().parent != (src / "dualtherm").resolve():
        raise BenchmarkError(f"dualtherm was imported from {dualtherm.__file__}, not from {src}")
    return dualtherm


def metric_units() -> dict[str, dict[str, str]]:
    """Units of the end-to-end (trace 0) and per-layer (trace 1) metrics."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# -- machine -----------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(dt: Any) -> dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "backend": dt.backend_name(),
    }


def speed_probe_ms() -> float:
    """Median wall time of a fixed numpy computation that does not touch dualtherm.

    Small solves and vector operations in a Python loop, the same kind of
    work as the fit kernels.  Reported next to results to tell a slow phase
    of a shared machine from a slow change; it never scales a metric.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mat = rng.random((7, 7)) + 7.0 * np.eye(7)
    rhs = rng.random(7)
    x = rng.random(201)
    times = []
    for _ in range(SPEED_PROBE_REPEATS):
        start = time.perf_counter()
        for _ in range(2000):
            np.linalg.solve(mat, rhs)
            np.dot(x * x, np.exp(-x))
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


# -- set-up --------------------------------------------------------------------


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Launch-to-ready wall time of fresh interpreters doing this run's set-up."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(ready - start)
    return times


def setup(dt: Any, args: argparse.Namespace, work_dir: Path) -> tuple[Any, Any]:
    """Build the inputs and warm up; returns (workload, operation inputs)."""
    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](dt, work_dir)
    items = workload.trace_items() if args.trace else workload.items(args.seed)
    workload.warm_up()
    return workload, items


# -- runs ----------------------------------------------------------------------


def timed_run(workload: Any, items: Any, seconds: float) -> dict[str, Any]:
    """Closed loop: the next operation starts when the previous one returns."""
    op_s: list[float] = []
    spectra: list[int] = []
    kept: list[Any] = []
    failures: list[str] = []
    errors: list[str] = []
    first = None
    deadline = time.perf_counter() + seconds
    while not op_s and not errors or time.perf_counter() < deadline:
        item = next(items)
        workload.prepare(item)
        start = time.perf_counter()
        try:
            raw = workload.run(item)
            elapsed = time.perf_counter() - start
            output = workload.collect(raw)
        except Exception:
            errors.append(traceback.format_exc())
            continue
        op_s.append(elapsed)
        spectra.append(workload.spectra(output))
        failures += workload.check_op(output)
        kept.append(workload.keep(output))
        if first is None:
            first = (item, output)
    return {"op_s": op_s, "spectra": spectra, "kept": kept, "failures": failures, "errors": errors, "first": first}


def run_round(workload: Any, items: list[Any], tracer: Any = None) -> dict[str, Any]:
    """One pass over the fixed seed list, traced when ``tracer`` is given."""
    outputs = []
    start = time.perf_counter()
    for item in items:
        workload.prepare(item)
        if tracer is None:
            raw = workload.run(item)
        else:
            raw = tracer.call(OP_SPAN, workload.run, (item,), {})
        outputs.append(workload.collect(raw))
    # collection and staging are in the round time of both kinds of round
    return {"seconds": time.perf_counter() - start, "outputs": outputs}


def traced_run(dt: Any, workload: Any, items: list[Any], seconds: float) -> dict[str, Any]:
    """Alternate untraced and traced rounds of the fixed seed list."""
    plain: list[float] = []
    traced: list[float] = []
    tracers: list[Any] = []
    outputs = None
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        base = run_round(workload, items)
        tracer = Tracer(dt.fitting.MAX_ITERATIONS)
        with attached(tracer, dt):
            rnd = run_round(workload, items, tracer)
        plain.append(base["seconds"])
        traced.append(rnd["seconds"])
        tracers.append(tracer)
        if outputs is None:
            outputs = base["outputs"]
        for other in (base["outputs"], rnd["outputs"]):
            if not all(workload.same(a, b) for a, b in zip(outputs, other)):
                errors.append("a repeated round of the fixed seed list gave different output")
        if dict(tracer.counts) != dict(tracers[0].counts):
            errors.append("a repeated traced round gave different counts")
    spectra = sum(workload.spectra(o) for o in outputs)
    overhead_s = statistics.median(traced) - statistics.median(plain)

    self_s: dict[str, float] = {}
    for tracer in tracers:
        for name, value in tracer.self_times().items():
            self_s[name] = self_s.get(name, 0.0) + value / len(tracers)
    unknown = set(self_s) - set(LAYER_TIME_METRICS) - {OP_SPAN}
    if unknown:
        errors.append(f"spans without a metric: {sorted(unknown)}")
    op_s = statistics.fmean(t.root_time() for t in tracers)
    unattributed_s = self_s.get(OP_SPAN, 0.0)
    # layer self times must cover the operations up to the tracing overhead
    if unattributed_s > max(abs(overhead_s), 1e-3):
        errors.append(f"{unattributed_s * 1e3:.3f} ms per round lie outside every layer span")

    counts = tracers[0].counts
    metrics: dict[str, float] = {
        metric: 1e3 * self_s.get(span, 0.0) / spectra for span, metric in LAYER_TIME_METRICS.items()
    }
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    selections = counts.get("fitting.select_dip_count.calls", 0)
    two = counts.get("fitting.fit_odmr_dips.two.calls", 0)
    metrics["fitting.select_dip_count.two_dip_fit_ratio"] = two / selections if selections else 0.0
    metrics["fitting.fit_odmr_dips.two.kept_ratio"] = counts.get("fitting.fit_odmr_dips.two.kept", 0) / two if two else 0.0
    metrics["bench.trace_overhead_ms"] = 1e3 * overhead_s / spectra
    return {
        "metrics": metrics,
        "outputs": outputs,
        "errors": errors,
        "rounds": len(traced),
        "spectra_per_round": spectra,
        "round_s_untraced": plain,
        "round_s_traced": traced,
        "traced_op_s_per_round": op_s,
        "unattributed_s_per_round": unattributed_s,
        "counts": dict(counts),
        "spans": tracers[0].spans,
    }


def end_to_end(run: dict[str, Any], setup_s: list[float]) -> dict[str, float]:
    op_s = run["op_s"]
    return {
        "setup_s": statistics.median(setup_s),
        "spectra_per_s": sum(run["spectra"]) / sum(op_s),
        "op_ms_p50": 1e3 * statistics.median(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def write_spans(path: Path, spans: list[tuple[str, float, float, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def benchmark(dt: Any, args: argparse.Namespace, work_dir: Path) -> dict[str, Any]:
    units = metric_units()
    setup_s = [] if args.trace else setup_seconds(args)
    workload, items = setup(dt, args, work_dir)
    detail: dict[str, Any] = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    detail["machine"] = machine_info(dt)
    detail["speed_probe_ms_before"] = speed_probe_ms()
    if args.trace:
        run = traced_run(dt, workload, items, args.seconds)
        metrics = run.pop("metrics")
        outputs = run.pop("outputs")
        write_spans(OUT_DIR / f"spans-{args.workload}.jsonl", run.pop("spans"))
        attempted = run["rounds"] * 2 * len(items)
        failed = 0
        first = (items[0], outputs[0])
        kept = [workload.keep(o) for o in outputs]
        failures = run.pop("errors") + [f for o in outputs for f in workload.check_op(o)]
        wanted = units["per_layer"]
    else:
        run = timed_run(workload, items, args.seconds)
        metrics = end_to_end(run, setup_s)
        kept = run.pop("kept")
        attempted = len(run["op_s"]) + len(run["errors"])
        failed = len(run["errors"])
        first = run.pop("first")
        failures = run.pop("failures")
        wanted = units["end_to_end"]
        detail["setup_s"] = setup_s
    detail["speed_probe_ms_after"] = speed_probe_ms()
    if set(metrics) != set(wanted):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json")

    failures += workload.check(kept)
    if first is not None:
        failures += workload.check_once(*first)
    else:
        failures.append("no operation completed")
    detail.update(run)
    detail["check_failures"] = failures
    detail["metrics"] = metrics
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": wanted[name]} for name, value in metrics.items()},
        "detail": detail,
    }


def with_work_dir(body: Any) -> Any:
    """Run ``body`` with a private scratch directory inside the checkout."""
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return body(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        dt = import_program()
        if args.setup_only:

            def probe(work: Path) -> None:
                setup(dt, args, work)
                print("ready", flush=True)

            with_work_dir(probe)
            return 0
        result = with_work_dir(lambda work: benchmark(dt, args, work))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    detail = result.pop("detail")
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    print(
        f"speed probe {detail['speed_probe_ms_before']:.1f} ms before, {detail['speed_probe_ms_after']:.1f} ms after",
        file=sys.stderr,
    )
    for failure in detail["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
