"""Self-tests of the benchmark: tiny runs, and checks rejecting corrupted outputs.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, run
from perfbench.tracing import OP_SPAN, Tracer
from perfbench.workloads import PHYSICS, WORKLOADS, FieldArtifact, PrecisionSweep, QuietMonitor

DET = PHYSICS["detection"]


@pytest.fixture(scope="module")
def dt():
    return run.import_program()


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


def _outputs(workload, n_ops, seed=5):
    workload.warm_up()
    items = list(itertools.islice(workload.items(seed), n_ops))
    outputs = []
    for item in items:
        workload.prepare(item)
        outputs.append(workload.collect(workload.run(item)))
    return items, outputs


@pytest.fixture(scope="module")
def quiet(dt, work_dir):
    workload = QuietMonitor(dt, work_dir)
    items, outputs = _outputs(workload, 8)
    return workload, items, outputs


@pytest.fixture(scope="module")
def field(dt, work_dir):
    workload = FieldArtifact(dt, work_dir)
    return workload, _outputs(workload, 8)[1]


@pytest.fixture(scope="module")
def precision(dt, work_dir):
    workload = PrecisionSweep(dt, work_dir)
    return workload, _outputs(workload, 2)[1]


def _bench_spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name, dt, tmp_path):
    workload = WORKLOADS[name](dt, tmp_path, tiny=True)
    workload.warm_up()
    result = run.timed_run(workload, workload.items(3), seconds=0.2)
    assert result["errors"] == []
    assert len(result["op_s"]) >= 1
    assert result["failures"] == []
    assert workload.check(result["kept"]) == []
    assert workload.check_once(*result["first"]) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_round_reports_every_per_layer_metric(name, dt, tmp_path):
    workload = WORKLOADS[name](dt, tmp_path, tiny=True)
    workload.warm_up()
    traced = run.traced_run(dt, workload, workload.trace_items()[:2], seconds=0.01)
    assert traced["errors"] == []
    assert set(traced["metrics"]) == {m["name"] for m in _bench_spec()["per_layer"]}
    assert traced["metrics"]["fitting.fit_pl_peak.calls"] > 0


def test_tracer_self_time_subtracts_child_spans():
    tracer = Tracer(max_iterations=200)
    tracer.spans = [(OP_SPAN, 0.0, 10.0, -1), ("cli", 1.0, 9.0, 0), ("scenarios", 2.0, 7.0, 1)]
    assert tracer.self_times() == {OP_SPAN: 2.0, "cli": 3.0, "scenarios": 5.0}
    assert tracer.root_time() == 10.0


def test_benchmark_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quiet_monitor", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cramer_rao_floors_match_the_paper_operating_point():
    assert checks.nv_floor_k_per_rt_hz(PHYSICS) == pytest.approx(0.1345, rel=1e-3)
    assert checks.siv_floor_k_per_rt_hz(PHYSICS) == pytest.approx(0.1528, rel=1e-3)


def test_binomial_helpers_match_direct_sums():
    assert checks.binomial_lower_tail(0, 10, 0.5) == pytest.approx(0.5**10)
    k = checks.binomial_upper_bound(100, 0.01, alpha=1e-3)
    assert checks.binomial_lower_tail(k, 100, 0.01) > 1 - 1e-3
    assert checks.binomial_lower_tail(k - 1, 100, 0.01) <= 1 - 1e-3


# -- corrupted outputs ---------------------------------------------------------


def _scaled(tables, column, factor):
    out = copy.deepcopy(tables)
    for table in out:
        table[column] = table[column] * factor
    return out


def test_quiet_checks_pass_on_program_output(quiet):
    workload, items, outputs = quiet
    assert [f for o in outputs for f in workload.check_op(o)] == []
    assert workload.check([workload.keep(o) for o in outputs]) == []
    assert workload.check_once(items[0], outputs[0]) == []


def test_quiet_rejects_sigma_scaled_by_1_3(quiet):
    _, _, outputs = quiet
    tables = _scaled([o["table"] for o in outputs], "t_nv_sigma_c", 1.3)
    failures = checks.check_quiet(tables, PHYSICS)
    assert any("NV: mean reported variance" in f for f in failures)
    assert any("NV: pooled z variance" in f for f in failures)


def test_quiet_rejects_two_dip_choices_above_the_bic_rate(quiet):
    _, _, outputs = quiet
    tables = [copy.deepcopy(o["table"]) for o in outputs]
    tables[0]["nv_n_dips"][:] = 2
    assert any("chose two dips" in f for f in checks.check_quiet(tables, PHYSICS))


def test_quiet_rejects_one_flipped_flag(quiet):
    _, _, outputs = quiet
    table = copy.deepcopy(outputs[0]["table"])
    table["artifact_flag"][3] ^= 1
    assert checks.check_flags("session", table, DET)


def test_quiet_rejects_one_dropped_csv_row(quiet, dt):
    _, items, outputs = quiet
    lines = outputs[0]["csv"].splitlines(keepends=True)
    table = checks.parse_records_csv("".join(lines[:5] + lines[6:]))
    assert checks.check_crossval_report("session", table, outputs[0]["report"], DET["window_samples"])
    records = dt.scenarios.run_bfield_artifact(dt.config.scenario_config_from_dict(items[0][1]))
    assert checks.check_csv_round_trip(table, checks.records_table(records))


def test_field_checks_pass_on_program_output(field):
    workload, outputs = field
    assert workload.check([workload.keep(o) for o in outputs]) == []


def test_field_rejects_sigma_scaled_by_1_3(field):
    _, outputs = field
    failures = checks.check_field(_scaled(outputs, "t_siv_sigma_c", 1.3), PHYSICS)
    assert any("SiV: mean reported variance" in f for f in failures)


def test_field_rejects_one_flipped_flag(field):
    _, outputs = field
    table = copy.deepcopy(outputs[0])
    table["artifact_flag"][25] ^= 1
    assert checks.check_flags("session", table, DET)


def test_precision_checks_pass_on_program_output(precision):
    workload, outputs = precision
    assert workload.check(outputs) == []


@pytest.mark.parametrize("channel", ["nv", "siv"])
def test_precision_rejects_sigma_scaled_by_1_3(precision, channel):
    workload, outputs = precision
    corrupted = copy.deepcopy(outputs)
    for series in corrupted:
        series[channel] = [(t, 1.3 * s) for t, s in series[channel]]
    failures = workload.check(corrupted)
    assert any(f"precision_sweep {channel}: floor" in f for f in failures)


def test_precision_rejects_a_wrong_exponent(precision):
    workload, outputs = precision
    corrupted = copy.deepcopy(outputs)
    for series in corrupted:
        series["siv"] = [(t, s * t**-0.1) for t, s in series["siv"]]
    assert any("precision_sweep siv: exponent" in f for f in workload.check(corrupted))


def test_isolation_check_rejects_a_changed_optical_value(field):
    _, outputs = field
    other = copy.deepcopy(outputs[0])
    other["t_siv_c"][0] = np.nextafter(other["t_siv_c"][0], np.inf)
    assert checks.check_siv_isolation(outputs[0], other)
    assert checks.check_siv_isolation(outputs[0], copy.deepcopy(outputs[0])) == []

