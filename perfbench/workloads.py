"""The three benchmark workloads: inputs, operation, outputs and checks.

Every workload builds its inputs from the run's ``--seed`` alone; dualtherm
receives only the configurations built from it.  The physical settings are
spelled out here in full, so that the checks in :mod:`perfbench.checks`
derive their expectations from the same numbers the program is given.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Iterator

from . import checks

#: the paper's operating point: every scenario section the checks depend on
PHYSICS = {
    "odmr": {
        "baseline_rate_cps": 5e8,
        "contrast": 0.12,
        "linewidth_mhz": 12.0,
        "sweep_start_mhz": 2820.0,
        "sweep_stop_mhz": 2920.0,
        "sweep_points": 201,
        "sweep_time_s": 1.5,
    },
    "pl": {
        "peak_amplitude_cps": 1.3e5,
        "background_cps": 2e4,
        "window_start_nm": 715.0,
        "window_stop_nm": 760.0,
        "step_nm": 0.1,
        "exposure_s": 1.3,
        "nv_peak_nm": 637.0,
        "nv_peak_fwhm_nm": 3.0,
        "nv_peak_amplitude_cps": 6e4,
    },
    "nv_cal": {"d_ref_mhz": 2870.0, "t_ref_c": 25.0, "slope_mhz_per_c": -0.07379},
    "siv_cal": {
        "pos_ref_nm": 737.0,
        "fwhm_ref_nm": 4.8,
        "t_ref_c": 25.0,
        "pos_slope_nm_per_c": 0.0084,
        "fwhm_slope_nm_per_c": 0.0398,
    },
    "heating_nv": {"t_ambient_c": 25.0, "slope_k_per_mw": 0.0735},
    "heating_siv": {"t_ambient_c": 25.0, "slope_k_per_mw": 0.0751},
    "detection": {
        "variance_ratio_threshold": 10.0,
        "z_threshold": 3.0,
        "min_window": 10,
        "window_samples": 20,
    },
}

#: field amplitude of the artifact acceptance test
FIELD_MT = 0.5
INTEGRATION_TIMES_S = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
#: session length of the once-per-run optical-isolation check
ISOLATION_DURATION_S = 30.0
WARM_UP_SEED = 7


def op_seeds(seed: int) -> Iterator[int]:
    """Endless, reproducible stream of per-operation seeds for one run."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def session_config(seed: int, duration_s: float, b_max_mt: float) -> dict[str, Any]:
    return {
        "kind": "bfield_artifact",
        "seed": seed,
        "duration_s": duration_s,
        "sample_period_s": 1.5,
        "bfield": {"b_max_mt": b_max_mt},
        **PHYSICS,
    }


def isolation_failures(dt: Any, seed: int) -> list[str]:
    """Field-on and field-off sessions of one seed share their SiV values bit for bit."""
    tables = [
        checks.records_table(
            dt.scenarios.run_bfield_artifact(
                dt.config.scenario_config_from_dict(session_config(seed, ISOLATION_DURATION_S, b))
            )
        )
        for b in (0.0, FIELD_MT)
    ]
    return checks.check_siv_isolation(*tables)


class Workload:
    """One workload: ``run`` is the timed operation, the rest is not timed."""

    name = ""
    #: operations of the fixed traced round
    trace_seeds: tuple[int, ...] = ()

    def __init__(self, dt: Any, work_dir: Path, tiny: bool = False) -> None:
        self.dt = dt
        self.work_dir = work_dir
        self.tiny = tiny

    def items(self, seed: int) -> Iterator[Any]:
        return (self.item(s) for s in op_seeds(seed))

    def trace_items(self) -> list[Any]:
        return [self.item(s) for s in self.trace_seeds]

    def warm_up(self) -> None:
        """Run one small operation so lazy caches fill before timing."""
        item = self.item(WARM_UP_SEED, warm_up=True)
        self.prepare(item)
        self.collect(self.run(item))

    def prepare(self, item: Any) -> None:
        """Untimed input staging right before ``run``."""

    def item(self, seed: int, warm_up: bool = False) -> Any:
        raise NotImplementedError

    def run(self, item: Any) -> Any:
        raise NotImplementedError

    def collect(self, raw: Any) -> Any:
        return raw

    def spectra(self, output: Any) -> int:
        raise NotImplementedError

    def check_op(self, output: Any) -> list[str]:
        """Checks of one operation's full output, made right after it."""
        return []

    def keep(self, output: Any) -> Any:
        """The part of an output the pooled ``check`` needs."""
        return output

    def check(self, kept: list[Any]) -> list[str]:
        """Checks pooled over the kept part of every operation's output."""
        raise NotImplementedError

    def same(self, a: Any, b: Any) -> bool:
        raise NotImplementedError

    def check_once(self, item: Any, output: Any) -> list[str]:
        """Repeat the first operation; compare bytes; check optical isolation."""
        failures = []
        self.prepare(item)
        if not self.same(output, self.collect(self.run(item))):
            failures.append(f"{self.name}: a repeated seed gave different output")
        return failures + isolation_failures(self.dt, item[0])


class QuietMonitor(Workload):
    """Field-off sessions through the CLI: ``scenario`` then ``crossval``."""

    name = "quiet_monitor"
    trace_seeds = tuple(range(1000, 1010))

    def item(self, seed: int, warm_up: bool = False) -> tuple[int, dict[str, Any]]:
        duration = 30.0 if warm_up or self.tiny else 120.0
        return seed, session_config(seed, duration, 0.0)

    def prepare(self, item: tuple[int, dict[str, Any]]) -> None:
        (self.work_dir / "config.json").write_text(json.dumps(item[1]), encoding="utf-8")

    def run(self, item: tuple[int, dict[str, Any]]) -> tuple[int, int]:
        cli = self.dt.cli
        config = str(self.work_dir / "config.json")
        records = str(self.work_dir / "records.csv")
        report = str(self.work_dir / "crossval.json")
        rc_scenario = cli.main(["scenario", "--config", config, "--out", records])
        rc_crossval = cli.main(["crossval", "--input", records, "--config", config, "--out", report])
        return rc_scenario, rc_crossval

    def collect(self, raw: tuple[int, int]) -> dict[str, Any]:
        if raw != (0, 0):
            raise RuntimeError(f"CLI exit codes {raw}")
        csv_text = (self.work_dir / "records.csv").read_text(encoding="utf-8")
        report = (self.work_dir / "crossval.json").read_text(encoding="utf-8")
        return {"csv": csv_text, "report": report, "table": checks.parse_records_csv(csv_text)}

    def spectra(self, output: dict[str, Any]) -> int:
        return 2 * checks.n_rows(output["table"])

    def check_op(self, output: dict[str, Any]) -> list[str]:
        win = PHYSICS["detection"]["window_samples"]
        return checks.check_crossval_report("quiet_monitor", output["table"], output["report"], win)

    def keep(self, output: dict[str, Any]) -> checks.Table:
        return checks.pooled_columns(output["table"])

    def check(self, kept: list[checks.Table]) -> list[str]:
        return checks.check_quiet(kept, PHYSICS)

    def same(self, a: dict[str, Any], b: dict[str, Any]) -> bool:
        return a["csv"] == b["csv"] and a["report"] == b["report"]

    def check_once(self, item: tuple[int, dict[str, Any]], output: dict[str, Any]) -> list[str]:
        failures = super().check_once(item, output)
        records = self.dt.scenarios.run_bfield_artifact(self.dt.config.scenario_config_from_dict(item[1]))
        return failures + checks.check_csv_round_trip(output["table"], checks.records_table(records))


class FieldArtifact(Workload):
    """Field-on sessions, one ``run_bfield_artifact`` library call each."""

    name = "field_artifact"
    trace_seeds = tuple(range(10))

    def item(self, seed: int, warm_up: bool = False) -> tuple[int, Any]:
        duration = 30.0 if warm_up or self.tiny else 60.0
        return seed, self.dt.config.scenario_config_from_dict(session_config(seed, duration, FIELD_MT))

    def run(self, item: tuple[int, Any]) -> list[Any]:
        return self.dt.scenarios.run_bfield_artifact(item[1])

    def collect(self, raw: list[Any]) -> checks.Table:
        return checks.records_table(raw)

    def spectra(self, output: checks.Table) -> int:
        return 2 * checks.n_rows(output)

    def keep(self, output: checks.Table) -> checks.Table:
        return checks.pooled_columns(output)

    def check(self, kept: list[checks.Table]) -> list[str]:
        return checks.check_field(kept, PHYSICS)

    def same(self, a: checks.Table, b: checks.Table) -> bool:
        return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


class PrecisionSweep(Workload):
    """``run_precision_sweep`` on both channels, one library call per seed."""

    name = "precision_sweep"
    trace_seeds = (42,)

    def repetitions(self, warm_up: bool = False) -> int:
        return 2 if warm_up else 10 if self.tiny else 100

    def item(self, seed: int, warm_up: bool = False) -> tuple[int, Any]:
        config = {
            "kind": "precision_sweep",
            "seed": seed,
            "precision": {
                "integration_times_s": list(INTEGRATION_TIMES_S),
                "repetitions": self.repetitions(warm_up),
                "channels": ["nv", "siv"],
            },
            **PHYSICS,
        }
        return seed, self.dt.config.scenario_config_from_dict(config)

    def run(self, item: tuple[int, Any]) -> dict[str, list[tuple[float, float]]]:
        return self.dt.scenarios.run_precision_sweep(item[1])

    def spectra(self, output: dict[str, list[tuple[float, float]]]) -> int:
        return len(output) * len(INTEGRATION_TIMES_S) * self.repetitions()

    def check(self, kept: list[dict[str, list[tuple[float, float]]]]) -> list[str]:
        return checks.check_precision(kept, PHYSICS, INTEGRATION_TIMES_S, self.repetitions())

    def same(self, a: dict, b: dict) -> bool:
        return repr(a) == repr(b)


WORKLOADS = {w.name: w for w in (QuietMonitor, FieldArtifact, PrecisionSweep)}
