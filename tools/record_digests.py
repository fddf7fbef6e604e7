"""Print one SHA-256 digest per item of a fixed corpus of dualtherm outputs.

A refactor that must not change any output is checked by running this
script on the tree before and after the change and comparing the two
listings; identical listings mean identical bytes on every item::

    python3 tools/record_digests.py > before.txt   # on the old tree
    python3 tools/record_digests.py > after.txt    # on the new tree
    diff before.txt after.txt

The script imports dualtherm from the ``src/`` directory next to it, so it
always tests the tree it sits in.  Items:

* the record CSV (``records.write_records``) of 137 sessions, 8,167 records:
  field-off seeds 1000-1039 (120 s); 0.5 mT seeds 0-39 and 0.1, 0.2 and
  1.0 mT seeds 0-14 (60 s); three 300 s sessions at 0.5 mT and one
  field-off; a noisy and a noiseless ramp; a 600 s laser modulation run
  and a noiseless 300 s one (200 records, 13 chunks); 45 s and 3 s
  sessions at 0.5 mT, which end in part windows and part chunks; a
  150 s session at 0.5 mT on a 101-point sweep every 2 s, whose 75 records
  cross a chunk boundary mid-field-clock; and a 60 s session at 0.5 mT whose
  5 ms dwell is shorter than the 7.46 ms sweep step, so some steps end two
  dwells;
* ``cli.main`` outputs with their exit codes: ``scenario`` CSV and JSON and
  the ``crossval`` report of a few of those sessions, ``scenario`` CSV and
  JSON of two precision sweeps over both channels, ``simulate`` CSV and
  JSON of both channels, noisy and ``--noiseless``, ``fit --n-dips
  auto|1|2`` of field-off and Zeeman-split ODMR spectra, ``fit --n-dips
  1|2`` of a 30% dip, 12 MHz wide, at 10 counts per bin, and ``fit --kind
  pl`` of simulated spectra and of a weak peak (30 cps at 737 nm on
  100 cps for 1 s).

224 lines in all.

It takes about 10 s of CPU time.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dualtherm import cli  # noqa: E402
from dualtherm.config import scenario_config_from_dict  # noqa: E402
from dualtherm.forward import (  # noqa: E402
    GYROMAGNETIC_MHZ_PER_MT,
    OdmrModel,
    PlModel,
    odmr_expected_counts,
    pl_expected_counts,
    zeeman_resonances,
)
from dualtherm.noise import sample_poisson_counts  # noqa: E402
from dualtherm.records import format_number, write_records  # noqa: E402
from dualtherm.scenarios import PlSettings, ScenarioConfig, run_scenario  # noqa: E402


def _session(kind: str, seed: int, duration_s: float = 300.0, b_max_mt: float = 0.0, **extra: object) -> dict:
    """A session as the JSON config the CLI reads; the defaults fill every other field."""
    return {"kind": kind, "seed": seed, "duration_s": duration_s, "bfield": {"b_max_mt": b_max_mt}, **extra}


def sessions() -> Iterator[tuple[str, dict]]:
    artifact = "bfield_artifact"
    for seed in range(1000, 1040):
        yield f"quiet seed {seed} 120 s", _session(artifact, seed, 120.0)
    for seed in range(40):
        yield f"field 0.5 mT seed {seed} 60 s", _session(artifact, seed, 60.0, 0.5)
    for b_max_mt in (0.1, 0.2, 1.0):
        for seed in range(15):
            yield f"field {b_max_mt} mT seed {seed} 60 s", _session(artifact, seed, 60.0, b_max_mt)
    for seed in range(3):
        yield f"field 0.5 mT seed {seed} 300 s", _session(artifact, seed, 300.0, 0.5)
    yield "quiet seed 1000 300 s", _session(artifact, 1000, 300.0)
    yield "ramp seed 0", _session("ramp", 0)
    yield "ramp seed 0 noiseless", _session("ramp", 0, noiseless=True)
    yield "laser_modulation seed 8 600 s", _session("laser_modulation", 8, 600.0)
    yield "field 0.5 mT seed 5 45 s", _session(artifact, 5, 45.0, 0.5)
    yield "field 0.5 mT seed 5 3 s", _session(artifact, 5, 3.0, 0.5)
    yield "laser_modulation seed 8 300 s noiseless", _session("laser_modulation", 8, noiseless=True)
    yield "field 0.5 mT seed 6 150 s, 101-point sweep every 2 s", _session(
        artifact, 6, 150.0, 0.5, sample_period_s=2.0, odmr={"sweep_points": 101}
    )
    yield "field 0.5 mT seed 7 60 s, 5 ms dwell", _session(artifact, 7, 60.0, bfield={"b_max_mt": 0.5, "dwell_s": 0.005})


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(label: str, argv: list[str], out: Path) -> str:
    """Digest of a CLI run: its exit code, then the bytes it wrote to ``out``."""
    out.unlink(missing_ok=True)
    code = cli.main([*argv, "--out", str(out)])
    data = b"%d\n" % code + (out.read_bytes() if out.exists() else b"")
    return f"{_digest(data)}  cli {label}"


def _write_spectrum(path: Path, axis: np.ndarray, counts: np.ndarray, axis_label: str = "freq_MHz") -> None:
    """A spectrum CSV in the layout of ``dualtherm simulate``."""
    lines = [f"{axis_label},counts"] + [f"{format_number(a)},{format_number(c)}" for a, c in zip(axis, counts)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cli_items(tmp: Path) -> Iterator[str]:
    out = tmp / "out"
    chosen = {label: session for label, session in sessions()}
    for label in (
        "quiet seed 1000 120 s",
        "field 0.5 mT seed 0 60 s",
        "field 0.2 mT seed 3 60 s",
        "ramp seed 0",
        "ramp seed 0 noiseless",
        "field 0.5 mT seed 5 45 s",
    ):
        config = tmp / "config.json"
        config.write_text(json.dumps(chosen[label]), encoding="utf-8")
        records = tmp / "records.csv"
        yield _cli(f"scenario json, {label}", ["scenario", "--config", str(config), "--format", "json"], out)
        yield _cli(f"scenario csv, {label}", ["scenario", "--config", str(config)], records)
        yield _cli(f"crossval, {label}", ["crossval", "--input", str(records), "--config", str(config)], out)

    for seed in (11, 12):
        sweep = {"integration_times_s": [0.1, 1.0, 10.0], "repetitions": 4, "channels": ["nv", "siv"]}
        config = tmp / "config.json"
        config.write_text(json.dumps(_session("precision_sweep", seed, precision=sweep)), encoding="utf-8")
        for fmt in ("csv", "json"):
            argv = ["scenario", "--config", str(config), "--format", fmt]
            yield _cli(f"scenario {fmt}, precision sweep seed {seed}", argv, out)

    for channel in ("odmr", "pl"):
        for noise in ([], ["--noiseless"]):
            for fmt in ("csv", "json"):
                argv = ["simulate", "--channel", channel, "--seed", "3", "--format", fmt, *noise]
                yield _cli(f"simulate {fmt}, {channel} seed 3{' noiseless' if noise else ''}", argv, out)

    spectrum = tmp / "spectrum.csv"
    odmr = ScenarioConfig().odmr
    axis = odmr.axis()
    tau_s = odmr.sweep_time_s / axis.size
    for seed in range(3, 8):
        cli.main(["simulate", "--channel", "odmr", "--seed", str(seed), "--out", str(spectrum)])
        for n_dips in ("auto", "1", "2"):
            argv = ["fit", "--input", str(spectrum), "--kind", "odmr", "--n-dips", n_dips]
            yield _cli(f"fit --n-dips {n_dips}, simulated odmr seed {seed}", argv, out)
    for b_mt in (0.05, 0.1, 0.2, 0.5):
        for seed in range(3):
            f_lo, f_hi = zeeman_resonances(2870.0, b_mt, GYROMAGNETIC_MHZ_PER_MT)
            half = 0.5 * odmr.contrast
            dips = ((f_lo, odmr.linewidth_mhz, half), (f_hi, odmr.linewidth_mhz, half))
            expected = odmr_expected_counts(OdmrModel(odmr.baseline_rate_cps, dips), axis, tau_s)
            counts = sample_poisson_counts(expected, np.random.default_rng(seed))
            _write_spectrum(spectrum, axis, counts.astype(np.float64))
            for n_dips in ("auto", "1", "2"):
                argv = ["fit", "--input", str(spectrum), "--kind", "odmr", "--n-dips", n_dips]
                yield _cli(f"fit --n-dips {n_dips}, {b_mt} mT pair seed {seed}", argv, out)
    # a dip at 10 counts per bin, where a dip fit can shrink onto a single empty bin
    expected = odmr_expected_counts(OdmrModel(10.0 / tau_s, ((2870.0, 12.0, 0.3),)), axis, tau_s)
    counts = sample_poisson_counts(expected, np.random.default_rng(0))
    _write_spectrum(spectrum, axis, counts.astype(np.float64))
    for n_dips in ("1", "2"):
        argv = ["fit", "--input", str(spectrum), "--kind", "odmr", "--n-dips", n_dips]
        yield _cli(f"fit --n-dips {n_dips}, 30% dip at 10 counts per bin seed 0", argv, out)
    for seed in range(3, 6):
        cli.main(["simulate", "--channel", "pl", "--seed", str(seed), "--out", str(spectrum)])
        yield _cli(f"fit --kind pl, simulated pl seed {seed}", ["fit", "--input", str(spectrum), "--kind", "pl"], out)
    # a peak too weak to fit: its fit collapses onto a single bin
    pl_axis = PlSettings().axis()
    expected = pl_expected_counts(PlModel(background_rate=100.0, peaks=((737.0, 4.8, 30.0),)), pl_axis, 1.0)
    counts = sample_poisson_counts(expected, np.random.default_rng(1))
    _write_spectrum(spectrum, pl_axis, counts.astype(np.float64), "wavelength_nm")
    yield _cli("fit --kind pl, weak 737 nm peak seed 1", ["fit", "--input", str(spectrum), "--kind", "pl"], out)


def main() -> int:
    for label, session in sessions():
        stream = io.StringIO()
        write_records(run_scenario(scenario_config_from_dict(session)), stream)
        print(f"{_digest(stream.getvalue().encode())}  records {label}")
    with tempfile.TemporaryDirectory() as tmp:
        for line in cli_items(Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
