"""Record serialization: bit-stable CSV and JSON emission.

The CSV column set is a stable external contract (append-only evolution);
floats are rendered with 9 significant digits so a write-then-parse round
trip reproduces values at that precision and identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, TextIO

from .scenarios import ScenarioRecord

#: CSV column -> ScenarioRecord attribute, in emission order
_COLUMNS: tuple[tuple[str, str], ...] = (
    ("time_s", "time_s"),
    ("true_T_C", "true_t_c"),
    ("laser_mW", "laser_mw"),
    ("b_par_mT", "b_par_mt"),
    ("nv_n_dips", "nv_n_dips"),
    ("nv_f0_MHz", "nv_f0_mhz"),
    ("nv_f0_sigma_MHz", "nv_f0_sigma_mhz"),
    ("nv_contrast", "nv_contrast"),
    ("nv_fwhm_MHz", "nv_fwhm_mhz"),
    ("siv_pos_nm", "siv_pos_nm"),
    ("siv_pos_sigma_nm", "siv_pos_sigma_nm"),
    ("siv_fwhm_nm", "siv_fwhm_nm"),
    ("T_nv_C", "t_nv_c"),
    ("T_nv_sigma_C", "t_nv_sigma_c"),
    ("T_siv_C", "t_siv_c"),
    ("T_siv_sigma_C", "t_siv_sigma_c"),
    ("z_score", "z_score"),
    ("artifact_flag", "artifact_flag"),
)

CSV_HEADER = ",".join(column for column, _ in _COLUMNS)


def format_number(value: float) -> str:
    """Render a float with 9 significant digits (integers stay integral)."""
    return f"{value:.9g}"


def _cell(record: ScenarioRecord, attr: str) -> str:
    value = getattr(record, attr)
    if attr == "nv_n_dips":
        return str(int(value))
    if attr == "artifact_flag":
        return "1" if value else "0"
    return format_number(float(value))


def write_records_csv(records: Sequence[ScenarioRecord], stream: TextIO) -> None:
    if not records:
        raise ValueError("refusing to write an empty record list")
    stream.write(CSV_HEADER + "\n")
    for record in records:
        stream.write(",".join(_cell(record, attr) for _, attr in _COLUMNS) + "\n")


def write_records_json(records: Sequence[ScenarioRecord], stream: TextIO) -> None:
    if not records:
        raise ValueError("refusing to write an empty record list")
    # the CSV cells, read back as JSON numbers
    rows = [
        {
            column: (int if attr in ("nv_n_dips", "artifact_flag") else float)(_cell(record, attr))
            for column, attr in _COLUMNS
        }
        for record in records
    ]
    json.dump(rows, stream, indent=2)
    stream.write("\n")


def write_records(
    records: Sequence[ScenarioRecord], path: str | Path, fmt: str = "csv"
) -> None:
    """Write records to ``path`` as ``csv`` or ``json``."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as stream:
        if fmt == "csv":
            write_records_csv(records, stream)
        else:
            write_records_json(records, stream)


def parse_records_csv(path: str | Path) -> list[ScenarioRecord]:
    """Read back a record CSV produced by :func:`write_records`."""
    with open(path, "r", encoding="utf-8") as stream:
        header = stream.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unrecognized CSV header: {header!r}")
        records = []
        for line_no, line in enumerate(stream, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(_COLUMNS):
                raise ValueError(f"line {line_no}: expected {len(_COLUMNS)} cells, got {len(cells)}")
            kwargs: dict[str, object] = {}
            for (_, attr), cell in zip(_COLUMNS, cells):
                if attr == "nv_n_dips":
                    kwargs[attr] = int(cell)
                elif attr == "artifact_flag":
                    kwargs[attr] = cell == "1"
                else:
                    kwargs[attr] = float(cell)
            records.append(ScenarioRecord(**kwargs))
    return records


def write_precision_series(
    series: dict[str, list[tuple[float, float]]], path: str | Path, fmt: str = "csv"
) -> None:
    """Write a precision sweep result (per-channel sigma vs integration time)."""
    if not series or not any(series.values()):
        raise ValueError("refusing to write an empty precision series")
    with open(path, "w", encoding="utf-8", newline="") as stream:
        if fmt == "csv":
            stream.write("channel,integration_time_s,sigma_T_C\n")
            for channel in series:
                for t_int, sigma in series[channel]:
                    stream.write(f"{channel},{format_number(t_int)},{format_number(sigma)}\n")
        elif fmt == "json":
            payload = {
                channel: [
                    {
                        "integration_time_s": float(format_number(t_int)),
                        "sigma_T_C": float(format_number(sigma)),
                    }
                    for t_int, sigma in pairs
                ]
                for channel, pairs in series.items()
            }
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
