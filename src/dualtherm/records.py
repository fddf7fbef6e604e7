"""Record serialization: bit-stable CSV and JSON emission.

The CSV column set is a stable external contract (append-only evolution);
floats are rendered with 9 significant digits so a write-then-parse round
trip reproduces values at that precision and identical runs produce
byte-identical files.  JSON output is strict (RFC 8259): every number goes
through ``json_number``, which writes inf and NaN as ``null``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence, TextIO, get_type_hints

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

#: ScenarioRecord attribute -> its type (int, bool or float), read off the
#: field annotations; ints and bools are written as integers, bools as 0/1
_TYPES: dict[str, type] = get_type_hints(ScenarioRecord)


def format_number(value: float) -> str:
    """Render a float with 9 significant digits (integers stay integral)."""
    return f"{value:.9g}"


def json_number(value: float) -> float | None:
    """A float as the JSON outputs carry it: 9 significant digits, and
    ``None`` (JSON ``null``) for inf and NaN, which RFC 8259 has no token for."""
    value = float(value)
    return float(format_number(value)) if math.isfinite(value) else None


def json_text(payload: Any) -> str:
    """``payload`` as indented strict JSON; a non-finite float raises ``ValueError``."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _cell(record: ScenarioRecord, attr: str) -> str:
    value = getattr(record, attr)
    return format_number(float(value)) if _TYPES[attr] is float else str(int(value))


def _json_cell(record: ScenarioRecord, attr: str) -> float | int | None:
    value = getattr(record, attr)
    return json_number(value) if _TYPES[attr] is float else int(value)


def write_records_csv(records: Sequence[ScenarioRecord], stream: TextIO) -> None:
    if not records:
        raise ValueError("refusing to write an empty record list")
    stream.write(CSV_HEADER + "\n")
    for record in records:
        stream.write(",".join(_cell(record, attr) for _, attr in _COLUMNS) + "\n")


def write_records_json(records: Sequence[ScenarioRecord], stream: TextIO) -> None:
    if not records:
        raise ValueError("refusing to write an empty record list")
    rows = [{column: _json_cell(record, attr) for column, attr in _COLUMNS} for record in records]
    stream.write(json_text(rows))


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
            kwargs = {}
            for (column, attr), cell in zip(_COLUMNS, cells):
                if _TYPES[attr] is bool and cell not in ("0", "1"):
                    raise ValueError(f"line {line_no}, column {column}: expected 0 or 1, got {cell!r}")
                kwargs[attr] = cell == "1" if _TYPES[attr] is bool else _TYPES[attr](cell)
            records.append(ScenarioRecord(**kwargs))
    return records


def write_precision_series(
    series: dict[str, list[tuple[float, float]]], path: str | Path, fmt: str = "csv"
) -> None:
    """Write a precision sweep result (per-channel sigma vs integration time)."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not series or not any(series.values()):
        raise ValueError("refusing to write an empty precision series")
    with open(path, "w", encoding="utf-8", newline="") as stream:
        if fmt == "csv":
            stream.write("channel,integration_time_s,sigma_T_C\n")
            for channel in series:
                for t_int, sigma in series[channel]:
                    stream.write(f"{channel},{format_number(t_int)},{format_number(sigma)}\n")
        else:
            payload = {
                channel: [
                    {"integration_time_s": json_number(t_int), "sigma_T_C": json_number(sigma)}
                    for t_int, sigma in pairs
                ]
                for channel, pairs in series.items()
            }
            stream.write(json_text(payload))
