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
import sys
from pathlib import Path
from typing import Any, Sequence, TextIO, get_type_hints

from .scenarios import ScenarioRecord

#: the record CSV header, in emission order
CSV_HEADER = (
    "time_s,true_T_C,laser_mW,b_par_mT,nv_n_dips,nv_f0_MHz,nv_f0_sigma_MHz,"
    "nv_contrast,nv_fwhm_MHz,siv_pos_nm,siv_pos_sigma_nm,siv_fwhm_nm,"
    "T_nv_C,T_nv_sigma_C,T_siv_C,T_siv_sigma_C,z_score,artifact_flag"
)
#: CSV column -> ScenarioRecord attribute, which is the column's name
#: lowercased; interned, as attribute and keyword names are, for fast lookups
_COLUMNS = {column: sys.intern(column.lower()) for column in CSV_HEADER.split(",")}

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


def _check_format(fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def write_records(records: Sequence[ScenarioRecord], stream: TextIO, fmt: str = "csv") -> None:
    """Write records to ``stream`` as ``csv`` or ``json``; a bad format or an
    empty list is refused before anything is written."""
    _check_format(fmt)
    if not records:
        raise ValueError("refusing to write an empty record list")
    if fmt == "json":
        rows = [{column: _json_cell(record, attr) for column, attr in _COLUMNS.items()} for record in records]
        stream.write(json_text(rows))
        return
    stream.write(CSV_HEADER + "\n")
    for record in records:
        stream.write(",".join(_cell(record, attr) for attr in _COLUMNS.values()) + "\n")


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
            for (column, attr), cell in zip(_COLUMNS.items(), cells):
                kind = _TYPES[attr]
                try:
                    if kind is bool and cell not in ("0", "1"):
                        raise ValueError
                    kwargs[attr] = cell == "1" if kind is bool else kind(cell)
                except ValueError:
                    expected = "0 or 1" if kind is bool else "an integer" if kind is int else "a number"
                    raise ValueError(f"line {line_no}, column {column}: expected {expected}, got {cell!r}") from None
            records.append(ScenarioRecord(**kwargs))
    return records


def write_precision_series(
    series: dict[str, list[tuple[float, float]]], stream: TextIO, fmt: str = "csv"
) -> None:
    """Write a precision sweep result (per-channel sigma vs integration time)
    to ``stream``; a bad format or an empty series is refused before anything
    is written."""
    _check_format(fmt)
    if not series or not any(series.values()):
        raise ValueError("refusing to write an empty precision series")
    if fmt == "json":
        payload = {
            channel: [
                {"integration_time_s": json_number(t_int), "sigma_T_C": json_number(sigma)}
                for t_int, sigma in pairs
            ]
            for channel, pairs in series.items()
        }
        stream.write(json_text(payload))
        return
    stream.write("channel,integration_time_s,sigma_T_C\n")
    for channel, pairs in series.items():
        for t_int, sigma in pairs:
            stream.write(f"{channel},{format_number(t_int)},{format_number(sigma)}\n")
