"""Record serialization: pinned schema, 9-digit rendering, round trips."""

import io
import json
import math
from dataclasses import fields, replace

import pytest

from dualtherm import (
    ScenarioConfig,
    ScenarioKind,
    parse_records_csv,
    run_bfield_artifact,
    write_records,
)
from dualtherm.cli import main
from dualtherm.crossval import pair_z
from dualtherm.records import CSV_HEADER, format_number, write_precision_series
from dualtherm.scenarios import ScenarioRecord
from dualtherm.thermometry import Channel, TemperatureEstimate


def _records():
    cfg = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=14, duration_s=15.0)
    return run_bfield_artifact(cfg)


def _write_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write_records(records, stream)


def test_csv_header_is_pinned():
    # append-only schema: this exact string is a compatibility contract
    assert CSV_HEADER == (
        "time_s,true_T_C,laser_mW,b_par_mT,nv_n_dips,nv_f0_MHz,nv_f0_sigma_MHz,"
        "nv_contrast,nv_fwhm_MHz,siv_pos_nm,siv_pos_sigma_nm,siv_fwhm_nm,"
        "T_nv_C,T_nv_sigma_C,T_siv_C,T_siv_sigma_C,z_score,artifact_flag"
    )


def test_lowercased_csv_header_is_the_record_fields():
    # each column reads and writes the record attribute of its lowercased name
    assert CSV_HEADER.lower().split(",") == [field.name for field in fields(ScenarioRecord)]


def test_format_number_nine_significant_digits():
    assert format_number(0.5) == "0.5"
    assert format_number(2869.9876543219) == "2869.98765"
    assert format_number(1234567891.23) == "1.23456789e+09"
    assert format_number(0.000123456789123) == "0.000123456789"
    assert format_number(-3.0) == "-3"


def test_csv_round_trip_preserves_nine_digits(tmp_path):
    records = _records()
    path = tmp_path / "records.csv"
    _write_csv(records, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    parsed = parse_records_csv(path)
    assert len(parsed) == len(records)
    for original, regained in zip(records, parsed):
        assert regained.nv_n_dips == original.nv_n_dips
        assert regained.artifact_flag == original.artifact_flag
        for attr in ("time_s", "nv_f0_mhz", "siv_pos_nm", "t_nv_c", "z_score"):
            assert format_number(getattr(regained, attr)) == format_number(
                getattr(original, attr)
            )


def test_csv_flag_and_integer_rendering():
    stream = io.StringIO()
    write_records(_records()[:1], stream)
    header, row = stream.getvalue().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["artifact_flag"] in ("0", "1")
    assert "." not in cells["nv_n_dips"]


def test_json_matches_csv_schema():
    records = _records()[:3]
    stream = io.StringIO()
    write_records(records, stream, "json")
    payload = json.loads(stream.getvalue())
    assert isinstance(payload, list) and len(payload) == 3
    assert list(payload[0]) == CSV_HEADER.split(",")
    assert payload[0]["artifact_flag"] in (0, 1)
    assert isinstance(payload[0]["artifact_flag"], int)
    assert isinstance(payload[0]["nv_n_dips"], int)


def test_empty_record_list_is_an_error():
    stream = io.StringIO()
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="empty"):
            write_records([], stream, fmt)
    assert stream.getvalue() == ""


def test_unknown_format_rejected():
    stream = io.StringIO()
    with pytest.raises(ValueError, match="format"):
        write_records(_records()[:1], stream, "xml")
    assert stream.getvalue() == ""


def test_precision_series_refusals_write_nothing():
    stream = io.StringIO()
    with pytest.raises(ValueError, match="format"):
        write_precision_series({"siv": [(0.1, 0.5)]}, stream, "xml")
    with pytest.raises(ValueError, match="empty"):
        write_precision_series({"siv": []}, stream, "csv")
    with pytest.raises(ValueError, match="empty"):
        write_precision_series({}, stream, "json")
    assert stream.getvalue() == ""


def test_parse_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_records_csv(path)


@pytest.mark.parametrize(
    ("column", "cell", "message"),
    [
        ("artifact_flag", "yes", "line 2, column artifact_flag: expected 0 or 1, got 'yes'"),
        ("artifact_flag", "2", "line 2, column artifact_flag: expected 0 or 1, got '2'"),
        ("nv_n_dips", "7", "nv_n_dips must be 1 or 2, got 7"),
        ("nv_f0_MHz", "abc", "line 2, column nv_f0_MHz: expected a number, got 'abc'"),
        ("nv_n_dips", "2.5", "line 2, column nv_n_dips: expected an integer, got '2.5'"),
    ],
    ids=["flag-yes", "flag-2", "n-dips-7", "f0-abc", "n-dips-2.5"],
)
def test_parse_refuses_cells_outside_their_values(tmp_path, capsys, column, cell, message):
    path = tmp_path / "records.csv"
    _write_csv([_exact_record(0, 25.5)], path)
    header, row = path.read_text(encoding="utf-8").splitlines()
    cells = row.split(",")
    cells[header.split(",").index(column)] = cell
    path.write_text(f"{header}\n{','.join(cells)}\n", encoding="utf-8")
    with pytest.raises(ValueError) as refused:
        parse_records_csv(path)
    assert str(refused.value) == message
    assert main(["crossval", "--input", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_precision_series_output():
    series = {"siv": [(0.1, 0.5), (1.0, 0.155)]}
    stream = io.StringIO()
    write_precision_series(series, stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "channel,integration_time_s,sigma_T_C"
    assert lines[1] == "siv,0.1,0.5"
    assert lines[2] == "siv,1,0.155"


def _strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no Infinity or NaN token."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _exact_record(k, t_nv_c):
    # both sigmas 0: a difference between the channels scores an infinite z
    nv = TemperatureEstimate(t_nv_c, 0.0, Channel.NV_ODMR, 1.5 * k)
    siv = TemperatureEstimate(25.0, 0.0, Channel.SIV_ZPL, 1.5 * k)
    return ScenarioRecord(
        time_s=1.5 * k, true_t_c=25.0, laser_mw=0.0, b_par_mt=0.0, nv_n_dips=1,
        nv_f0_mhz=2870.0 - 0.01 * k, nv_f0_sigma_mhz=0.0, nv_contrast=0.12,
        nv_fwhm_mhz=12.0, siv_pos_nm=737.0, siv_pos_sigma_nm=0.0, siv_fwhm_nm=4.8,
        t_nv_c=t_nv_c, t_nv_sigma_c=0.0, t_siv_c=25.0, t_siv_sigma_c=0.0,
        z_score=pair_z(nv, siv), artifact_flag=True,
    )


def test_json_writes_an_infinite_z_as_null(tmp_path):
    record = _exact_record(0, 25.5)
    assert record.z_score == math.inf
    stream = io.StringIO()
    write_records([record, replace(record, z_score=-math.inf)], stream, "json")
    rows = _strict_json(stream.getvalue())
    assert [row["z_score"] for row in rows] == [None, None]
    assert rows[0]["T_nv_C"] == 25.5
    # the CSV keeps the infinity, and reads it back
    path = tmp_path / "records.csv"
    _write_csv([record], path)
    assert path.read_text(encoding="utf-8").splitlines()[1].split(",")[-2] == "inf"
    assert parse_records_csv(path) == [record]


def test_crossval_report_of_exact_disagreeing_records_is_strict_json(tmp_path, capsys):
    # one 20-record window: the SiV channel is constant, the NV one is not
    records = tmp_path / "records.csv"
    _write_csv([_exact_record(k, 25.0 + 0.1 * k) for k in range(20)], records)
    assert main(["crossval", "--input", str(records)]) == 0
    [verdict] = _strict_json(capsys.readouterr().out)["windows"]["verdicts"]
    assert verdict["variance_ratio"] is None and verdict["max_abs_z"] is None
    assert verdict["flagged"] is True


def test_precision_series_json_is_strict():
    stream = io.StringIO()
    write_precision_series({"siv": [(0.1, 0.5), (1.0, math.inf)]}, stream, "json")
    payload = _strict_json(stream.getvalue())
    assert payload == {"siv": [{"integration_time_s": 0.1, "sigma_T_C": 0.5}, {"integration_time_s": 1.0, "sigma_T_C": None}]}
