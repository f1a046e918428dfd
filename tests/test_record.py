import copy
import json
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import owfsim as o
from owfsim import record
from owfsim.cli import main
from owfsim.record import RunRecord, column_names


def test_column_names_layout():
    names = column_names(2)
    assert names[0] == "t"
    assert names[-3:] == ["v_on", "v_dc_off", "i_dc"]
    assert "p_virt_1" in names and "p_virt_2" in names
    assert len(names) == 1 + 2 * 12 + 3
    assert len(set(names)) == len(names)


@pytest.fixture(scope="module")
def short_record():
    return o.run(o.get_preset("blackstart-virtual"),
                 o.SimConfig(dt_plant=100e-6, t_end=0.1))


def test_csv_round_trip_is_exact(short_record, tmp_path):
    path = tmp_path / "run.csv"
    short_record.to_csv(path)
    back = RunRecord.from_csv(path)
    assert back.status == short_record.status
    assert back.diverged_at == short_record.diverged_at
    assert back.header == short_record.header
    for name in short_record.columns:
        assert np.array_equal(back.columns[name], short_record.columns[name]), name


def test_csv_write_is_bit_identical(short_record, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    short_record.to_csv(p1)
    short_record.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_from_csv_requires_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,v\n0.0,1.0\n")
    with pytest.raises(ValueError, match="missing JSON header"):
        RunRecord.from_csv(bad)


def test_col_accessor(short_record):
    assert np.array_equal(short_record.col("p", 1), short_record.columns["p_1"])
    assert np.array_equal(short_record.col("t"), short_record.columns["t"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_col_without_a_string_index_is_every_strings_block(n):
    names = column_names(n)
    data = np.random.default_rng(n).normal(size=(7, len(names)))
    data[2] = np.nan
    data[3] = -0.0
    rec = RunRecord(header={"scenario": {"strings": [{}] * n}}, table=data)
    for name in record.STRING_COLUMNS:
        block = rec.col(name)
        assert block.shape == (n, 7) and block.dtype == np.float64, name
        assert block.tobytes() == np.stack([rec.col(name, k) for k in range(1, n + 1)]).tobytes()
    assert rec.col("t").shape == rec.col("v_on").shape == (7,)
    with pytest.raises(KeyError):
        rec.col("no_such_signal")


def test_a_strings_block_is_a_read_only_view_of_the_table(short_record):
    block = short_record.col("p")
    assert np.shares_memory(block, short_record.table)
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 1.0
    assert short_record.table.flags.writeable  # the table itself stays as it was made


def test_compute_metrics_leaves_the_table_unchanged(short_record):
    # detect_los unwraps every string's phi_rel: string 1's is given wraps, so
    # that an unwrap into the table would show.
    table = short_record.table.copy()
    phi = table[:, column_names(short_record.n_strings).index("phi_rel_1")]
    phi[:] = np.remainder(0.5 * np.arange(len(phi)) + np.pi, 2.0 * np.pi) - np.pi
    rec = RunRecord(short_record.header, table)
    before = rec.table.tobytes()
    assert o.compute_metrics(rec).los_detected
    assert rec.table.tobytes() == before


def test_a_table_of_another_width_is_refused_when_the_record_is_made():
    header = {"scenario": {"strings": [{}, {}]}}
    RunRecord(header, np.zeros((3, len(column_names(2)))))
    for width in (len(column_names(2)) - 1, len(column_names(2)) + 1):
        with pytest.raises(ValueError):
            RunRecord(header, np.zeros((3, width)))


def test_columns_are_read_only_views_into_the_table(short_record):
    assert list(short_record.columns) == column_names(short_record.n_strings)
    for j, (name, column) in enumerate(short_record.columns.items()):
        assert np.shares_memory(column, short_record.table), name
        assert column.tobytes() == short_record.table[:, j].tobytes(), name
    assert np.shares_memory(short_record.t, short_record.table)
    with pytest.raises(TypeError):
        short_record.columns["t"] = np.zeros(len(short_record.t))


@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_cloned_record_views_its_own_table(short_record, clone):
    rec = clone(short_record)
    assert (rec.header, rec.status, rec.diverged_at) == (
        short_record.header, short_record.status, short_record.diverged_at)
    assert rec.table.tobytes() == short_record.table.tobytes()
    assert not np.shares_memory(rec.table, short_record.table)
    assert all(np.shares_memory(column, rec.table) for column in rec.columns.values())
    diverged = clone(RunRecord(short_record.header, short_record.table[:25], diverged_at=0.01))
    assert (diverged.status, diverged.diverged_at) == ("diverged", 0.01)


@pytest.mark.parametrize("non_finite", [False, True])
def test_a_fortran_ordered_table_writes_the_same_csv(tmp_path, non_finite):
    data = np.random.default_rng(3).normal(size=(2 * record.CHUNK_ROWS + 7, len(column_names(1))))
    if non_finite:
        data[record.CHUNK_ROWS + 2, 4] = np.nan  # the second chunk is written as repr text
    _synthetic(data).to_csv(tmp_path / "c.csv")
    _synthetic(np.asfortranarray(data)).to_csv(tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def _repr_to_csv(rec: RunRecord, path) -> None:
    """Reference writer: every value as Python ``repr``, one value at a time."""
    names = column_names(rec.n_strings)
    meta = {"header": rec.header, "status": rec.status, "diverged_at": rec.diverged_at}
    cols = [rec.columns[n] for n in names]
    with open(path, "w", newline="") as f:
        f.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        f.write(",".join(names) + "\n")
        for i in range(len(cols[0])):
            f.write(",".join(repr(float(c[i])) for c in cols) + "\n")


def _synthetic(data: np.ndarray) -> RunRecord:
    """One-string record holding ``data`` (rows, columns) and a minimal header."""
    return RunRecord(header={"scenario": {"strings": [{}]}}, table=data)


def _data_lines(path) -> list[bytes]:
    return path.read_bytes().splitlines()[2:]


def _assert_same_floats(a: RunRecord, b: RunRecord) -> None:
    assert a.columns.keys() == b.columns.keys()
    for name in a.columns:
        x, y = a.columns[name], b.columns[name]
        assert x.shape == y.shape, name
        assert np.array_equal(np.isnan(x), np.isnan(y)), name
        assert x[~np.isnan(x)].tobytes() == y[~np.isnan(y)].tobytes(), name


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            1e-9, 1e-5, 1e16, 1e22, 0.1, np.inf, -np.inf, np.nan)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(width=64))
_RECORDS = arrays(np.float64, st.tuples(st.integers(0, 9), st.just(len(column_names(1)))),
                  elements=_FLOATS)


@settings(max_examples=80, deadline=None)
@given(data=_RECORDS)
def test_csv_round_trips_arbitrary_floats(data, tmp_path_factory):
    rec = _synthetic(data)
    path = tmp_path_factory.mktemp("floats") / "rec.csv"
    with mock.patch.object(record, "CHUNK_ROWS", 3):  # several chunks, some non-finite
        rec.to_csv(path)
        back = RunRecord.from_csv(path)
    _assert_same_floats(rec, back)
    assert not any(b"null" in line for line in _data_lines(path))


@settings(max_examples=80, deadline=None)
@given(data=_RECORDS)
def test_repr_written_csv_loads_bit_identically(data, tmp_path_factory):
    rec = _synthetic(data)
    path = tmp_path_factory.mktemp("repr") / "rec.csv"
    _repr_to_csv(rec, path)
    with mock.patch.object(record, "CHUNK_ROWS", 3):
        _assert_same_floats(rec, RunRecord.from_csv(path))


@pytest.mark.parametrize("other", ["0.5", "nan"], ids=["finite-chunk", "non-finite-chunk"])
def test_integer_zero_loads_with_its_sign(tmp_path, other):
    # A hand-written -0 is JSON's integer form; it loads as -0.0 whether its
    # chunk goes through orjson or value by value, and 0 as +0.0.
    names = column_names(1)
    meta = {"header": {"scenario": {"strings": [{}]}}, "status": "converged",
            "diverged_at": None}
    rows = [["-0"] * len(names), ["0"] * len(names), ["-0", other] * (len(names) // 2)]
    path = tmp_path / "rec.csv"
    path.write_text(f"# {json.dumps(meta)}\n{','.join(names)}\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    back = RunRecord.from_csv(path)
    table = np.stack([back.columns[n] for n in names], axis=1)
    assert table[:2].tobytes() == np.array([[-0.0] * len(names), [0.0] * len(names)]).tobytes()
    assert table[2, ::2].tobytes() == np.full(len(names) // 2, -0.0).tobytes()


def _two_dimensional_dump(block: np.ndarray) -> bytes:
    """Reference writer for a finite block: orjson's nested rows, with the
    brackets between them replaced by line ends."""
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    return text[2:-2].replace(b"],[", b"\n") + b"\n"


_FINITE = st.one_of(st.sampled_from([x for x in _SPECIAL if np.isfinite(x)]),
                    st.floats(width=64, allow_nan=False, allow_infinity=False))


@settings(max_examples=80, deadline=None)
@given(data=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 30)),
                   elements=_FINITE))
def test_flat_writer_matches_the_two_dimensional_dump(data):
    for start in range(0, len(data), 3):  # blocks as to_csv writes them with CHUNK_ROWS = 3
        block = data[start:start + 3]
        assert record._format_rows(block) == _two_dimensional_dump(block)


def test_repr_written_simulated_record_loads_bit_identically(short_record, tmp_path):
    path = tmp_path / "run.csv"
    _repr_to_csv(short_record, path)
    back = RunRecord.from_csv(path)
    assert back.header == short_record.header
    for name in short_record.columns:
        assert back.columns[name].tobytes() == short_record.columns[name].tobytes(), name


@pytest.mark.parametrize("rows", [0, 1])
def test_csv_round_trips_zero_and_one_row(short_record, tmp_path, rows):
    rec = RunRecord(header=short_record.header, table=short_record.table[:rows])
    path = tmp_path / "run.csv"
    rec.to_csv(path)
    back = RunRecord.from_csv(path)
    assert len(_data_lines(path)) == rows
    for name in rec.columns:
        assert back.columns[name].tobytes() == rec.columns[name].tobytes(), name


def _narrow_row(lines):
    lines[5] = lines[5].rsplit(b",", 1)[0]


def _wide_row(lines):
    lines[5] += b",1.0"


def _row_break_moved(lines):
    # The chunk still holds 28 values per row on average.
    lines[5] += b",1.0"
    lines[6] = lines[6].rsplit(b",", 1)[0]


def _renamed_column(lines):
    lines[1] = lines[1].replace(b"p_virt_1", b"p_virtual_1")


def _header_not_json(lines):
    lines[0] = b"# {not json"


def _header_cut_short(lines):
    lines[0] = b"# [1, 2"


def _header_key_repeated(lines):  # json.loads alone would keep the later sim.t_end
    lines[0] = lines[0].replace(b'"sim": {', b'"sim": {"t_end": 5.0, ', 1)


def _names_not_utf8(lines):
    lines[1] = b"\xff" + lines[1]


def _sign_inside_a_value(lines):  # one point per value: only the JSON parser refuses it
    lines[5] = b"1.-2" + lines[5][lines[5].index(b","):]


def _two_points_in_a_value(lines):
    lines[5] = b"1.2.3" + lines[5][lines[5].index(b","):]


@pytest.mark.parametrize("corrupt, line, message", [
    (_narrow_row, 6, "27 values where the column-name row has 28"),
    (_wide_row, 6, "29 values where the column-name row has 28"),
    (_row_break_moved, 6, "29 values where the column-name row has 28"),
    (_renamed_column, 2, "column names differ"),
    (_header_not_json, 1, "header is not JSON: Expecting property name enclosed in double "
                          "quotes at column 4$"),
    (_header_cut_short, 1, "header is not JSON: Expecting ',' delimiter at column 8$"),
    (_header_key_repeated, 1, 'header: repeated key "t_end"$'),
    (_names_not_utf8, 2, "not UTF-8 text: invalid start byte at byte 1$"),
    (_sign_inside_a_value, 6, "could not convert string to float: b'1\\.-2'$"),
    (_two_points_in_a_value, 6, "could not convert string to float: b'1\\.2\\.3'$"),
])
def test_malformed_csv_is_rejected(short_record, tmp_path, capsys, corrupt, line, message):
    path = tmp_path / "run.csv"
    short_record.to_csv(path)
    lines = path.read_bytes().split(b"\n")
    corrupt(lines)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=f"line {line}: .*{message}"):
        RunRecord.from_csv(path)
    assert main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: line {line}: " in err



def _edited(meta: dict, edit) -> dict:
    """A deep copy of meta with a dotted key path removed, or with
    edit = (key path, value) set to that value."""
    keys, value = (edit, None) if isinstance(edit, str) else edit
    meta = json.loads(json.dumps(meta))
    *parents, last = keys.split(".")
    node = meta
    for key in parents:
        node = node[key]
    if isinstance(edit, str):
        del node[last]
    else:
        node[last] = value
    return meta


def _with_meta(record, path, edit) -> None:
    """Write record to path with the meta on its line 1 replaced by edit(meta)."""
    record.to_csv(path)
    lines = path.read_bytes().split(b"\n")
    lines[0] = b"# " + json.dumps(edit(json.loads(lines[0][2:]))).encode()
    path.write_bytes(b"\n".join(lines))


def _bad_strings(value):
    return pytest.param(("header.scenario.strings", value),
                        "line 1: header.scenario.strings: expected a non-empty list, "
                        f"got {json.dumps(value)}", id=f"strings={json.dumps(value)}")


def _bad_target(ramp, value, reason=None, label=None):
    # None: the type error of the leaf rule of a float
    return pytest.param((f"header.scenario.{ramp}.target", value),
                        f"header.scenario.{ramp}.target: "
                        f"{reason or f'expected float, got {value!r}'}",
                        id=f"{ramp}.target={label or json.dumps(value)}")


def _bad_sim(key, value, tail):
    # None: the off-grid horizon error of schema.samples
    message = (f"header.sim.{key}{tail}" if tail is not None else
               f"header.sim.{key} must be a whole number >= 1 of control samples of "
               f"0.0002 s, got {value}")
    return pytest.param((f"header.sim.{key}", value), message,
                        id=f"sim.{key}={json.dumps(value)}")


@pytest.mark.parametrize("edit, message", [
    ("header.scenario", "line 1: missing key header.scenario.strings"),
    ("header.scenario.strings", "line 1: missing key header.scenario.strings"),
    ("status", "line 1: missing key status"),
    ("diverged_at", "line 1: missing key diverged_at"),
    ("header.scenario.v_ext", "missing key header.scenario.v_ext.target"),
    ("header.scenario.p_ref.target", "missing key header.scenario.p_ref.target"),
    *map(_bad_strings, [2, 2.0, "2", True, []]),
    ("header.sim", "missing key header.sim.ts_control"),
    ("header.sim.t_end", "missing key header.sim.t_end"),
    ("header.sim.record_decimation", "missing key header.sim.record_decimation"),
    _bad_sim("ts_control", 0.0, " must be positive, got 0.0"),
    _bad_sim("ts_control", "2e-4", ": expected float, got '2e-4'"),
    _bad_sim("t_end", None, ": expected float, got None"),
    _bad_sim("t_end", 0.1001, None),
    pytest.param(("header.sim.ts_control", 5e-324), "header.sim.t_end must be a whole number "
                 ">= 1 of control samples of 5e-324 s, got 0.1", id="sim.ts_control=5e-324"),
    _bad_sim("record_decimation", 0, " must be positive, got 0"),
    *(_bad_sim("record_decimation", value, f": expected int, got {value!r}")
      for value in (2.0, True, "2")),
    _bad_target("p_ref", "0.8"), _bad_target("v_ext", None), _bad_target("v_ext", True),
    *(_bad_target(ramp, value, f"{value} is not a finite number") for ramp in ("v_ext", "p_ref")
      for value in (np.nan, np.inf, -np.inf)),
    # Integers too large for a float64 read as an infinity of their sign.
    *(_bad_target(ramp, value, f"{sign}inf is not a finite number", label)
      for ramp in ("v_ext", "p_ref")
      for value, sign, label in ((10**400, "", "10**400"), (-10**400, "-", "-10**400"))),
])
def test_record_header_without_a_read_key_is_a_usage_error(short_record, tmp_path, capsys,
                                                            edit, message):
    path = tmp_path / "run.csv"
    _with_meta(short_record, path, lambda meta: _edited(meta, edit))
    assert main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"{message}\n")
    if message.startswith("line 1:"):
        assert f"{path}: {message}" in err


def test_a_header_integer_past_the_conversion_limit_names_the_file(short_record, tmp_path,
                                                                    capsys):
    # json.loads refuses an integer of more than 4300 digits (the default
    # int-string conversion limit) with a bare ValueError.
    path = tmp_path / "run.csv"
    short_record.to_csv(path)
    lines = path.read_bytes().split(b"\n")
    lines[0] = lines[0].replace(b'"target": 0.8', b'"target": ' + b"9" * 5001, 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=f"^{path}: line 1: header: Exceeds the limit"):
        RunRecord.from_csv(path)
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 1: header: ")


@pytest.mark.parametrize("rows", [125, 0])
def test_a_truncated_converged_record_is_a_usage_error(short_record, tmp_path, capsys, rows):
    # A converged run of 0.1 s at 200 us, recording every 2nd sample, records
    # 251 rows; fewer would be judged on a window that is not the run's end.
    path = tmp_path / "run.csv"
    short_record.to_csv(path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 2 + 251
    path.write_bytes(b"".join(lines[:2 + rows]))
    assert main(["metrics", str(path)]) == 1
    assert (f"error: {path}: header.sim.t_end: a converged run of 0.1 s at ts_control "
            f"0.0002 s and record_decimation 2 records 251 rows, this record has {rows}\n"
            == capsys.readouterr().err)
    # A run that diverged at step d records steps 0 ... d - 1: 125 rows to 0.05 s, none at 0.
    meta = json.loads(lines[0][2:]) | {"status": "diverged", "diverged_at": rows * 0.0004}
    path.write_bytes(b"# " + json.dumps(meta).encode() + b"\n" + b"".join(lines[1:2 + rows]))
    assert main(["metrics", str(path)]) == 0


@pytest.mark.parametrize("diverged_at, t_end, message", [
    # A converged 0.1 s record relabelled as diverged at 0.05 s keeps rows past its horizon.
    (0.05, 0.05, "diverged_at: a run that diverged at 0.05 s at ts_control 0.0002 s and "
                 "record_decimation 2 records 125 rows, this record has 251"),
    (0.1, 0.1, "diverged_at: a run that diverged at 0.1 s at ts_control 0.0002 s and "
               "record_decimation 2 records 250 rows, this record has 251"),
    (0.2, 0.1, "diverged_at: 0.2 s is past sim.t_end, 0.1 s"),
    (0.05001, 0.1, "diverged_at must be a whole number >= 0 of control samples of 0.0002 s, "
                   "got 0.05001"),
], ids=["relabelled", "one-row-too-many", "past-the-horizon", "off-the-grid"])
def test_a_diverged_record_must_hold_the_rows_before_diverged_at(short_record, tmp_path, capsys,
                                                                 diverged_at, t_end, message):
    path = tmp_path / "run.csv"
    _with_meta(short_record, path, lambda meta: _edited(meta, ("header.sim.t_end", t_end))
               | {"status": "diverged", "diverged_at": diverged_at})
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("status", ["converged", "diverged"])
@pytest.mark.parametrize("edit", ["repeated", "nan", "descending"])
def test_a_time_column_off_the_sample_grid_is_a_usage_error(short_record, tmp_path, capsys,
                                                            status, edit):
    # Row i was recorded at i * record_decimation * ts_control; a diverged run's rows are a prefix.
    rows = 251 if status == "converged" else 125
    table = short_record.table[:rows].copy()
    t = table[:, 0]
    if edit == "repeated":
        t[1] = t[0]  # a zero sample period
    elif edit == "nan":
        t[:] = np.nan
    else:
        t[:] = t[::-1].copy()
    first = 1 if edit == "repeated" else 0
    path = tmp_path / "run.csv"
    RunRecord(short_record.header, table,
              diverged_at=0.05 if status == "diverged" else None).to_csv(path)
    assert main(["metrics", str(path)]) == 1
    assert (f"error: {path}: t: sample {first} is at {t[first]} s, off the record's grid of "
            "2 x 0.0002 s steps\n" == capsys.readouterr().err)


_CONVERGED_OR_DIVERGED = 'status: expected "converged" or "diverged", got '
_NULL_WHEN_CONVERGED = "diverged_at: expected null for a converged run, got "
_FINITE_WHEN_DIVERGED = "diverged_at: expected a finite number for a diverged run, got "


def _bad_status(status, diverged_at, message):
    return pytest.param(status, diverged_at, message,
                        id=f"status={json.dumps(status)},diverged_at={json.dumps(diverged_at)}")


@pytest.mark.parametrize("status, diverged_at, message", [
    _bad_status("exploded", None, _CONVERGED_OR_DIVERGED + '"exploded"'),
    _bad_status("Converged", None, _CONVERGED_OR_DIVERGED + '"Converged"'),
    _bad_status(None, None, _CONVERGED_OR_DIVERGED + "null"),
    _bad_status(["diverged"], 0.5, _CONVERGED_OR_DIVERGED + '["diverged"]'),
    _bad_status("converged", 0.5, _NULL_WHEN_CONVERGED + "0.5"),
    _bad_status("converged", False, _NULL_WHEN_CONVERGED + "false"),
    _bad_status("diverged", None, _FINITE_WHEN_DIVERGED + "null"),
    _bad_status("diverged", "0.5", _FINITE_WHEN_DIVERGED + '"0.5"'),
    _bad_status("diverged", True, _FINITE_WHEN_DIVERGED + "true"),
    _bad_status("diverged", np.nan, _FINITE_WHEN_DIVERGED + "NaN"),
    _bad_status("diverged", np.inf, _FINITE_WHEN_DIVERGED + "Infinity"),
    _bad_status("diverged", [0.5], _FINITE_WHEN_DIVERGED + "[0.5]"),
    # An int beyond float64 is no finite time: it reads as an infinity.
    pytest.param("diverged", 10**400, "diverged_at: inf is not a finite number",
                 id='status="diverged",diverged_at=10**400'),
    pytest.param("diverged", -10**400, "diverged_at: -inf is not a finite number",
                 id='status="diverged",diverged_at=-10**400'),
])
def test_record_header_with_a_bad_status_is_a_usage_error(short_record, tmp_path, capsys,
                                                          status, diverged_at, message):
    path = tmp_path / "run.csv"
    _with_meta(short_record, path,
               lambda meta: meta | {"status": status, "diverged_at": diverged_at})
    with pytest.raises(ValueError) as exc:
        RunRecord.from_csv(path)
    assert str(exc.value) == f"{path}: line 1: {message}"
    assert main(["metrics", str(path)]) == 1
    printed = capsys.readouterr()
    assert f"{path}: line 1: {message}" in printed.err and printed.out == ""


@pytest.mark.parametrize("status, diverged_at", [("converged", None), ("diverged", 0.05),
                                                 ("diverged", 0)])
def test_record_header_status_values_that_load(short_record, tmp_path, status, diverged_at):
    # A run that diverged at t holds the rows recorded before t.
    rows = 251 if diverged_at is None else round(diverged_at / 0.0004)
    path = tmp_path / "run.csv"
    RunRecord(short_record.header, short_record.table[:rows], diverged_at=diverged_at).to_csv(path)
    back = RunRecord.from_csv(path)
    assert (back.status, back.diverged_at) == (status, diverged_at)
    assert main(["metrics", str(path)]) == 0


def test_a_records_status_is_read_from_its_diverged_at(short_record):
    # diverged_at is the one outcome value: a status can be neither passed nor set.
    header, table = short_record.header, short_record.table
    for status, diverged_at in [("diverged", None), ("Diverged", 0.01)]:
        with pytest.raises(TypeError):
            RunRecord(header, table, status, diverged_at)
    rec = RunRecord(header, table[:25], diverged_at=0.01)
    assert rec.status == "diverged"
    with pytest.raises(AttributeError):
        rec.status = "converged"


def test_record_with_an_empty_header_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "run.csv"
    path.write_text('# {"header": {}, "status": "converged", "diverged_at": null}\nt\n')
    with pytest.raises(ValueError, match="line 1: missing key header.scenario.strings"):
        RunRecord.from_csv(path)
    assert main(["metrics", str(path)]) == 1
    assert f"{path}: line 1: missing key header.scenario.strings" in capsys.readouterr().err


def test_a_header_restating_the_string_count_and_bases_still_loads(short_record, tmp_path,
                                                                    capsys):
    # Older records restate scenario.n_strings and the bases omega_base and
    # n_wt; those keys are ignored, and the metrics are the same.
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    short_record.to_csv(new)
    lines = new.read_bytes().split(b"\n")
    meta = json.loads(lines[0][2:])
    header = meta["header"]
    header["scenario"]["n_strings"] = len(header["scenario"]["strings"])
    header["bases"].update(omega_base=header["scenario"]["plant"]["omega_base"],
                           n_wt=header["scenario"]["plant"]["n_wt"])
    lines[0] = b"# " + json.dumps(meta, sort_keys=True).encode()
    old.write_bytes(b"\n".join(lines))
    back = RunRecord.from_csv(old)
    assert back.n_strings == 2 and back.header == header
    _assert_same_floats(back, short_record)
    printed = []
    for path in (new, old):
        assert main(["metrics", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_header_string_count_alone_costs_no_work(tmp_path):
    # A header listing 10^4 strings is refused on line 2 without building
    # its 1.2 * 10^5 column names (about 8 MiB); reading and parsing the
    # header line itself peaks at about 0.15 MiB.
    path = tmp_path / "run.csv"
    meta = {"header": {"scenario": {"strings": [0] * 10**4}}, "status": "converged",
            "diverged_at": None}
    path.write_text(f"# {json.dumps(meta)}\nt\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="line 2: column names differ from the "
                                             "120004 columns of a 10000-string record"):
            RunRecord.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
