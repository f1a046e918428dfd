import json
import tracemalloc
from unittest import mock

import numpy as np
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
    names = column_names(1)
    return RunRecord(header={"scenario": {"strings": [{}]}},
                     columns={n: data[:, i] for i, n in enumerate(names)})


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


def test_repr_written_simulated_record_loads_bit_identically(short_record, tmp_path):
    path = tmp_path / "run.csv"
    _repr_to_csv(short_record, path)
    back = RunRecord.from_csv(path)
    assert back.header == short_record.header
    for name in short_record.columns:
        assert back.columns[name].tobytes() == short_record.columns[name].tobytes(), name


@pytest.mark.parametrize("rows", [0, 1])
def test_csv_round_trips_zero_and_one_row(short_record, tmp_path, rows):
    rec = RunRecord(header=short_record.header,
                    columns={n: c[:rows] for n, c in short_record.columns.items()})
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


def _renamed_column(lines):
    lines[1] = lines[1].replace(b"p_virt_1", b"p_virtual_1")


def _header_not_json(lines):
    lines[0] = b"# {not json"


def _header_cut_short(lines):
    lines[0] = b"# [1, 2"


def _names_not_utf8(lines):
    lines[1] = b"\xff" + lines[1]


@pytest.mark.parametrize("corrupt, line, message", [
    (_narrow_row, 6, "27 values where the column-name row has 28"),
    (_wide_row, 6, "29 values where the column-name row has 28"),
    (_renamed_column, 2, "column names differ"),
    (_header_not_json, 1, "header is not JSON: Expecting property name enclosed in double "
                          "quotes at column 4$"),
    (_header_cut_short, 1, "header is not JSON: Expecting ',' delimiter at column 8$"),
    (_names_not_utf8, 2, "not UTF-8 text: invalid start byte at byte 1$"),
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


def _bad_strings(value):
    return pytest.param(("header.scenario.strings", value),
                        "line 1: header.scenario.strings: expected a non-empty list, "
                        f"got {json.dumps(value)}", id=f"strings={json.dumps(value)}")


def _bad_target(ramp, value):
    return pytest.param((f"header.scenario.{ramp}.target", value),
                        f"header: scenario.{ramp}.target: expected a number, "
                        f"got {json.dumps(value)}", id=f"{ramp}.target={json.dumps(value)}")


@pytest.mark.parametrize("edit, message", [
    ("header.scenario", "line 1: missing key header.scenario.strings"),
    ("header.scenario.strings", "line 1: missing key header.scenario.strings"),
    ("status", "line 1: missing key status"),
    ("diverged_at", "line 1: missing key diverged_at"),
    ("header.scenario.v_ext", "header: missing key scenario.v_ext.target"),
    ("header.scenario.p_ref.target", "header: missing key scenario.p_ref.target"),
    *map(_bad_strings, [2, 2.0, "2", True, []]),
    _bad_target("p_ref", "0.8"), _bad_target("v_ext", None), _bad_target("v_ext", True),
])
def test_record_header_without_a_read_key_is_a_usage_error(short_record, tmp_path, capsys,
                                                            edit, message):
    path = tmp_path / "run.csv"
    short_record.to_csv(path)
    lines = path.read_bytes().split(b"\n")
    lines[0] = b"# " + json.dumps(_edited(json.loads(lines[0][2:]), edit)).encode()
    path.write_bytes(b"\n".join(lines))
    assert main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    if message.startswith("line 1:"):
        assert f"{path}: {message}" in err


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
