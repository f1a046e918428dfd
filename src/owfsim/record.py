"""Run records: the sampled time series of every labeled signal, plus CSV I/O.

The CSV layout is fixed and documented in the README: comment lines starting
with '#' carry a JSON header that fully reconstructs the run (scenario
document, simulation config, status), followed by a column-name row and
RFC-4180-style rows with dot-decimal floats.  Writing is deterministic, so
identical runs produce bit-identical files.

STRING_COLUMNS is the one statement of the per-string columns: their names,
their order and the value sim.recorder takes for each.  A record is its
table: one float64 row per sample, in column_names order, as sim.run packs
its rows and from_csv parses its block.  Its columns are read-only
views into that table, made once when the record is: a table of another
width is refused then.  A stiff-bus run records its held +0.0 DC states.
Its outcome is ``diverged_at`` alone (None: converged); ``status`` reads it.

Data rows are written and read through ``orjson`` in chunks of
``CHUNK_ROWS`` rows of the table, so the text and parsed values of only one
chunk are held at a time: what a record's I/O holds above its table does
not grow with the record.  A finite chunk is dumped as one flat JSON list,
and one numpy edit of its bytes turns each row's last comma and the closing
bracket into line ends.  Each finite float is written as its shortest
decimal that reads back to the same float64; the exponent style may differ
from Python ``repr`` (``1e-9`` for ``1e-09``, ``0.00001`` for ``1e-05``).
JSON has no non-finite numbers, so a chunk that holds one is written as
``repr`` text (``nan``, ``inf``, ``-inf``); no data row holds ``null``.

Reading checks each chunk once: with digits, signs and exponent marks
deleted, what is left must be one decimal point per value, n values per line
and commas between.  Such a chunk is parsed by one ``orjson`` call on the
flat list.  Any other chunk is read value by value with ``float``, which
names the line of a malformed row: non-finite values, other line endings,
and values without a point (``1e-9``, or an integer such as ``-0``, which
``orjson`` would read as int 0 and so lose its sign; ``float`` gives -0.0).
Either way every float64 round-trips bit-exactly, and files written with
``repr`` for every value load bit-identically.  The header line is stdlib
``json``; a disabled ``p_min`` is ``null`` there, as is an energy-audit
residual that is not finite, so headers written since schema 1 are standard
JSON (older ones may hold ``-Infinity`` or ``NaN``, which still load).  Its
``status`` must be ``converged`` with a null ``diverged_at``, or ``diverged``
with a finite one.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType

import numpy as np
import orjson

from .schema import leaf, unique_keys

STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"

# Per-string signals, in order, each mapped to the value sim.recorder records
# for string k (column_names appends '_{k}', the 1-based index): y is the plant
# state, indexed by state name, o_{k} string k's controller output at the
# sample, and w * t the angle of the frame rotating at omega_base at time t.
STRING_COLUMNS = {
    "vpcc_mag": "abs(y[v_pcc_{k}])", "p": "o_{k}.p", "q": "o_{k}.q", "p_virt": "o_{k}.p_virt",
    "q_virt": "o_{k}.q_virt", "i_mag": "abs(y[i_conv_{k}])", "i_ref0_mag": "abs(o_{k}.i_ref0)",
    "omega": "o_{k}.omega", "v_ref": "o_{k}.v_ref", "phi_rel": "wrap_angle(o_{k}.phi - w * t)",
    "lim_p": "1.0 if o_{k}.lim_p_active else 0.0", "lim_i": "1.0 if o_{k}.lim_i_active else 0.0"}
DC_COLUMNS = ("v_on", "v_dc_off", "i_dc")

# Rows per chunk of CSV data written or read at once.  On a 4.0 MiB ramp
# record, tracemalloc put to_csv's transients at 0.75 MiB with 512 rows, 0.38
# with 256 and 0.32 with 128, from_csv's above its table at 1.25, 0.63 and
# 0.33 MiB.  64 rows lowered the ramp benchmark's peak RSS no further and
# slowed its records workload (more orjson calls) by about 2 %.
CHUNK_ROWS = 128

# Every byte but the decimal point that a finite float can be written with.
_DIGITS_SIGNS_EXPONENTS = b"0123456789+-eE"


def column_names(n_strings: int) -> list[str]:
    names = ["t"]
    for k in range(1, n_strings + 1):
        names += [f"{c}_{k}" for c in STRING_COLUMNS]
    names += list(DC_COLUMNS)
    return names


@dataclass
class RunRecord:
    header: dict
    table: np.ndarray  # (samples, len(column_names(n_strings))) float64
    diverged_at: float | None = field(default=None, kw_only=True)  # None: it converged
    columns: MappingProxyType[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = column_names(self.n_strings)
        self.columns = MappingProxyType(dict(zip(names, self.table.T, strict=True)))

    def __reduce__(self):  # pickle and copy the table; the columns are made from it
        return type(self), (self.header, self.table), {"diverged_at": self.diverged_at}

    @property
    def status(self) -> str:
        return STATUS_CONVERGED if self.diverged_at is None else STATUS_DIVERGED

    @property
    def n_strings(self) -> int:
        return len(self.header["scenario"]["strings"])

    @property
    def t(self) -> np.ndarray:
        return self.table[:, 0]

    def col(self, name: str, k: int | None = None) -> np.ndarray:
        """String k's column; without k, a STRING_COLUMNS name's (n_strings, samples)
        block, a read-only view of the table."""
        if k is None and name in STRING_COLUMNS:
            start, step = 1 + list(STRING_COLUMNS).index(name), len(STRING_COLUMNS)
            block = self.table[:, start:start + step * self.n_strings:step].T
            block.flags.writeable = False
            return block
        return self.columns[name if k is None else f"{name}_{k}"]

    def to_csv(self, path) -> None:
        meta = {"header": self.header, "status": self.status, "diverged_at": self.diverged_at}
        with open(path, "wb") as f:
            f.write(("# " + json.dumps(meta, sort_keys=True) + "\n").encode())
            f.write((",".join(self.columns) + "\n").encode())
            for start in range(0, len(self.table), CHUNK_ROWS):
                f.write(_format_rows(self.table[start:start + CHUNK_ROWS]))

    @classmethod
    def from_csv(cls, path) -> "RunRecord":
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
        with f:
            first = f.readline()
            if not first.startswith(b"# "):
                raise ValueError(f"{path}: missing JSON header line")
            try:
                meta = json.loads(_text(first[2:], path, 1), object_pairs_hook=unique_keys)
            except json.JSONDecodeError as exc:  # its line and column are the JSON text's
                raise ValueError(f"{path}: line 1: header is not JSON: {exc.msg} "
                                 f"at column {exc.pos + 3}") from None
            except RecursionError as exc:  # nested past the recursion limit
                raise ValueError(f"{path}: line 1: header is not JSON: {exc}") from None
            except ValueError as exc:  # an integer past the int-string conversion limit
                raise ValueError(f"{path}: line 1: header: {exc}") from None
            require_keys(meta, ("header.scenario.strings", "status", "diverged_at"),
                         f"{path}: line 1")
            _check_status(meta["status"], meta["diverged_at"], f"{path}: line 1")
            strings = meta["header"]["scenario"]["strings"]
            if type(strings) is not list or not strings:
                raise ValueError(f"{path}: line 1: header.scenario.strings: expected a "
                                 f"non-empty list, got {json.dumps(strings)}")
            n_strings = len(strings)
            names = _text(f.readline(), path, 2).strip().split(",")
            # Count first: the names are built only for a row that can match them.
            width = 1 + len(STRING_COLUMNS) * n_strings + len(DC_COLUMNS)
            if len(names) != width or names != column_names(n_strings):
                raise ValueError(f"{path}: line 2: column names differ from the "
                                 f"{width} columns of a {n_strings}-string record")
            body = f.tell()
            data = np.empty((sum(1 for _ in f), len(names)))
            f.seek(body)
            for start in range(0, len(data), CHUNK_ROWS):
                chunk = data[start:start + CHUNK_ROWS]
                _parse_rows(list(islice(f, len(chunk))), chunk, path, start + 3)
        return cls(meta["header"], data, diverged_at=meta["diverged_at"])


def _text(line: bytes, path, number: int) -> str:
    """Line ``number`` of ``path`` as UTF-8 text, without its line ending."""
    try:
        return line.rstrip(b"\r\n").decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: line {number}: not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start + 1}") from None


def require_keys(tree, paths, where: str) -> None:
    """Raise a ValueError naming `where` and the first dotted key path missing from tree."""
    for keys in paths:
        node = tree
        for key in keys.split("."):
            if not isinstance(node, dict) or key not in node:
                raise ValueError(f"{where}: missing key {keys}")
            node = node[key]


def _check_status(status, diverged_at, where: str) -> None:
    """Raise a ValueError naming `where` unless status is converged with a null
    diverged_at, or diverged at a finite time."""
    if status not in (STATUS_CONVERGED, STATUS_DIVERGED):
        raise ValueError(f'{where}: status: expected "{STATUS_CONVERGED}" or '
                         f'"{STATUS_DIVERGED}", got {json.dumps(status)}')
    if status == STATUS_CONVERGED:
        if diverged_at is not None:
            raise ValueError(f"{where}: diverged_at: expected null for a converged run, "
                             f"got {json.dumps(diverged_at)}")
    elif not (type(diverged_at) is int
              or type(diverged_at) is float and math.isfinite(diverged_at)):
        raise ValueError(f"{where}: diverged_at: expected a finite number for a diverged "
                         f"run, got {json.dumps(diverged_at)}")
    else:  # an int beyond float64 reads as an infinity
        leaf(float, diverged_at, f"{where}: diverged_at")


def _format_rows(block: np.ndarray) -> bytes:
    """CSV text of a float64 block, one line per row."""
    if np.isfinite(block).all():
        # One flat JSON list; each row's last comma and the closing bracket become line ends.
        text = np.frombuffer(orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY),
                             dtype=np.uint8).copy()
        width = block.shape[1]
        text[np.flatnonzero(text == ord(","))[width - 1::width]] = ord("\n")
        text[-1] = ord("\n")
        return text[1:].tobytes()
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def _parse_rows(lines: list[bytes], out: np.ndarray, path, first: int) -> None:
    """Parse the data lines numbered from ``first`` in ``path`` into the rows of ``out``."""
    n = out.shape[1]
    text = b"".join(lines).removesuffix(b"\n")
    # Digits, signs and exponent marks aside, a chunk of finite rows is one
    # decimal point per value, n per line, with commas between.  A value
    # without a point (1e-9, or an integer such as -0, which orjson would read
    # as int 0 without its sign) sends the chunk value by value.
    points = b"\n".join([b",".join([b"."] * n)] * len(lines))
    if text.translate(None, _DIGITS_SIGNS_EXPONENTS) == points:
        try:
            values = orjson.loads(b"[" + text.replace(b"\n", b",") + b"]")
        except orjson.JSONDecodeError:
            pass
        else:
            # Straight into the chunk's rows: half the time of np.fromiter and a copy.
            struct.pack_into(f"{len(values)}d", out, 0, *values)
            return
    # Non-finite values, other line endings or a malformed chunk: value by value.
    for i, line in enumerate(lines):
        values = line.split(b",")
        if len(values) != n:
            raise ValueError(f"{path}: line {first + i}: {len(values)} values "
                             f"where the column-name row has {n}")
        try:
            out[i] = [float(v) for v in values]
        except ValueError as exc:
            raise ValueError(f"{path}: line {first + i}: {exc}") from None
