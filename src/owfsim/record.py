"""Run records: the sampled time series of every labeled signal, plus CSV I/O.

The CSV layout is fixed and documented in the README: comment lines starting
with '#' carry a JSON header that fully reconstructs the run (resolved
scenario, simulation config, status), followed by a column-name row and
RFC-4180-style rows with dot-decimal floats.  Writing is deterministic, so
identical runs produce bit-identical files.

Data rows are written and read through ``orjson`` in chunks of
``CHUNK_ROWS`` rows, so the text and the float64 block or parsed lists of
only one chunk are held at a time.  Each finite float is written as its
shortest decimal that reads back to the same float64; the exponent style may
differ from Python ``repr`` (``1e-9`` for ``1e-09``, ``0.00001`` for
``1e-05``).  JSON has no non-finite numbers, so a chunk that holds one is
written as ``repr`` text (``nan``, ``inf``, ``-inf``) and read value by value
with ``float``; no data row holds ``null``.  Either way every float64
round-trips bit-exactly, and files written with ``repr`` for every value load
bit-identically.  The header line is stdlib ``json``; a disabled ``p_min`` is
``null`` there, so headers written since schema 1 are standard JSON (older
ones may hold ``-Infinity``, which still loads).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

import numpy as np
import orjson

STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"

# Per-string signals, in order; column_names appends '_{k}', the 1-based string index.
STRING_COLUMNS = ("vpcc_mag", "p", "q", "p_virt", "q_virt", "i_mag", "i_ref0_mag",
                  "omega", "v_ref", "phi_rel", "lim_p", "lim_i")
DC_COLUMNS = ("v_on", "v_dc_off", "i_dc")

# Rows per chunk of CSV data written or read at once.
CHUNK_ROWS = 512

# Every byte a data line of finite floats can hold, in either float text form.
_FINITE_ROW_BYTES = b"0123456789.,+-eE\n"


def column_names(n_strings: int) -> list[str]:
    names = ["t"]
    for k in range(1, n_strings + 1):
        names += [f"{c}_{k}" for c in STRING_COLUMNS]
    names += list(DC_COLUMNS)
    return names


@dataclass
class RunRecord:
    header: dict
    columns: dict[str, np.ndarray]
    status: str = STATUS_CONVERGED
    diverged_at: float | None = None

    @property
    def n_strings(self) -> int:
        return self.header["scenario"]["n_strings"]

    @property
    def t(self) -> np.ndarray:
        return self.columns["t"]

    def col(self, name: str, k: int | None = None) -> np.ndarray:
        return self.columns[name if k is None else f"{name}_{k}"]

    def to_csv(self, path) -> None:
        names = column_names(self.n_strings)
        meta = {
            "header": self.header,
            "status": self.status,
            "diverged_at": self.diverged_at,
        }
        cols = [self.columns[n] for n in names]
        rows = len(cols[0])
        block = np.empty((min(rows, CHUNK_ROWS), len(cols)))
        with open(path, "wb") as f:
            f.write(("# " + json.dumps(meta, sort_keys=True) + "\n").encode())
            f.write((",".join(names) + "\n").encode())
            for start in range(0, rows, CHUNK_ROWS):
                chunk = block[:min(rows - start, CHUNK_ROWS)]
                for j, c in enumerate(cols):
                    chunk[:, j] = c[start:start + len(chunk)]
                f.write(_format_rows(chunk))

    @classmethod
    def from_csv(cls, path) -> "RunRecord":
        with open(path, "rb") as f:
            first = f.readline()
            if not first.startswith(b"# "):
                raise ValueError(f"{path}: missing JSON header line")
            meta = json.loads(first[2:])
            require_keys(meta, ("header.scenario.n_strings", "status", "diverged_at"),
                         f"{path}: line 1")
            n_strings = meta["header"]["scenario"]["n_strings"]
            if type(n_strings) is not int or n_strings < 1:  # a bool is no count
                raise ValueError(f"{path}: line 1: header.scenario.n_strings: expected an "
                                 f"integer >= 1, got {json.dumps(n_strings)}")
            names = f.readline().decode().strip().split(",")
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
        columns = {n: data[:, i] for i, n in enumerate(names)}
        return cls(header=meta["header"], columns=columns,
                   status=meta["status"], diverged_at=meta["diverged_at"])


def require_keys(tree, paths, where: str) -> None:
    """Raise a ValueError naming `where` and the first dotted key path missing from tree."""
    for keys in paths:
        node = tree
        for key in keys.split("."):
            if not isinstance(node, dict) or key not in node:
                raise ValueError(f"{where}: missing key {keys}")
            node = node[key]


def _format_rows(block: np.ndarray) -> bytes:
    """CSV text of a C-contiguous float64 block, one line per row."""
    if np.isfinite(block).all():
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        return text[2:-2].replace(b"],[", b"\n") + b"\n"
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def _parse_rows(lines: list[bytes], out: np.ndarray, path, first: int) -> None:
    """Parse the data lines numbered from ``first`` in ``path`` into the rows of ``out``."""
    n = out.shape[1]
    text = b"".join(lines)
    if not text.translate(None, _FINITE_ROW_BYTES):
        try:
            rows = orjson.loads(b"[[" + text.removesuffix(b"\n").replace(b"\n", b"],[") + b"]]")
        except orjson.JSONDecodeError:
            rows = None
        if rows is not None and all(len(row) == n for row in rows):
            out[:] = rows
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
