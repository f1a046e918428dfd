"""What a scenario or run setting may hold: each field's rule, stated once in
its annotation as its type and, for a constrained number, the Range it must
lie in, and each class's cross-field rule, stated once in its _rules method.
One walker applies them to a dataclass tree: read() builds one from JSON data,
refusing what is not well-typed and finite; check() refuses any rule broken in
a tree built in Python, calling each node's _rules after its fields.  Both name
the key path.  leaf() is the rule of one leaf, which the walker and a record
header's reader share; samples() is the sample-grid rule; unique_keys() is the
JSON parser's hook that refuses a repeated key in a document or a header.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing
from typing import Annotated, NamedTuple


class Range(NamedTuple):
    """The interval a number must lie in, open at an end whose bracket in `ends` is ( or )."""

    low: float
    high: float = math.inf
    ends: str = "[]"

    def require(self, value, path: str) -> None:
        above = self.low < value if self.ends[0] == "(" else self.low <= value
        below = value < self.high if self.ends[1] == ")" else value <= self.high
        if above and below:
            return
        if self.high == math.inf:  # each half-line starts at zero
            rule = "be positive" if self.ends[0] == "(" else "be nonnegative"
        else:  # each bounded field is in per unit
            rule = f"lie within {self.ends[0]}{self.low:g}, {self.high:g}{self.ends[1]} pu"
        raise ValueError(f"{path} must {rule}, got {value}")


Positive = Annotated[float, Range(0.0, ends="()")]
NonNegative = Annotated[float, Range(0.0)]
PositiveInt = Annotated[int, Range(0, ends="()")]


def samples(value: float, step: float, name: str, minimum: int = 1,
            unit: str = "control samples") -> int:
    """The whole number n >= minimum with value = n * step, to 1e-9 of a step.

    Otherwise a ValueError naming the field: an off-grid horizon or delay
    would be recorded in the header but a rounded one simulated.
    """
    ratio = value / step
    n = round(ratio) if math.isfinite(ratio) else None
    if n is None or abs(ratio - n) > 1e-9 or n < minimum:
        raise ValueError(f"{name} must be a whole number >= {minimum} of {unit} "
                         f"of {step} s, got {value}")
    return n


def unique_keys(pairs: list) -> dict:
    """json.loads's object_pairs_hook: the object's dict, a repeated key refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {json.dumps(next(k for k in keys if keys.count(k) > 1))}")
    return obj


@functools.cache
def _fields(cls) -> dict:
    """Each field of dataclass cls by name, with its resolved annotation."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def leaf(hint, value, path: str):
    """value, if it meets leaf annotation hint: its type (a bool is no number, an int
    passes for a float and returns as one), finiteness and any Range."""
    tp, *ranges = typing.get_args(hint) if typing.get_origin(hint) is Annotated else (hint,)
    if tp is float and type(value) is int:  # an int beyond float64 reads as an infinity
        big = abs(value) > sys.float_info.max
        value = (math.inf if value > 0 else -math.inf) if big else float(value)
    if not isinstance(value, tp) or (type(value) is bool and tp is not bool):
        raise ValueError(f"{path}: expected {tp.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{path}: {value} is not a finite number")
    for limit in ranges:
        limit.require(value, path)
    return value


def _walk(hint, value, path: str, document: bool):
    """The value at `path` of annotation `hint`: read from JSON data, or checked by every rule."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    tp = typing.get_args(hint)[0] if typing.get_origin(hint) is Annotated else hint
    prefix = f"{path}." if path else ""
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        if not document:
            if not isinstance(value, tp):
                raise ValueError(f"{path}: expected {tp.__name__}, got {value!r}")
            for name, field_hint in fields.items():
                _walk(field_hint, getattr(value, name), prefix + name, document)
            if hasattr(tp, "_rules"):
                try:
                    value._rules()
                except ValueError as exc:  # each message starts with a field's name
                    raise ValueError(f"{prefix}{exc}") from None
            return value
        if not isinstance(value, dict):
            raise ValueError(f"{path}: expected an object, got {value!r}")
        for key in sorted(value.keys() ^ fields.keys()):
            raise ValueError(f"{prefix}{key}: {'unknown' if key in value else 'missing'} key")
        return tp(**{n: _walk(h, value[n], prefix + n, document) for n, h in fields.items()})
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected a list, got {value!r}")
        return [_walk(typing.get_args(tp)[0], v, f"{path}[{i}]", document)
                for i, v in enumerate(value)]
    return leaf(tp if document else hint, value, path)  # a document's ranges wait for check


def read(cls: type, data):
    """The cls that JSON data describes: no key missing or unknown, each leaf typed and finite."""
    return _walk(cls, data, "", document=True)


def check(obj) -> None:
    """Refuse a dataclass tree obj that breaks a field's type, finiteness or range, or
    a node's cross-field rule, naming the key path; each node is walked once."""
    _walk(type(obj), obj, "", document=False)
