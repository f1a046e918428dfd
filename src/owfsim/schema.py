"""What a scenario or run setting may hold: each field's rule, stated once in
its annotation as its type and, for a constrained number, the Range it must
lie in.  One walker applies the rules to a dataclass tree: read() builds one
from JSON data, refusing what is not well-typed and finite; check() also
refuses a range broken in a tree built in Python.  Both name the key path and
word a leaf's refusal alike.  Cross-field rules stay in each validate().
"""
from __future__ import annotations

import dataclasses
import functools
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


@functools.cache
def _fields(cls) -> dict:
    """Each field of dataclass cls by name, with its resolved annotation."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _walk(hint, value, path: str, document: bool):
    """The value at `path` of annotation `hint`: read from JSON data, or checked for ranges."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    tp, *ranges = typing.get_args(hint) if typing.get_origin(hint) is Annotated else (hint,)
    prefix = f"{path}." if path else ""
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        if not document:
            if not isinstance(value, tp):
                raise ValueError(f"{path}: expected {tp.__name__}, got {value!r}")
            for name, field_hint in fields.items():
                _walk(field_hint, getattr(value, name), prefix + name, document)
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
    if tp is float and type(value) is int:  # a leaf; an int in a float field reads as a float
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, tp) or (type(value) is bool and tp is not bool):
        raise ValueError(f"{path}: expected {tp.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{path}: {value} is not a finite number")
    for limit in () if document else ranges:
        limit.require(value, path)
    return value


def read(cls: type, data):
    """The cls that JSON data describes: no key missing or unknown, each leaf typed and finite."""
    return _walk(cls, data, "", document=True)


def check(obj) -> None:
    """Refuse a value in dataclass tree obj that breaks its field's type, finiteness or range."""
    _walk(type(obj), obj, "", document=False)
