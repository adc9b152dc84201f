"""The JSON form of every record, read from its field annotations.

A record is a dataclass or a NamedTuple. ``to_json`` writes its fields in
declaration order and leaves out a field still at its default;
``from_json`` reads one back, checking every value against its annotation;
``conforms`` makes the same check on a value built in Python. A bool is
not an int, and a float is a finite real. Bytes are hex and an enum is its
value. A union of records is told apart by the non-field class attribute
``json_kind``, written as ``"kind"``. The field table of each class is
built once and cached.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from enum import Enum
from functools import lru_cache
from typing import Any, Tuple, Union

TAG = "kind"
MISSING = dataclasses.MISSING
_NONE = type(None)


def _is_record(ann) -> bool:
    return isinstance(ann, type) and (
        dataclasses.is_dataclass(ann) or (issubclass(ann, tuple) and hasattr(ann, "_fields")))


@lru_cache(maxsize=None)
def fields(cls) -> Tuple[Tuple[str, Any, Any], ...]:
    """(name, annotation, default) of each field of a record class, in
    declaration order; the default is ``MISSING`` for a required field."""
    hints = typing.get_type_hints(cls)
    if dataclasses.is_dataclass(cls):
        return tuple((f.name, hints[f.name], f.default if f.default_factory is MISSING
                      else f.default_factory()) for f in dataclasses.fields(cls))
    return tuple((name, hints[name], cls._field_defaults.get(name, MISSING))
                 for name in cls._fields)


def _plain(value):
    if _is_record(type(value)):
        return to_json(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def to_json(record) -> dict:
    """The record as a JSON object: its tag, if it has one, then each field
    not at its default."""
    cls = type(record)
    out = {TAG: cls.json_kind} if hasattr(cls, "json_kind") else {}
    for name, _, default in fields(cls):
        value = getattr(record, name)
        if default is MISSING or value != default:
            out[name] = _plain(value)
    return out


_SCALARS = {
    int: lambda v: type(v) is int or (isinstance(v, numbers.Integral)
                                      and not isinstance(v, bool)),
    float: lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                      and math.isfinite(v)),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
}


def _path(where) -> str:
    """A path kept as nested (parent, step) pairs until an error needs it."""
    if not isinstance(where, tuple):
        return where
    parent, step = where
    return _path(parent) + (f"[{step}]" if isinstance(step, int) else f".{step}")


def _fail(error, where, expected: str, value):
    raise error(f"{_path(where)}: expected {expected}, got {value!r}")


@lru_cache(maxsize=None)
def _shape(ann) -> tuple:
    """An annotation's scalar check, origin and arguments, for ``_walk``."""
    return _SCALARS.get(ann), typing.get_origin(ann), typing.get_args(ann)


def _walk(ann, v, error, where, read: bool):
    """``v`` checked against ``ann``, raising ``error`` at the first value
    that does not fit. With ``read``, ``v`` is JSON and comes back in its
    Python form; without, ``v`` is a Python value and comes back as it is."""
    check, origin, args = _shape(ann)
    if check is not None:
        return v if check(v) else _fail(
            error, where, "a finite number" if ann is float else ann.__name__, v)
    if origin is Union:
        if v is None and _NONE in args:
            return None
        members = [a for a in args if a is not _NONE]
        if len(members) > 1:
            tag = v.get(TAG) if read and isinstance(v, dict) else getattr(v, "json_kind", None)
            members = [m for m in members if m.json_kind == tag] or _fail(
                error, where, f"one of kinds {[m.json_kind for m in args]}", v)
        return _walk(members[0], v, error, where, read)
    if origin is tuple:
        if not isinstance(v, (list, tuple) if read else tuple):
            _fail(error, where, "an array", v)
        variadic = args[-1:] == (Ellipsis,)
        check = variadic and _shape(args[0])[0]
        if check and all(map(check, v)):
            return tuple(v)  # scalars all fit: the common case, checked in one pass
        items = args[:1] * len(v) if variadic else args
        if len(v) != len(items):
            _fail(error, where, f"an array of {len(items)}", v)
        return tuple([_walk(a, x, error, (where, i), read)
                      for i, (a, x) in enumerate(zip(items, v))])
    if _is_record(ann):
        table = fields(ann)
        if not read:
            if not isinstance(v, ann):
                _fail(error, where, ann.__name__, v)
            for name, a, _ in table:
                _walk(a, getattr(v, name), error, (where, name), False)
            return v
        if not isinstance(v, dict):
            _fail(error, where, "an object", v)
        tag = getattr(ann, "json_kind", None)
        unknown = set(v) - {name for name, _, _ in table} - ({TAG} if tag else set())
        missing = [name for name, _, default in table if default is MISSING and name not in v]
        if unknown or missing:
            raise error(f"{_path(where)}: unknown fields {sorted(unknown)}, missing {missing}")
        if tag is not None and v.get(TAG) != tag:
            _fail(error, (where, TAG), repr(tag), v.get(TAG))
        return ann(**{name: _walk(a, v[name], error, (where, name), True)
                      for name, a, _ in table if name in v})
    if issubclass(ann, Enum):
        out = next((m for m in ann if m.value == v), None) if read else v
        return out if isinstance(out, ann) else _fail(
            error, where, f"one of {[m.value for m in ann]}", v)
    if not read:  # bytes
        return v if isinstance(v, bytes) else _fail(error, where, "bytes", v)
    try:
        return bytes.fromhex(v)
    except (TypeError, ValueError):
        _fail(error, where, "a hex string", v)


def from_json(annotation, data, error: type, where: str = "value"):
    """``data`` read as the annotated type; raises ``error`` naming the path,
    under ``where``, of the first value that does not fit."""
    return _walk(annotation, data, error, where, True)


class _Mismatch(Exception):
    pass


def conforms(value, annotation) -> bool:
    """True iff ``value``, built in Python, is of the annotated type."""
    try:
        _walk(annotation, value, _Mismatch, "value", False)
    except _Mismatch:
        return False
    return True
