"""Every persisted byte: the dataclass serializer pair, one JSON writer and
one CSV writer.

JSON is ASCII, compact, with sorted keys and a trailing newline; a
dataclass is encoded as the dict of its fields. A CSV is one line per row,
the first row being the header, and every cell is formatted by one rule:
bool -> true/false, float -> repr(float(v)), anything else -> str. Floats
therefore round-trip bit-exactly.

Each write encodes the whole text first, writes it to a sibling
`<name>.tmp` and renames that over the target, so a failed or interrupted
write never truncates the previous file. A target that already holds the
same bytes is left untouched.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import typing
from pathlib import Path


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def as_dict(obj) -> dict:
    """A dataclass as the dict of its fields, unconverted: the `default=` hook of
    every JSON record written here, so nested dataclasses are encoded in place
    and tuples become lists. Raises TypeError on anything else, as json expects."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def _converter(hint, name: str):
    """A function that turns a JSON or YAML value of field `name` into a value of
    type `hint`. An int or bool takes only its own type (a bool is no int), a float
    any number or numeric string but a bool (PyYAML reads `1e-6` as a string)."""
    if dataclasses.is_dataclass(hint):
        return lambda v: v if isinstance(v, hint) else from_dict(hint, v)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        item = _converter(args[0], name)
        return lambda v: tuple(map(item, v))
    if type(None) in args:  # X | None
        (inner,) = (a for a in args if a is not type(None))
        inner = _converter(inner, name)
        return lambda v: None if v is None else inner(v)
    if hint not in (int, bool, float):
        return hint  # str, dict

    def convert(v):
        if type(v) is hint or hint is float and not isinstance(v, bool):
            try:
                return hint(v)
            except (TypeError, ValueError):
                pass
        raise ValueError(f"{name} must be {hint.__name__}, got {v!r}")
    return convert


@functools.cache
def _converters(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {name: _converter(hints[name], name) for name in _field_names(cls)}


def from_dict(cls, d):
    """Build dataclass `cls`, nested dataclasses included, from a JSON or YAML
    mapping. Each value is converted by its field's type hint, and one of
    another type raises ValueError; an omitted key takes the field's default;
    a key that names no field raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a mapping, got {type(d).__name__}")
    convert = _converters(cls)
    unknown = d.keys() - convert.keys()
    if unknown:
        raise ValueError(f"{cls.__name__} has no field {', '.join(sorted(map(repr, unknown)))}")
    return cls(**{k: convert[k](v) for k, v in d.items()})


def _replace_with(path, text: str) -> None:
    data = text.encode("ascii")
    path = Path(path)
    if path.is_file() and path.read_bytes() == data:
        return  # a resume rewrites no unchanged file (renaming over one flushes it on ext4)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    _replace_with(path, json.dumps(obj, default=as_dict, sort_keys=True, separators=(",", ":")) + "\n")


def read_json(path):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path, rows) -> None:
    """One line per row, its header included, every cell by the one rule."""
    _replace_with(path, "".join(",".join(map(_cell, row)) + "\n" for row in rows))
