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
same bytes is left untouched, and a missing directory is made.

Run as a script, this module is a sweep's writer process (`RunWriter`): it
reads pickled batches of writes and removals from stdin and makes each in
order. It imports no numpy.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import pickle
import sys
import threading
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


def _refuse(name: str, kind: str, v):
    raise ValueError(f"{name} must be {kind}, got {v!r}")


def _converter(hint, name: str):
    """A function that turns a JSON or YAML value of field `name` into a value of
    type `hint`. A tuple takes only a list (or tuple), a str only a string and a
    dict only a mapping; an int or bool only its own type (a bool is no int), a
    float any number or numeric string but a bool (PyYAML reads `1e-6` as a string)."""
    if dataclasses.is_dataclass(hint):
        return lambda v: v if isinstance(v, hint) else from_dict(hint, v)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        item = _converter(args[0], name)
        return lambda v: tuple(map(item, v)) if isinstance(v, (list, tuple)) else _refuse(name, "a list", v)
    if type(None) in args:  # X | None
        (inner,) = (a for a in args if a is not type(None))
        inner = _converter(inner, name)
        return lambda v: None if v is None else inner(v)
    if hint in (str, dict):
        kind = "a string" if hint is str else "a mapping"
        return lambda v: hint(v) if isinstance(v, hint) else _refuse(name, kind, v)

    def convert(v):
        if type(v) is hint or hint is float and not isinstance(v, bool):
            try:
                return hint(v)
            except (TypeError, ValueError, OverflowError):  # OverflowError: a huge int as a float
                pass
        _refuse(name, hint.__name__, v)
    return convert


@functools.cache
def _converters(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {name: _converter(hints[name], name) for name in _field_names(cls)}


@functools.cache
def _required(cls) -> frozenset[str]:
    return frozenset(f.name for f in dataclasses.fields(cls)
                     if f.default is f.default_factory is dataclasses.MISSING)


def from_dict(cls, d):
    """Build dataclass `cls`, nested dataclasses included, from a JSON or YAML
    mapping. Each value is converted by its field's type hint. A value of another
    type, an omitted key without a default and a key that names no field raise ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a mapping, got {type(d).__name__}")
    convert = _converters(cls)
    unknown = d.keys() - convert.keys()
    if unknown:
        raise ValueError(f"{cls.__name__} has no field {', '.join(sorted(map(repr, unknown)))}")
    if missing := _required(cls) - d.keys():
        raise ValueError(f"{cls.__name__} needs {', '.join(sorted(missing))}")
    return cls(**{k: convert[k](v) for k, v in d.items()})


_capture = threading.local()  # the batch of a thread inside `RunWriter.hand_off`


def _replace_with(path, text: str | None) -> None:
    """Write `text` to `path`, or remove `path` when `text` is None."""
    if (files := getattr(_capture, "files", None)) is not None:
        return files.append((os.fspath(path), text))
    path = Path(path)
    if text is None:
        return path.unlink(missing_ok=True)
    data = text.encode("ascii")
    if path.is_file() and path.read_bytes() == data:
        return  # a resume rewrites no unchanged file (renaming over one flushes it on ext4)
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove(path) -> None:
    _replace_with(path, None)


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


class RunWriter:
    """A sweep's writer process: `python -I -S` running this module, started on
    the first hand-off. Each run's files go to it over a pipe, one batch and one
    flush per run, and it makes them in order, so a run's disk writes overlap
    the next run's search."""

    def __init__(self) -> None:
        self.proc, self.lock = None, threading.Lock()  # worker threads share the writer

    def hand_off(self, run, *args) -> None:
        """`run(*args)` with this thread's writes and removals recorded, not made,
        then handed to the writer; if `run` raises, they are dropped."""
        _capture.files = files = []
        try:
            run(*args)
        finally:
            del _capture.files
        with self.lock:
            if self.proc is None:
                import subprocess  # here, so that an import of nnpatch pays nothing for it
                self.proc = subprocess.Popen([sys.executable, "-I", "-S", __file__], stdin=subprocess.PIPE,
                                             stderr=subprocess.PIPE, start_new_session=True)
            # a writer stopped by an error breaks the pipe; close() raises that error
            pickle.dump(files, self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()

    def close(self) -> None:
        """Wait until every hand-off is made and reap the writer. A writer that
        failed raises its error, which names the file, as OSError."""
        if self.proc is not None:
            err = self.proc.communicate()[1].decode(errors="replace").strip()
            if self.proc.returncode:
                raise OSError(err or f"the run writer exited with status {self.proc.returncode}")


if __name__ == "__main__":  # the writer process of a RunWriter
    try:
        while True:
            for path, text in pickle.load(sys.stdin.buffer):
                _replace_with(path, text)
    except (EOFError, pickle.UnpicklingError):  # the end, or a hand-off cut by an interrupt
        os._exit(0)  # every file is made: the sweep's drain need not wait for the teardown
    except OSError as exc:
        sys.exit(str(exc))
