"""The one JSON writer and the one CSV writer: their bytes, that a failed
write leaves the previous file in place, and that no other module writes."""
from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from nnpatch.formats import from_dict, read_json, write_csv, write_json


@dataclass(frozen=True)
class Point:
    y: tuple[float, ...]
    x: bool


@pytest.mark.parametrize("d, match", [
    ([0.5, True], "Point must be a mapping, got list"),
    ({"y": ["abc"], "x": True}, "y must be float, got 'abc'"),
    # a key without a default is refused as an unknown one is, not as a TypeError
    ({"y": [0.5]}, "Point needs x"),
    ({}, "Point needs x, y"),
])
def test_from_dict_refuses_what_is_no_record_of_its_class(d, match):
    with pytest.raises(ValueError, match=match):
        from_dict(Point, d)


@dataclass(frozen=True)
class Source:
    path: str
    args: dict


@pytest.mark.parametrize("cls, d, match", [
    (Point, {"y": 0.5, "x": True}, "y must be a list, got 0.5"),
    (Point, {"y": None, "x": True}, "y must be a list, got None"),
    (Point, {"y": {0.5: 1}, "x": True}, "y must be a list, got {0.5: 1}"),
    (Source, {"path": 5, "args": {}}, "path must be a string, got 5"),
    (Source, {"path": "p", "args": [1]}, r"args must be a mapping, got \[1\]"),
])
def test_from_dict_refuses_a_container_or_string_of_another_kind(cls, d, match):
    with pytest.raises(ValueError, match=match):
        from_dict(cls, d)
    assert from_dict(Source, {"path": "p", "args": {"k": 1}}) == Source("p", {"k": 1})


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [
        ("flag", "x", "lo", "k", "s"),
        (True, np.float64(0.1) + 0.2, float("-inf"), np.int64(7), "a b"),
        [False, 1.0, 1e-300, -3, ""],
    ])
    assert path.read_bytes() == (
        b"flag,x,lo,k,s\n"
        b"true,0.30000000000000004,-inf,7,a b\n"
        b"false,1.0,1e-300,-3,\n"
    )


def test_write_json_is_sorted_compact_ascii(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": Point((0.5, 2.0), True), "a": "\u00e9", "c": None})
    assert path.read_bytes() == b'{"a":"\\u00e9","b":{"x":true,"y":[0.5,2.0]},"c":null}\n'
    assert read_json(path) == {"a": "\u00e9", "b": {"x": True, "y": [0.5, 2.0]}, "c": None}


def _rows_then_fail():
    yield ("a", "b")
    raise RuntimeError("row source failed")


@pytest.mark.parametrize(
    "write, error",
    [
        (lambda p: write_json(p, {"a": object()}), TypeError),  # not encodable
        (lambda p: write_csv(p, _rows_then_fail()), RuntimeError),
        (lambda p: write_csv(p, [("caf\u00e9",)]), UnicodeEncodeError),
    ],
    ids=["json_unencodable", "csv_rows_raise", "csv_not_ascii"],
)
def test_a_failed_encoding_keeps_the_previous_file(tmp_path, write, error):
    path = tmp_path / "record"
    write_json(path, {"a": 1})
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == b'{"a":1}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["record"]


def test_a_failed_rename_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "record.csv"
    write_csv(path, [("a",), (1,)])

    def broken_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_csv(path, [("a",), (2,)])
    assert path.read_bytes() == b"a\n1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["record.csv"]


def test_unchanged_bytes_are_not_rewritten(tmp_path):
    path = tmp_path / "record.json"
    write_json(path, {"a": 1})
    inode = path.stat().st_ino
    write_json(path, {"a": 1})
    assert path.stat().st_ino == inode
    write_json(path, {"a": 2})
    assert path.read_bytes() == b'{"a":2}\n'


def _file_writes(tree):
    """(line, callee) of each call in `tree` that writes a file: write_text,
    write_bytes, json.dump, and open or Path.open in a w, a or x mode (or a
    mode that is not a literal)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif ast.unparse(func) == "json.dump":
            yield node.lineno, "json.dump"
        elif name == "open":
            at = 0 if isinstance(func, ast.Attribute) else 1  # Path.open(mode) or open(path, mode)
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax"):
                yield node.lineno, "open"


def test_only_formats_writes_files():
    src = Path(__file__).resolve().parents[1] / "src" / "nnpatch"
    modules = sorted(src.glob("*.py"))
    assert src / "formats.py" in modules
    writes = [f"{path.name}:{line} {callee}"
              for path in modules if path.name != "formats.py"
              for line, callee in _file_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert writes == []
    # the walk sees each kind of write
    probe = ast.parse("p.write_text(t); p.write_bytes(b); json.dump(o, fh); open(p, 'w');"
                      "open(p, mode='ab'); p.open('x'); open(p, m); open(p); p.open(); open(p, 'r')")
    assert [callee for _, callee in _file_writes(probe)] == [
        "write_text", "write_bytes", "json.dump", "open", "open", "open", "open"]
