"""The one open-file layer every mount uses (``core/filesystem.py``).

SCFS and the baselines open files in the same handle table and read, write
and truncate them through the same ``OpenFile`` record, so each call means the
same thing on every mount.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.bench.targets import build_target
from repro.common.errors import InvalidHandleError, PermissionDeniedError
from repro.core.filesystem import HandleTable, OpenFile, OpenFlags

MOUNTS = ("SCFS-CoC-B", "SCFS-AWS-B", "LocalFS", "S3FS", "S3QL")


@pytest.mark.parametrize("name", MOUNTS)
def test_a_read_only_handle_refuses_a_truncate(name):
    target = build_target(name, seed=46)
    fs = target.fs
    fs.write_file("/f", b"contents")
    target.drain(3.0)
    handle = fs.open("/f", "r")
    with pytest.raises(PermissionDeniedError):
        fs.truncate(handle, 0)
    fs.close(handle)
    target.drain(3.0)
    assert fs.read_file("/f") == b"contents"


def test_a_read_only_handle_references_the_stored_bytes_and_a_writable_one_copies_them():
    stored = b"stored"
    reader = OpenFile("/f", OpenFlags.READ, stored)
    writer = OpenFile("/f", OpenFlags.READ_WRITE, stored)
    assert reader.buffer is stored
    assert writer.buffer == stored and writer.buffer is not stored
    assert writer.write(b"!", offset=8) == 8
    assert writer.read() == b"stored\x00\x00!" and writer.dirty
    assert reader.read(3, offset=2) == b"ore" and stored == b"stored"
    writer.truncate(3)
    assert writer.read() == b"sto"


def test_handles_count_from_three_and_a_closed_one_is_invalid():
    table: HandleTable[OpenFile] = HandleTable()
    first = table.add(OpenFile("/a", OpenFlags.READ, b""))
    second = table.add(OpenFile("/b", OpenFlags.READ, b""))
    assert (first, second) == (3, 4) and table[second].path == "/b"
    assert table.close(first).handle == first
    for handle in (first, 1234):
        with pytest.raises(InvalidHandleError):
            table[handle]
        with pytest.raises(InvalidHandleError):
            table.close(handle)


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Calls that change a ``bytearray`` in place.
MUTATORS = {"extend", "append", "insert", "clear", "pop", "remove", "reverse"}


def _is_buffer(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "buffer"


def _buffer_mutations(tree: ast.AST) -> list[int]:
    """Lines that change a ``<x>.buffer`` in place: slice assignment, ``del``, ``+=`` or a mutator call."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and _is_buffer(node.func.value)):
            lines.append(node.lineno)
            continue
        else:
            continue
        for target in targets:
            if ((isinstance(target, ast.Subscript) and _is_buffer(target.value))
                    or (isinstance(node, ast.AugAssign) and _is_buffer(target))):
                lines.append(node.lineno)
    return lines


def test_only_the_open_file_record_changes_a_buffer():
    """A handle's bytes change only in ``core/filesystem.py``, so no mount
    carries its own copy of the buffer arithmetic."""
    mutating = sorted(str(path.relative_to(SRC.parent)) for path in SRC.rglob("*.py")
                      if _buffer_mutations(ast.parse(path.read_text())))
    assert mutating == ["repro/core/filesystem.py"]
