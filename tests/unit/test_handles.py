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


def test_a_handle_references_the_stored_bytes_until_its_first_change():
    stored = b"stored"
    reader = OpenFile("/f", OpenFlags.READ, stored)
    writer = OpenFile("/f", OpenFlags.READ_WRITE, stored)
    assert reader.buffer is stored and writer.buffer is stored
    assert writer.read() is stored and writer.read(3) == b"sto" and not writer.dirty
    assert writer.write(b"!", offset=8) == 8
    assert writer.read() == b"stored\x00\x00!" and writer.dirty
    assert reader.buffer is stored and stored == b"stored"
    assert reader.read(3, offset=2) == b"ore"
    writer.truncate(3)
    assert writer.read() == b"sto"
    snapshot = writer.snapshot()
    assert snapshot == b"sto" and writer.buffer is snapshot and writer.snapshot() is snapshot
    writer.write(b"p", offset=2)
    assert writer.read() == b"stp" and snapshot == b"sto"
    writer.truncate(0)
    assert writer.buffer == b"" and type(writer.buffer) is bytes


def test_a_whole_write_of_bytes_adopts_them_and_any_other_change_copies():
    stored, replacement = b"stored", b"replaced"
    writer = OpenFile("/f", OpenFlags.READ_WRITE, stored)
    assert writer.write(replacement, offset=0) == 0
    assert writer.buffer is replacement and writer.read() is replacement
    assert writer.snapshot() is replacement and writer.dirty
    writer.write(b"R", offset=0)
    assert writer.read() == b"Replaced" and replacement == b"replaced"
    # Shorter than the file, past its start, or not exact bytes: one copy.
    for data, offset in ((b"sto", 0), (b"stored!", 1), (bytearray(b"stored!"), 0),
                         (memoryview(b"stored!"), 0)):
        writer = OpenFile("/f", OpenFlags.READ_WRITE, stored)
        writer.write(data, offset)
        assert type(writer.buffer) is bytearray and stored == b"stored"
    opened_on = bytearray(b"stored")
    writer = OpenFile("/f", OpenFlags.READ_WRITE, opened_on)
    opened_on[0] = ord("S")
    assert writer.read() == b"stored"


@pytest.mark.parametrize("name", ("SCFS-CoC-B", "LocalFS", "S3FS", "S3QL"))
def test_a_changed_handle_alters_no_other_holder_of_its_bytes(name):
    """Neither the stored version, the caller's bytes nor another open handle
    sees a handle's change, and a bytearray or memoryview write is copied."""
    target = build_target(name, seed=47)
    fs = target.fs
    fs.write_file("/f", b"original")
    target.drain(3.0)
    reader, writer, other = fs.open("/f", "r"), fs.open("/f", "r+"), fs.open("/f", "r+")
    fs.write(writer, b"O", 0)
    replacement = b"replacement"
    fs.write(writer, replacement, 0)
    fs.write(writer, b"R", 0)
    staged, viewed = bytearray(b"staged bytes"), bytearray(b"viewed bytes!")
    fs.write(other, staged, 0)
    staged[:] = b"STAGED BYTES"
    assert fs.read(other) == b"staged bytes"
    fs.write(other, memoryview(viewed), 0)
    viewed[:] = b"VIEWED BYTES!"
    assert fs.read(other) == b"viewed bytes!"
    assert fs.read(writer) == b"Replacement" and replacement == b"replacement"
    assert fs.read(reader) == b"original" and fs.read_file("/f") == b"original"
    for handle in (reader, other, writer):
        fs.close(handle)
    target.drain(3.0)
    assert fs.read_file("/f") == b"Replacement"


#: The mounts whose close of an unlinked file brings no name back: every
#: SCFS variant and LocalFS.  S3FS and S3QL write a dirty handle back by path.
UNLINK_MOUNTS = ("SCFS-CoC-B", "SCFS-CoC-NB", "SCFS-AWS-B", "SCFS-AWS-NB", "LocalFS")


@pytest.mark.parametrize("name", UNLINK_MOUNTS)
def test_a_close_after_unlink_brings_no_name_back(name):
    """POSIX unlink-while-open: the name goes at the unlink, the open handle
    keeps its bytes, and neither its close nor the commit it queues re-creates
    the name — before or after the background work drains."""
    target = build_target(name, seed=48)
    fs = target.fs
    handle = fs.open("/b", "w")
    fs.write(handle, b"hello")
    fs.unlink("/b")
    assert not fs.exists("/b")
    fs.close(handle)
    assert not fs.exists("/b")
    target.drain(3.0)
    assert not fs.exists("/b")


@pytest.mark.parametrize("name", UNLINK_MOUNTS)
def test_an_unlinked_handle_hides_no_file_re_created_at_its_path(name):
    """After the unlink the path may name a new file: the old handle's writes,
    its close and the commit it queues neither hide nor overwrite it, and the
    new file opens for writing while that commit is in flight."""
    target = build_target(name, seed=48)
    fs = target.fs
    handle = fs.open("/b", "w")
    fs.write(handle, b"hello")
    fs.unlink("/b")
    fs.write_file("/b", b"new")
    fs.write(handle, b", world")
    assert fs.read_file("/b") == b"new"
    fs.close(handle)
    assert fs.read_file("/b") == b"new"
    writer = fs.open("/b", "r+")
    fs.write(writer, b"N", 0)
    fs.close(writer)
    target.drain(3.0)
    assert fs.read_file("/b") == b"New"


@pytest.mark.parametrize("name", MOUNTS + ("SCFS-CoC-NB", "SCFS-AWS-NB"))
def test_an_unlinked_handle_reads_and_changes_its_own_bytes(name):
    target = build_target(name, seed=49)
    fs = target.fs
    fs.write_file("/f", b"stored")
    target.drain(3.0)
    handle = fs.open("/f", "r+")
    fs.unlink("/f")
    assert fs.read(handle) == b"stored" and not fs.exists("/f")
    fs.write(handle, b"S", 0)
    fs.truncate(handle, 4)
    assert fs.read(handle) == b"Stor" and not fs.exists("/f")
    fs.close(handle)


def test_a_write_only_open_file_refuses_a_read():
    writer = OpenFile("/f", OpenFlags.WRITE, b"data")
    with pytest.raises(PermissionDeniedError):
        writer.read()
    assert writer.write(b"!") == 4 and writer.buffer == b"data!"


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
