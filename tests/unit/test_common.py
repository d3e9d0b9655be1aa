"""Unit tests for the shared value objects and helpers."""

import ast
from pathlib import Path

import pytest

from repro.common.errors import FileSystemError
from repro.common.types import ObjectRef, Permission, Principal
from repro.common.units import GB, KB, MB, micro_dollars


class TestPermission:
    def test_read_write_contains_both(self):
        assert Permission.READ & Permission.READ_WRITE
        assert Permission.WRITE & Permission.READ_WRITE

    def test_none_is_falsey(self):
        assert not Permission.NONE

    def test_flag_composition(self):
        assert Permission.READ | Permission.WRITE == Permission.READ_WRITE


class TestPrincipal:
    def test_canonical_id_lookup(self):
        principal = Principal("alice", (("amazon-s3", "id-123"),))
        assert principal.canonical_id("amazon-s3") == "id-123"

    def test_canonical_id_falls_back_to_name(self):
        assert Principal("alice").canonical_id("unknown-cloud") == "alice"

    def test_each_provider_knows_its_own_canonical_id(self):
        principal = Principal("alice", (("amazon-s3", "s3-id"), ("google-storage", "gcs-id")))
        assert principal.canonical_id("amazon-s3") == "s3-id"
        assert principal.canonical_id("google-storage") == "gcs-id"
        assert principal.canonical_id("rackspace-files") == "alice"

    def test_principals_are_hashable(self):
        assert {Principal("a"), Principal("a")} == {Principal("a")}


def _reads_of_the_grant_to_anyone(root: Path) -> list[str]:
    """``path:line`` of every ``<grants>.get("*", ...)`` under ``root``."""
    return [f"{path.relative_to(root).as_posix()}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == "*"
            and "grants" in ast.unparse(node.func.value)]


def test_only_the_acl_spells_out_the_access_rule():
    """Clouds, coordination replicas and file metadata decide access through ``ACL.allows``.

    The grant to any user (``"*"``) is read in ``common/types.py`` alone: a
    second spelling of "the owner, or a grant to the user or to ``*``" fails here.
    """
    sites = _reads_of_the_grant_to_anyone(Path(__file__).resolve().parents[2] / "src" / "repro")
    assert sites and all(site.startswith("common/types.py:") for site in sites), sites


class TestObjectRef:
    def test_refs_are_value_objects(self):
        assert ObjectRef("k", "d", 1) == ObjectRef("k", "d", 1)


class TestUnits:
    def test_constants(self):
        assert KB == 1024 and MB == 1024 * KB and GB == 1024 * MB

    def test_micro_dollars(self):
        assert micro_dollars(0.000012) == pytest.approx(12.0)


class TestErrors:
    def test_filesystem_errors_have_errno_names(self):
        assert FileSystemError.errno_name == "EIO"
