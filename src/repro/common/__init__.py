"""Shared utilities used across the SCFS reproduction.

This package deliberately contains only small, dependency-free helpers:
exception hierarchy, identifier helpers, byte-size constants and a couple of
value objects that several subsystems exchange (e.g. :class:`~repro.common.types.ObjectRef`).
"""

from repro.common.errors import (
    ReproError,
    CloudError,
    CloudUnavailableError,
    ObjectNotFoundError,
    VersionUnavailableError,
    AccessDeniedError,
    IntegrityError,
    CoordinationError,
    LockHeldError,
    NotLockOwnerError,
    TupleNotFoundError,
    ConflictError,
    FileSystemError,
    FileNotFoundErrorFS,
    FileExistsErrorFS,
    NotADirectoryErrorFS,
    IsADirectoryErrorFS,
    DirectoryNotEmptyError,
    PermissionDeniedError,
    InvalidHandleError,
    QuorumNotReachedError,
    ConfigurationError,
    SingularMatrixError,
)
from repro.common.types import ObjectRef, Permission, Principal
from repro.common.units import KB, MB, GB, MONTH_SECONDS, human_bytes

__all__ = [
    "ReproError",
    "CloudError",
    "CloudUnavailableError",
    "ObjectNotFoundError",
    "VersionUnavailableError",
    "AccessDeniedError",
    "IntegrityError",
    "CoordinationError",
    "LockHeldError",
    "NotLockOwnerError",
    "TupleNotFoundError",
    "ConflictError",
    "FileSystemError",
    "FileNotFoundErrorFS",
    "FileExistsErrorFS",
    "NotADirectoryErrorFS",
    "IsADirectoryErrorFS",
    "DirectoryNotEmptyError",
    "PermissionDeniedError",
    "InvalidHandleError",
    "QuorumNotReachedError",
    "ConfigurationError",
    "SingularMatrixError",
    "ObjectRef",
    "Permission",
    "Principal",
    "KB",
    "MB",
    "GB",
    "MONTH_SECONDS",
    "human_bytes",
]
