"""Exception hierarchy for the SCFS reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish *expected* distributed-systems failures (a cloud being
unavailable, a lock being held, a quorum not being reached) from programming
errors, which surface as plain Python exceptions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.coordination.base import Entry
    from repro.core.metadata import FileMetadata


class ReproError(Exception):
    """Base class for all errors raised by the reproduction library."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or invalid parameters."""


# ---------------------------------------------------------------------------
# Cloud storage errors
# ---------------------------------------------------------------------------


class CloudError(ReproError):
    """Base class for errors raised by (simulated) cloud storage services."""


class CloudUnavailableError(CloudError):
    """The cloud provider is currently unreachable (outage / fault injection)."""


class ObjectNotFoundError(CloudError):
    """The requested object key does not exist (or is not yet visible)."""


class VersionUnavailableError(ObjectNotFoundError):
    """An anchored version never became readable within the read retry budget.

    Raised by the consistency-anchor read (Figure 3, step r2) when the storage
    service still does not serve the version the anchor names after
    ``attempts`` tries spread over ``waited`` simulated seconds.
    """

    def __init__(self, file_id: str, digest: str, attempts: int, waited: float):
        super().__init__(
            f"version {digest[:12]}… of {file_id!r} is still unreadable after "
            f"{attempts} attempts over {waited:.1f} simulated seconds")
        self.file_id = file_id
        self.attempts = attempts


class AccessDeniedError(CloudError):
    """The principal performing the request lacks the required permission."""


class IntegrityError(CloudError):
    """Data read back from a cloud does not match its expected digest."""


# ---------------------------------------------------------------------------
# Coding / cryptography errors
# ---------------------------------------------------------------------------


class SingularMatrixError(ReproError, ValueError):
    """A GF(256) matrix has no inverse (linearly dependent rows).

    Raised by ``repro.crypto.gf256.invert_matrix`` and translated by the
    erasure coder into an "insufficient independent blocks" decode failure.
    Subclasses ``ValueError`` so callers that treat decoding problems
    generically keep working.
    """


# ---------------------------------------------------------------------------
# Coordination service errors
# ---------------------------------------------------------------------------


class CoordinationError(ReproError):
    """Base class for errors raised by the coordination service."""


class TupleNotFoundError(CoordinationError):
    """No tuple matched the given template."""


class ConflictError(CoordinationError):
    """A conditional (compare-and-swap style) update failed.

    ``found`` is what a refused version check or ``Update`` met under the key:
    the entry, when the caller's principal may READ it — ``None`` when it may
    not, when nothing is there, or when the refusal was neither.
    """

    def __init__(self, message: str, found: Entry | None = None):
        super().__init__(message)
        self.found = found


class EntryDeniedError(ConflictError):
    """The entry's ACL denies the caller's principal the access a step needs (EACCES)."""


class LockHeldError(CoordinationError):
    """The lock is already held by another session.

    ``lock`` is the contended lock's name when the raiser knows it (a refused
    ``Lock``, ``LockFile`` or ``Unheld`` step names the lock another session
    holds), else empty.
    """

    def __init__(self, message: str, lock: str = ""):
        super().__init__(message)
        self.lock = lock


class TransactionError(CoordinationError):
    """Base class for errors raised by the transactional commit layer."""


class TransactionConflictError(TransactionError):
    """One commit attempt failed (lock contention or validation/CAS mismatch).

    Retryable: :meth:`~repro.transactions.TransactionManager.run` catches it
    and re-executes the transaction body after a bounded backoff.
    """


class TransactionAbortedError(TransactionError):
    """The transaction gave up (retry budget exhausted or explicit abort)."""


class QuorumNotReachedError(ReproError):
    """Fewer than the required number of replicas/clouds answered."""


# ---------------------------------------------------------------------------
# File system errors (POSIX-flavoured)
# ---------------------------------------------------------------------------


class FileSystemError(ReproError):
    """Base class for errors raised by the file-system layer."""

    errno_name = "EIO"


class FileNotFoundErrorFS(FileSystemError):
    """Path does not exist (ENOENT)."""

    errno_name = "ENOENT"


class FileExistsErrorFS(FileSystemError):
    """Path already exists (EEXIST); ``found`` is the live object, when the raiser saw it."""

    errno_name = "EEXIST"

    def __init__(self, message: str, found: FileMetadata | None = None):
        super().__init__(message)
        self.found = found


class NotADirectoryErrorFS(FileSystemError):
    """A path component used as a directory is not one (ENOTDIR)."""

    errno_name = "ENOTDIR"


class IsADirectoryErrorFS(FileSystemError):
    """File operation attempted on a directory (EISDIR)."""

    errno_name = "EISDIR"


class DirectoryNotEmptyError(FileSystemError):
    """rmdir on a non-empty directory (ENOTEMPTY)."""

    errno_name = "ENOTEMPTY"


class InvalidMoveError(FileSystemError):
    """A directory renamed into its own subtree (EINVAL)."""

    errno_name = "EINVAL"


class CrossDeviceError(FileSystemError):
    """A private directory renamed with shared entries below it, which live elsewhere (EXDEV)."""

    errno_name = "EXDEV"


class PermissionDeniedError(FileSystemError):
    """The caller lacks permission for the operation (EACCES)."""

    errno_name = "EACCES"


class InvalidHandleError(FileSystemError):
    """Operation on a closed or unknown file handle (EBADF)."""

    errno_name = "EBADF"
