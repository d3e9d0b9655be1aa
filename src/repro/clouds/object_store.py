"""What a cloud object store reports about the objects it holds.

Consistency of the store may be as weak as *eventual* — SCFS strengthens it
with the consistency-anchor algorithm (§2.4); see
:class:`~repro.clouds.eventual.EventuallyConsistentStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ObjectVersion:
    """Metadata of one stored object version, as a PUT and the entries of a
    LIST return it."""

    key: str
    size: int
    created_at: float


@dataclass
class ObjectListing:
    """Result of a LIST request: one entry per visible key, in key order."""

    entries: list[ObjectVersion] = field(default_factory=list)

    @property
    def keys(self) -> list[str]:
        """The listed keys."""
        return [entry.key for entry in self.entries]
