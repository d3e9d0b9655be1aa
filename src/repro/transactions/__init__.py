"""Transactional commit layer: multi-file atomicity over the SCFS anchor."""

from repro.transactions.manager import ABORTED, COMMITTED

__all__ = ["ABORTED", "COMMITTED"]
