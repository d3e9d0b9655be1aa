"""Transactional commit layer: multi-file atomicity over the SCFS anchor."""

from repro.transactions.manager import ABORTED, COMMITTED, TXN_PREFIX

__all__ = ["ABORTED", "COMMITTED", "TXN_PREFIX"]
