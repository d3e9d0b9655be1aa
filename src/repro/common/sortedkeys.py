"""A sorted index over the string keys of a map, walked by prefix.

Both the cloud object store and the coordination replicas answer prefix
listings.  Keeping their keys sorted makes a listing a ``bisect`` to the
prefix plus a walk of exactly the keys under it, instead of a scan (and a
sort) of everything held.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator


class SortedKeys:
    """Distinct string keys in ascending order.

    An insertion or a removal is a ``bisect`` plus a list move; keys added in
    ascending order append.
    """

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: list[str] = []

    def add(self, key: str) -> None:
        """Index ``key`` (nothing happens when it is already indexed)."""
        keys = self._keys
        index = bisect_left(keys, key)
        if index == len(keys) or keys[index] != key:
            keys.insert(index, key)

    def discard(self, key: str) -> None:
        """Drop ``key`` from the index (nothing happens when it is absent)."""
        keys = self._keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            del keys[index]

    def prefixed(self, prefix: str) -> Iterator[str]:
        """The indexed keys that start with ``prefix``, in ascending order."""
        keys = self._keys
        for index in range(bisect_left(keys, prefix), len(keys)):
            key = keys[index]
            if not key.startswith(prefix):
                return
            yield key
