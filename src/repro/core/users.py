"""Registry of SCFS users and their per-cloud canonical identifiers (§2.6).

Each SCFS user has separate accounts in the various cloud providers, each with
its own identifier.  SCFS associates with every client a list of *cloud
canonical identifiers*; the association is kept in a tuple of the coordination
service and loaded when the client mounts the file system.  ``setfacl`` uses
the lists of both the owner and the grantee to update the ACLs of the objects
storing the file data in the clouds.
"""

from __future__ import annotations

import json

from repro.common.errors import FileNotFoundErrorFS, TupleNotFoundError
from repro.common.types import Permission, Principal
from repro.coordination.base import CoordinationService, Session

_USER_PREFIX = "user/"


class UserRegistry:
    """Read/write access to the per-user canonical-identifier tuples."""

    def __init__(self, coordination: CoordinationService | None, session: Session | None):
        self.coordination = coordination
        self.session = session
        self._local: dict[str, Principal] = {}

    def register(self, principal: Principal) -> None:
        """Store (or refresh) the canonical identifiers of ``principal``."""
        self._local[principal.name] = principal
        if self.coordination is None:
            return
        payload = json.dumps(
            {"name": principal.name, "canonical_ids": list(principal.canonical_ids)},
            sort_keys=True,
        ).encode()
        # The canonical-id mapping must be readable by every other client so
        # that they can grant this user access to their files (§2.6): the
        # entry is created with that grant, and a refresh keeps it.
        self.coordination.put(_USER_PREFIX + principal.name, payload, self.session,
                              grants={"*": Permission.READ})

    def lookup(self, username: str) -> Principal:
        """Return the principal (with canonical ids) registered for ``username``.

        Raises :class:`FileNotFoundErrorFS` when the user is unknown — sharing
        with an unregistered user is an error the application should see.
        """
        if username in self._local:
            return self._local[username]
        if self.coordination is None:
            raise FileNotFoundErrorFS(f"unknown user {username!r} (no coordination service)")
        try:
            entry = self.coordination.get(_USER_PREFIX + username, self.session)
        except TupleNotFoundError:
            raise FileNotFoundErrorFS(f"unknown user {username!r}") from None
        raw = json.loads(entry.value.decode())
        principal = Principal(
            name=raw["name"],
            canonical_ids=tuple((p, c) for p, c in raw.get("canonical_ids", [])),
        )
        self._local[username] = principal
        return principal
