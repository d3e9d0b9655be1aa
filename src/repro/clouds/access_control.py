"""Per-object access-control lists enforced by the simulated clouds.

SCFS relies on the *clouds'* access-control enforcement rather than on the
(untrusted) SCFS Agent (§2.6).  The simulated object stores therefore check
every request against the object's ACL, identified by the principal's
*canonical identifier* at that provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import Permission


@dataclass
class ObjectACL:
    """Access-control list of a single stored object (or bucket).

    ``owner`` always has full access.  ``grants`` maps canonical identifiers to
    the permission granted to that identity.
    """

    owner: str
    grants: dict[str, Permission] = field(default_factory=dict)

    def allows(self, canonical_id: str, permission: Permission) -> bool:
        """True if ``canonical_id`` holds ``permission`` on this object.

        The pseudo-identity ``"*"`` grants to any authenticated identity —
        used for world-shared object pools.
        """
        if canonical_id == self.owner:
            return True
        granted = self.grants.get(canonical_id, Permission.NONE) | self.grants.get("*", Permission.NONE)
        return (granted & permission) == permission
