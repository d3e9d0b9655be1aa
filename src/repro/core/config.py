"""Configuration of an SCFS agent/deployment.

Defaults follow the values used in the paper's evaluation (§4.1): 500 ms
metadata cache expiration, no private name spaces (worst case, 100 % sharing),
f = 1 for the CoC backend and a garbage collector run every W = 128 MB
written.  W is the one collector setting (``math.inf``: never run one); V, the
versions it keeps per file, is :data:`repro.core.gc.VERSIONS_TO_KEEP`, and the
memory and disk cache sizes no caller sets are constants of
:mod:`repro.core.cache`.

The ``dispatch`` block, the only nested one, is
:class:`~repro.clouds.dispatch.DispatchPolicyConfig`, defined next to the
quorum engine that reads it and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.units import MB
from repro.clouds.dispatch import DispatchPolicyConfig
from repro.clouds.quorums import quorum_system
from repro.coordination.base import DEFAULT_LEASE
from repro.core.modes import BackendKind, OperationMode


@dataclass(frozen=True)
class SCFSConfig:
    """Full configuration of one SCFS agent."""

    mode: OperationMode = OperationMode.BLOCKING
    backend: BackendKind = BackendKind.COC
    #: Enable Private Name Spaces for files not shared with other users (§2.7).
    private_name_spaces: bool = False
    #: Encrypt file data before it leaves the client (always on for CoC in the paper).
    encrypt_data: bool = True
    #: Expiration of the short-lived metadata cache in seconds (§2.5.1: 500 ms).
    metadata_expiration: float = 0.5
    #: W of the garbage collector (§2.5.3): a background collection runs each
    #: time the agent has written this many bytes since the last one;
    #: ``math.inf`` never runs one (collection only by an explicit call).
    gc_threshold: float = 128 * MB
    #: Quorum dispatch policy (timeouts/retries/hedging) and cloud health
    #: tracking (suspect lists) of this agent's storage backend.
    dispatch: DispatchPolicyConfig = field(default_factory=DispatchPolicyConfig)
    #: Per-provider trust weights of the CoC backend, e.g.
    #: ``(("amazon-s3", 1.2), ...)``, covering its providers exactly.  Empty:
    #: the paper's threshold quorums; given: weighted quorums tolerating any
    #: f providers (:func:`~repro.clouds.quorums.quorum_system`).
    quorum_weights: tuple[tuple[str, float], ...] = ()
    #: Lease of coordination-service sessions/locks in seconds.
    lock_lease: float = DEFAULT_LEASE

    @property
    def fault_tolerance(self) -> int:
        """Faulty providers/replicas tolerated: f = 1 on the cloud-of-clouds, 0 on one cloud.

        DepSky needs 3f + 1 clouds, so f = 1 is the only value the four CoC
        providers fit; one store and one DepSpace VM tolerate nothing.
        """
        return 1 if self.backend is BackendKind.COC else 0

    def validate(self) -> None:
        """Check cross-field consistency; raise :class:`ConfigurationError` otherwise."""
        self.dispatch.validate()
        if not (math.isfinite(self.metadata_expiration) and self.metadata_expiration >= 0):
            raise ConfigurationError("metadata cache expiration must be finite and non-negative")
        if not self.gc_threshold > 0:  # NaN fails the comparison; inf means never
            raise ConfigurationError("the garbage-collection threshold must be positive")
        if self.quorum_weights:
            if self.backend is not BackendKind.COC:
                raise ConfigurationError(
                    "weighted quorum systems require the cloud-of-clouds "
                    "backend (a single cloud has no quorum structure)")
            # Feasible over the providers the weights name; the backend
            # checks them against the deployment's own.
            quorum_system(tuple(name for name, _ in self.quorum_weights),
                          self.fault_tolerance, self.quorum_weights)
        if self.mode is OperationMode.NON_SHARING and not self.private_name_spaces:
            # The non-sharing mode stores *all* metadata in the PNS by definition.
            raise ConfigurationError("the non-sharing mode requires private name spaces")
        if not (math.isfinite(self.lock_lease) and self.lock_lease > 0):
            raise ConfigurationError("the lock lease must be finite and positive")
        if self.backend is BackendKind.AWS and self.dispatch != DispatchPolicyConfig():
            # One store has no quorum call to time out, retry, hedge or
            # re-plan around a suspect: every knob would be ignored.
            raise ConfigurationError(
                "the dispatch policy requires the cloud-of-clouds backend "
                "(a single cloud has no quorum call to dispatch)"
            )

    @staticmethod
    def for_variant(name: str, **overrides) -> "SCFSConfig":
        """Build the configuration of one of the Table 2 variants by name.

        ``overrides`` may set any field but the variant's mode and backend,
        the variant's own defaults of ``encrypt_data`` (on for CoC) and
        ``private_name_spaces`` (on for NS) included.
        """
        from repro.core.modes import variant  # local import avoids a cycle at module load

        spec = variant(name)
        defaults = {"encrypt_data": spec.backend is BackendKind.COC,
                    "private_name_spaces": spec.mode is OperationMode.NON_SHARING}
        config = SCFSConfig(mode=spec.mode, backend=spec.backend, **{**defaults, **overrides})
        config.validate()
        return config
