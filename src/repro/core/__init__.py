"""SCFS — the Shared Cloud-backed File System (the paper's primary contribution).

The package mirrors the component structure of §2/§3 of the paper:

* :mod:`~repro.core.config` / :mod:`~repro.core.modes` — configuration of the
  six SCFS variants of Table 2 (blocking, non-blocking, non-sharing × AWS, CoC);
* :mod:`~repro.core.backend` — the storage backplane: a single-cloud backend
  (SCFS-AWS) and a DepSky cloud-of-clouds backend (SCFS-CoC);
* :mod:`~repro.core.consistency` — step r2 of the consistency-anchor
  algorithm of Figure 3 (:func:`~repro.core.consistency.read_anchored`);
* :mod:`~repro.core.cache` — memory/disk LRU data caches and the short-lived
  metadata cache;
* :mod:`~repro.core.metadata` — metadata tuples (files, directories, links,
  ACLs) and their serialisation;
* :mod:`~repro.core.metadata_service`, :mod:`~repro.core.storage_service`,
  :mod:`~repro.core.lock_service` — the three local services of the SCFS Agent
  (§2.5.1);
* :mod:`~repro.core.pns` — Private Name Spaces (§2.7);
* :mod:`~repro.core.gc` — the versioned garbage collector (§2.5.3);
* :mod:`~repro.core.agent` — the SCFS Agent implementing the call flows of
  Figure 4 with consistency-on-close semantics;
* :mod:`~repro.core.filesystem` — the POSIX-like façade (open/read/write/
  close/fsync/mkdir/rename/...) applications program against, and the one
  open-file layer (flags, handle table, buffer arithmetic, copy rule) that
  the agent and every baseline share;
* :mod:`~repro.core.deployment` — helpers that assemble complete deployments
  (clouds + coordination + agents) for each Table 2 variant.
"""
