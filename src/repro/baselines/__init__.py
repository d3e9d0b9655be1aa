"""Baseline systems SCFS is compared against in the paper's evaluation.

* :class:`~repro.baselines.localfs.LocalFS` — a FUSE-J local file system, the
  baseline that factors out the user-space file-system overhead (§4.1);
* :class:`~repro.baselines.s3fs.S3FSLike` — an S3FS-style blocking
  cloud-backed file system: no main-memory cache for open files and every
  create/open/close touches the storage cloud synchronously;
* :class:`~repro.baselines.s3ql.S3QLLike` — an S3QL-style single-user
  cloud-backed file system: data is written locally and pushed to the cloud in
  the background, with the documented slow-small-chunk-write behaviour;
* :class:`~repro.baselines.dropbox.DropboxLikeService` — a personal
  file-synchronisation service in the style of Dropbox (monitor + polling +
  central server), used as the comparator of the sharing experiment (Fig. 9).

All baselines expose the same calling surface as
:class:`~repro.core.filesystem.SCFSFileSystem`, so the benchmark workloads can
drive any of them interchangeably.
"""
