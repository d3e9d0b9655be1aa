"""Bad: riding locks that leak when the guarded work raises, or ride an unsorted set."""


class Agent:
    def create_and_fill(self, meta, data):
        # expect: LCK001
        self.locks.acquire(meta, lambda also: self.metadata.create(meta, also=also))
        if not self.upload(meta, data):
            raise ValueError("upload refused")
        self.locks.release(meta)

    def commit_all(self, metas, paths):
        # expect: LCK002
        self.locks.acquire_set(
            metas, lambda also: self.metadata.lookup_many_versioned(paths, also=also))
        try:
            self.apply(metas)
        finally:
            self.locks.release_set(metas)
