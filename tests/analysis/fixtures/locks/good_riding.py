"""Good twin: locks that ride in the metadata command they guard, returned on every path."""


class Agent:
    def create_and_fill(self, meta, data):
        self.locks.acquire(meta, lambda also: self.metadata.create(meta, also=also))
        try:
            self.upload(meta, data)
        finally:
            self.locks.release(meta)

    def commit_all(self, metas, paths):
        found = {}
        locked = sorted(metas, key=self.lock_name)
        self.locks.acquire_set(locked, lambda also: found.update(
            self.metadata.lookup_many_versioned(paths, also=also)))
        try:
            self.apply(metas, found)
        finally:
            self.locks.release_set(locked)

    def touch(self, meta):
        self.locks.acquire_set([meta], send=lambda also: self.metadata.create(meta, also=also))
        self.locks.release_set([meta])
