"""Good twin: a sorted lock set, returned on every path via try/finally."""


class Committer:
    def commit_all(self, metas):
        locked = sorted(metas, key=self.lock_name)
        self.locks.acquire_set(locked)
        try:
            self.apply(metas)
        finally:
            self.locks.release_set(locked)

    def rename_all(self, metas):
        self.locks.acquire_set(sorted(metas))
        try:
            return self.move(metas)
        finally:
            self.locks.release_set(metas)
