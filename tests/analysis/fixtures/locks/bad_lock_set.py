"""Bad: a lock set taken in caller order, and one that leaks on the error path."""


class Committer:
    def commit_all(self, metas):
        # expect: LCK002
        self.locks.acquire_set(metas)
        try:
            self.apply(metas)
        finally:
            self.locks.release_set(metas)

    def rename_all(self, metas):
        locked = sorted(metas)
        # expect: LCK001
        self.locks.acquire_set(locked)
        if not self.move(metas):
            raise ValueError("target exists")
        self.locks.release_set(locked)
