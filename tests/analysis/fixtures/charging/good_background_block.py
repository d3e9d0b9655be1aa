"""Good twin: no flag on the store; the call says it is background."""


class Store:
    def __init__(self, sim):
        self.sim = sim

    def put(self, key, data):
        if not self.sim.in_background:
            self.sim.advance(0.1)


class Uploader:
    def __init__(self, sim, store):
        self.sim = sim
        self.store = store

    def upload_in_background(self, key, data):
        with self.sim.background():
            self.store.put(key, data)
