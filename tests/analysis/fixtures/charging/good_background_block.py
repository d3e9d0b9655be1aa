"""Good twin: the flag is set once, at construction; the call says it is background."""


class Store:
    def __init__(self, sim, charge_latency=True):
        self.sim = sim
        self.charge_latency = charge_latency

    def put(self, key, data):
        if self.charge_latency and not self.sim.in_background:
            self.sim.advance(0.1)


class Uploader:
    def __init__(self, sim, store):
        self.sim = sim
        self.store = store

    def upload_in_background(self, key, data):
        with self.sim.background():
            self.store.put(key, data)
