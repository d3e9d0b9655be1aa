"""Good twin: a parallel call sends its requests as background work and
charges its one wait itself."""


class QuorumClient:
    def __init__(self, sim, stores):
        self.sim = sim
        self.stores = stores

    def write(self, key, data):
        waits = []
        for store in self.stores:
            with self.sim.background():
                store.put(key, data)
            waits.append(store.expected_put(len(data)))
        if not self.sim.in_background:
            self.sim.advance(max(waits))
