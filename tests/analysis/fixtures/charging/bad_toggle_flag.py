"""Bad: background work modelled by flipping another object's charge flag."""


class Uploader:
    def __init__(self, sim, store):
        self.sim = sim
        self.store = store

    def upload_in_background(self, key, data):
        previous = self.store.charge_latency
        # expect: CHG001
        self.store.charge_latency = False
        try:
            self.store.put(key, data)
        finally:
            # expect: CHG001
            self.store.charge_latency = previous

    def silence_all(self, rsms):
        for rsm in rsms:
            # expect: CHG001
            rsm.charge_latency, rsm.quiet = False, True
