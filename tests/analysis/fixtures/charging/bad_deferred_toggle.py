"""Bad: the toggle hides in a closure built by __init__, and in a helper's del."""


class Heartbeat:
    def __init__(self, rsm):
        self.rsm = rsm

        def quiet():
            # expect: CHG001
            rsm.charge_latency = False

        self.quiet = quiet

    def reset(self):
        # expect: CHG001
        del self.rsm.charge_latency
