"""Bad: who accounts for a resource decided by a flag where the resource is built."""

from dataclasses import dataclass


@dataclass
class StoreOptions:
    # expect: CHG001
    charge_latency: bool = True


def make_cloud_of_clouds(sim, names, make_provider):
    # DepSky charges for its clouds in parallel, so the stores never do.
    # expect: CHG001
    charge_latency = False
    # expect: CHG001
    return [make_provider(sim, name, charge_latency=charge_latency) for name in names]


class Client:
    # expect: CHG001
    def __init__(self, sim, charge_latency=True):
        self.sim = sim
        # expect: CHG001
        self.charge_latency = charge_latency

    def charged(self):
        return self.charge_latency and not self.sim.in_background
