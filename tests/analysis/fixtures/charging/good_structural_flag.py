"""Good twin: who accounts for a resource is decided where the resource is built."""

from dataclasses import dataclass


@dataclass
class StoreOptions:
    charge_latency: bool = True


def make_cloud_of_clouds(sim, names, make_provider):
    # DepSky charges for its clouds in parallel, so the stores never do.
    charge_latency = False
    return [make_provider(sim, name, charge_latency=charge_latency) for name in names]


class Client:
    def __init__(self, sim, options):
        self.sim = sim
        self.charge_latency = options.charge_latency

    def charged(self):
        return self.charge_latency and not self.sim.in_background
