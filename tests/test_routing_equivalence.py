"""The kernel's route-table lookup must agree with the reference router.

``Simulator._route`` reads the fabric's precomputed route table instead
of calling :func:`repro.noc.routing.xy_output_port`; this pins them
together so a change on either side cannot silently diverge them.
"""

import pytest

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.noc.routing import xy_output_port
from repro.noc.simulator import Simulator
from repro.traffic.trace import Trace


def make_simulator(config: SimConfig) -> Simulator:
    trace = Trace.empty(config.num_cores, "routing-equivalence")
    return Simulator(config, trace, make_policy("baseline"))


CONFIGS = [
    pytest.param(SimConfig(topology="mesh", radix=4), id="mesh-4x4"),
    pytest.param(SimConfig(topology="mesh", radix=8), id="mesh-8x8"),
    pytest.param(
        SimConfig(topology="cmesh", radix=4, concentration=4), id="cmesh-4x4"
    ),
    pytest.param(
        SimConfig(topology="cmesh", radix=2, concentration=4), id="cmesh-2x2"
    ),
]


@pytest.mark.parametrize("config", CONFIGS)
def test_route_matches_reference_for_every_pair(config):
    sim = make_simulator(config)
    topology = sim.network.topology
    n = topology.num_routers
    for src in range(n):
        for dst in range(n):
            assert sim._route(src, dst) == xy_output_port(
                topology, src, dst
            ), f"divergence at src={src} dst={dst}"


@pytest.mark.parametrize("config", CONFIGS)
def test_route_by_core_matches_reference(config):
    """The core->router indirection used at injection time agrees too."""
    sim = make_simulator(config)
    topology = sim.network.topology
    core_router = sim.network.core_router
    for src_router in range(topology.num_routers):
        for dst_core in range(topology.num_cores):
            dst_router = core_router[dst_core]
            assert sim._route(src_router, dst_router) == xy_output_port(
                topology, src_router, dst_router
            )
