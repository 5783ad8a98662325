"""ABL-PROTOCOL — ablation of the communication-unit controller.

The paper argues that the controller "may range from a simple handshake
protocol to as complex as a layered protocol" without affecting the module
descriptions.  The ablation swaps the channel of the Figure-2 producer/
consumer system between three library protocols — single-register handshake,
FIFO and shared register — and measures per-word latency and the number of
controller state transitions.  Expected shape: the shared register is the
cheapest (but lossy), the handshake adds full flow control at a moderate
latency, the FIFO adds buffering at the highest controller cost.
"""

import pytest

from repro.comm import fifo_channel, handshake_channel, shared_register_channel
from repro.core import SystemModel
from repro.cosim import CosimSession
from repro.utils.text import format_table

from tests.conftest import make_host_module, make_server_module

WORDS = 6


def build_model(channel_factory):
    unit = channel_factory("Channel", put_name="HostPut", get_name="ServerGet",
                           put_interface="HostIf", get_interface="ServerIf")
    model = SystemModel("ProtocolAblation")
    model.add_comm_unit(unit)
    model.add_software_module(make_host_module(words=WORDS))
    model.add_hardware_module(make_server_module())
    model.bind("HostMod", "HostPut", "Channel")
    model.bind("ServerMod", "ServerGet", "Channel")
    return model


def run_protocol(channel_factory):
    model = build_model(channel_factory)
    session = CosimSession(model, clock_period=100)
    result = session.run_until_software_done(max_time=1_000_000)
    server = session.hardware_adapter("ServerMod").process_variables("SERVER")
    controller_steps = sum(
        instance.steps for instance in session.controller_instances.values()
    )
    return {
        "received": server["RECEIVED"],
        "total": server["TOTAL"],
        "put_latency": result.trace.latency_stats("HostPut")["mean"],
        "get_latency": result.trace.latency_stats("ServerGet")["mean"],
        "controller_steps": controller_steps,
        "end_time": result.end_time,
    }


FACTORIES = {
    "handshake": handshake_channel,
    "fifo": lambda *args, **kwargs: fifo_channel(*args, depth=4, **kwargs),
    "shared_register": shared_register_channel,
}


def run_all_protocols():
    return {name: run_protocol(factory) for name, factory in FACTORIES.items()}


def test_abl_protocols(benchmark):
    outcomes = benchmark.pedantic(run_all_protocols, rounds=1, iterations=1)
    handshake = outcomes["handshake"]
    fifo = outcomes["fifo"]
    shared = outcomes["shared_register"]

    expected_total = sum(range(10, 10 + WORDS))
    # Flow-controlled protocols deliver every word exactly once.
    assert handshake["received"] == WORDS and handshake["total"] == expected_total
    assert fifo["received"] == WORDS and fifo["total"] == expected_total
    # The shared register has no flow control: the consumer may re-read or
    # miss words, so only the *protocols with a controller* guarantee the sum.
    assert shared["received"] >= 1

    # Latency ordering: shared register < handshake; the FIFO pays at least
    # the handshake's producer-side cost and needs the busiest controller.
    assert shared["put_latency"] < handshake["put_latency"]
    assert fifo["controller_steps"] >= handshake["controller_steps"]
    # The module descriptions were identical in all three runs — only the
    # communication unit changed (that is the point of the ablation).

    rows = [
        (name,
         outcome["received"],
         f"{outcome['put_latency']:.0f}" if outcome["put_latency"] else "-",
         f"{outcome['get_latency']:.0f}" if outcome["get_latency"] else "-",
         outcome["controller_steps"],
         outcome["end_time"])
        for name, outcome in outcomes.items()
    ]
    print()
    print(f"ABL-PROTOCOL: {WORDS} words through three communication units")
    print(format_table(
        ["protocol", "words delivered", "put latency (ns)", "get latency (ns)",
         "controller steps", "sim time (ns)"], rows))
