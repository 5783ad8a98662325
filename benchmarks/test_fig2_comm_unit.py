"""FIG2 — the communication unit concept (paper Figure 2).

A Host and a Server process communicate exclusively through the ``put`` and
``get`` access procedures of a communication unit; neither side knows the
other's implementation or the protocol run by the unit's controller.
"""

from repro.cosim import CosimSession

from tests.conftest import make_producer_consumer_model

WORDS = 8
FIRST_VALUE = 10


def run_fig2():
    model = make_producer_consumer_model(words=WORDS, start=FIRST_VALUE)
    session = CosimSession(model, clock_period=100)
    result = session.run_until_software_done(max_time=1_000_000)
    server = session.hardware_adapter("ServerMod").process_variables("SERVER")
    return model, session, result, server


def test_fig2_host_server_exchange(benchmark):
    model, session, result, server = benchmark(run_fig2)

    # The host (SW) only ever calls HostPut, the server (HW) only ServerGet.
    callers = {(record.caller, record.service) for record in result.trace.completed()}
    assert callers == {("HostMod", "HostPut"), ("ServerMod", "ServerGet")}

    # Every word arrived, in order, exactly once.
    expected_total = sum(range(FIRST_VALUE, FIRST_VALUE + WORDS))
    assert server["RECEIVED"] == WORDS
    assert server["TOTAL"] == expected_total

    # Neither module touches the unit's ports directly: all traffic went
    # through the access procedures (the trace accounts for every transfer).
    assert result.trace.count(service="HostPut") == WORDS
    assert result.trace.count(service="ServerGet") == WORDS

    print()
    print("FIG2: host/server exchange through a communication unit")
    print(f"  words transferred : {server['RECEIVED']}")
    print(f"  checksum          : {server['TOTAL']} (expected {expected_total})")
    print(f"  mean put latency  : {result.trace.latency_stats('HostPut')['mean']:.0f} ns")
    print(f"  mean get latency  : {result.trace.latency_stats('ServerGet')['mean']:.0f} ns")
