"""The shared, read-only communication library.

The channel factories build each unit once per process and hand the same
object to every model that asks for it, so the IR and the units must be
read-only once built, and nothing a run does may change a library unit.
"""

import enum
import pickle
from types import MappingProxyType

import pytest

from repro.comm import (
    channels,
    fifo_channel,
    handshake_channel,
    library_stats,
    shared_register_channel,
)
from repro.cosim.session import TIERS
from repro.dse.explorer import DesignSpaceExplorer
from repro.ir import Assign, Transition, var
from repro.ir.dtypes import BIT
from repro.core.port import Port
from repro.ir.fsm import ServiceCall, State
from repro.testkit.models import generate_system
from repro.testkit.oracles import run_session_to_completion
from repro.testkit.scenarios import FaultScenario, RealtimeScenario, SystemScenario
from repro.utils.canonical import content_digest
from repro.utils.lru import LruCache


def _canonical(node):
    """A JSON-able rendering of *node* and everything it refers to."""
    if node is None or isinstance(node, (str, int, float, bool)):
        return node
    if isinstance(node, enum.Enum):
        return repr(node)
    if isinstance(node, (list, tuple)):
        return [type(node).__name__, [_canonical(item) for item in node]]
    if isinstance(node, (dict, MappingProxyType)):
        return ["map", [[key, _canonical(value)] for key, value in node.items()]]
    if isinstance(node, (set, frozenset)):
        return ["set", sorted(map(repr, node))]
    return [type(node).__name__,
            {key: _canonical(value) for key, value in sorted(vars(node).items())}]


def _digest(unit):
    return content_digest(_canonical(unit))


@pytest.fixture()
def unit():
    return handshake_channel("Lib", put_name="LibPut", get_name="LibGet",
                             prefix="LB")


# (label, mutation) pairs; each must raise on a built unit.
_MUTATIONS = {
    "fsm attribute": lambda u: setattr(u.controller.fsm, "initial", "X"),
    "fsm delete": lambda u: delattr(u.controller.fsm, "name"),
    "fsm states": lambda u: u.controller.fsm.states.__setitem__(
        "X", State("X")),
    "fsm state removal": lambda u: u.controller.fsm.states.pop("EMPTY"),
    "fsm state order": lambda u: u.controller.fsm.state_order.append("X"),
    "fsm variables": lambda u: u.service("LibPut").fsm.variables.clear(),
    "state attribute": lambda u: setattr(
        u.controller.fsm.state("EMPTY"), "name", "X"),
    "state transitions": lambda u: u.controller.fsm.state(
        "EMPTY").transitions.append(Transition("EMPTY")),
    "state actions": lambda u: u.controller.fsm.state("EMPTY").actions.append(
        Assign("X", 1)),
    "transition target": lambda u: setattr(
        u.controller.fsm.state("EMPTY").transitions[0], "target", "X"),
    "transition actions": lambda u: u.controller.fsm.state(
        "EMPTY").transitions[0].actions.append(Assign("X", 1)),
    "transition guard": lambda u: setattr(
        u.controller.fsm.state("EMPTY").transitions[0], "guard", var("X")),
    "variable": lambda u: setattr(
        u.service("LibPut").fsm.variables["REQUEST"], "init", 3),
    "service attribute": lambda u: setattr(u.service("LibPut"), "fsm", None),
    "service params": lambda u: u.service("LibPut").params.append(None),
    "service param": lambda u: setattr(
        u.service("LibPut").params[0], "name", "X"),
    "unit attribute": lambda u: setattr(u, "name", "X"),
    "unit services": lambda u: u.services.__setitem__("X", None),
    "unit ports": lambda u: u.ports.__setitem__("X", Port("X")),
    "unit interfaces": lambda u: u.interfaces["producer"].append("X"),
    "unit controllers": lambda u: u.controllers.append(None),
    "controller": lambda u: setattr(u.controller, "fsm", None),
    "port": lambda u: setattr(u.port("LB_FULL"), "dtype", BIT),
}


class TestReadOnly:
    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_every_mutator_raises(self, unit, mutation):
        before = _digest(unit)
        with pytest.raises((AttributeError, TypeError)):
            _MUTATIONS[mutation](unit)
        assert _digest(unit) == before

    def test_service_call_is_read_only(self):
        call = ServiceCall("Fetch", args=[var("A")], store="B")
        with pytest.raises(AttributeError):
            call.store = "C"
        with pytest.raises(AttributeError):
            call.args.append(var("C"))

    def test_pickle_round_trip_rebuilds_a_read_only_copy(self, unit):
        copy = pickle.loads(pickle.dumps(unit))
        assert copy is not unit
        assert _digest(copy) == _digest(unit)
        with pytest.raises(AttributeError):
            copy.controller.fsm.initial = "X"
        with pytest.raises(TypeError):
            copy.services["X"] = None


class TestLibraryMemo:
    def test_equal_calls_share_one_unit(self):
        unit = fifo_channel("MemoA", depth=3, prefix="MA")
        assert fifo_channel("MemoA", prefix="MA", depth=3) is unit
        assert fifo_channel("MemoA", depth=2, prefix="MA") is not unit
        assert handshake_channel("MemoA", prefix="MA") is not unit
        # Spelling a default out is a separate, equal entry.
        spelled = fifo_channel("MemoA", depth=3, prefix="MA", data_width=16)
        assert spelled is not unit and _digest(spelled) == _digest(unit)

    def test_memo_is_bounded_and_evicts(self, monkeypatch):
        monkeypatch.setattr(channels, "_LIBRARY", LruCache(2))
        monkeypatch.setattr(channels, "_COUNTS", {"hits": 0, "misses": 0})
        first = shared_register_channel("EvictA")
        second = shared_register_channel("EvictB")
        assert shared_register_channel("EvictA") is first  # now most recent
        shared_register_channel("EvictC")  # evicts EvictB
        assert library_stats() == {"hits": 1, "misses": 3, "size": 2,
                                   "maxsize": 2}
        assert shared_register_channel("EvictA") is first
        rebuilt = shared_register_channel("EvictB")
        assert rebuilt is not second and _digest(rebuilt) == _digest(second)
        assert library_stats() == {"hits": 2, "misses": 4, "size": 2,
                                   "maxsize": 2}

    def test_build_model_is_fresh_but_shares_its_units(self):
        system = generate_system(7)
        first, second = system.build_model(), system.build_model()
        assert first is not second
        assert set(first.comm_units) == set(second.comm_units)
        for name, unit in first.comm_units.items():
            assert second.comm_units[name] is unit
        for name, module in first.modules.items():
            assert second.modules[name] is not module
        assert first.bindings is not second.bindings


def _library_units(seeds):
    units = {}
    for seed in seeds:
        for unit in generate_system(seed).build_model().comm_units.values():
            units[id(unit)] = unit
    return list(units.values())


def test_no_run_changes_a_library_unit():
    seeds = (3, 5, 12)
    units = _library_units(seeds)
    before = [_digest(unit) for unit in units]
    for seed in seeds:
        for tier in TIERS:
            SystemScenario(generate_system(seed)).run(tier=tier)
            FaultScenario(seed, "stuck_handshake").run(tier=tier)
            FaultScenario(seed, "reset_mid_transaction").run(tier=tier)
            RealtimeScenario(seed).run(tier=tier)
            scenario = SystemScenario(generate_system(seed))
            session = scenario.build_session(tier=tier)
            session.run(until=400)
            restored = scenario.build_session(tier=tier).restore(session.save())
            run_session_to_completion(restored, scenario.system.expectations,
                                      max_time=scenario.max_time(restored))
        system = generate_system(seed)
        DesignSpaceExplorer(system.build_model(), platforms=["pc_at_fpga"],
                            cosim_params=system.cosim_params,
                            expectations=system.expectations,
                            ).explore(mode="exhaustive")
    assert _library_units(seeds) == units
    assert [_digest(unit) for unit in units] == before
