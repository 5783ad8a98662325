"""Co-simulation backplane.

Joint simulation of the software and hardware modules of a
:class:`~repro.core.model.SystemModel` on the discrete-event kernel of
:mod:`repro.desim`:

* communication-unit ports become simulation signals; their controllers run
  as clocked processes,
* hardware module processes run one FSM transition per clock edge,
* software modules are activated periodically and execute one transition per
  activation (the paper's synchronization rule),
* every service call goes through a per-caller service instance whose FSM is
  interpreted against the unit's signals — through the C-language-interface
  adapter for software callers (the SW simulation view) and directly for
  hardware callers (the HW view).

The entry point is :class:`~repro.cosim.session.CosimSession`.
"""

from repro.cosim.cli import CliPortAccessor, SignalPortAccessor
from repro.cosim.tracing import ServiceCallTrace, ServiceCallRecord
from repro.cosim.sync import ActivationPolicy, OneTransitionPerActivation, RunToIdle
from repro.cosim.sw_executor import SoftwareExecutor
from repro.cosim.hw_adapter import HardwareAdapter
from repro.cosim.session import DEFAULT_TIER, TIERS, CosimSession, CosimResult
from repro.cosim.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    classify_unit,
    plan_for_unit,
)

__all__ = [
    "CliPortAccessor",
    "SignalPortAccessor",
    "ServiceCallTrace",
    "ServiceCallRecord",
    "ActivationPolicy",
    "OneTransitionPerActivation",
    "RunToIdle",
    "SoftwareExecutor",
    "HardwareAdapter",
    "CosimSession",
    "CosimResult",
    "DEFAULT_TIER",
    "TIERS",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "classify_unit",
    "plan_for_unit",
]
