"""The unified system model — the paper's primary contribution.

A system is a set of communicating modules of three kinds (paper §1):

1. :class:`SoftwareModule` — behaviour given as an FSM executed one
   transition per activation (the C program of the paper),
2. :class:`HardwareModule` — one or more parallel processes, each an FSM
   executed once per clock cycle (the VHDL architecture of the paper),
3. :class:`CommunicationUnit` — a library component offering *services*
   (access procedures such as ``put``/``get``) implemented over hardware
   ports and guarded by a *communication controller*.

Modules never touch each other's ports: all interaction goes through service
calls.  Each service exists in several :class:`View`\\ s (HW view, SW
simulation view, SW synthesis views per platform) collected in a
:class:`MultiViewLibrary`; selecting views is what retargets the same system
description to co-simulation or to any supported platform.
"""

from repro.core.port import Port, PortDirection
from repro.core.service import Service, ServiceParam
from repro.core.comm_unit import CommunicationController, CommunicationUnit
from repro.core.views import View, ViewKind, MultiViewLibrary
from repro.core.module import Module, SoftwareModule, HardwareModule
from repro.core.model import SystemModel, Binding

__all__ = [
    "Port",
    "PortDirection",
    "Service",
    "ServiceParam",
    "CommunicationController",
    "CommunicationUnit",
    "View",
    "ViewKind",
    "MultiViewLibrary",
    "Module",
    "SoftwareModule",
    "HardwareModule",
    "SystemModel",
    "Binding",
]
