"""Library of communication units (paper §3).

The package provides

* **protocol generators** (:mod:`repro.comm.protocols`) — parametric
  builders of the port sets, controller FSMs and ``put``/``get`` service FSMs
  of handshake, FIFO and shared-register channels,
* **channel factories** (:mod:`repro.comm.channels`) — assemble complete
  :class:`~repro.core.comm_unit.CommunicationUnit` objects from those pieces,
* **view generation** (:mod:`repro.comm.generator`) — produce the HW view,
  the SW simulation view and the per-platform SW synthesis views of every
  service of a unit, populating a
  :class:`~repro.core.views.MultiViewLibrary`.
"""

from repro.comm.protocols.handshake import (
    handshake_ports,
    make_put_service,
    make_get_service,
    make_handshake_controller,
)
from repro.comm.protocols.fifo import (
    fifo_ports,
    make_fifo_put_service,
    make_fifo_get_service,
    make_fifo_controller,
)
from repro.comm.protocols.shared_reg import (
    shared_register_ports,
    make_shared_put_service,
    make_shared_get_service,
)
from repro.comm.channels import (
    handshake_channel,
    fifo_channel,
    shared_register_channel,
    library_stats,
)
from repro.comm.generator import generate_service_views, build_view_library

__all__ = [
    "handshake_ports",
    "make_put_service",
    "make_get_service",
    "make_handshake_controller",
    "fifo_ports",
    "make_fifo_put_service",
    "make_fifo_get_service",
    "make_fifo_controller",
    "shared_register_ports",
    "make_shared_put_service",
    "make_shared_get_service",
    "handshake_channel",
    "fifo_channel",
    "shared_register_channel",
    "library_stats",
    "generate_service_views",
    "build_view_library",
]
