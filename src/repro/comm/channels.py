"""Channel factories: assemble complete communication units.

Each factory returns a :class:`~repro.core.comm_unit.CommunicationUnit` whose
services are named by the caller, so application models can use the paper's
vocabulary (``SetupControl``, ``ReadMotorState`` ...) while reusing the
generic protocol machinery.

The factories are the component library of the paper: a system
instantiates and binds library units, it does not re-derive them.  Each
unit is built once per process for its full argument list and then shared
— units are read-only once built — through one bounded LRU
(:data:`LIBRARY_SIZE` entries) whose counters :func:`library_stats`
reports.  Everything keyed on a unit's identity (the lint memo, the fused
fragment memo) therefore carries over from one model to the next.
"""

import functools
import threading

from repro.comm.protocols.fifo import (
    fifo_ports,
    make_fifo_controller,
    make_fifo_get_service,
    make_fifo_put_service,
)
from repro.comm.protocols.handshake import (
    handshake_ports,
    make_get_service,
    make_handshake_controller,
    make_put_service,
)
from repro.comm.protocols.shared_reg import (
    make_shared_get_service,
    make_shared_put_service,
    shared_register_ports,
)
from repro.core.comm_unit import CommunicationUnit
from repro.utils.lru import LruCache

#: Most distinct units the library keeps; the least recently used one is
#: dropped past the bound and rebuilt on its next use.
LIBRARY_SIZE = 128

_LIBRARY = LruCache(LIBRARY_SIZE)  # (factory, *arguments) -> unit
_LOCK = threading.Lock()
_COUNTS = {"hits": 0, "misses": 0}


def library_stats():
    """Counters of the unit library: ``hits``, ``misses``, ``size`` and
    ``maxsize``, for this process."""
    with _LOCK:
        return {**_COUNTS, "size": len(_LIBRARY),
                "maxsize": _LIBRARY.maxsize}


def _library_unit(factory):
    """Memoise *factory* in the unit library on its full arguments.

    As with ``functools.lru_cache``, the key is the call as written
    (keyword order aside): spelling a default out makes a separate,
    equal entry.
    """

    @functools.wraps(factory)
    def shared(*args, **kwargs):
        key = (factory.__name__, args, tuple(sorted(kwargs.items())))
        with _LOCK:
            unit = _LIBRARY.get(key)
            if unit is not None:
                _COUNTS["hits"] += 1
                return unit
            _COUNTS["misses"] += 1
            unit = factory(*args, **kwargs)
            _LIBRARY.put(key, unit)
            return unit

    return shared


@_library_unit
def handshake_channel(name, put_name="PUT", get_name="GET", prefix="CH",
                      data_width=16, put_interface="producer",
                      get_interface="consumer", description=""):
    """A unidirectional single-register handshake channel (Figure 2 shape)."""
    prefix = f"{prefix}_" if prefix and not prefix.endswith("_") else prefix
    ports = handshake_ports(prefix, data_width)
    services = [
        make_put_service(put_name, prefix, data_width, interface=put_interface),
        make_get_service(get_name, prefix, data_width, interface=get_interface),
    ]
    controller = make_handshake_controller(f"{name}Ctrl", prefix)
    return CommunicationUnit(
        name, ports=ports, services=services, controller=controller,
        description=description or "single-register full/empty handshake channel",
    )


@_library_unit
def fifo_channel(name, put_name="PUSH", get_name="POP", prefix="FF",
                 depth=4, data_width=16, put_interface="producer",
                 get_interface="consumer", description=""):
    """A unidirectional FIFO channel of the given *depth*."""
    prefix = f"{prefix}_" if prefix and not prefix.endswith("_") else prefix
    ports = fifo_ports(prefix, data_width)
    services = [
        make_fifo_put_service(put_name, prefix, data_width, interface=put_interface),
        make_fifo_get_service(get_name, prefix, data_width, interface=get_interface),
    ]
    controller = make_fifo_controller(f"{name}Ctrl", prefix, depth=depth,
                                      data_width=data_width)
    return CommunicationUnit(
        name, ports=ports, services=services, controller=controller,
        description=description or f"FIFO channel of depth {depth}",
    )


@_library_unit
def shared_register_channel(name, put_name="WRITE", get_name="SAMPLE", prefix="SR",
                            data_width=16, put_interface="producer",
                            get_interface="consumer", description=""):
    """A shared register with no flow control (lossy, lowest latency)."""
    prefix = f"{prefix}_" if prefix and not prefix.endswith("_") else prefix
    ports = shared_register_ports(prefix, data_width)
    services = [
        make_shared_put_service(put_name, prefix, data_width, interface=put_interface),
        make_shared_get_service(get_name, prefix, data_width, interface=get_interface),
    ]
    return CommunicationUnit(
        name, ports=ports, services=services,
        description=description or "shared register (no flow control)",
    )
