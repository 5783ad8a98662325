"""ISA (PC-AT extension bus) model.

The paper's prototype uses "a 16-bit parallel bus (synchronous communication,
10 MHz, address 300h)"; this model captures the address window, the word
width and the transfer timing.
"""

from repro.platforms.base import BusModel


class IsaBus(BusModel):
    """16-bit ISA extension bus with a fixed I/O window."""

    def __init__(self, base_address=0x300, window=0x10, clock_hz=10_000_000,
                 cycles_per_transfer=3):
        super().__init__("isa", width_bits=16, clock_hz=clock_hz,
                         cycles_per_transfer=cycles_per_transfer)
        self.base_address = base_address
        self.window = window

    def address_range(self):
        return range(self.base_address, self.base_address + self.window)

    def assign_addresses(self, port_names, base=None):
        """Assign one I/O address per port, starting at *base* (default 0x300).

        Assignment never fails: ports beyond the window get consecutive
        addresses past its end, so the co-synthesis flow can still produce
        its full report and flag the overflow as a constraint problem
        ("address map needs N locations, bus window offers W") instead of
        crashing mid-synthesis.  :meth:`address_range` remains the legal
        window.
        """
        base = self.base_address if base is None else base
        return {name: base + offset for offset, name in enumerate(port_names)}
