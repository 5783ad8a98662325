"""A fixed-size least-recently-used map.

The fused code cache of :mod:`repro.ir.syscompile` is keyed on the
generated source, so long-running processes — sweep workers, the job
server — would otherwise keep one entry per distinct fragment or step they
ever compiled.  An :class:`LruCache` keeps the *maxsize* most recently
used entries and evicts the rest; an evicted code object is simply
recompiled on its next use.  (The retired per-FSM generator of
:mod:`repro.ir.compile` keeps no cache.)
"""

from collections import OrderedDict


class LruCache:
    """Mapping of at most *maxsize* entries, evicting the least recently used."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self._entries = OrderedDict()

    def get(self, key):
        """The value stored under *key* (now most recent), or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value):
        """Store *value* as the most recent entry, evicting past the bound."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)
