"""A fixed-size least-recently-used map.

Two process-wide memos would otherwise grow with every distinct input a
long-running process — a sweep worker, the job server — ever saw: the
fused code cache of :mod:`repro.ir.syscompile`, keyed on the generated
source, and the communication-unit library of :mod:`repro.comm.channels`,
keyed on a factory's arguments.  An :class:`LruCache` keeps the *maxsize*
most recently used entries and evicts the rest; an evicted entry is
simply rebuilt on its next use.  (The retired per-FSM generator of
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
