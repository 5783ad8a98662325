"""Objects that are read-only once built.

The behavioural IR (``Fsm`` and its parts) and the communication library
(units, their services, controllers and ports) are shared: lint memos,
fused-code caches and the channel factories' unit memo all key on object
identity, and one library unit serves every model that instantiates it.
That is only sound when nothing can change an object after it was built,
so these classes derive from :class:`ReadOnly`: their ``__init__`` checks
its arguments, stores sequences as tuples and mappings behind
``types.MappingProxyType``, and hands every attribute to
:meth:`ReadOnly._seal`.
"""

_store = object.__setattr__


class ReadOnly:
    """Base of objects that refuse attribute assignment and deletion.

    Attributes are stored once, by :meth:`_seal`; reads stay plain
    instance-dictionary lookups, so a read-only object costs nothing
    after construction.  Pickling restores the instance dictionary
    without ``__setattr__``; a mapping proxy cannot be pickled, so a
    class holding one rebuilds itself through its constructor
    (``__reduce__``).
    """

    def _seal(self, **attributes):
        """Store *attributes*, past the refusing ``__setattr__``.

        ``object.__setattr__`` keeps the attributes in the object's
        compact inline storage; going through ``vars(self)`` would give
        every IR node a full dictionary (about a fifth more memory per
        library unit).
        """
        for name, value in attributes.items():
            _store(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is read-only once built "
            f"(cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is read-only once built "
            f"(cannot delete {name!r})")
