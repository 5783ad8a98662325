"""Identifier helpers.

The generated C and VHDL views must use names that are legal in both
languages, so identifiers accepted by the model are restricted to the common
subset: a letter followed by letters, digits or underscores, not ending with
an underscore and never containing two consecutive underscores (a VHDL
restriction).
"""

import itertools
import re

from repro.utils.errors import ModelError

_IDENTIFIER_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

# Words reserved in either VHDL or C; the check is deliberately conservative.
_RESERVED = {
    "begin", "end", "entity", "architecture", "process", "signal", "case",
    "when", "if", "then", "else", "elsif", "procedure", "function", "return",
    "int", "char", "float", "double", "void", "switch", "break", "default",
    "while", "for", "do", "struct", "typedef", "enum", "static", "const",
    "in", "out", "inout", "is", "of", "type", "variable", "wait", "port",
}


#: Names already found valid, so each distinct name is checked once.
#: Bounded: emptied when full.
_VALID = set()
_VALID_LIMIT = 8192


def check_identifier(name, what="identifier"):
    """Validate *name* as a C/VHDL-compatible identifier and return it.

    Raises :class:`ModelError` when the name is unusable in the generated
    views.
    """
    if not isinstance(name, str) or not name:
        raise ModelError(f"{what} must be a non-empty string, got {name!r}")
    if name in _VALID:
        return name
    if not _IDENTIFIER_RE.match(name):
        raise ModelError(f"{what} {name!r} is not a valid C/VHDL identifier")
    if "__" in name or name.endswith("_"):
        raise ModelError(f"{what} {name!r} is not portable to VHDL (underscore rule)")
    if name.lower() in _RESERVED:
        raise ModelError(f"{what} {name!r} collides with a C/VHDL reserved word")
    if len(_VALID) >= _VALID_LIMIT:
        _VALID.clear()
    _VALID.add(name)
    return name


class unique_name:
    """Callable factory producing unique identifiers with a common prefix.

    >>> fresh = unique_name("tmp")
    >>> fresh(), fresh()
    ('tmp1', 'tmp2')
    """

    def __init__(self, prefix="n"):
        check_identifier(prefix, "prefix")
        self._prefix = prefix
        self._counter = itertools.count(1)

    def __call__(self):
        return f"{self._prefix}{next(self._counter)}"
