"""Canonical JSON rendering and content digests.

Content addressing — the sweep cache keying synthesis artefacts by the
``as_dict()`` form of their inputs, job and result digests in sweep
reports — needs one byte-exact rendering per value.  ``canonical_json``
fixes separators, key order and ASCII escaping, so equal dicts digest
equally on every platform and Python version; ``content_digest`` is the
sha256 of that rendering.  A :class:`CanonicalPayload` carries both for
one JSON object, so a job's artefact is rendered once however many
digests, checksums and files derive from it.
"""

import hashlib
import json


def canonical_json(value):
    """The unique, byte-stable JSON rendering of *value*."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def content_digest(value):
    """sha256 hex digest of :func:`canonical_json` of *value*."""
    return hashlib.sha256(canonical_json(value).encode("ascii")).hexdigest()


class CanonicalPayload(dict):
    """A JSON object with its canonical rendering and that rendering's digest.

    ``text`` is :func:`canonical_json` of the object and ``digest`` its
    sha256 (:func:`content_digest`), fixed when the payload is made:
    :meth:`render` renders a value once, :meth:`parse` takes stored
    canonical bytes whose digest was already checked and renders nothing.
    The payload is a plain dict otherwise; do not mutate it, or ``text``
    and ``digest`` stop describing it.
    """

    __slots__ = ("text", "digest")

    @classmethod
    def render(cls, value):
        """The payload of dict *value*: one canonical rendering."""
        payload = cls(value)
        payload.text = canonical_json(value)
        payload.digest = hashlib.sha256(
            payload.text.encode("ascii")).hexdigest()
        return payload

    @classmethod
    def parse(cls, data, digest):
        """The payload stored as canonical ASCII *data* with sha256 *digest*.

        Raises ``ValueError`` unless *data* holds a JSON object.
        """
        value = json.loads(data)
        if not isinstance(value, dict):
            raise ValueError("a payload is a JSON object")
        payload = cls(value)
        payload.text = data.decode("ascii")
        payload.digest = digest
        return payload
