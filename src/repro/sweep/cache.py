"""Content-addressed cache for synthesis artefacts.

Co-synthesis is the expensive leg of a sweep: a full
:class:`~repro.cosyn.flow.CosynthesisFlow` run re-does HLS for every
hardware module.  Its outcome, however, is a pure function of the job spec
(generator seed, networks, platform, partition), so the sweep service
caches each result's ``as_dict(include_text=True)`` payload under the
sha256 of the canonical-JSON job spec — repeated partitions never re-run
HLS, across batches *and* across processes.

Layout: ``<root>/<key[:2]>/<key>.json``, each file a JSON envelope::

    {"format": 1, "key": ..., "sha256": <digest of payload>, "payload": ...}

written byte for byte as its ``canonical_json``, around the payload's one
canonical rendering (a :class:`~repro.utils.canonical.CanonicalPayload`).
A read therefore checks the sha256 over the stored payload bytes and
parses them once; it renders nothing, and an envelope that is not in
canonical form is invalid even when its checksum matches the payload.

Writes are atomic: the envelope is written to a uniquely-named temp file
*in the entry's own directory* and ``os.replace``-d over the destination,
so a crashed writer never leaves a half-written entry behind and two
processes ``put``-ing the same key concurrently simply race to
last-writer-wins — both write complete, checksummed envelopes.  Reads
tolerate a concurrent replace (an already-open handle keeps reading its
own consistent inode; a not-yet-present entry is a plain miss) and verify
the envelope: anything unreadable, truncated, not canonical or failing
the payload checksum is **deleted and treated as a miss** (counted in
``stats["invalidated"]``).  Invalidation is inode-guarded so a reader that
saw a corrupt entry does not delete the fresh entry a concurrent writer
replaced it with (best-effort: the guard closes the race down to a
stat/unlink window, and losing that race costs a re-run, never
correctness) — a corrupted cache can cost time, never correctness.
"""

import hashlib
import os
import tempfile

from repro.obs import TELEMETRY
from repro.utils.canonical import CanonicalPayload, canonical_json, content_digest

_FORMAT = 1
#: The canonical envelope is ``<head><payload>,"sha256":"<digest>"}``:
#: its keys sort as format, key, payload, sha256.
_DIGEST_FIELD = b',"sha256":"'
_CLOSE = b'"}'


def _envelope_head(key):
    return f'{{"format":{_FORMAT},"key":{canonical_json(key)},"payload":'.encode(
        "ascii")


class ArtifactCache:
    """Content-addressed JSON payload store rooted at a directory."""

    def __init__(self, root):
        self.root = str(root)
        self.stats = {"hits": 0, "misses": 0, "writes": 0, "invalidated": 0}

    # ------------------------------------------------------------------- keys

    @staticmethod
    def key_for(spec):
        """Cache key of a JSON-serializable job *spec* (canonical sha256)."""
        return content_digest(spec)

    def _path(self, key):
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------------ store

    def get(self, key):
        """Return the cached payload for *key*, or None on miss.

        The payload is a :class:`~repro.utils.canonical.CanonicalPayload`
        whose digest is the envelope's checksum, verified over the stored
        payload bytes; nothing is rendered.  A present-but-invalid entry
        (not the canonical envelope of *key*, truncated, checksum
        mismatch, unparsable payload) is removed and reported as a miss.
        """
        with TELEMETRY.span("sweep.cache_get", cat="sweep"):
            path = self._path(key)
            stamp = None
            try:
                with open(path, "rb") as handle:
                    # Identity of the inode actually read: a concurrent
                    # os.replace() swaps the directory entry but never
                    # this open handle, so the checks below see one
                    # consistent file — and invalidation can check it is
                    # still deleting the entry it judged, not a fresh
                    # replacement.
                    status = os.fstat(handle.fileno())
                    stamp = (status.st_dev, status.st_ino)
                    data = handle.read()
            except FileNotFoundError:
                self.stats["misses"] += 1
                return None
            except OSError:
                self._invalidate(path, stamp)
                return None
            head = _envelope_head(key)
            body, field, tail = data[len(head):].rpartition(_DIGEST_FIELD)
            digest = tail[:-len(_CLOSE)].decode("ascii", "replace")
            try:
                if (not data.startswith(head) or not field
                        or not tail.endswith(_CLOSE)
                        or hashlib.sha256(body).hexdigest() != digest):
                    raise ValueError("not the canonical envelope of its key")
                payload = CanonicalPayload.parse(body, digest)
            except ValueError:
                self._invalidate(path, stamp)
                return None
            self.stats["hits"] += 1
            return payload

    def put(self, key, payload):
        """Store *payload* under *key* atomically; returns it rendered.

        *payload* is a dict or a
        :class:`~repro.utils.canonical.CanonicalPayload`; the file is the
        envelope's :func:`~repro.utils.canonical.canonical_json` built
        around the payload's one rendering.
        """
        with TELEMETRY.span("sweep.cache_put", cat="sweep"):
            if not isinstance(payload, CanonicalPayload):
                payload = CanonicalPayload.render(payload)
            path = self._path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            descriptor, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(b"".join((
                        _envelope_head(key), payload.text.encode("ascii"),
                        _DIGEST_FIELD, payload.digest.encode("ascii"), _CLOSE,
                    )))
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
            self.stats["writes"] += 1
            return payload

    def _invalidate(self, path, stamp=None):
        """Remove a bad entry; count the miss.

        *stamp* is the ``(st_dev, st_ino)`` identity of the inode the
        failed read actually saw.  When the directory entry no longer
        points at it — a concurrent ``put`` replaced the corrupt file
        with a fresh one — the unlink is skipped so the reader cannot
        half-invalidate its neighbour's good write.
        """
        self.stats["misses"] += 1
        self.stats["invalidated"] += 1
        try:
            if stamp is not None:
                status = os.stat(path)
                if (status.st_dev, status.st_ino) != stamp:
                    return
            os.unlink(path)
        except OSError:
            pass

    def __repr__(self):
        return f"ArtifactCache({self.root!r}, stats={self.stats})"
