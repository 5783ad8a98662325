"""The content-addressed artefact cache: hit/miss, corruption, concurrency."""

import json
import multiprocessing
import os
import time

import pytest

from repro.sweep.cache import ArtifactCache
from repro.utils.canonical import canonical_json, content_digest


SPEC = {"kind": "cosyn", "seed": 3, "networks": None,
        "platform": "pc_at_fpga", "hw_modules": ["Prod0"]}
PAYLOAD = {"ok": True, "total_clbs": 41, "hardware": {"Prod0": {"clbs": 41}}}


class TestArtifactCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        assert cache.get(key) is None
        cache.put(key, PAYLOAD)
        assert cache.get(key) == PAYLOAD
        assert cache.stats == {"hits": 1, "misses": 1, "writes": 1,
                               "invalidated": 0}

    def test_keys_are_stable_and_order_independent(self):
        reordered = dict(reversed(list(SPEC.items())))
        assert ArtifactCache.key_for(SPEC) == ArtifactCache.key_for(reordered)
        assert ArtifactCache.key_for(SPEC) != ArtifactCache.key_for(
            {**SPEC, "seed": 4})

    def test_cache_survives_process_boundaries_via_directory(self, tmp_path):
        key = ArtifactCache.key_for(SPEC)
        ArtifactCache(tmp_path).put(key, PAYLOAD)
        fresh = ArtifactCache(tmp_path)
        assert fresh.get(key) == PAYLOAD

    def test_unparsable_entry_is_invalidated(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        cache.put(key, PAYLOAD)
        path = cache._path(key)
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert cache.get(key) is None
        assert not os.path.exists(path), "corrupted entry must be deleted"
        assert cache.stats["invalidated"] == 1
        # ...and the slot is usable again.
        cache.put(key, PAYLOAD)
        assert cache.get(key) == PAYLOAD

    def test_truncated_entry_is_invalidated(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        cache.put(key, PAYLOAD)
        path = cache._path(key)
        blob = open(path).read()
        with open(path, "w") as handle:
            handle.write(blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert cache.stats["invalidated"] == 1

    def test_payload_tamper_fails_the_checksum(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        cache.put(key, PAYLOAD)
        path = cache._path(key)
        envelope = json.load(open(path))
        envelope["payload"]["total_clbs"] = 9999  # checksum now stale
        with open(path, "w") as handle:
            handle.write(canonical_json(envelope))
        assert cache.get(key) is None
        assert cache.stats["invalidated"] == 1

    def test_wrong_key_in_envelope_is_invalidated(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        cache.put(key, PAYLOAD)
        path = cache._path(key)
        envelope = json.load(open(path))
        envelope["key"] = "0" * 64
        envelope["sha256"] = content_digest(envelope["payload"])
        with open(path, "w") as handle:
            handle.write(canonical_json(envelope))
        assert cache.get(key) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for index in range(5):
            cache.put(ArtifactCache.key_for({"n": index}), {"v": index})
        leftovers = [name for _, _, files in os.walk(tmp_path)
                     for name in files if name.endswith(".tmp")]
        assert leftovers == []

    def test_invalidation_spares_a_concurrently_replaced_entry(self, tmp_path):
        """A reader that judged a corrupt inode must not delete its successor.

        Interleaving: reader opens the (corrupt) entry and fails the parse;
        before it gets to unlink, a concurrent writer ``put``-s a fresh,
        valid entry over the same path (``os.replace`` → new inode).  The
        inode-guarded invalidation must notice the swap and keep the fresh
        entry readable.
        """
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        cache.put(key, PAYLOAD)
        path = cache._path(key)
        with open(path, "w") as handle:
            handle.write("{ corrupt")
        status = os.stat(path)
        stamp = (status.st_dev, status.st_ino)  # what the failed read saw
        ArtifactCache(tmp_path).put(key, PAYLOAD)  # concurrent fresh write
        cache._invalidate(path, stamp)
        assert ArtifactCache(tmp_path).get(key) == PAYLOAD

    def test_unguarded_invalidation_still_deletes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        cache.put(key, PAYLOAD)
        cache._invalidate(cache._path(key))
        assert not os.path.exists(cache._path(key))


# ---------------------------------------------------------------------------
# Multi-process stress: the threaded/process-pooled server hammers one cache
# directory from many writers and readers at once.

_KEYS = 3


def _stress_payload(index):
    return {"v": index, "blob": "x" * 512 * (index + 1)}


def _stress_worker(root, worker, rounds, failures):
    cache = ArtifactCache(root)
    problems = []
    for step in range(rounds):
        index = (worker + step) % _KEYS
        key = ArtifactCache.key_for({"stress": index})
        try:
            if step % 3 == 0:
                cache.put(key, _stress_payload(index))
            got = cache.get(key)
            if got is not None and got != _stress_payload(index):
                problems.append(f"worker {worker} step {step}: wrong payload")
        except Exception as exc:  # noqa: BLE001 — any leak is the failure
            problems.append(f"worker {worker} step {step}: {exc!r}")
    failures.extend(problems)


class TestArtifactCacheConcurrency:
    def test_multiprocess_same_key_put_get_stress(self, tmp_path):
        """Concurrent same-key puts/gets: never an exception, never a torn
        or foreign payload, and every entry is valid once the dust settles.
        """
        context = multiprocessing.get_context("fork")
        with multiprocessing.Manager() as manager:
            failures = manager.list()
            workers = [
                context.Process(target=_stress_worker,
                                args=(str(tmp_path), worker, 150, failures))
                for worker in range(4)
            ]
            for process in workers:
                process.start()
            for process in workers:
                process.join(timeout=120)
            assert all(process.exitcode == 0 for process in workers)
            assert list(failures) == []
        cache = ArtifactCache(tmp_path)
        for index in range(_KEYS):
            key = ArtifactCache.key_for({"stress": index})
            assert cache.get(key) == _stress_payload(index)
        assert cache.stats["invalidated"] == 0


# ---------------------------------------------------------------------------
# Byte-level envelope rule: the file is canonical_json(envelope), so the
# checksum is verified over the stored payload bytes and nothing renders.

def _old_put(cache, key, payload):
    """The envelope as the first cache format wrote it: canonical JSON of
    the parsed envelope dict, checksum over the payload's rendering."""
    path = cache._path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    envelope = {"format": 1, "key": key, "sha256": content_digest(payload),
                "payload": payload}
    with open(path, "w", encoding="ascii") as handle:
        handle.write(canonical_json(envelope))


class TestCanonicalEnvelope:
    def test_put_writes_exactly_the_canonical_envelope(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        cache.put(key, PAYLOAD)
        envelope = {"format": 1, "key": key,
                    "sha256": content_digest(PAYLOAD), "payload": PAYLOAD}
        with open(cache._path(key), "rb") as handle:
            assert handle.read() == canonical_json(envelope).encode("ascii")

    def test_an_entry_written_by_the_old_put_still_hits(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        _old_put(cache, key, PAYLOAD)
        payload = cache.get(key)
        assert payload == PAYLOAD
        assert payload.digest == content_digest(PAYLOAD)
        assert cache.stats["hits"] == 1

    def test_reindented_payload_is_invalidated_despite_its_checksum(
            self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        cache.put(key, PAYLOAD)
        path = cache._path(key)
        with open(path, "w", encoding="ascii") as handle:
            handle.write(
                f'{{"format":1,"key":"{key}","payload":'
                + json.dumps(PAYLOAD, indent=2, sort_keys=True)
                + f',"sha256":"{content_digest(PAYLOAD)}"}}')
        # The old reader parsed and re-rendered, and accepted this entry.
        with open(path, encoding="ascii") as handle:
            stored = json.load(handle)
        assert stored["sha256"] == content_digest(stored["payload"])
        assert cache.get(key) is None
        assert cache.stats["invalidated"] == 1
        assert not os.path.exists(path)

    def test_payload_that_is_not_an_object_is_invalidated(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.key_for(SPEC)
        _old_put(cache, key, [1, 2, 3])
        assert cache.get(key) is None
        assert cache.stats["invalidated"] == 1


class _CountingJson:
    """Stands in for ``json`` in ``repro.utils.canonical``: counts the
    renderings of a job payload (a dict carrying *marker*, one of the
    payload's own keys), alone or inside a cache envelope."""

    def __init__(self, marker):
        self.marker = marker
        self.renderings = 0

    def dumps(self, value, **kwargs):
        inner = value.get("payload") if isinstance(value, dict) else None
        for rendered in (value, inner):
            if isinstance(rendered, dict) and self.marker in rendered:
                self.renderings += 1
        return json.dumps(value, **kwargs)

    loads = staticmethod(json.loads)


def _cosyn_job():
    from repro.sweep import CosynJob

    return CosynJob(3, networks=3)


def _dse_job():
    from repro.sweep import DseJob

    return DseJob(1, networks=2)


class TestOneRenderingPerPayload:
    @pytest.mark.parametrize("make_job, marker",
                             [(_cosyn_job, "hardware"), (_dse_job, "front")])
    def test_a_miss_renders_once_and_a_hit_never(self, tmp_path, monkeypatch,
                                                 make_job, marker):
        from repro.sweep import SweepService
        from repro.utils import canonical

        counting = _CountingJson(marker)
        monkeypatch.setattr(canonical, "json", counting)
        cache = ArtifactCache(tmp_path)
        fresh = SweepService([make_job()], cache=cache).run().records[0]
        assert fresh["cached"] is False
        assert counting.renderings == 1
        served = SweepService([make_job()], cache=cache).run().records[0]
        assert served["cached"] is True
        assert counting.renderings == 1
        assert {**served, "cached": False} == fresh

    def test_server_records_fresh_and_served_carry_equal_digests(
            self, tmp_path):
        from repro.server import JobService

        service = JobService(workers=1, cache=str(tmp_path)).start()
        try:
            spec = _cosyn_job().spec()
            (cold,) = service.submit_body(spec)
            deadline = time.monotonic() + 90
            while cold.state not in ("done", "failed"):
                assert time.monotonic() < deadline, cold.summary()
                time.sleep(0.02)
            (warm,) = service.submit_body(spec)
            assert cold.state == warm.state == "done"
            assert not cold.cached and warm.cached
            assert warm.record["artifact_digest"] \
                == cold.record["artifact_digest"]
            assert {**warm.record, "cached": False} == cold.record
            assert service.artifact(warm.id).digest \
                == cold.record["artifact_digest"]
        finally:
            service.stop()
