"""Golden hash over the conformance fingerprints of the sweep's cosim jobs.

The conformance fingerprint is the project's spec: every refactor of the
co-simulation stack must leave it byte-identical.  This file pins one
sha256 over the ``fingerprint_digest``, ``fault_survival`` and
``coverage_digest`` fields of the :class:`~repro.sweep.jobs.CosimJob`
records of a fixed job population:

* plain runs to completion, seeds 0–299;
* every fault kind × seeds 0–7 (unit ``seed % 3``);
* checkpoint round-trips with coverage collection, seeds 0–7.

A second sha256 pins the records' ``fsm`` counter dicts (steps,
transitions, the interpreted/fused split, fallbacks), which are not part
of the fingerprint.

A change to a hash is a change to observable simulation behaviour.  If
it is intended, say why in the change log and re-record the constants
from :func:`golden_digests`.
"""

import hashlib
import json

import pytest

from repro.cosim.faults import FAULT_KINDS
from repro.sweep.jobs import CosimJob

GOLDEN = "80a7ea10aeb43bb2a20cd9aa840c2bebf28ba3728611b5981e1aec602f75a068"
GOLDEN_FSM = "ab17af1e22c2496df260b2ac3a27d2318fba767e1de37e19c22d72c3c96862bf"

FIELDS = ("fingerprint_digest", "fault_survival", "coverage_digest")


def golden_jobs():
    """The pinned job population, in a fixed order."""
    jobs = [CosimJob(seed) for seed in range(300)]
    for kind in FAULT_KINDS:
        for seed in range(8):
            jobs.append(CosimJob(seed, fault_kind=kind,
                                 fault_unit_index=seed % 3))
    jobs.extend(CosimJob(seed, checkpoint_at=3000, coverage=True)
                for seed in range(8))
    return jobs


def _sha256(rows):
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_digests():
    """sha256 over the pinned fields, and over the ``fsm`` dicts, of the
    golden jobs' records."""
    rows, fsm_rows = [], []
    for job in golden_jobs():
        record, _ = job.execute()
        assert record["error"] is None, record["error"]
        rows.append([job.name] + [record.get(field) for field in FIELDS])
        fsm_rows.append([job.name, record["fsm"]])
    return _sha256(rows), _sha256(fsm_rows)


@pytest.fixture(scope="module")
def digests():
    return golden_digests()


def test_cosim_job_fingerprints_match_the_golden_hash(digests):
    assert digests[0] == GOLDEN


def test_cosim_job_fsm_counters_match_the_golden_hash(digests):
    assert digests[1] == GOLDEN_FSM
