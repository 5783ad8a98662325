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

A third, ``GOLDEN_COSYN``, pins co-synthesis output: the
``artifact_digest`` of :class:`~repro.sweep.jobs.CosynJob` records (the
VHDL and C text included) and the ``report_digest`` of
:class:`~repro.sweep.jobs.DseJob` records:

* seeds 0–59 on ``pc_at_fpga``;
* seeds 0–19 on every other platform the co-synthesis oracle allows for
  the seed's model;
* exploration reports of seeds 0–7 with two networks.

A change to a hash is a change to observable simulation or synthesis
behaviour.  If it is intended, say why in the change log and re-record
the constants from :func:`golden_digests` and :func:`cosyn_golden_digest`.
"""

import hashlib
import json

import pytest

from repro.cosim.faults import FAULT_KINDS
from repro.sweep.jobs import CosimJob, CosynJob, DseJob
from repro.testkit.models import generate_system
from repro.testkit.oracles import _compatible_platforms

GOLDEN = "80a7ea10aeb43bb2a20cd9aa840c2bebf28ba3728611b5981e1aec602f75a068"
GOLDEN_FSM = "ab17af1e22c2496df260b2ac3a27d2318fba767e1de37e19c22d72c3c96862bf"
GOLDEN_COSYN = "e06d7fcd963b1be3a20e11fd5d34e0d301326b6e1b1489ebaf3ff152eb3c06f0"

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


def cosyn_golden_jobs():
    """The pinned co-synthesis and exploration jobs, in a fixed order."""
    jobs = [CosynJob(seed) for seed in range(60)]
    for seed in range(20):
        model = generate_system(seed).build_model()
        jobs.extend(CosynJob(seed, platform=name)
                    for name in _compatible_platforms(model)
                    if name != "pc_at_fpga")
    jobs.extend(DseJob(seed, networks=2) for seed in range(8))
    return jobs


def cosyn_golden_digest():
    """sha256 over the artefact and report digests of the pinned
    co-synthesis and exploration jobs."""
    rows = []
    for job in cosyn_golden_jobs():
        record, _ = job.execute()
        assert record["error"] is None, record["error"]
        field = "report_digest" if job.kind == "dse" else "artifact_digest"
        rows.append([job.name, record[field]])
    return _sha256(rows)


def test_cosyn_and_dse_digests_match_the_golden_hash():
    assert cosyn_golden_digest() == GOLDEN_COSYN
