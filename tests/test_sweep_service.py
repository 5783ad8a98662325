"""The batched scenario-sweep service.

Pins the acceptance contract of ``repro.sweep``:

* a ≥100-job testkit batch on a worker pool produces a report
  **byte-identical** to the serial run,
* a warm-cache re-run of co-synthesis jobs performs **zero** HLS
  re-synthesis (counted at the synthesis entry points, not inferred),
* failures degrade to deterministic error records, never aborted batches.
"""

import json

import pytest

import repro.cosyn.flow as cosyn_flow
from repro.sweep import (
    ArtifactCache,
    CosimJob,
    CosynJob,
    KernelJob,
    SweepService,
    job_from_dict,
    jobs_from_dse_report,
)
from repro.sweep.__main__ import (
    DEFAULT_COSIM_JOBS,
    DEFAULT_COSYN_JOBS,
    DEFAULT_KERNEL_TIER,
    main,
)


def default_cli_batch():
    """The job list ``python -m repro.sweep`` runs by default."""
    jobs = [KernelJob(size, seed)
            for size, count in DEFAULT_KERNEL_TIER for seed in range(count)]
    jobs.extend(CosimJob(seed) for seed in range(DEFAULT_COSIM_JOBS))
    jobs.extend(CosynJob(seed) for seed in range(DEFAULT_COSYN_JOBS))
    return jobs


class TestSerialParallelParity:
    def test_default_batch_is_byte_identical_across_worker_counts(self, tmp_path):
        jobs = default_cli_batch()
        assert len(jobs) >= 100, "the acceptance batch must stay >= 100 jobs"
        serial = SweepService(jobs, workers=1,
                              cache=ArtifactCache(tmp_path / "serial")).run()
        parallel = SweepService(jobs, workers=4,
                                cache=ArtifactCache(tmp_path / "parallel")).run()
        assert serial.to_json() == parallel.to_json()
        assert serial.ok
        assert len(serial.records) == len(jobs)

    def test_records_keep_submission_order(self):
        jobs = [KernelJob("tiny", seed) for seed in (5, 1, 3)]
        report = SweepService(jobs, workers=2).run()
        assert [record["name"] for record in report.records] == [
            "kernel-tiny-5@production",
            "kernel-tiny-1@production",
            "kernel-tiny-3@production",
        ]


class TestArtifactCaching:
    def _count_synthesis(self, monkeypatch):
        counters = {"hw": 0, "sw": 0}
        real_hw = cosyn_flow.synthesize_hardware
        real_sw = cosyn_flow.synthesize_software

        def counting_hw(*args, **kwargs):
            counters["hw"] += 1
            return real_hw(*args, **kwargs)

        def counting_sw(*args, **kwargs):
            counters["sw"] += 1
            return real_sw(*args, **kwargs)

        monkeypatch.setattr(cosyn_flow, "synthesize_hardware", counting_hw)
        monkeypatch.setattr(cosyn_flow, "synthesize_software", counting_sw)
        return counters

    def test_warm_cache_rerun_does_zero_resynthesis(self, tmp_path, monkeypatch):
        counters = self._count_synthesis(monkeypatch)
        jobs = [CosynJob(seed, platform=platform)
                for seed in range(4)
                for platform in ("pc_at_fpga", "microcoded")]
        cold = SweepService(jobs, workers=1,
                            cache=ArtifactCache(tmp_path)).run()
        assert counters["hw"] + counters["sw"] > 0
        assert cold.cosyn_executed() == len(jobs)
        assert cold.cosyn_cached() == 0

        counters["hw"] = counters["sw"] = 0
        warm = SweepService(jobs, workers=1,
                            cache=ArtifactCache(tmp_path)).run()
        assert counters == {"hw": 0, "sw": 0}, \
            "a warm-cache re-run must not re-run synthesis"
        assert warm.cosyn_executed() == 0
        assert warm.cosyn_cached() == len(jobs)
        assert warm.cache_stats["hits"] == len(jobs)
        assert warm.cache_stats["misses"] == 0
        # Cached records carry the same artefact identity as fresh ones.
        for fresh, cached in zip(cold.records, warm.records):
            assert cached["cached"] is True
            assert cached["artifact_digest"] == fresh["artifact_digest"]

    def test_corrupted_entry_recovers_by_resynthesis(self, tmp_path):
        job = CosynJob(0)
        cache = ArtifactCache(tmp_path)
        SweepService([job], cache=cache).run()
        path = cache._path(ArtifactCache.key_for(job.spec()))
        with open(path, "w") as handle:
            handle.write("garbage")
        fresh_cache = ArtifactCache(tmp_path)
        report = SweepService([job], cache=fresh_cache).run()
        assert report.cosyn_executed() == 1
        assert fresh_cache.stats["invalidated"] == 1
        assert report.ok

    def test_uncached_service_still_works(self):
        report = SweepService([CosynJob(0)]).run()
        assert report.ok
        assert report.cache_stats is None


class TestJobBehaviour:
    def test_error_jobs_become_records_not_aborts(self):
        jobs = [KernelJob("tiny", 0),
                CosynJob(0, platform="no_such_platform"),
                KernelJob("tiny", 1)]
        serial = SweepService(jobs, workers=1).run()
        pooled = SweepService(jobs, workers=2).run()
        assert serial.to_json() == pooled.to_json()
        assert not serial.ok
        assert len(serial.errors) == 1
        assert "no_such_platform" in serial.errors[0]["error"]
        assert serial.records[0]["error"] is None
        assert serial.records[2]["error"] is None

    def test_checkpointed_cosim_job_matches_uninterrupted(self):
        plain, _ = CosimJob(6, until=30_000).execute()
        via_checkpoint, _ = CosimJob(6, until=30_000,
                                     checkpoint_at=11_111).execute()
        assert via_checkpoint["fingerprint_digest"] == \
            plain["fingerprint_digest"]
        assert via_checkpoint["end_time"] == plain["end_time"]

    def test_checkpointed_fused_job_keeps_the_fsm_counters(self):
        # The fused-step count is derived from the candidates' steps, which
        # travel in the checkpoint; the record must not tell the two apart.
        plain, _ = CosimJob(6).execute()
        via_checkpoint, _ = CosimJob(6, checkpoint_at=3_000).execute()
        assert plain["tier"] == via_checkpoint["tier"] == "fused"
        assert plain["fsm"]["system_compile_hits"] > 0
        assert via_checkpoint["fsm"] == plain["fsm"]

    def test_cosim_completion_mode_checks_expectations(self):
        record, payload = CosimJob(0).execute()
        assert payload is None
        assert record["functional_problems"] == []
        assert record["sw_finished_all"] is True

    def test_job_validation(self):
        with pytest.raises(ValueError, match="size"):
            KernelJob("gigantic", 0)
        with pytest.raises(ValueError, match="before"):
            CosimJob(0, until=100, checkpoint_at=100)
        with pytest.raises(ValueError, match="kind"):
            job_from_dict({"kind": "warp"})
        with pytest.raises(ValueError, match="bad cosim job"):
            job_from_dict({"kind": "cosim", "sneed": 3})

    @pytest.mark.parametrize("retired", [
        {"batch": 3},
        {"fault_kind": "stuck_handshake", "fault_at_offset": 500},
    ], ids=["batch", "fault_at_offset"])
    def test_retired_cosim_argument_is_refused(self, retired):
        # A retired argument is refused, never silently ignored.
        with pytest.raises(ValueError, match="bad cosim job"):
            job_from_dict({"kind": "cosim", "seed": 0, **retired})
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            CosimJob(0, **retired)

    def test_unknown_tier_is_refused_at_construction(self):
        for spec in ({"kind": "cosim", "seed": 0, "tier": "bogus"},
                     {"kind": "cosim", "seed": 0, "tier": "compiled"},
                     {"kind": "conformance", "scenario": "system-0",
                      "tier": "compiled"},
                     {"kind": "cosim", "seed": 0, "tier": "differential"},
                     {"kind": "conformance", "scenario": "system-0",
                      "tier": "per-fsm"}):
            with pytest.raises(ValueError, match="unknown tier"):
                job_from_dict(spec)
        assert job_from_dict({"kind": "conformance", "scenario": "system-0",
                              "tier": "differential"}).tier == "differential"

    def test_job_from_dict_round_trips_spec(self):
        for job in (KernelJob("small", 7, kernel="reference"),
                    CosimJob(2, networks=4, until=9_000, checkpoint_at=100),
                    CosynJob(1, platform="microcoded",
                             hw_modules=["Cons0", "Prod0"])):
            clone = job_from_dict(job.spec())
            assert clone.spec() == job.spec()
            assert clone.name == job.name

    def test_coverage_job_records_scoreboard_and_caches(self, tmp_path):
        """A ``--coverage`` cosim job is cacheable: record + map round-trip."""
        job = CosimJob(2, coverage=True)
        assert job.cacheable
        record, payload = job.execute()
        board = record["scoreboard"]
        assert 0.0 < board["state_coverage"] <= 1.0
        assert board["fault_survival"] is None
        assert set(payload) == {"record", "coverage"}
        assert payload["coverage"]["format"] == 1
        clone = job_from_dict(job.spec())
        served = clone.record_from_payload(payload, cached=True)
        expected = dict(record)
        expected["cached"] = True
        assert served == expected

        cache_dir = str(tmp_path / "cache")
        cold = SweepService([job], workers=1,
                            cache=ArtifactCache(cache_dir)).run()
        warm = SweepService([job], workers=1,
                            cache=ArtifactCache(cache_dir)).run()
        assert cold.records[0]["cached"] is False
        assert warm.records[0]["cached"] is True
        assert warm.records[0]["coverage_digest"] == \
            cold.records[0]["coverage_digest"]

    def test_faulted_cosim_job_reports_survival_not_problems(self):
        job = CosimJob(2, coverage=True, fault_kind="stuck_handshake")
        assert "+stuck_handshake" in job.name
        record, _ = job.execute()
        # The stale-acknowledge word loss makes this FIFO system a known
        # casualty of the masked consumer ack; the job must report that as
        # fault survival data, never as a functional failure of the sweep.
        assert record["error"] is None
        assert record["functional_problems"] is None
        assert record["fault_survival"] in (True, False)
        assert record["scoreboard"]["fault_survival"] == \
            record["fault_survival"]
        with pytest.raises(ValueError, match="fault kind"):
            CosimJob(0, fault_kind="gamma_rays")

    def test_jobs_from_dse_report_front(self):
        report = {"front": [
            {"platform": "microcoded", "hw_modules": ["Prod0"]},
            {"platform": "unix_ipc", "hw_modules": []},
        ]}
        jobs = jobs_from_dse_report(report, seed=3, networks=2)
        assert [job.platform for job in jobs] == ["microcoded", "unix_ipc"]
        assert jobs[0].hw_modules == ["Prod0"]
        assert all(job.seed == 3 and job.networks == 2 for job in jobs)


class TestCommandLine:
    def test_quick_selfcheck_passes(self, capsys):
        exit_code = main(["--quick", "--selfcheck", "--workers", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "parity: serial == parallel" in out
        assert "zero re-synthesis" in out

    def test_job_file_and_report_output(self, tmp_path, capsys):
        job_file = tmp_path / "jobs.json"
        job_file.write_text(json.dumps([
            {"kind": "kernel", "size": "tiny", "seed": 2},
            {"kind": "cosyn", "seed": 1},
        ]))
        out_file = tmp_path / "report.json"
        exit_code = main(["--jobs", str(job_file), "--workers", "1",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--out", str(out_file)])
        assert exit_code == 0
        report = json.loads(out_file.read_text())
        assert report["totals"]["jobs"] == 2
        assert report["totals"]["by_kind"] == {"kernel": 1, "cosyn": 1}

    @pytest.mark.parametrize("entry, message", [
        ("huge=1", "unknown size 'huge'"),
        ("tiny=x", "count must be a positive int, got 'x'"),
        ("tiny=-2", "count must be a positive int, got '-2'"),
        ("tiny", "expected SIZE=COUNT"),
    ])
    def test_kernel_cli_refuses_bad_entries(self, capsys, entry, message):
        with pytest.raises(SystemExit) as exc:
            main(["--kernel", entry])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --kernel" in err and message in err

    def test_kernel_cli_runs_the_requested_tier(self, tmp_path):
        out_file = tmp_path / "report.json"
        assert main(["--kernel", "tiny=2", "--workers", "1",
                     "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["totals"]["by_kind"] == {"kernel": 2}

    def test_unknown_size_fails_cleanly(self, tmp_path, capsys):
        job_file = tmp_path / "jobs.json"
        job_file.write_text(json.dumps([{"kind": "kernel", "size": "nope",
                                         "seed": 0}]))
        assert main(["--jobs", str(job_file)]) == 2
