"""Smoke tests of the cosim perf harness (``python -m benchmarks.perf.cosim``).

Like ``test_perf_harness.py`` for the kernel suite: running the harness's
small points inside the test suite keeps the benchmark code working as the
backplane evolves, and the regression-gate logic (``--check``) is pinned on
synthetic runs so it cannot silently go vacuous.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf.cosim import (  # noqa: E402  (path setup above)
    ACCEPTANCE_POINTS,
    SCHEMA,
    check_against_baseline,
    check_fast_paths,
    main,
    time_cosim_point,
)
from benchmarks.perf.cosim_workloads import COSIM_WORKLOADS  # noqa: E402
from benchmarks.perf.harness import update_bench_file  # noqa: E402

TRANSITION_RATE, MIXED_SYSTEM = COSIM_WORKLOADS


def test_quick_sizes_are_subset_of_full_sizes():
    # The --check gate compares quick runs against recorded baselines, so
    # every quick point must exist in the full sweep too.
    for workload in COSIM_WORKLOADS:
        assert set(workload.quick_sizes) <= set(workload.sizes)


def test_acceptance_points_exist_in_full_sweep():
    sizes = {workload.name: workload.sizes for workload in COSIM_WORKLOADS}
    for workload, scale, threshold in ACCEPTANCE_POINTS:
        assert scale in sizes[workload]
        assert threshold > 1.0


def test_transition_rate_point_counts_transitions():
    point = time_cosim_point(TRANSITION_RATE, 2, quick=True)
    assert point["wall_s"] >= 0
    assert point["tier"] == "fused"
    assert point["fsm"]["steps"] > 0
    # Transition-rate-bound by construction: every step fires, and under
    # the fused tier every hardware step lands in the fused program.
    assert point["fsm"]["transitions_fired"] == point["fsm"]["steps"]
    assert point["fsm"]["system_compile_hits"] == point["fsm"]["steps"]
    assert point["fsm"]["system_fallback"] == 0
    assert point["fsm"]["fallback"] == 0
    assert point["clock_fast_edges"] > 0
    # Every edge changes the datapath registers: no period is steady.
    assert point["clock_skipped_edges"] == 0


def test_mixed_point_skips_its_quiet_tail():
    point = time_cosim_point(MIXED_SYSTEM, 1, quick=True)
    assert point["tier"] == "fused"
    assert 0 < point["clock_skipped_edges"] < point["clock_fast_edges"]


def test_interpreted_transition_rate_point_takes_clock_fast_path():
    point = time_cosim_point(TRANSITION_RATE, 2, "interpreted", quick=True)
    assert point["tier"] == "interpreted"
    assert point["clock_fast_edges"] > 0
    assert point["fsm"]["interpreted"] == point["fsm"]["steps"] > 0
    assert point["fsm"]["system_compile_hits"] == 0


def test_interpreted_point_reports_interpreted_steps():
    point = time_cosim_point(MIXED_SYSTEM, 1, "interpreted", quick=True)
    assert point["tier"] == "interpreted"
    assert point["fsm"]["interpreted"] == point["fsm"]["steps"] > 0
    # The interpreted tier was requested: no fallback.
    assert point["fsm"]["fallback"] == 0


def test_repeats_validated():
    with pytest.raises(ValueError, match="repeats"):
        time_cosim_point(TRANSITION_RATE, 2, repeats=0)


def _synthetic_run(points, **extra):
    run = {"results": [
        {"workload": workload, "n_processes": n, "wall_s": wall}
        for workload, n, wall in points
    ]}
    run.update(extra)
    return run


def test_update_bench_file_computes_cosim_acceptance(tmp_path):
    path = tmp_path / "bench_cosim.json"
    seed_points = [(w, n, 6.0) for w, n, _ in ACCEPTANCE_POINTS]
    current_points = [(w, n, 1.0) for w, n, _ in ACCEPTANCE_POINTS]
    update_bench_file(path, "seed", _synthetic_run(seed_points),
                      schema=SCHEMA, points=ACCEPTANCE_POINTS)
    document = update_bench_file(path, "current",
                                 _synthetic_run(current_points),
                                 schema=SCHEMA, points=ACCEPTANCE_POINTS)
    assert json.loads(path.read_text())["schema"] == SCHEMA
    acceptance = document["acceptance"]
    assert acceptance["pass"] is True
    assert len(acceptance["points"]) == len(ACCEPTANCE_POINTS)
    for entry, (workload, n, threshold) in zip(acceptance["points"],
                                               ACCEPTANCE_POINTS):
        assert entry["point"] == {"workload": workload, "n_processes": n}
        assert entry["threshold"] == threshold
        assert entry["speedup"] == 6.0
        assert entry["pass"] is True


def test_acceptance_fails_when_any_point_misses(tmp_path):
    # One fast point must not green-light the whole verdict.
    path = tmp_path / "bench_cosim.json"
    seed_points = [(w, n, 6.0) for w, n, _ in ACCEPTANCE_POINTS]
    current_points = [(ACCEPTANCE_POINTS[0][0], ACCEPTANCE_POINTS[0][1], 1.0),
                      (ACCEPTANCE_POINTS[1][0], ACCEPTANCE_POINTS[1][1], 5.0)]
    update_bench_file(path, "seed", _synthetic_run(seed_points),
                      schema=SCHEMA, points=ACCEPTANCE_POINTS)
    document = update_bench_file(path, "current",
                                 _synthetic_run(current_points),
                                 schema=SCHEMA, points=ACCEPTANCE_POINTS)
    acceptance = document["acceptance"]
    assert acceptance["points"][0]["pass"] is True
    assert acceptance["points"][1]["pass"] is False
    assert acceptance["pass"] is False


def test_check_against_baseline_flags_regressions():
    baseline = _synthetic_run([("transition_rate", 2, 0.10),
                               ("mixed_system", 1, 0.20)])
    ok_run = _synthetic_run([("transition_rate", 2, 0.15),
                             ("mixed_system", 1, 0.25)])
    bad_run = _synthetic_run([("transition_rate", 2, 0.25),
                              ("mixed_system", 1, 0.25)])
    ok, _ = check_against_baseline(baseline, ok_run, max_slowdown=2.0)
    assert ok
    ok, lines = check_against_baseline(baseline, bad_run, max_slowdown=2.0)
    assert not ok
    assert any("REGRESSED" in line for line in lines)


def test_check_against_baseline_rejects_vacuous_comparison():
    baseline = _synthetic_run([("transition_rate", 64, 1.0)])
    run = _synthetic_run([("transition_rate", 2, 0.1)])
    ok, lines = check_against_baseline(baseline, run)
    assert not ok
    assert any("no shared points" in line for line in lines)


def test_check_fast_paths_flags_lost_tiers():
    fused_ok = {"tier": "fused", "results": [{
        "workload": "transition_rate", "n_processes": 2,
        "tier": "fused", "clock_fast_edges": 40,
        "fsm": {"steps": 10, "interpreted": 0, "fallback": 0,
                "system_compile_hits": 10, "system_fallback": 0},
    }]}
    ok, lines = check_fast_paths(fused_ok)
    assert ok and not lines
    for edges in (0, None):
        clock_lost = {"tier": "fused",
                      "results": [dict(fused_ok["results"][0],
                                       clock_fast_edges=edges)]}
        ok, lines = check_fast_paths(clock_lost)
        assert not ok
        assert any("kernel clock fast path" in line for line in lines)
    fused_lost = {"tier": "fused", "results": [{
        "workload": "transition_rate", "n_processes": 2,
        "tier": "fused",
        "fsm": {"steps": 10, "interpreted": 8, "fallback": 0,
                "system_compile_hits": 2, "system_fallback": 8},
    }]}
    ok, lines = check_fast_paths(fused_lost)
    assert not ok
    assert any("fused fast path" in line for line in lines)
    # A fused request that fell back records the tier it wired.
    fell_back = {"tier": "fused", "results": [dict(
        fused_ok["results"][0], tier="interpreted", clock_fast_edges=40,
        fsm={"steps": 10, "interpreted": 10, "fallback": 10,
             "system_compile_hits": 0, "system_fallback": 0},
    )]}
    ok, lines = check_fast_paths(fell_back)
    assert not ok
    assert any("fused fast path" in line for line in lines)
    mixed_ok = {"tier": "fused", "results": [dict(
        fused_ok["results"][0], workload="mixed_system",
        clock_skipped_edges=30)]}
    assert check_fast_paths(mixed_ok) == (True, [])
    for skipped in (0, None):
        skip_lost = {"tier": "fused", "results": [dict(
            mixed_ok["results"][0], clock_skipped_edges=skipped)]}
        ok, lines = check_fast_paths(skip_lost)
        assert not ok
        assert any("steady-period skip" in line for line in lines)
    # The interpreted tier has no fast path to lose.
    interpreted = {"tier": "interpreted", "results": [{
        "workload": "mixed_system", "n_processes": 1,
        "tier": "interpreted",
        "fsm": {"steps": 10, "interpreted": 10, "fallback": 0,
                "system_compile_hits": 0, "system_fallback": 0},
    }]}
    assert check_fast_paths(interpreted) == (True, [])


def test_check_cli_requires_recorded_baseline(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["--check", "--output", str(missing)]) == 1
    update_bench_file(tmp_path / "bench.json", "current", _synthetic_run([]),
                      schema=SCHEMA, points=ACCEPTANCE_POINTS)
    assert main(["--check", "--output", str(tmp_path / "bench.json")]) == 1
    err = capsys.readouterr().err
    assert "quick-baseline" in err


def test_check_cli_rejects_baseline_from_wrong_tier(tmp_path, capsys):
    # A baseline recorded on the interpreted tier must not silently gate a
    # fused-tier run (it would be trivially green).
    baseline = _synthetic_run([("transition_rate", 2, 0.5)],
                              tier="interpreted", quick=True)
    path = tmp_path / "bench.json"
    update_bench_file(path, "quick-baseline", baseline, schema=SCHEMA,
                      points=ACCEPTANCE_POINTS)
    assert main(["--check", "--output", str(path)]) == 1
    assert "re-record the baseline" in capsys.readouterr().err


def test_check_cli_rejects_baseline_from_compiled_tier(tmp_path, capsys):
    # A ledger recorded before the compiled tier was retired must not
    # gate a fused run, and the refusal names both tiers.
    baseline = _synthetic_run([("transition_rate", 2, 0.5)],
                              tier="compiled", quick=True)
    path = tmp_path / "bench.json"
    update_bench_file(path, "quick-baseline", baseline, schema=SCHEMA,
                      points=ACCEPTANCE_POINTS)
    assert main(["--check", "--output", str(path)]) == 1
    err = capsys.readouterr().err
    assert "tier='compiled'" in err
    assert "'fused'" in err
    assert "re-record the baseline" in err


def test_check_cli_rejects_full_tier_baseline(tmp_path, capsys):
    # A full-tier baseline does ~10x the quick tier's work per point, which
    # would make every wall-clock ratio trivially green.
    baseline = _synthetic_run([("transition_rate", 2, 0.5)],
                              tier="fused", quick=False)
    path = tmp_path / "bench.json"
    update_bench_file(path, "quick-baseline", baseline, schema=SCHEMA,
                      points=ACCEPTANCE_POINTS)
    assert main(["--check", "--output", str(path)]) == 1
    assert "--quick" in capsys.readouterr().err
