"""Quick tier of the conformance kit, wired into plain pytest.

Each scenario is its own parametrized test, so a failure names the exact
scenario (``kernel-small-3``, ``system-2``) — reproduce it standalone with
``python -m repro.testkit --replay <name>``.  The full 270+ scenario sweep
runs via ``make conformance``.
"""

import pytest

from repro.cosim import TIERS
from repro.testkit import (
    KernelScenario,
    check_cosim_conformance,
    check_cosyn_conformance,
    check_kernel_scenario,
    generate_system,
)
from repro.testkit.oracles import variant_matrix
from repro.testkit.runner import (
    QUICK_COSIM_MODELS,
    QUICK_COSYN_MODELS,
    QUICK_FAULT_SEEDS,
    QUICK_KERNEL_TIER,
    QUICK_REALTIME_MODELS,
    replay,
    run_conformance,
)

KERNEL_PARAMS = [
    pytest.param(size, seed, id=f"kernel-{size}-{seed}")
    for size, count in QUICK_KERNEL_TIER
    for seed in range(count)
]


@pytest.mark.parametrize("size, seed", KERNEL_PARAMS)
def test_kernel_scenario_conformance(size, seed):
    scenario = KernelScenario(seed, size=size)
    problems = check_kernel_scenario(scenario)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "seed", range(QUICK_COSIM_MODELS),
    ids=[f"system-{seed}" for seed in range(QUICK_COSIM_MODELS)],
)
def test_cosim_oracle(seed):
    system = generate_system(seed)
    problems = check_cosim_conformance(system)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "seed", range(QUICK_COSYN_MODELS),
    ids=[f"system-{seed}" for seed in range(QUICK_COSYN_MODELS)],
)
def test_cosyn_oracle(seed):
    system = generate_system(seed)
    problems = check_cosyn_conformance(system)
    assert not problems, "\n".join(problems)


class TestKit:
    def test_generation_is_reproducible(self):
        # Two builds of one scenario produce identical fingerprints even on
        # the same kernel — the generator draws nothing outside its seeds.
        scenario = KernelScenario(11, size="tiny")
        first = scenario.build("production")
        second = scenario.build("production")
        first.run()
        second.run()
        assert first.fingerprint() == second.fingerprint()

    def test_scenario_sizes_scale(self):
        assert KernelScenario(0, size="tiny").n_processes < 20
        assert KernelScenario(0, size="stress").n_processes >= 900

    def test_generated_logs_are_nonempty(self):
        # A scenario that generates no observable activity tests nothing.
        instance = KernelScenario(0, size="small").build("production")
        instance.run()
        fingerprint = instance.fingerprint()
        assert fingerprint["log"], "generated scenario produced no activity"
        assert any(fingerprint["waveforms"].values())

    def test_replay_round_trip(self):
        assert replay("kernel-tiny-0") == []
        assert replay("system-0") == []
        assert replay("fault-stuck_handshake-1") == []
        assert replay("realtime-0") == []
        with pytest.raises(ValueError):
            replay("bogus-name")

    def test_differential_expands_to_four_variants(self):
        kernels = ("production", "reference")
        assert variant_matrix(kernels, "differential") == [
            ("production", "fused"), ("production", "interpreted"),
            ("reference", "fused"), ("reference", "interpreted"),
        ]

    def test_report_aggregation(self):
        report = run_conformance(kernel_tier=(("tiny", 2),), cosim_models=1,
                                 cosyn_models=1, fault_seeds=0,
                                 realtime_models=0)
        assert report.scenarios_run == 4
        assert report.ok
        assert "4 scenarios — PASS" in report.summary()

    def test_fault_and_realtime_tiers_pass(self):
        """The quick fault/realtime tiers hold on every execution tier.

        ``tier="differential"`` runs every fault and real-time scenario on
        both kernels crossed with the fused *and* interpreted tiers and
        cross-checks the full variant matrix, at quick scale.
        """
        kernels = ("production", "reference")
        assert variant_matrix(kernels, "differential") == [
            (kernel, tier) for kernel in kernels for tier in TIERS
        ]
        assert TIERS == ("fused", "interpreted")
        assert variant_matrix(kernels) == [("production", "fused"),
                                           ("reference", "fused")]
        report = run_conformance(kernel_tier=(), cosim_models=0,
                                 cosyn_models=0,
                                 fault_seeds=QUICK_FAULT_SEEDS,
                                 realtime_models=QUICK_REALTIME_MODELS,
                                 tier="differential")
        assert report.ok, report.summary()
        assert report.scenarios_run == \
            4 * QUICK_FAULT_SEEDS + QUICK_REALTIME_MODELS

    def test_lossless_expectations_present(self):
        # At least some generated systems must carry functional oracles,
        # otherwise the cosim check degrades to determinism-only.
        systems = [generate_system(seed) for seed in range(10)]
        assert any(
            expected is not None
            for system in systems
            for expected in system.expectations.values()
        )


class TestWorkloadSourceHook:
    """The generator doubles as an oracle-free workload source for DSE."""

    def test_generate_models_yields_count_systems(self):
        from repro.testkit import generate_models

        systems = list(generate_models(3, seed_base=10))
        assert [s.seed for s in systems] == [10, 11, 12]
        assert all(s.name == f"system-{s.seed}" for s in systems)

    def test_networks_override_scales_the_model(self):
        from repro.testkit import generate_models

        (big,) = generate_models(1, networks=9)
        model = big.build_model()
        assert len(model.modules) >= 18
        assert len(model.comm_units) >= 9

    def test_networks_override_is_deterministic(self):
        left = generate_system(5, networks=4).build_model()
        right = generate_system(5, networks=4).build_model()
        assert left.topology() == right.topology()

    def test_sw_only_lists_exactly_the_relays(self):
        for seed in range(8):
            system = generate_system(seed, networks=4)
            model = system.build_model()
            relays = sorted(name for name in model.modules
                            if name.startswith("Relay"))
            assert sorted(system.sw_only) == relays

    def test_emit_models_cli_prints_json_without_oracles(self, capsys):
        import json

        from repro.testkit.__main__ import main

        assert main(["--emit-models", "2", "--networks", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for index, line in enumerate(lines):
            record = json.loads(line)
            assert record["name"] == f"system-{index}"
            assert record["modules"] >= 6
            assert "topology" in record and "cosim_params" in record

    @pytest.mark.parametrize("entry, message", [
        ("huge=1", "unknown size 'huge'"),
        ("tiny=x", "count must be a positive int, got 'x'"),
        ("tiny=-2", "count must be a positive int, got '-2'"),
        ("tiny=0", "count must be a positive int, got '0'"),
        ("tiny", "expected SIZE=COUNT"),
    ])
    def test_kernel_scenarios_cli_refuses_bad_entries(self, capsys, entry,
                                                      message):
        from repro.testkit.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--kernel-scenarios", entry, "--cosim", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --kernel-scenarios" in err and message in err

    def test_kernel_tier_entry_parses_size_and_count(self):
        from repro.testkit.generator import kernel_tier_entry

        assert kernel_tier_entry("tiny=5") == ("tiny", 5)
        assert kernel_tier_entry("stress=1") == ("stress", 1)

    def test_tier_cli_accepts_one_axis(self, capsys):
        from repro.testkit.__main__ import main

        assert main(["--replay", "system-1", "--tier", "interpreted"]) == 0
        assert "system-1: ok" in capsys.readouterr().out
        for retired in ("per-fsm", "compiled"):
            with pytest.raises(SystemExit):
                main(["--tier", retired])
        # A coverage campaign runs one tier; it cannot cross-check.
        with pytest.raises(SystemExit):
            main(["--coverage", "--tier", "differential"])
        assert "--coverage runs one tier" in capsys.readouterr().err
