"""ABL-SYNC — ablation of the software activation policy.

The paper's co-simulation rule — "each time a software component is
activated ... only one transition is executed. This model allows for a
precise synchronization between software and hardware" — is compared with a
run-to-idle policy that executes as many transitions as possible per
activation.  Expected shape: with cheap activations both behave identically;
when activations are expensive (the back-annotated software period of the
prototype) run-to-idle needs fewer activations and finishes earlier, at the
cost of a coarser interleaving with the hardware.
"""

from benchmarks.conftest import small_motor_config
from repro.apps.motor_controller import build_session
from repro.cosim import OneTransitionPerActivation, RunToIdle
from repro.utils.text import format_table

ACTIVATION_PERIODS = {"fast_sw": 100, "slow_sw": 3_000}
POLICIES = {
    "one_transition": OneTransitionPerActivation,
    "run_to_idle": RunToIdle,
}


def run_policy(policy_name, activation_period):
    config = small_motor_config()
    session = build_session(config, clock_period=100,
                            sw_activation_period=activation_period,
                            activation_policy=POLICIES[policy_name]())
    result = session.run_until_software_done(max_time=50_000_000)
    executor = session.software_executor("DistributionMod")
    return {
        "position": session.motor.position,
        "pulses": session.motor.pulse_count,
        "activations": executor.activations,
        "transitions": executor.instance.transitions_fired,
        "end_time": result.end_time,
    }


def run_all():
    outcomes = {}
    for period_name, period in ACTIVATION_PERIODS.items():
        for policy_name in POLICIES:
            outcomes[(period_name, policy_name)] = run_policy(policy_name, period)
    return outcomes


def test_abl_sync(benchmark):
    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    config = small_motor_config()

    # Functional outcome is policy independent (the abstraction holds).
    for outcome in outcomes.values():
        assert outcome["position"] == config.final_position
        assert outcome["pulses"] == config.total_travel

    # With expensive activations, run-to-idle needs fewer of them and does
    # not finish later than the one-transition rule.
    slow_one = outcomes[("slow_sw", "one_transition")]
    slow_idle = outcomes[("slow_sw", "run_to_idle")]
    assert slow_idle["activations"] < slow_one["activations"]
    assert slow_idle["end_time"] <= slow_one["end_time"]

    # With cheap activations the two policies cost essentially the same,
    # which is why the paper can afford the precise one-transition rule.
    fast_one = outcomes[("fast_sw", "one_transition")]
    fast_idle = outcomes[("fast_sw", "run_to_idle")]
    assert fast_idle["end_time"] <= fast_one["end_time"]

    rows = [
        (period_name, policy_name, outcome["activations"], outcome["transitions"],
         outcome["end_time"], outcome["position"])
        for (period_name, policy_name), outcome in sorted(outcomes.items())
    ]
    print()
    print("ABL-SYNC: software activation policies")
    print(format_table(
        ["sw activation", "policy", "activations", "transitions", "sim time (ns)",
         "final position"], rows))
