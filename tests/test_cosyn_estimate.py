"""Determinism and merge coverage of the area/timing estimator.

The DSE cost model memoizes per-module estimates and sums/maxes them via
:func:`merge_estimates`, the helper hardware synthesis merges each
module's processes with; both only make sense when the same FSMD always
yields the identical estimate.
"""

from repro.cosyn.hls.estimate import AreaTimingEstimate
from repro.cosyn.hw_synthesis import merge_estimates, synthesize_process
from repro.ir import Assign, FsmBuilder, INT, var


def make_compute_fsm(name="CALC"):
    build = FsmBuilder(name)
    build.variable("A", INT, 1)
    build.variable("B", INT, 2)
    build.variable("C", INT, 0)
    with build.state("Work") as state:
        state.go("More", actions=[Assign("C", var("A") * var("B") + var("C"))])
    with build.state("More") as state:
        state.go("Work", actions=[Assign("A", var("A") + 1),
                                  Assign("B", var("B") - var("A"))])
    return build.build(initial="Work")


def make_estimate(name="CALC"):
    return synthesize_process(make_compute_fsm(name)).estimate


class TestAreaTimingEstimateMerge:
    def test_merge_sums_area_and_maxes_critical_path(self):
        left = AreaTimingEstimate("L", clbs_datapath=10, clbs_registers=4,
                                  clbs_controller=6, clbs_interconnect=2,
                                  critical_path_ns=30.0, flip_flops=20)
        right = AreaTimingEstimate("R", clbs_datapath=1, clbs_registers=2,
                                   clbs_controller=3, clbs_interconnect=4,
                                   critical_path_ns=45.0, flip_flops=8)
        merged = left.merge(right)
        assert merged.name == "L+R"
        assert merged.clbs_datapath == 11
        assert merged.clbs_registers == 6
        assert merged.clbs_controller == 9
        assert merged.clbs_interconnect == 6
        assert merged.clbs_total == left.clbs_total + right.clbs_total
        assert merged.flip_flops == 28
        assert merged.critical_path_ns == 45.0

    def test_merge_is_commutative_on_totals(self):
        first = make_estimate()
        second = AreaTimingEstimate("other", clbs_datapath=5,
                                    critical_path_ns=99.0, flip_flops=3)
        ab, ba = first.merge(second), second.merge(first)
        assert ab.clbs_total == ba.clbs_total
        assert ab.flip_flops == ba.flip_flops
        assert ab.critical_path_ns == ba.critical_path_ns

    def test_merge_accepts_explicit_name(self):
        left = AreaTimingEstimate("L")
        assert left.merge(AreaTimingEstimate("R"), name="Both").name == "Both"

    def test_merge_does_not_mutate_operands(self):
        left = AreaTimingEstimate("L", clbs_datapath=10, critical_path_ns=30.0)
        right = AreaTimingEstimate("R", clbs_datapath=1, critical_path_ns=45.0)
        left.merge(right)
        assert left.clbs_datapath == 10 and right.clbs_datapath == 1
        assert left.critical_path_ns == 30.0


class TestEstimateDeterminism:
    def test_same_fsmd_yields_identical_estimate(self):
        assert make_estimate().as_dict() == make_estimate().as_dict()

    def test_merge_estimates_is_deterministic(self):
        totals = []
        for _ in range(2):
            estimate = make_estimate()
            total = merge_estimates([estimate], "CalcMod")
            assert total.name == "CalcMod"
            assert estimate.name == "CALC"
            totals.append(total.as_dict())
        assert totals[0] == totals[1]

    def test_merge_estimates_merges_multiple_processes(self):
        per_process = [make_estimate("P1"), make_estimate("P2")]
        total = merge_estimates(per_process, "TwoProc")
        assert total.name == "TwoProc"
        assert total.clbs_total == sum(e.clbs_total for e in per_process)
        assert total.flip_flops == sum(e.flip_flops for e in per_process)
        assert total.critical_path_ns == max(e.critical_path_ns
                                             for e in per_process)

    def test_dse_hardware_cost_equals_direct_estimate(self):
        """The memoized DSE hardware cost is exactly the estimator's answer,
        and the flow's module estimate."""
        from repro.cosyn import CosynthesisFlow
        from repro.dse.cost import CandidateEvaluator
        from repro.platforms import get_platform
        from tests.conftest import make_producer_consumer_model

        model = make_producer_consumer_model()
        evaluator = CandidateEvaluator(model, ("pc_at_fpga",))
        cached = evaluator.hardware_cost("ServerMod")
        direct = merge_estimates(
            [synthesize_process(fsm).estimate
             for fsm in model.module("ServerMod").behaviours()], "ServerMod")
        assert cached.as_dict() == direct.as_dict()
        flow = CosynthesisFlow(model, get_platform("pc_at_fpga")).run()
        assert flow.hardware_result("ServerMod").estimate.as_dict() \
            == cached.as_dict()
