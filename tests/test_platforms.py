"""Unit tests of the target platform models."""

import pytest

from repro.platforms import (
    IsaBus,
    MicrocodedPlatform,
    MultiprocessorPlatform,
    PcAtFpgaPlatform,
    UnixIpcPlatform,
    XC4005,
    XC4010,
    available_platforms,
    builtin_platforms,
    get_platform,
    register_platform,
    unregister_platform,
)
from repro.platforms.base import BusModel, ProcessorModel
from repro.platforms.fpga import operator_clbs, operator_delay_ns
from repro.utils.errors import SynthesisError


class TestProcessorAndBusModels:
    def test_cycle_time(self):
        cpu = ProcessorModel("cpu", clock_hz=10_000_000)
        assert cpu.cycle_ns == 100.0

    def test_activation_time_grows_with_work(self):
        cpu = ProcessorModel("cpu", clock_hz=10_000_000)
        idle = cpu.activation_ns(statements_executed=1)
        busy = cpu.activation_ns(statements_executed=10, reads=2, writes=2)
        assert busy > idle

    def test_invalid_clock_rejected(self):
        with pytest.raises(SynthesisError):
            ProcessorModel("cpu", clock_hz=0)

    def test_bus_transfer_time(self):
        bus = BusModel("bus", width_bits=16, clock_hz=10_000_000,
                       cycles_per_transfer=3, setup_cycles=1)
        assert bus.cycle_ns == 100.0
        assert bus.transfer_ns(1) == 400.0
        assert bus.transfer_ns(2) == 700.0

    def test_words_for_bits(self):
        bus = BusModel("bus", width_bits=16, clock_hz=1_000_000)
        assert bus.words_for_bits(16) == 1
        assert bus.words_for_bits(17) == 2
        assert bus.words_for_bits(1) == 1


class TestIsaBus:
    def test_address_assignment_starts_at_base(self):
        bus = IsaBus(base_address=0x300)
        addresses = bus.assign_addresses(["A", "B", "C"])
        assert addresses == {"A": 0x300, "B": 0x301, "C": 0x302}

    def test_window_overflow_assignment_still_total(self):
        # Overflowing the window must not abort assignment: the co-synthesis
        # flow reports the overflow as a constraint problem and needs the
        # complete (if unmappable) address map to do so.
        bus = IsaBus(window=2)
        addresses = bus.assign_addresses(["A", "B", "C"])
        assert addresses == {"A": 0x300, "B": 0x301, "C": 0x302}
        assert addresses["C"] not in bus.address_range()


class TestFpgaDevice:
    def test_family_members(self):
        assert XC4005.clb_count == 196
        assert XC4010.clb_count == 400
        assert XC4010.flip_flops == 800

    def test_fits_and_utilisation(self):
        assert XC4005.fits(100)
        assert not XC4005.fits(500)
        assert XC4005.utilisation(98) == pytest.approx(0.5)

    def test_max_frequency(self):
        assert XC4010.max_frequency_hz(50.0) == pytest.approx(20e6)
        with pytest.raises(SynthesisError):
            XC4010.max_frequency_hz(0)

    def test_operator_cost_tables(self):
        assert operator_clbs("add") == 9
        assert operator_clbs("add", width_bits=32) > operator_clbs("add", width_bits=16)
        assert operator_delay_ns("mul") > operator_delay_ns("add")
        with pytest.raises(SynthesisError):
            operator_clbs("fft")
        with pytest.raises(SynthesisError):
            operator_delay_ns("fft")


class TestPlatforms:
    def test_registry_contains_the_four_builtin_platforms(self):
        assert set(available_platforms()) >= {
            "pc_at_fpga", "unix_ipc", "microcoded", "multiproc"
        }

    def test_get_platform_unknown_name(self):
        with pytest.raises(SynthesisError):
            get_platform("does_not_exist")

    def test_register_custom_platform(self):
        register_platform("custom_test_platform", lambda: PcAtFpgaPlatform(name="custom_test_platform"),
                          replace=True)
        try:
            platform = get_platform("custom_test_platform")
            assert platform.name == "custom_test_platform"
        finally:
            unregister_platform("custom_test_platform")

    def test_pc_at_defaults_match_the_paper(self):
        platform = PcAtFpgaPlatform()
        assert platform.bus.base_address == 0x300
        assert platform.bus.width_bits == 16
        assert platform.bus.clock_hz == 10_000_000
        assert platform.device is XC4010
        assert platform.has_hardware

    def test_pc_at_port_syntax_assigns_isa_addresses(self):
        platform = PcAtFpgaPlatform()
        syntax = platform.port_syntax(["DATAIN", "B_FULL"])
        assert syntax.read_expr("DATAIN") == "inport(0x300)"
        assert syntax.read_expr("B_FULL") == "inport(0x301)"

    def test_unix_ipc_has_no_hardware(self):
        platform = UnixIpcPlatform()
        assert not platform.has_hardware
        assert platform.hardware_clock_ns() is None
        syntax = platform.port_syntax(["DATAIN"])
        assert "ipc_receive" in syntax.read_expr("DATAIN")

    def test_microcoded_platform_cheap_port_access(self):
        platform = MicrocodedPlatform()
        assert platform.processor.io_read_cycles <= 4
        assert "ucode_read" in platform.port_syntax(["X"]).read_expr("X")

    def test_multiprocessor_addresses_are_word_spaced(self):
        platform = MultiprocessorPlatform()
        addresses = platform.assign_addresses(["A", "B"])
        assert addresses["B"] - addresses["A"] == 4

    def test_software_activation_time_ordering(self):
        # Port accesses on the IPC platform are far more expensive than on the
        # PC-AT, which is the point of the retargeting comparison.
        pc = PcAtFpgaPlatform()
        ipc = UnixIpcPlatform()
        assert (ipc.software_activation_ns(statements=3, reads=1, writes=1)
                > pc.software_activation_ns(statements=3, reads=1, writes=1))

    def test_platform_summary(self):
        summary = PcAtFpgaPlatform().summary()
        assert summary["platform"] == "pc_at_fpga"
        assert "i386" in summary["processor"]


class TestRegistrySemantics:
    """The replace/shadow contract the DSE platform sweep relies on."""

    def _custom(self, name="shadow_test"):
        return lambda: UnixIpcPlatform(name=name)

    def test_builtin_names_are_stable(self):
        assert builtin_platforms() == [
            "microcoded", "multiproc", "pc_at_fpga", "unix_ipc",
        ]

    def test_reusing_a_builtin_name_requires_replace(self):
        with pytest.raises(SynthesisError, match="built-in.*replace=True"):
            register_platform("unix_ipc", self._custom())

    def test_reusing_a_custom_name_requires_replace(self):
        register_platform("shadow_test", self._custom())
        try:
            with pytest.raises(SynthesisError, match="custom.*replace=True"):
                register_platform("shadow_test", self._custom())
        finally:
            unregister_platform("shadow_test")

    def test_replace_shadows_a_builtin_and_unregister_restores_it(self):
        register_platform("unix_ipc", lambda: UnixIpcPlatform(
            name="unix_ipc", cpu_clock_hz=120_000_000), replace=True)
        try:
            assert get_platform("unix_ipc").processor.clock_hz == 120_000_000
            # the shadow does not remove the name from the listing
            assert "unix_ipc" in available_platforms()
        finally:
            unregister_platform("unix_ipc")
        assert get_platform("unix_ipc").processor.clock_hz == 60_000_000

    def test_replace_true_overwrites_a_custom_factory(self):
        register_platform("shadow_test", self._custom())
        register_platform(
            "shadow_test", lambda: UnixIpcPlatform(name="shadow_test",
                                                   cpu_clock_hz=1_000_000),
            replace=True)
        try:
            assert get_platform("shadow_test").processor.clock_hz == 1_000_000
        finally:
            unregister_platform("shadow_test")

    def test_unregister_rejects_builtins_and_unknown_names(self):
        with pytest.raises(SynthesisError, match="built-in"):
            unregister_platform("pc_at_fpga")
        with pytest.raises(SynthesisError, match="no custom platform"):
            unregister_platform("never_registered")

    def test_custom_platform_joins_available_and_the_dse_sweep_axis(self):
        register_platform("shadow_test", self._custom())
        try:
            assert "shadow_test" in available_platforms()
        finally:
            unregister_platform("shadow_test")
        assert "shadow_test" not in available_platforms()
