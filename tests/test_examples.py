"""The example scripts must run to completion *and* report the right outcome.

Each script prints its functional end state; the assertions below pin that
state (positions reached, words transferred, constraints satisfied), so an
example silently producing wrong results fails the suite even though it
still exits 0.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: script -> substrings its stdout must contain (the reported end state).
EXPECTED_OUTPUT = {
    "quickstart.py": [
        "server received 5 words, total = 60",
        "HostPut",
        "ServerGet",
        "hw view (vhdl)",
        "sw_sim view (c)",
        "sw_synth view (c)",
    ],
    "motor_controller_cosim.py": [
        "motor_position: 60",
        "motor_pulses: 60",
        "missed_pulses: 0",
        "segments_commanded: 4",
        "final_sw_state: Finish",
        "software_finished: True",
        "| service              | calls | mean (ns) | p50 (ns) | p95 (ns) "
        "| max (ns) |",
        "| pulse_ok                     | True    |",
        "| response_ok                  | True    |",
        "| overall                      | MET     |",
    ],
    "motor_controller_cosynthesis.py": [
        "co-synthesis of AdaptiveMotorController onto pc_at_fpga",
        "all co-synthesis constraints satisfied",
        "device XC4010 (fits)",
        "back-annotation: BackAnnotation(",
    ],
    "retarget_platforms.py": [
        "| pc_at_fpga | yes",
        "| microcoded | yes",
        "| multiproc  | yes",
        "platforms with SW synthesis views: ['microcoded', 'multiproc', 'pc_at_fpga']",
    ],
    "two_axis_table.py": [
        "| X    | 60",
        "| Y    | 24",
        "2-D table co-simulation finished",
    ],
}

EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def test_every_example_has_expectations():
    # A new example must declare its expected end state here, so it cannot
    # join the repo as an import-only smoke test.
    assert EXAMPLES == sorted(EXPECTED_OUTPUT)


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_reports_expected_end_state(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout, "examples are expected to print their results"
    missing = [expected for expected in EXPECTED_OUTPUT[script]
               if expected not in completed.stdout]
    assert not missing, (
        f"{script} did not report the expected end state; missing "
        f"{missing!r}; stdout tail:\n{completed.stdout[-2000:]}"
    )
