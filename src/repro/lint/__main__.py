"""Command-line front end of the static analyzer.

Usage::

    python -m repro.lint                     # lint the shipped applications
    python -m repro.lint --app motor         # one application
    python -m repro.lint --seed 0 --seed 1   # generated conformance systems
    python -m repro.lint --json              # machine-readable report
    python -m repro.lint --fail-on warning   # stricter gate (default: error)
    python -m repro.lint --disable DF002     # silence a rule everywhere
    python -m repro.lint --rules             # print the rule catalog
    python -m repro.lint --selfcheck         # mutants + corpus self-test

Exit status is 0 when every linted target stays below the ``--fail-on``
threshold (and the selfcheck, when requested, passes), 1 otherwise.
"""

import argparse
import json
import sys

from repro.lint.engine import lint_model
from repro.lint.rules import RULES, known_rule
from repro.lint.selfcheck import run_selfcheck

APPS = ("motor", "two-axis")


def _build_app(name):
    if name == "motor":
        from repro.apps.motor_controller.system import build_system
        return build_system()[0]
    from repro.apps.motor_controller.two_axis import build_two_axis_system
    return build_two_axis_system()[0]


def _targets(args):
    """Yield ``(label, model)`` for every requested lint target."""
    apps = list(args.app or ())
    seeds = list(args.seed or ())
    if not apps and not seeds:
        apps = list(APPS)
    for name in apps:
        yield f"app:{name}", _build_app(name)
    if seeds:
        from repro.testkit.models import generate_system
        for seed in seeds:
            yield f"seed:{seed}", generate_system(seed).build_model()


def _print_rules():
    for rule in RULES:
        stage = "structural" if rule.structural else "extended"
        print(f"{rule.rule:<9} {rule.severity:<8} {stage:<10} {rule.title}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="static model/IR analyzer (dataflow, races, interfaces, "
                    "protocol discipline)",
    )
    parser.add_argument("--app", action="append", choices=APPS,
                        help="lint a shipped application (repeatable)")
    parser.add_argument("--seed", action="append", type=int, metavar="N",
                        help="lint the generated conformance system of "
                             "seed N (repeatable)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON report per target")
    parser.add_argument("--fail-on", choices=("warning", "error"),
                        default="error",
                        help="lowest severity that fails the run "
                             "(default: error)")
    parser.add_argument("--disable", action="append", metavar="RULE",
                        default=[],
                        help="disable a rule by id (repeatable)")
    parser.add_argument("--rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the analyzer self-test (mutants must trip "
                             "their rules, corpus must be clean)")
    args = parser.parse_args(argv)

    if args.rules:
        _print_rules()
        return 0

    for rule in args.disable:
        if not known_rule(rule):
            parser.error(f"unknown rule {rule!r} (see --rules)")

    if args.selfcheck:
        problems = run_selfcheck(log=print)
        for problem in problems:
            print(f"selfcheck: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("selfcheck: OK")
        return 0

    failed = False
    reports = []
    for label, model in _targets(args):
        report = lint_model(model, disable=args.disable)
        report.target = label
        reports.append(report)
        failed = failed or report.fails(args.fail_on)
    if args.json:
        print(json.dumps([report.as_dict() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.render_text())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
