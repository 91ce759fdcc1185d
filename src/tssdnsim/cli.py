"""Command-line interface: run, compare and check scenarios.

Exit codes: 0 = run completed and all enabled checks pass, 1 = a check failed,
2 = configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config, parse_time_ns
from .scenario import compare_report, emit_outputs, run_scenario

BUILTIN_SCENARIOS = ("case_study_sdn", "case_study_nosdn", "fault_injection")
# the `tssdnsim.scenarios` package's directory
SCENARIO_DIR = Path(__file__).parent / "scenarios"


def resolve_scenario(name: str) -> Path:
    """A filesystem path, or the name of a shipped scenario."""
    path = Path(name)
    if path.exists():
        return path
    if name in BUILTIN_SCENARIOS:
        return SCENARIO_DIR / f"{name}.yaml"
    raise ConfigError(f"scenario file not found: {name} "
                      f"(builtins: {', '.join(BUILTIN_SCENARIOS)})")


def _load(name: str, until: str = None):
    cfg = load_config(resolve_scenario(name))
    if until is not None:
        cfg.run_until_ns = parse_time_ns(until, "--until")
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args.scenario, args.until)
    result = run_scenario(cfg)
    outdir = Path(args.out) if args.out else Path(f"out-{cfg.name}")
    paths = emit_outputs(result, outdir)
    print(f"{cfg.name}: {result.sink.count} frames recorded; outputs in {outdir}/")
    print(result.skipped.line())
    for warning in result.sink.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    sdn = run_scenario(_load(args.sdn, args.until))
    nosdn = run_scenario(_load(args.nosdn, args.until))
    outdir = Path(args.out)
    emit_outputs(sdn, outdir / "sdn")
    emit_outputs(nosdn, outdir / "nosdn")
    report = compare_report(sdn, nosdn)
    (outdir / "comparison.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_check(args) -> int:
    cfg = _load(args.scenario, args.until)
    result = run_scenario(cfg)
    rc = 0
    if args.guarantee:
        gr = result.check_guarantee()
        limit = gr.limit_ns
        if gr.passed:
            print(f"guarantee PASS: all stream latencies within {limit} ns")
        else:
            rc = 1
            if gr.worst is not None:
                print(f"guarantee FAIL: {gr.reason}; worst frame seq {gr.worst.seq} "
                      f"latency {gr.worst.latency_ns} ns")
            else:
                print(f"guarantee FAIL: {gr.reason}")
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tssdn-sim",
                                     description="Deterministic TSN/SDN network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its outputs")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--until", default=None, help="override run_until (e.g. 200ms)")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run SDN and no-SDN scenarios and compare")
    p_cmp.add_argument("--sdn", required=True)
    p_cmp.add_argument("--nosdn", required=True)
    p_cmp.add_argument("--until", default=None)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser("check", help="run a scenario and evaluate checks")
    p_chk.add_argument("--scenario", required=True)
    p_chk.add_argument("--until", default=None)
    p_chk.add_argument("--guarantee", action="store_true",
                       help="check stream latencies against the analytic bound")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
