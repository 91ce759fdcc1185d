"""tssdn-sim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sdn_steady --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the simulator is imported from `src/` there.
Every measured run is a fresh single-threaded interpreter (`child.py`), and
runs happen one after another. With `--trace 0` the end-to-end metrics come
from as many timed runs as fit in `--seconds` (see `timed_metrics`). With
`--trace 1` it makes one tracemalloc run and then pairs of an untraced and a
traced run: at least one, and another only if it should end within
`--seconds` in all. It reports the per-layer metrics: counts from the traced
runs, which must agree exactly, and medians of their times.

Every run is checked against the workload's pinned frame hash, delivered-frame
count and guarantee verdict; once per invocation the shipped scenarios' frame
hashes are checked too. Any mismatch or non-zero exit counts as a failed run.
The workloads have no random inputs: `--seed` is recorded and selects nothing.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Each invocation also writes everything it
measured, with a host-speed calibration and the load average taken before and
after, to `.bench_out/<workload>/result-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_TIMED_RUNS = 3
# A fixed string-hash seed removes one source of run-to-run timing variation
# (dict and set layouts); the simulator's outputs do not depend on it.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

END_TO_END = {
    "setup_s": "s",
    "sim_speed": "sim_s/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.events": "count",
    "engine.scheduled": "count",
    "engine.cancelled": "count",
    "engine.self_s": "s",
    "engine.schedule_s": "s",
    "shaping.enqueue.calls": "count",
    "shaping.enqueue_s": "s",
    "shaping.tx_done.events": "count",
    "shaping.tx_done_s": "s",
    "shaping.credit_wakeup.events": "count",
    "shaping.drops": "count",
    "shaping.accept_ratio": "ratio",
    "switching.handle_frame.calls": "count",
    "switching.handle_frame_s": "s",
    "switching.lookup.calls": "count",
    "switching.lookup_s": "s",
    "switching.lookup.hit_ratio": "ratio",
    "switching.flow_entries_max": "count",
    "control.messages": "count",
    "control.packet_in": "count",
    "control.on_message_s": "s",
    "hosts.handle_frame.calls": "count",
    "hosts.handle_frame_s": "s",
    "frames.make_frame.calls": "count",
    "frames.make_frame_s": "s",
    "metrics.record.calls": "count",
    "metrics.record_s": "s",
    "metrics.emit_s": "s",
    "config.load_s": "s",
    "scenario.build_s": "s",
    "mem.engine_mb": "MB",
    "mem.shaping_mb": "MB",
    "mem.metrics_mb": "MB",
    "mem.frames_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_state() -> dict:
    return {"calibration_s": calibrate(), "loadavg": list(os.getloadavg())}


class Runner:
    """Launches child runs of one workload and checks each against its pin."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.scenario = workload.scenario_arg(workdir)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problems: list) -> None:
        """Count one attempted check; it failed if `problems` is not empty."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{what}: {p}" for p in problems)

    def run(self, mode: str) -> dict:
        """One child run, checked against the pin; the child's report plus the
        parent's `wall_s` and `peak_rss_mb` (no timings if it exited non-zero)."""
        out = self.workdir / mode
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
               "--scenario", self.scenario, "--until", self.workload.until,
               "--out", str(out / "run")]
        with open(out / "stdout.txt", "w") as stdout, open(out / "stderr.txt", "w") as stderr:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(cmd + ["--t0", str(t0)], stdout=stdout, stderr=stderr,
                                    cwd=ROOT, env=CHILD_ENV)
            _, status, usage = os.wait4(proc.pid, 0)
            wall_ns = time.monotonic_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)

        report: dict = {}
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        else:
            report = json.loads((out / "stdout.txt").read_text().splitlines()[-1])
            problems += self._check_outputs(out / "run")
        self.check(f"{mode} run", problems)
        report.update(wall_s=wall_ns / 1e9, peak_rss_mb=usage.ru_maxrss / 1024)
        return report

    def _check_outputs(self, run_dir: Path) -> list:
        from workloads import frames_csv_digest, guarantee_verdict
        pin = self.workload.pin
        digest, frames = frames_csv_digest(run_dir / "frames.csv")
        verdict = guarantee_verdict(run_dir / "report.txt")
        problems = []
        if digest != pin.hash16:
            problems.append(f"frame hash {digest} != {pin.hash16}")
        if frames != pin.frames:
            problems.append(f"{frames} frames delivered, pinned {pin.frames}")
        if verdict != pin.guarantee_pass:
            problems.append(f"guarantee verdict {verdict}, pinned {pin.guarantee_pass}")
        return problems


def timed_metrics(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics over untraced runs made for `seconds`.

    `sim_speed` and `wall_s` come from the fastest run. On a shared host the
    same run's time swings between a fast and a slow state from one run to
    the next, so the median moves with the share of slow runs while the
    fastest run stays put. `setup_s` and `peak_rss_mb` are medians.
    """
    samples = []
    start = time.monotonic()
    for _ in range(MIN_TIMED_RUNS):
        samples.append(runner.run("time"))
    while time.monotonic() - start < seconds:
        samples.append(runner.run("time"))
    samples = [r for r in samples if "run_until_s" in r]
    if not samples:
        return None, []
    for r in samples:
        r["sim_speed"] = r["sim_s"] / r["run_until_s"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in samples),
        "sim_speed": max(r["sim_speed"] for r in samples),
        "wall_s": min(r["wall_s"] for r in samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in samples),
    }, samples


def layer_metrics(runner: Runner, seconds: float) -> tuple:
    """Per-layer metrics from one memory run and pairs of untraced/traced runs."""
    start = time.monotonic()
    memory = runner.run("memory")
    pairs = []
    pair_s = 0.0
    # A traced pair is long, so one starts only if it should end in time.
    while not pairs or time.monotonic() - start + pair_s < seconds:
        pair_start = time.monotonic()
        pairs.append((runner.run("time"), runner.run("trace")))
        pair_s = time.monotonic() - pair_start
    pairs = [(p, t) for p, t in pairs if "run_until_s" in p and "layers" in t]
    if not pairs:
        return None, {"memory": memory}

    layers = [traced["layers"] for _, traced in pairs]
    metrics = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
    runner.check("per-layer counts repeat", [
        f"{name} differs between traced runs: {[lay[name] for lay in layers]}"
        for name, unit in PER_LAYER.items()
        if unit == "count" and len({lay.get(name) for lay in layers}) != 1])
    for module in ("engine", "shaping", "metrics", "frames"):
        metrics[f"mem.{module}_mb"] = memory.get("mem_mb", {}).get(module, 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(
        plain["run_until_s"] / traced["run_until_s"] for plain, traced in pairs)
    return metrics, {"memory": memory, "pairs": pairs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tssdn-sim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tssdnsim" / "__init__.py").is_file():
        print(f"bench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, check_line_generator, check_shipped_hashes
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    before = host_state()
    runner = Runner(workload, workdir)
    runner.check("shipped scenario hashes", check_shipped_hashes())
    if workload.line_switches is not None:
        runner.check(f"line{workload.line_switches} generator",
                     check_line_generator(workload.line_switches))

    if args.trace:
        metrics, samples = layer_metrics(runner, args.seconds)
        units = PER_LAYER
    else:
        metrics, samples = timed_metrics(runner, args.seconds)
        units = END_TO_END
    after = host_state()

    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if metrics is None:
        print("bench: no run completed; nothing to report", file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": workload.name, "until": workload.until, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host_before": before,
              "host_after": after, "problems": runner.problems, "samples": samples,
              **result}
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, unit in units.items():
        print(f"{workload.name} {name} {metrics[name]:.6g} {unit}")
    print(f"{workload.name} fail_ratio {runner.failed}/{runner.attempted} failed/attempted")
    for label, state in (("before", before), ("after", after)):
        print(f"host {label}: calibration {state['calibration_s']:.4f} s, "
              f"loadavg {' '.join(f'{x:.2f}' for x in state['loadavg'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
