"""magsense benchmark: times the CLI a user waits on, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one user session against a bundled config: ``magsense run``
into a fresh artifact, then ``magsense report`` on it (see workloads.py). A
closed loop with one client repeats the session, one command at a time and
each in a fresh interpreter, until ``--seconds`` have passed and at least two
sessions have run. Where the workload's own command is ``report``, the
artifact is made twice before the loop and the session is the report alone. Before the loop, ``magsense validate`` runs several times;
its median is ``setup_s``, the fixed cost every command pays.

The speed of the shared machine this benchmark was defined on drifts by up
to a factor of two over minutes, more than any bound could absorb. So every
timed command is bracketed by runs of probe.py, a fixed program-independent
reference, and the end-to-end times are reported in reference seconds: wall
time scaled by REFERENCE_PROBE_S over the mean of the two probe times. The
raw wall times and probe times are reported on the line before the result.

With ``--trace 1`` the workload's own command (``run``, or ``report`` on an
artifact made before tracing starts) runs in this process instead, with
spans recorded around each layer's entry points (see layers.py), and the
per-layer metrics are reported. Untraced in-process runs of the same command
alternate with traced ones, so the tracing overhead is measured too.

Every command is checked: its exit code, that its outputs equal those of the
first session byte for byte (the manifest's ``created`` field aside), and
that the headline estimates lie within tolerance of the device truth. The
last line of standard output is the JSON result; the line before it holds
sample counts, spreads, the seed used and machine facts. ``--record FILE``
appends both to a JSON-lines result set that compare.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Median probe.py wall time on the 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
# where the benchmark was defined: end-to-end times are seconds at that speed.
REFERENCE_PROBE_S = 0.39
MIN_SESSIONS = 2
COUNT_UNITS = ("count", "B")
# Digests of each workload's outputs at its bundled seed and full size, at the
# commit that added this benchmark. A mismatch is reported, not failed: a
# change may alter bits when it says why.
SEED_DIGESTS = HERE / "seed_digests.json"


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def summary(samples: list) -> dict:
    """Median, spread and the highest percentile with ten samples beyond it."""
    out = {"count": len(samples), "median": statistics.median(samples), "min": min(samples), "max": max(samples)}
    if len(samples) >= 20:
        pct = int(100 * (1 - 10 / len(samples)))
        out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


class Checks:
    """Counts commands and checks each one's outputs against the first session's."""

    def __init__(self, artifact: Path, check_truth: bool):
        self.artifact = artifact
        self.check_truth = check_truth
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, step: str, exit_code: int, log: str, outputs: bool = True) -> None:
        """Count one command and, if it has ``outputs``, check what the artifact holds after it."""
        self.attempted += 1
        problems = [] if exit_code == 0 else [f"exit code {exit_code}: {log.strip()[-400:]}"]
        if outputs and not problems:
            digest = workloads.artifact_digest(self.artifact)
            expected = self.reference.setdefault(step, digest)
            if digest != expected:
                problems.append("outputs differ from the first session")
            if self.check_truth:
                problems += workloads.check_headlines(self.artifact)
        if problems:
            self.failed += 1
            self.problems += [f"{step}: {p}" for p in problems]


def run_command(argv: list, env: dict, log: Path) -> tuple:
    """Run one command to completion: (seconds, exit code, peak RSS in MB, output)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, log.read_text(errors="replace")


def measure_untraced(workload, config: Path, work: Path, seconds: float, check_truth: bool):
    """Fresh-interpreter commands in a closed loop.

    Returns the samples of each end-to-end metric, the raw wall times of the
    commands and probes, and the checks.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    magsense = [sys.executable, "-m", "magsense"]
    log = work / "command.log"
    artifact = work / "artifact"
    checks = Checks(artifact, check_truth)
    samples = {name: [] for name in ("setup_s", "run_s", "report_s", "peak_rss_mb", "artifact_mb")}
    wall = {name: [] for name in ("setup_s", "run_s", "report_s", "probe_s")}

    def probe() -> float:
        elapsed, code, _, output = run_command([sys.executable, str(HERE / "probe.py")], env, log)
        if code != 0:
            raise RuntimeError(f"probe.py failed: {output}")
        wall["probe_s"].append(elapsed)
        return elapsed

    def command(name: str, argv: list):
        """Peak RSS of the command when it exited 0, else None."""
        before = wall["probe_s"][-1]
        elapsed, code, rss, output = run_command(magsense + argv, env, log)
        after = probe()
        checks.check(name, code, output, outputs=name != "validate")
        if code != 0:
            return None
        metric = "setup_s" if name == "validate" else f"{name}_s"
        wall[metric].append(elapsed)
        samples[metric].append(elapsed * REFERENCE_PROBE_S * 2 / (before + after))
        return rss

    run_command(magsense + ["validate", str(config)], env, log)  # fills the bytecode cache
    probe()
    for _ in range(SETUP_REPEATS):
        command("validate", ["validate", str(config)])
    run = ["run", str(config), "--output", str(artifact), "--force"]
    report = ["report", str(artifact), *workload.report_args]
    report_only = workload.command == "report"
    if report_only:
        for _ in range(MIN_SESSIONS):
            command("run", run)

    start = time.perf_counter()
    while len(samples["artifact_mb"]) < MIN_SESSIONS or time.perf_counter() - start < seconds:
        peaks = [] if report_only else [command("run", run)]
        if None in peaks:
            break
        peaks.append(command("report", report))
        if None in peaks:
            break
        samples["peak_rss_mb"].append(max(peaks))
        samples["artifact_mb"].append(workloads.artifact_bytes(artifact) / 1e6)
    return samples, wall, checks


def import_magsense():
    """Import magsense from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import magsense
    import magsense.cli

    if Path(magsense.__file__).resolve().parent != (SRC / "magsense").resolve():
        raise SystemExit(f"error: imported magsense from {magsense.__file__}, not from {SRC}")
    return magsense


def measure_traced(workload, config: Path, work: Path, seconds: float, check_truth: bool):
    """In-process sessions, alternately untraced and traced; returns samples."""
    magsense = import_magsense()
    tracer = layers.Tracer(work)
    tracer.install(magsense)
    artifact = work / "artifact"
    checks = Checks(artifact, check_truth)
    untraced, traced = [], []

    def command(name: str, argv: list) -> float:
        tracer.command = f"{len(untraced) + len(traced)}.{name}"
        output = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            code = magsense.cli.main(argv)
        elapsed = time.perf_counter() - start
        checks.check(name, code, output.getvalue())
        if code != 0:
            raise RuntimeError(f"{name} failed: {checks.problems[-1]}")
        return elapsed

    run = ["run", str(config), "--output", str(artifact), "--force"]
    report = ["report", str(artifact), *workload.report_args]

    def one_session(trace_on: bool) -> None:
        tracer.enabled = trace_on
        first = len(tracer.spans)
        wall = command(workload.command, report if workload.command == "report" else run)
        tracer.enabled = False
        if trace_on:
            traced.append(layers.layer_metrics(tracer.spans[first:], wall) | {"trace.wall_s": wall})
        else:
            untraced.append(wall)

    start = time.perf_counter()
    plan = [False, True, True]
    try:
        if workload.command == "report":
            command("run", run)
        while plan or time.perf_counter() - start < seconds:
            one_session(plan.pop(0) if plan else len(traced) <= len(untraced))
    except RuntimeError:
        pass
    if traced:
        counts = [{k: m[k] for k in layers.REPEATABLE} for m in traced]
        if any(c != counts[0] for c in counts):
            checks.failed += 1
            checks.problems.append(f"traced counts differ between sessions: {counts}")
    spans_file = ROOT / ".bench_work" / f"spans-{workload.name}.json"
    spans_file.write_text(json.dumps(layers.span_records(tracer.spans)), encoding="utf-8")
    return traced, untraced, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the bundled config's seed)")
    parser.add_argument("--seconds", type=float, required=True, help="minimum measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks grids and shots and skips the check against device "
                        "truth, whose tolerance holds only at full size; for the benchmark's own tests")
    parser.add_argument("--record", type=Path, help="append this run to a JSON-lines result set")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "magsense" / "cli.py").is_file():
        print(f"error: no magsense sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = workloads.WORKLOADS[args.workload]

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir()
    try:
        config = work / f"{workload.config}.yaml"
        seed = workloads.write_config(SRC, workload, args.seed, args.size, config)
        info = {"workload": workload.name, "seed": seed, "size": args.size, "trace": args.trace,
                "machine": machine_facts()}
        if args.trace:
            traced, untraced, checks = measure_traced(workload, config, work, args.seconds, args.size == "full")
            samples = {name: [m[name] for m in traced] for name in traced[0]} if traced else {}
            samples["trace.untraced_wall_s"] = untraced
            # counts repeat exactly (checked above), so their first value stands
            values = {name: v[0] if units.get(name) in COUNT_UNITS else statistics.median(v)
                      for name, v in samples.items() if v}
            if traced and untraced:
                values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
            declared = spec["per_layer"]
            info["sessions"] = {"traced": len(traced), "untraced": len(untraced)}
            if traced:
                shares = {name: v / values["trace.wall_s"] for name, v in values.items()
                          if units.get(name) == "s" and not name.startswith("trace.")}
                info["self_time_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1])[:6])
        else:
            samples, wall, checks = measure_untraced(workload, config, work, args.seconds, args.size == "full")
            values = {name: statistics.median(v) for name, v in samples.items() if v}
            declared = spec["end_to_end"]
            info["samples"] = {name: summary(v) for name, v in samples.items() if v}
            info["wall"] = {name: summary(v) for name, v in wall.items() if v}
            if checks.reference:
                info["digests"] = checks.reference
                known = json.loads(SEED_DIGESTS.read_text(encoding="utf-8")).get(workload.name)
                if known and known["seed"] == seed and args.size == "full":
                    info["matches_seed_commit"] = known["digests"] == checks.reference
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["problems"] = checks.problems
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        checks.failed += 1
        info["problems"].append(f"no value for {missing}")
    print(json.dumps(info))
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared},
    }
    line = json.dumps(result)
    print(line)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps({"info": info, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
