#!/usr/bin/env python3
"""Benchmark for `mas`: seeded workloads run end to end in one process.

    python3 perfbench/run.py --workload line3-abstract --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One client runs operations in a closed loop, each through `mas.cli.main` as
a user would: ``synthesize`` (the verdict), then ``simulate`` reusing
plans.json and ``check`` for every agent (the validation). After every
operation, outside the timed region, the exit codes are compared with the
workload's reference verdict, the artifacts byte for byte with the first
operation, and the executed services with the goals under the harness's own
oracle. The first operation is a warm-up and is not timed. A fixed
calibration loop (`calibrate.py`) runs between operations, and the reported
timings are scaled by how fast it ran, so that host slow spells cancel out.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from wrappers installed around the
calls into each `mas` module, taken on traced operations that alternate with
untraced ones so the tracing overhead is measured in the same process. The
program is built from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import families
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

ARTIFACTS = ("report.json", "plans.json", "services.json", "trajectory.csv")
DIGESTED = ("plans.json", "services.json", "trajectory.csv")
SETUP_PROBES = 5
TAIL_PERCENTILES = (99, 95, 90, 75)

# metric names and units come from BENCHMARK.json, the benchmark's contract
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def result_metrics(values: dict[str, float], kind: str) -> dict[str, dict]:
    """The result line's metrics: exactly those BENCHMARK.json lists."""
    names = [m["name"] for m in SPEC[kind]]
    if set(values) != set(names):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(names))} "
                         f"disagree with BENCHMARK.json")
    return {n: {"value": values[n], "unit": UNITS[n]} for n in names}


# --------------------------------------------------------------------------
# context
# --------------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def loadavg() -> str:
    return (_read(Path("/proc/loadavg")) or "unknown").strip()


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def import_mas():
    """Import `mas` from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import mas.cli
    if not Path(mas.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported mas from {mas.cli.__file__}, "
                         f"not from {SRC}")
    return mas.cli


def write_scenario(wl: families.Workload, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "scenario.json"
    path.write_text(json.dumps(wl.scenario, indent=2) + "\n")
    return path


def setup_probe(args) -> int:
    """Child mode: import, generate and load, say ready, then calibrate."""
    cli = import_mas()
    wl = families.FAMILIES[args.workload](args.seed)
    cli.load_scenario(write_scenario(wl, WORK / f"probe-{wl.name}"))
    print("ready", flush=True)
    print(f"calibration {calibrate.probe()!r}", flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Process start to first operation ready, in fresh interpreters.

    Returns the raw times and the times scaled by the calibration loop that
    each probe process runs once it is ready.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__)), "--workload",
                 args.workload, "--seed", str(args.seed), "--setup-probe"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0 or len(rest) != 2 \
                or rest[0] != "calibration":
            raise SystemExit(f"error: set-up probe failed with status {code}")
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.K_REF / float(rest[1]))
    return raw, scaled


# --------------------------------------------------------------------------
# one operation
# --------------------------------------------------------------------------

class Operation:
    """synthesize, then simulate + check for every agent, then judge.

    ``pause`` runs untimed between the verdict and the validation.
    """

    def __init__(self, cli, wl: families.Workload, scenario: Path, out: Path):
        self.cli = cli
        self.wl = wl
        self.scenario = str(scenario)
        self.out = out
        self.pause = lambda: None
        self.reference: dict[str, bytes] | None = None

    def run(self):
        """(verdict_s, validate_s, artifact bytes, problems)."""
        wl, cli, out = self.wl, self.cli, self.out
        for name in ARTIFACTS:
            (out / name).unlink(missing_ok=True)
        common = ["--scenario", self.scenario, "--out", str(out)]
        sink = io.StringIO()
        problems = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            marks = [perf_counter()]
            try:
                codes = [cli.main(["synthesize", *common])]
                marks.append(perf_counter())
                self.pause()
                marks.append(perf_counter())
                codes.append(cli.main(
                    ["simulate", *common, "--horizon", str(wl.horizon),
                     "--substeps", str(wl.substeps)]))
                for agent in range(1, wl.scenario["agents"] + 1):
                    codes.append(cli.main(
                        ["check", *common, "--agent", str(agent)]))
            except Exception as exc:  # any escape from mas fails the operation
                problems.append(f"raised {type(exc).__name__}: {exc}")
                codes = []
            marks += [perf_counter()] * (4 - len(marks))
        verdict_s, validate_s = marks[1] - marks[0], marks[3] - marks[2]
        if codes and any(c != wl.expected_exit for c in codes):
            problems.append(f"exit codes {codes}, reference "
                            f"{wl.expected_exit} ({wl.reason})")
        printed = sink.getvalue().splitlines()
        satisfied = sum(line.startswith("SATISFIED") for line in printed)
        if codes and wl.expected_exit == 0 and \
                satisfied != wl.scenario["agents"]:
            problems.append(f"check printed SATISFIED {satisfied} times")
        artifacts = {name: (out / name).read_bytes()
                     for name in ARTIFACTS if (out / name).is_file()}
        if len(artifacts) < len(ARTIFACTS) and not problems:
            problems.append(f"missing artifacts: "
                            f"{sorted(set(ARTIFACTS) - set(artifacts))}")
        if self.reference is None and not problems:
            self.reference = artifacts
        elif self.reference is not None:
            problems += [f"{name} differs from the first operation"
                         for name in ARTIFACTS
                         if artifacts.get(name) != self.reference[name]]
        if "trajectory.csv" in artifacts and "services.json" in artifacts:
            problems += oracle.judge(wl,
                                     artifacts["trajectory.csv"].decode(),
                                     artifacts["services.json"].decode())
        if problems:
            tail = "\n".join(printed[-5:])
            problems.append(f"last output:\n{tail}")
        size = sum(len(b) for b in artifacts.values())
        return verdict_s, validate_s, size, problems

    def digests(self) -> dict[str, str]:
        return {name: hashlib.sha256(self.reference[name]).hexdigest()
                for name in DIGESTED} if self.reference else {}


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[int, float]:
    """Highest percentile with at least ten samples beyond it.

    With fewer than 20 samples not even the median has ten beyond it; the
    median is reported then, and the printed line says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def report_failures(failures: list[list[str]]) -> None:
    for k, problems in enumerate(failures[:3]):
        print(f"FAILED operation {k}:")
        for p in problems:
            print("  " + p.replace("\n", "\n    "))


def timed_run(args, op: Operation, setup: tuple[list[float], list[float]]
              ) -> dict:
    first = op.run()
    failures = [first[3]] if first[3] else []
    verdicts, validates, passed = [], [], 0
    loops = [calibrate.loop()]
    op.pause = lambda: loops.append(calibrate.loop())
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or not verdicts:
        verdict_s, validate_s, _, problems = op.run()
        loops.append(calibrate.loop())
        verdicts.append(verdict_s)
        validates.append(validate_s)
        if problems:
            failures.append(problems)
        else:
            passed += 1
    report_failures(failures)
    n = len(verdicts)
    scale = calibrate.K_REF / statistics.mean(loops)
    setup_raw, setup_scaled = setup
    metrics = {"setup_s": statistics.median(setup_scaled)}
    notes = {"setup_s": f"median of {len(setup_scaled)} fresh processes, "
                        f"each scaled by its own calibration; raw "
                        f"median {statistics.median(setup_raw):.4g} s"}
    for name, samples in (("verdict_s", verdicts), ("validate_s", validates)):
        p, value = tail(samples)
        metrics[f"{name}.norm"] = statistics.mean(samples) * scale
        notes[f"{name}.norm"] = (
            f"mean of n={n}, scaled; raw mean "
            f"{statistics.mean(samples):.4g}, p50 "
            f"{statistics.median(samples):.4g}" + (
                f", p{p} {value:.4g}" if p > 50 else
                ", no tail: fewer than 20 samples"))
    total = sum(verdicts) + sum(validates)
    metrics["scenarios_per_s.norm"] = passed / (total * scale)
    notes["scenarios_per_s.norm"] = (
        f"{passed} passing operations / their scaled time; raw "
        f"{passed / total:.4g}")
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    print(f"workload {args.workload} seed {args.seed}: {n + 1} operations "
          f"({n} timed), {len(failures)} failed, error_rate "
          f"{len(failures) / (n + 1):.4g}")
    print(f"calibration: {len(loops)} loops, mean "
          f"{statistics.mean(loops) * 1e3:.4g} ms, min "
          f"{min(loops) * 1e3:.4g} ms, K_REF {calibrate.K_REF * 1e3:.4g} ms,"
          f" scale {scale:.4g}")
    for name in metrics:
        print(f"  {name:<20} {metrics[name]:>12.6g} {UNITS[name]:<4} "
              f"({notes[name]})")
    return {"attempted": n + 1, "failed": len(failures),
            "metrics": result_metrics(metrics, "end_to_end")}


def traced_run(args, op: Operation, workdir: Path) -> dict:
    import spans
    tracer = spans.Tracer()
    first = op.run()
    failures = [first[3]] if first[3] else []
    plain, traced, rows = [], [], []
    attempted = 1
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or not plain:
        verdict_s, validate_s, _, problems = op.run()
        plain.append(verdict_s + validate_s)
        tracer.op = len(traced)
        tracer.counts.clear()
        tracer.install()
        try:
            t_verdict, t_validate, size, traced_problems = op.run()
        finally:
            tracer.uninstall()
        traced.append(t_verdict + t_validate)
        attempted += 2
        if not traced_problems:
            row = tracer.op_metrics(tracer.op, t_verdict, t_validate, size)
            if rows and any(row[k] != rows[0][k] for k in spans.EXACT):
                traced_problems = [
                    "exact counters differ from the first traced operation: "
                    + ", ".join(k for k in spans.EXACT
                                if row[k] != rows[0][k])]
            rows.append(row)
        failures += [p for p in (problems, traced_problems) if p]
    report_failures(failures)
    if not rows:
        return {"attempted": attempted, "failed": len(failures),
                "metrics": {}}
    tracer.write(workdir / "spans.jsonl")
    metrics = spans.medians(rows)
    metrics["trace.overhead"] = \
        statistics.median(traced) / statistics.median(plain) - 1.0
    print(f"workload {args.workload} seed {args.seed}: {len(rows)} traced "
          f"and {len(plain)} untraced operations, {len(failures)} failed; "
          f"spans in {workdir / 'spans.jsonl'}")
    print("counters " + json.dumps({k: rows[0][k] for k in spans.EXACT},
                                   sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]:>14.6g} {UNITS[name]}")
    return {"attempted": attempted, "failed": len(failures),
            "metrics": result_metrics(metrics, "per_layer")}


def run_workload(args) -> int:
    if not (SRC / "mas" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'mas'} is missing",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "loadavg_before": loadavg()}
    setup = [] if args.trace else measure_setup(args)
    cli = import_mas()
    import numpy
    wl = families.FAMILIES[args.workload](args.seed)
    workdir = WORK / f"{wl.name}-{args.seed}"
    scenario = write_scenario(wl, workdir)
    out = workdir / "out"
    out.mkdir(exist_ok=True)
    op = Operation(cli, wl, scenario, out)
    result = traced_run(args, op, workdir) if args.trace \
        else timed_run(args, op, setup)
    context.update({
        "loadavg_after": loadavg(),
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    })
    print("context " + json.dumps(context, sort_keys=True))
    print("digests " + json.dumps({"workload": wl.name, "seed": args.seed,
                                   **op.digests()}, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary."""
    summary, combined = [], {}
    attempted = failed = 0
    for name in families.FAMILIES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        summary.append((name, result))
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    width = max(len(n) for n in families.FAMILIES)
    print(f"\n{'workload':<{width}}  {'metric':<34} {'value':>12}  unit")
    for name, result in summary:
        rate = result["failed"] / result["attempted"]
        print(f"{name:<{width}}  {'error_rate':<34} {rate:>12.6g}  ratio")
        for metric, entry in result["metrics"].items():
            print(f"{name:<{width}}  {metric:<34} {entry['value']:>12.6g}  "
                  f"{entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*families.FAMILIES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
