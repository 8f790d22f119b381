"""End-to-end and per-layer benchmark of the bslat command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs a seeded list of ``bslat`` commands in process through
``bslat.cli.main(argv)``, one after another (a closed loop with a single
client), and checks every result against the recorded stdout and the
structural oracles in ``workloads.py``.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
an untraced phase is followed by one traced pass and the JSON object holds
the per-layer metrics.  ``--workload all`` runs every workload in a fresh
process and exits 1 when any command failed.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
COLD_START_REPEATS = 21
COLD_START_ARGV = ("bs", "normalize", "--N", "2", "a b")
COLD_START_STDOUT = "word = a b\nx = 0\ny = 1\nz = 1\n"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cold_start_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------ running


def run_one(main, argv):
    """Run one command in process: wall and CPU seconds, exit code, output."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception:  # an escaped exception is a failed command
        code = None
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    return wall, cpu, code, out.getvalue(), err.getvalue()


def set_up(name: str, seed: int, smoke: bool):
    """Import bslat, build the inputs, warm up; returns what the timed
    phase needs."""
    import bslat.cli as cli

    workload = workloads.WORKLOADS[name]()
    try:
        golden = workloads.load_golden(workload)
    except (OSError, ValueError) as exc:
        raise BenchError(str(exc)) from exc
    position = {command: i for i, command in enumerate(workload.pool())}
    commands = workload.commands(seed, smoke)
    expected = [golden[position[command]] for command in commands]
    for argv in workload.warmup:
        code = run_one(cli.main, argv)[2]
        if code != 0:
            raise BenchError(f"warm-up {' '.join(argv)} exited {code}")
    return cli, commands, expected


def setup_time(name: str, seed: int) -> float:
    """Seconds from the start of a fresh benchmark process to the point
    where its set-up is done and the first timed command would run: the
    interpreter, the imports, input generation and warm-up."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up exited {proc.returncode}: {proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def timed_phase(main, commands, expected, seconds, tracer=None, tick=None):
    """Run the whole list once, then keep cycling through it while the
    next command, at its first latency, still ends within ``seconds``.

    Returns per-command (wall, cpu) samples, executions and failures.
    Results are checked after each command, outside its timing.  ``tick``,
    when given, is (interval, callback): the callback runs between two
    commands once per interval, so what it measures is spread over the
    phase instead of bunched at one end.
    """
    samples = [[] for _ in commands]
    failures = []
    start = time.perf_counter()
    next_tick = start
    i = 0
    while i < len(commands) or (
        time.perf_counter() - start + samples[i % len(commands)][0][0]
        <= seconds
    ):
        if tick is not None and time.perf_counter() >= next_tick:
            tick[1]()
            next_tick += tick[0]
        index = i % len(commands)
        command = commands[index]
        if tracer is not None:
            tracer.request = i
        wall, cpu, code, out, err = run_one(main, command.argv)
        samples[index].append((wall, cpu))
        reason = workloads.check(command, code, out, err)
        if reason is None and workloads.stdout_digest(out) != expected[index]:
            reason = "stdout differs from the recorded output"
        if reason is not None:
            failures.append(f"{' '.join(command.argv)}: {reason}")
        i += 1
    return samples, i, failures


class ColdStart:
    """Wall times of fresh ``python -m bslat.cli`` processes, one at a
    time; each call of the object starts one."""

    def __init__(self):
        self.times, self.failures = [], []

    def __call__(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bslat.cli", *COLD_START_ARGV],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=60,
        )
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout != COLD_START_STDOUT:
            self.failures.append(
                f"cold start exited {proc.returncode}: {proc.stderr[-200:]}"
            )


# ------------------------------------------------------------ metrics


def pass_time(samples, which: int) -> float:
    """One pass over the list: the sum of each command's median."""
    return sum(statistics.median(s[which] for s in runs) for runs in samples)


def end_to_end(samples, commands):
    """Timed-phase metrics from per-command samples, plus the tail's
    percentile and sample count, and the slowest commands."""
    ranked = sorted(
        (
            (statistics.median(s[0] for s in runs), " ".join(command.argv))
            for runs, command in zip(samples, commands)
        ),
        reverse=True,
    )
    latencies = [latency for latency, _ in ranked]
    count = len(latencies)
    # the highest percentile with at least ten commands beyond it
    tail_rank = 10 if count > 10 else 0
    wall = pass_time(samples, 0)
    metrics = {
        "wall_s": wall,
        "cpu_s": pass_time(samples, 1),
        "ops_per_s": count / wall,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": latencies[tail_rank] * 1000,
    }
    tail = {
        "percentile": 100 * (count - tail_rank) / count,
        "commands": count,
        "beyond": tail_rank,
        "slowest_ms": [
            [round(latency * 1000, 3), argv] for latency, argv in ranked[:12]
        ],
    }
    return metrics, tail


# ------------------------------------------------------------ environment


def git_sha():
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    sources = sorted((SRC / "bslat").glob("*.py"))
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": hashlib.sha256(
            b"".join(path.read_bytes() for path in sources)
        ).hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


# ------------------------------------------------------------ entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    env = environment()
    setups = [
        setup_time(name, seed)
        for _ in range(0 if trace else 1 if smoke else SETUP_REPEATS)
    ]
    cli, commands, expected = set_up(name, seed, smoke)
    gc.collect()
    gc.freeze()
    budget = seconds / 2 if trace else seconds
    spawns = 1 if smoke else COLD_START_REPEATS
    cold = ColdStart()
    samples, attempted, failures = timed_phase(
        cli.main, commands, expected, budget,
        tick=None if trace else (budget / spawns, cold),
    )
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "inputs": {
            "commands": len(commands),
            "sha256": workloads.digest(commands),
        },
        "env": env,
        "executions": attempted,
    }
    if trace:
        tracer = tracing.Tracer()
        tracer.install(
            {layer: sys.modules[f"bslat.{layer}"] for layer in tracing.LAYERS}
        )
        traced, executed, traced_failures = timed_phase(
            cli.main, commands, expected, 0, tracer
        )
        attempted += executed
        failures += traced_failures
        values = tracer.metrics(pass_time(traced, 0), pass_time(samples, 0))
        units = tracing.METRICS
        record["closure_coverage_by_size"] = tracer.coverage_by_size()
        record["spans"] = len(tracer.spans)
        tracer.write_spans(OUT / f"spans-{name}.tsv.gz")
    else:
        values, record["op_tail"] = end_to_end(samples, commands)
        while len(cold.times) < spawns:
            cold()
        values["cold_start_ms"] = statistics.median(cold.times) * 1000
        attempted += len(cold.times)
        failures += cold.failures
        values["setup_s"] = statistics.median(setups)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = peak_kib / 1024
        units = END_TO_END
    record["metrics"] = {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in units.items()
    }
    record.update(
        attempted=attempted,
        failed=len(failures),
        fail_ratio=len(failures) / attempted,
        failures=failures[:20],
    )
    return record


def report(record: dict):
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  commands {record['inputs']['commands']}  "
        f"executions {record['executions']}"
    )
    print(f"  inputs sha256 {record['inputs']['sha256']}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:30s} {entry['value']:.6g} {entry['unit']}")
    print(
        f"  {'fail_ratio':30s} {record['fail_ratio']:.6g} ratio "
        f"({record['failed']} of {record['attempted']})"
    )
    if "op_tail" in record:
        tail = record["op_tail"]
        print(
            f"  op_tail_ms is p{tail['percentile']:.2f} of "
            f"{tail['commands']} command medians"
        )
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  env {json.dumps(record['env'])}")


def run_all(args) -> int:
    """Every workload in its own process; nonzero when any failed."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exited {proc.returncode}")
            status = 1
        elif json.loads(lines[-1])["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[*workloads.WORKLOADS, "all"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny command lists and single repeats, to check the harness",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the time at which set-up ended, and exit",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "bslat" / "cli.py").is_file():
        print(f"error: no bslat sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, args.smoke)
            print(time.time())
            return 0
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
