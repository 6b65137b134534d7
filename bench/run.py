"""dquant benchmark: end-to-end CLI timings or a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/dquant. With --trace 0
every command of the workload runs as a fresh `python -m dquant` process,
one after another from this single client (a closed loop), and the end-to-end
metrics are reported. With --trace 1 the same commands run in this process
through dquant.cli.main with the tracer installed, and the per-layer metrics
are reported. Either way every output is checked (checks.py), whole passes
repeat until S seconds have gone, and the last line of standard output is
one JSON object. Details of the run go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import checks
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: fresh `import dquant` processes timed per run for setup_s
SETUP_REPEATS = 5
#: `-X importtime` imports per traced run for the import.* metrics
IMPORTTIME_REPEATS = 3
#: a command running longer than this is killed and counted as failed
COMMAND_TIMEOUT_S = 120.0
#: speed probe: CPU time of one calibration sample on an unloaded core of
#: the reference machine, and the sampling period
SPEED_REF_S = 1.0e-3
SPEED_PERIOD_S = 0.05

IMPORT_METRICS = {"import.scipy_sparse_s": "scipy.sparse",
                  "import.scipy_optimize_s": "scipy.optimize"}


@dataclass
class Outcome:
    """One command's run: exit status, latency, peak memory and output location.

    ``speed`` is the CPU speed during the run relative to the reference
    (1.0 in the traced run, which is not scaled); ``scaled_s`` is the
    latency at the reference speed.
    """

    out: Path
    returncode: int | None
    seconds: float
    peak_rss_mb: float = 0.0
    note: str = ""
    speed: float = 1.0

    @property
    def failed(self) -> bool:
        return self.returncode != 0

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.speed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def log(self) -> dict:
        return {"check_errors": self.errors, "failures": self.failures}

    def record(self, label: str, outcome: Outcome, check) -> None:
        """Count one command and, unless it failed, check its outputs."""
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            self.failures.append(f"{label}: exit {outcome.returncode} {outcome.note}")
            print(f"FAILED {self.failures[-1]}", file=sys.stderr)
            return
        try:
            check(outcome.out / "files")
        except checks.CheckError as exc:
            self.errors.append(f"{label}: {exc}")
            print(f"CHECK {label}: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# fresh processes
# ---------------------------------------------------------------------------


def _speed_sample() -> float:
    """Thread CPU time of a fixed integer loop: one calibration sample."""
    t0 = thread_time()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    return thread_time() - t0


class SpeedProbe(threading.Thread):
    """Samples the CPU speed of the core a child process runs on.

    Every SPEED_PERIOD_S this thread moves to the child's current core and
    takes one calibration sample (about 2% of that core). On a shared host the
    speed of a core drifts by up to 1.6x over seconds, and the two cores
    drift apart; scaling a latency by SPEED_REF_S / (mean sample) reports it
    at the reference speed and removes most of that drift from the spread
    between runs.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.stat = f"/proc/{pid}/stat"
        self.samples: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            try:
                with open(self.stat) as fh:
                    cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
                os.sched_setaffinity(0, {cpu})
            except (OSError, IndexError, ValueError):
                pass  # the child has exited; sample where this thread is
            self.samples.append(_speed_sample())
            if self.done.wait(SPEED_PERIOD_S):
                return

    def finish(self) -> float:
        """Stop sampling; the speed relative to the reference."""
        self.done.set()
        self.join()
        return SPEED_REF_S / statistics.mean(self.samples)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DQUANT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], out: Path, env: dict) -> Outcome:
    """Run one process to completion; stdout and stderr go to files in out.

    The process is reaped with wait4, which gives this child's own peak
    resident memory (RUSAGE_CHILDREN would keep a running maximum).
    """
    out.mkdir(parents=True)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=so, stderr=se, env=env, cwd=ROOT)
        probe = SpeedProbe(proc.pid)
        probe.start()
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            probe.done.set()
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = perf_counter() - t0
        speed = probe.finish()
    proc.returncode = os.waitstatus_to_exitcode(status)
    note = "" if proc.returncode == 0 else (out / "stderr.txt").read_text()[-400:]
    return Outcome(out, proc.returncode, seconds, usage.ru_maxrss / 1024.0, note, speed)


def run_cli(cmd: workloads.Command, out: Path, env: dict) -> Outcome:
    return spawn(["-m", "dquant", *cmd.argv, "--out", str(out / "files")], out, env)


def another_pass(passes: list, t_start: float, seconds: int) -> bool:
    """At least one pass; then another only if it should end within the run's seconds."""
    if not passes:
        return True
    return perf_counter() - t_start + passes[-1]["wall_s"] <= seconds


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def cli_run(wl: workloads.Workload, seconds: int, work: Path) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off, every latency at the reference CPU speed."""
    env = child_env()
    tally = Tally()
    # untimed first run: warms the file cache, and is the reference for the
    # byte-identity check against the first timed pass. It is not counted,
    # so every run attempts whole passes only.
    warmup = run_cli(wl.warmup, work / "warmup", env)

    setup = [spawn(["-c", "import dquant"], work / f"setup{i}", env)
             for i in range(SETUP_REPEATS)]
    for imp in setup:
        if imp.failed:
            tally.errors.append(f"import dquant failed: {imp.note}")

    passes, latencies = [], []
    t_start = perf_counter()
    while another_pass(passes, t_start, seconds):
        pass_dir = work / f"pass{len(passes)}"
        t0 = perf_counter()
        outcomes = [run_cli(cmd, pass_dir / cmd.name, env) for cmd in wl.commands]
        wall = perf_counter() - t0
        for cmd, oc in zip(wl.commands, outcomes):
            tally.record(cmd.name, oc, cmd.check)
            if cmd is wl.warmup and not passes and not (warmup.failed or oc.failed):
                if not same_files(warmup.out / "files", oc.out / "files"):
                    tally.errors.append(f"{cmd.name}: output differs between two runs")
        latencies += [oc.scaled_s for oc in outcomes]
        passes.append({
            "wall_s": wall,
            "scaled_wall_s": sum(oc.scaled_s for oc in outcomes),
            "peak_rss_mb": max(oc.peak_rss_mb for oc in outcomes),
            "commands": {c.name: {"seconds": oc.seconds, "speed": oc.speed}
                         for c, oc in zip(wl.commands, outcomes)},
        })
        if any(oc.returncode is None or oc.returncode < 0 for oc in outcomes):
            break  # killed on timeout: do not risk the run's own deadline
        shutil.rmtree(pass_dir)

    metrics = {
        "wall_s": (statistics.median(p["scaled_wall_s"] for p in passes), "s"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(imp.scaled_s for imp in setup), "s"),
    }
    details = {"setup": [{"seconds": imp.seconds, "speed": imp.speed} for imp in setup],
               "passes": passes}
    return result(tally, metrics), details | tally.log()


# ---------------------------------------------------------------------------
# traced run, in this process
# ---------------------------------------------------------------------------


def import_times(env: dict, work: Path) -> dict:
    """Cumulative `-X importtime` seconds of each package in IMPORT_METRICS.

    Sums the outermost import of the package or any of its submodules, so
    a submodule imported later on its own is counted once.
    """
    samples = {name: [] for name in IMPORT_METRICS}
    for i in range(IMPORTTIME_REPEATS):
        oc = spawn(["-X", "importtime", "-c", "import dquant"], work / f"importtime{i}", env)
        roots = parse_importtime((oc.out / "stderr.txt").read_text())
        for name, pkg in IMPORT_METRICS.items():
            samples[name].append(_outermost(roots, pkg) / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def parse_importtime(text: str) -> list:
    """Import tree (children listed before their parent) as nested tuples."""
    stack = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop())
        stack.append((depth, name.strip(), int(cumulative), children))
    return stack


def _outermost(nodes, pkg: str) -> int:
    total = 0
    for _, name, cumulative, children in nodes:
        if name == pkg or name.startswith(pkg + "."):
            total += cumulative
        else:
            total += _outermost(children, pkg)
    return total


def run_inline(cli, cmd: workloads.Command, out: Path) -> Outcome:
    """dquant.cli.main on the command's arguments, with its output captured."""
    buf = io.StringIO()
    note = ""
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main([*cmd.argv, "--out", str(out / "files")])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the run goes on; the command counts as failed
            rc, note = 1, traceback.format_exc(limit=3)
    seconds = perf_counter() - t0
    if rc and not note:
        note = buf.getvalue()[-400:]
    return Outcome(out, rc, seconds, note=note)


def traced_run(wl: workloads.Workload, seconds: int, work: Path) -> tuple[dict, dict]:
    """Per-layer metrics from spans recorded around dquant's public functions."""
    env = child_env()
    imports = import_times(env, work)
    sys.path.insert(0, str(SRC))
    import dquant.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported dquant from {cli.__file__}, not from {SRC}")

    tally = Tally()

    def one_pass(tag):
        pass_dir = work / tag
        t0 = perf_counter()
        outcomes = [run_inline(cli, cmd, pass_dir / cmd.name) for cmd in wl.commands]
        return perf_counter() - t0, outcomes, pass_dir

    def settle(outcomes, pass_dir):
        for cmd, oc in zip(wl.commands, outcomes):
            tally.record(cmd.name, oc, cmd.check)
        shutil.rmtree(pass_dir)

    # untraced pass first: finishes lazy imports inside scipy, and gives the
    # baseline that the traced passes' overhead is measured against
    untraced_wall, outcomes, pass_dir = one_pass("untraced")
    settle(outcomes, pass_dir)

    tracer = Tracer()
    passes = []
    t_start = perf_counter()
    while another_pass(passes, t_start, seconds):
        tracer.reset()
        with tracer.installed():
            wall, outcomes, pass_dir = one_pass(f"traced{len(passes)}")
        settle(outcomes, pass_dir)
        passes.append({"wall_s": wall, "layers": tracer.layer_metrics(),
                       "spans": tracer.span_table()})

    first = passes[0]["layers"]
    metrics = {}
    for name, value in first.items():
        if isinstance(value, int):
            if any(p["layers"][name] != value for p in passes):
                tally.errors.append(f"count {name} differs between passes")
            metrics[name] = (value, "count")
        elif name.endswith("_ratio"):
            metrics[name] = (value, "ratio")
        else:
            metrics[name] = (statistics.median(p["layers"][name] for p in passes), "s")
    for name, value in imports.items():
        metrics[name] = (value, "s")
    details = {"untraced_pass_s": untraced_wall,
               "traced_pass_s": [p["wall_s"] for p in passes],
               "overhead": statistics.median(p["wall_s"] for p in passes) / untraced_wall - 1.0,
               "passes": passes}
    return result(tally, metrics), details | tally.log()


# ---------------------------------------------------------------------------


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: the running child is killed and reaped


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "dquant" / "__init__.py").is_file():
        print(f"error: no dquant package under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        wl = workloads.build(args.workload, args.seed, inputs)
        run = traced_run if args.trace else cli_run
        res, details = run(wl, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"args": vars(args), "result": res, "details": details},
                                 indent=1, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {res['attempted']} commands, "
          f"{res['failed']} failed, correct={res['correct']}; details in {report}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
