"""gradedalg benchmark: cold CLI runs for the end-to-end numbers, a traced
in-process run for the per-layer numbers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {suite,validate-cap} \
        --seed N --seconds S --trace {0,1}

The program runs from ``src/`` of the checkout, one child process at a time
(a closed loop with one client), always with ``--threads 1``.  Every
invocation's exit code and ``--report machine`` bytes are checked against
``bench/expected.json``.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CAP_FILE = "bench/out/cap.gstruct"  # relative, since validate echoes it in file=

CLI = ("-c", "from gradedalg.cli import main; main()")
GLOBAL_FLAGS = ("--report", "machine", "--threads", "1")
SETUP_RUNS = 5  # the fewest set-up processes a run times
RUN_DEADLINE_S = 170.0  # the whole benchmark run must end within 180 s

# Facts stated independently of the recorded output (README, ROADMAP and the
# acceptance tests), checked against bench/expected.json before any run.
STATED_FACTS = {
    "ideal-lemma": {"instances": "412557"},
    "two-ideal-theorem": {"instances": "49606"},
    "hom-preimage": {"status": "fail", "violations": "574"},
}
STATED_SUITE_EXIT = 1  # hom-preimage fails by design

PER_LAYER = (
    ("import.s", "s"),
    ("core.make.s", "s"),
    ("core.validate.s", "s"),
    ("core.validate.calls", "count"),
    ("core.validate.rss_growth_mb", "MB"),
    ("grading.attach.s", "s"),
    ("grading.attach.calls", "count"),
    ("structfile.parse.s", "s"),
    ("corpus.build.s", "s"),
    ("subobjects.enumerate.s", "s"),
    ("subobjects.enumerate.calls", "count"),
    ("subobjects.enumerate.repeat_share", "ratio"),
    ("subobjects.lattice_elems", "count"),
    ("subobjects.ops.s", "s"),
    ("subobjects.ops.calls", "count"),
    ("classifiers.ideal.s", "s"),
    ("classifiers.ideal.calls", "count"),
    ("classifiers.ideal.repeat_share", "ratio"),
    ("classifiers.submodule.s", "s"),
    ("classifiers.submodule.calls", "count"),
    ("classifiers.submodule.repeat_share", "ratio"),
    ("classifiers.char.s", "s"),
    ("classifiers.char.calls", "count"),
    ("classifiers.char.repeat_share", "ratio"),
    ("classifiers.comult.s", "s"),
    ("classifiers.grad_colon.s", "s"),
    ("classifiers.grad_colon.calls", "count"),
    ("classifiers.grad_colon.repeat_share", "ratio"),
    ("classifiers.false_share", "ratio"),
    ("constructions.s", "s"),
    ("constructions.calls", "count"),
    ("cli.report.s", "s"),
    ("trace.overhead_s", "s"),
)
VERDICT_METRICS = ("classifiers.ideal", "classifiers.submodule", "classifiers.char", "classifiers.comult")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    args: list
    exit: int
    stdout: bytes


@dataclass
class ChildRun:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float


class Runner:
    """Starts one child at a time, accounts it with os.wait4 and checks it."""

    def __init__(self, seed: int):
        self.started = time.perf_counter()
        # the reports must not depend on the hash seed; the seed makes it reproducible
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed % 2**32)}
        self.attempted = 0
        self.failed = 0

    def child(self, argv) -> ChildRun:
        # Per-child rusage: RUSAGE_CHILDREN would keep the peak RSS of every
        # earlier child, so a 2 GB validate would mask a 126 MB suite.
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted or terminated: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return ChildRun(
                proc.returncode, out.read(), err.read(), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            )

    def check(self, argv, expected: Invocation) -> ChildRun:
        run = self.child(argv)
        self.attempted += 1
        if run.code != expected.exit or run.stdout != expected.stdout:
            self.failed += 1
            tail = run.stderr.decode(errors="replace").strip().splitlines()[-3:]
            print(
                f"FAILED {' '.join(expected.args)}: exit {run.code} (expected {expected.exit}), "
                f"stdout {'matches' if run.stdout == expected.stdout else 'differs'}; {' | '.join(tail)}",
                file=sys.stderr,
            )
        return run


# ---------------------------------------------------------------------------
# expected outputs and workloads
# ---------------------------------------------------------------------------

def _fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split())


def load_expected() -> dict:
    try:
        with open(BENCH / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)
        lines = {}
        for line in expected["suite"]["stdout"].splitlines():
            fields = _fields(line)
            lines[fields["prop"]] = (line, fields)
        mismatches = [
            f"{pid} has {name}={lines[pid][1][name]}, stated {value}"
            for pid, facts in STATED_FACTS.items()
            for name, value in facts.items()
            if lines[pid][1][name] != value
        ]
        if expected["suite"]["exit"] != STATED_SUITE_EXIT:
            mismatches.append(f"suite exits {expected['suite']['exit']}, stated {STATED_SUITE_EXIT}")
    except (KeyError, ValueError) as exc:
        raise BenchError(f"bench/expected.json is malformed: {exc!r}") from None
    if mismatches:
        raise BenchError("bench/expected.json disagrees with stated facts: " + "; ".join(mismatches))
    expected["suite_lines"] = lines
    return expected


def cap_structure(seed: int) -> tuple[str, str]:
    """The 512-element F2[C9] structure file for ``seed``, and its named list.

    Seed 0 is the bare structure; other seeds add a submodule and an ideal
    with generators drawn from the seed, which leaves the cost unchanged.
    """
    lines = ["group cyclic 9", "ring groupring 2", "grading natural", "module self"]
    if seed == 0:
        return "\n".join(lines) + "\n", "-"
    rng = random.Random(seed)

    def element():
        return "(" + ",".join(str(rng.randrange(2)) for _ in range(9)) + ")"

    lines.append("submodule N gens " + " ".join(element() for _ in range(rng.randint(1, 2))))
    lines.append("ideal I gens " + element())
    return "\n".join(lines) + "\n", "I,N"


class Workload:
    """The invocations of one sample, in order, with their expected output."""

    def __init__(self, name: str, seed: int, expected: dict):
        self.name = name
        self.rng = random.Random(seed)
        self.expected = expected
        if name == "validate-cap":
            text, named = cap_structure(seed)
            (ROOT / CAP_FILE).write_text(text, encoding="utf-8")
            template = expected["validate-cap"]
            self.cap = Invocation(
                ["validate", CAP_FILE],
                template["exit"],
                template["stdout"].format(file=CAP_FILE, named=named).encode(),
            )

    def sample(self) -> list:
        if self.name == "suite":
            suite = self.expected["suite"]
            return [Invocation(["verify", "--suite", "all"], suite["exit"], suite["stdout"].encode())]
        return [self.cap]

    def cold_props(self) -> list:
        """One cold ``verify --prop`` per proposition, in an order shuffled by the seed.

        A cold verdict must equal the shared-memo verdict of the suite, so
        each must print exactly its line of the suite report.
        """
        pids = sorted(self.expected["suite_lines"])
        self.rng.shuffle(pids)
        out = []
        for pid in pids:
            line, fields = self.expected["suite_lines"][pid]
            out.append(Invocation(["verify", "--prop", pid], int(fields["status"] == "fail"), (line + "\n").encode()))
        return out

    def setup_code(self) -> str:
        if self.name == "validate-cap":
            return "import gradedalg"
        return "import gradedalg; gradedalg.build_standard_corpus()"


# ---------------------------------------------------------------------------
# statistics and output
# ---------------------------------------------------------------------------

def summary(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def print_metric(name, unit, values, reported):
    median, q1, q3 = summary(values)
    print(
        f"{name}: {reported:.6g} {unit} (mean={statistics.mean(values):.6g} median={median:.6g} "
        f"q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g} n={len(values)})"
    )


def run_record(args, warmup: dict, loads: list) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": warmup["numpy"],
        "loadavg_before_each_sample": loads,
    }


def warm_up(runner: Runner) -> dict:
    """Check the program is the checkout's own, and compile its bytecode."""
    if not (SRC / "gradedalg" / "__init__.py").is_file():
        raise BenchError(f"no gradedalg package under {SRC}")
    code = "import json, gradedalg, numpy; print(json.dumps({'file': gradedalg.__file__, 'numpy': numpy.__version__}))"
    run = runner.child(["-c", code])
    if run.code != 0:
        raise BenchError("cannot import gradedalg: " + run.stderr.decode(errors="replace").strip()[-300:])
    info = json.loads(run.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"gradedalg imported from {info['file']}, not from {SRC}")
    return info


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(runner: Runner, workload: Workload, seconds: float, loads: list) -> dict:
    """Untraced end-to-end metrics over the run's samples.

    ``wall_s`` and ``cpu_s`` are means, the run's total time over its
    samples: the host slows every process down in bursts that last longer
    than a sample, so the median is one sample from one burst, while the
    mean covers the whole run.  ``peak_rss_mb`` and ``setup_s`` are medians.
    """
    setup, wall, cpu, rss = [], [], [], []

    def set_up() -> None:
        run = runner.check(["-c", workload.setup_code()], Invocation(["setup"], 0, b""))
        setup.append(run.wall)

    t0 = time.perf_counter()
    while True:
        # one set-up process before each sample spreads them over the run
        set_up()
        loads.append(os.getloadavg()[0])
        runs = [runner.check([*CLI, *GLOBAL_FLAGS, *inv.args], inv) for inv in workload.sample()]
        wall.append(sum(r.wall for r in runs))
        cpu.append(sum(r.cpu for r in runs))
        rss.append(max(r.rss_mb for r in runs))
        # start another sample only if it should end within the measuring time
        elapsed = time.perf_counter() - t0
        if elapsed * (len(wall) + 1) / len(wall) > seconds:
            break
    while len(setup) < SETUP_RUNS:
        set_up()
    values = {
        "wall_s": (wall, "s", statistics.mean(wall)),
        "cpu_s": (cpu, "s", statistics.mean(cpu)),
        "peak_rss_mb": (rss, "MB", statistics.median(rss)),
        "setup_s": (setup, "s", statistics.median(setup)),
    }
    for name, (vals, unit, reported) in values.items():
        print_metric(name, unit, vals, reported)
    return {name: {"value": reported, "unit": unit} for name, (_, unit, reported) in values.items()}


def _traced_metrics(traces: list, overhead_s: float) -> tuple[dict, dict]:
    stats = {}
    for trace in traces:
        for name, s in trace["stats"].items():
            total = stats.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                # peak RSS growth is per process; the rest adds up
                total[key] = max(total[key], value) if key == "rss_mb" else total[key] + value

    def share(part, whole):
        return part / whole if whole else 0.0

    values = {"import.s": sum(t["import_s"] for t in traces), "trace.overhead_s": overhead_s}
    for name, _ in PER_LAYER:
        metric, _, field = name.rpartition(".")
        if name in values:
            continue
        if name == "subobjects.lattice_elems":
            values[name] = stats["subobjects.enumerate"]["lattice_elems"]
        elif name == "core.validate.rss_growth_mb":
            values[name] = stats["core.validate"]["rss_mb"]
        elif name == "classifiers.false_share":
            values[name] = share(
                sum(stats[m]["false"] for m in VERDICT_METRICS), sum(stats[m]["calls"] for m in VERDICT_METRICS)
            )
        elif field == "s":
            values[name] = stats[metric]["self_s"]
        elif field == "calls":
            values[name] = stats[metric]["calls"]
        elif field == "repeat_share":
            values[name] = share(stats[metric]["repeats"], stats[metric]["calls"])
    units = dict(PER_LAYER)
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
    for name in sorted(n for n in stats if n.startswith("propositions.")):
        metrics[f"{name}.s"] = {"value": stats[name]["self_s"], "unit": "s"}
        metrics[f"{name}.instances"] = {"value": stats[name]["instances"], "unit": "count"}
    return metrics, stats


def trace_checks(workload: Workload, children: list, stats: dict) -> list:
    """Self-checks of the tracer; returns the problems found."""
    problems = []
    for child in children:
        reported = {}
        for line in child["stdout"].decode().splitlines():
            fields = _fields(line)
            if "prop" in fields:
                reported[fields["prop"]] = int(fields["instances"])
        traced = {
            name.split(".", 1)[1]: s["instances"]
            for name, s in child["trace"]["stats"].items()
            if name.startswith("propositions.") and s["calls"]
        }
        if traced != reported:
            problems.append(f"traced instances {traced} differ from the report's {reported}")
    if workload.name == "validate-cap":
        calls = sum(s["calls"] for n, s in stats.items() if n.startswith(("classifiers.", "propositions.")))
        if calls:
            problems.append(f"validate-cap traced {calls} classifier or proposition calls")
    return problems


def trace(runner: Runner, workload: Workload, seed: int, loads: list) -> tuple[dict, list]:
    """Per-layer metrics from one traced sample, against one untraced sample.

    On ``suite`` it then checks the cold verdict of every proposition.
    """
    invocations = workload.sample()
    loads.append(os.getloadavg()[0])
    untraced = [runner.check([*CLI, *GLOBAL_FLAGS, *inv.args], inv) for inv in invocations]
    loads.append(os.getloadavg()[0])
    children = []
    for i, inv in enumerate(invocations):
        path = OUT / f"trace-{i}.json"
        path.unlink(missing_ok=True)
        run = runner.check(["bench/traced.py", str(path), *GLOBAL_FLAGS, *inv.args], inv)
        if not path.exists():
            raise BenchError(f"traced run of {' '.join(inv.args)} wrote no trace")
        with open(path, encoding="utf-8") as fh:
            children.append({"args": inv.args, "run": run, "stdout": run.stdout, "trace": json.load(fh)})
        path.unlink()
    problems = [
        f"traced report of {' '.join(c['args'])} differs from the untraced one"
        for c, u in zip(children, untraced)
        if c["stdout"] != u.stdout or c["run"].code != u.code
    ]
    overhead = sum(c["run"].wall for c in children) - sum(u.wall for u in untraced)
    metrics, stats = _traced_metrics([c["trace"] for c in children], overhead)
    problems += trace_checks(workload, children, stats)
    with open(OUT / f"trace-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump([{"args": c["args"], **c["trace"]} for c in children], fh)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    if workload.name == "suite":
        # untimed output checks: runner.check counts a cold verdict that differs
        for inv in workload.cold_props():
            runner.check([*CLI, *GLOBAL_FLAGS, *inv.args], inv)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("suite", "validate-cap"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so Runner.child stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        OUT.mkdir(exist_ok=True)
        runner = Runner(args.seed)
        warmup = warm_up(runner)
        workload = Workload(args.workload, args.seed, load_expected())
        loads = []
        if args.trace:
            metrics, problems = trace(runner, workload, args.seed, loads)
        else:
            metrics, problems = measure(runner, workload, args.seconds, loads), []
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"error_rate: {runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted} invocations)")
    print("record " + json.dumps(run_record(args, warmup, loads)))
    correct = runner.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
