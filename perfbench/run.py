"""wconv benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload desk-optimize --seed 1 --seconds 40 --trace 0

Runs from a source checkout: the ``wconv`` package is imported from
``src/`` next to this directory, and every file the runs write lands under
``.perfbench_out/`` in the checkout.  Each timed run calls
``wconv.cli.dispatch`` in this process and checks the command's outputs
against ``reference.json``.

With ``--trace 0`` the metrics are end to end: mean run time, set-up
time, work per second and peak memory.  With ``--trace 1`` the runs
alternate untraced and traced, and the metrics are per layer, from spans
recorded by wrappers installed around the package's functions (see
``tracing.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Runs each command it reads from stdin and answers with its wall time.
LAUNCHER = """
import json, subprocess, sys, time
for line in sys.stdin:
    t0 = time.perf_counter()
    subprocess.run(json.loads(line), check=True, stdin=subprocess.DEVNULL)
    print(time.perf_counter() - t0, flush=True)
"""
# A fresh interpreter that gets ready to run a workload: imports the
# package, parses the command line and generates the dataset.
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import wconv.cli
from wconv.experiments import DatasetSpec, gen_dataset
argv = json.loads(sys.argv[2])
wconv.cli.build_parser().parse_args(argv)
dataset = json.loads(sys.argv[4])
if dataset is not None:
    gen_dataset(DatasetSpec(seed=int(sys.argv[3]), **dataset))
"""


@dataclass
class Rep:
    seconds: float
    traced: bool
    problems: list[str] = field(default_factory=list)
    outputs: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_rep(call, workload: workloads.Workload, argv: list[str], out_dir: Path,
            reference: dict, traced: bool = False) -> Rep:
    """One timed workload run; any exception, non-zero exit or output
    outside the reference tolerance is recorded as a problem."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = call(argv)
    except Exception as exc:  # noqa: BLE001 - a crashing run is a failed run
        return Rep(time.perf_counter() - start, traced,
                   [f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    if code != 0:
        return Rep(seconds, traced, [f"exit code {code}: {sink.getvalue()[-400:]}"])
    try:
        outputs = workload.parse(out_dir)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return Rep(seconds, traced, [f"unreadable output: {exc!r}"])
    return Rep(seconds, traced, workload.check(outputs, reference), outputs)


def repeat(seconds: float, step) -> list:
    """Call ``step`` (which returns a list of reps) until another call would
    end past ``seconds``; always at least once."""
    reps = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.extend(step())
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            return reps


class SetupProbe:
    """Times fresh interpreters that get ready for the workload.

    The probes run under a launcher process that is still alive when
    ``peak_rss_mb`` reads the finished children's peak, so they are not
    counted; run directly, each would also inherit this process's peak
    resident size when it execs.
    """

    def __init__(self, argv: list[str], seed: int, dataset: dict | None):
        self._cmd = json.dumps([sys.executable, "-c", PROBE, str(SRC), json.dumps(argv),
                                str(seed), json.dumps(dataset)])
        self._launcher = subprocess.Popen([sys.executable, "-c", LAUNCHER], cwd=ROOT,
                                          stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, text=True)

    def seconds(self) -> float:
        self._launcher.stdin.write(self._cmd + "\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise RuntimeError("set-up probe failed")
        return float(line)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=60)
        self._launcher.stdout.close()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its finished
    children (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` without starting git: a
    finished child would add its peak resident size to ``peak_rss_mb``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip() or None
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(args, seed: int, threads: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "wconv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "input_seed": seed,
        "seconds": args.seconds, "trace": args.trace, "threads": threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "git_commit": _commit(), "source_sha256": digest.hexdigest(),
    }


# Label and unit of each work unit's per-second rate in the printed report.
RATES = {"evals": ("evals_per_s", "1/s"), "train_mpx": ("train_mpx_per_s", "Mpx/s"),
         "verify_instances": ("verify_instances_per_s", "1/s")}


def work_rates(reps: list[Rep], workload) -> dict[str, float]:
    """Work units per second over all runs with readable outputs, by unit."""
    good = [r for r in reps if r.outputs is not None]
    seconds = sum(r.seconds for r in good)
    totals: dict[str, float] = {}
    for r in good:
        for unit, amount in workload.work(r.outputs).items():
            totals[unit] = totals.get(unit, 0.0) + amount
    return {unit: amount / seconds for unit, amount in totals.items()}


def end_to_end(reps: list[Rep], setup: list[float], workload) -> dict:
    """Every end-to-end metric as {name: (value, unit)}.

    Times are means over the window's runs, not medians: the machine's
    speed drifts in waves several seconds long, and on the reference box
    the mean of a 40 s window varied 5-8% from run to run where the median
    of its runs varied 6-11%.
    """
    return {
        "run_s": (statistics.fmean(r.seconds for r in reps), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (work_rates(reps, workload).get(workload.unit, 0.0), "units/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def report_lines(workload, reps: list[Rep], metrics: dict, setup: list[float]) -> list[str]:
    """Human-readable summary, with every metric by name and unit."""
    n = len(reps)
    lines = [f"  run_s                  {metrics['run_s'][0]:.4f} s   (mean of {n} runs)",
             f"  setup_s                {metrics['setup_s'][0]:.4f} s   (median of "
             f"{len(setup)} fresh-interpreter set-ups)"]
    for unit, rate in work_rates(reps, workload).items():
        label, suffix = RATES[unit]
        lines.append(f"  {label:<22} {rate:.4f} {suffix}   (over {n} runs)")
    failed = sum(r.failed for r in reps)
    lines += [f"  work_per_s             {metrics['work_per_s'][0]:.4f} units/s   "
              f"({workload.unit} per second)",
              f"  peak_rss_mb            {metrics['peak_rss_mb'][0]:.1f} MB",
              f"  error_rate             {failed / n:.4f}   ({failed} of {n} runs failed)"]
    return lines


def directl_counts(reps: list[Rep]) -> dict:
    """DIRECT counters summed over runs, from their trace.csv files."""
    per_iter = [c for r in reps if r.outputs and "evals_per_iter" in r.outputs
                for c in r.outputs["evals_per_iter"]]
    return {
        "iterations": sum(r.outputs.get("iterations", 0) for r in reps if r.outputs),
        "evals": sum(r.outputs.get("evals", 0) for r in reps if r.outputs),
        "evals_per_iter_mean": statistics.fmean(per_iter) if per_iter else 0.0,
        "evals_per_iter_max": float(max(per_iter, default=0)),
    }


def traced_metrics(reps: list[Rep], tracer: tracing.Tracer) -> dict:
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    m = tracing.layer_metrics(tracer.spans, len(traced), directl_counts(traced))
    wall = statistics.median(r.seconds for r in traced)
    untraced = statistics.median(r.seconds for r in plain)
    # The layer self times add up to the cli.dispatch spans by construction;
    # what can move is how much of that no wrapper below cli.dispatch covers.
    dispatch_self = sum(o for s, o in zip(tracer.spans, tracing.self_times(tracer.spans))
                        if s.name == "cli.dispatch")
    m.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.overhead_s": (wall - untraced, "s"),
        "trace.coverage": (1.0 - dispatch_self / sum(r.seconds for r in traced),
                           "ratio"),
    })
    return m


def self_time_table(tracer: tracing.Tracer, reps: int) -> list[str]:
    own = tracing.self_times(tracer.spans)
    by_name: dict[str, list[float]] = {}
    for s, o in zip(tracer.spans, own):
        acc = by_name.setdefault(s.name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += s.seconds
        acc[2] += o
    rows = sorted(by_name.items(), key=lambda kv: -kv[1][2])
    lines = [f"  {'span':<42} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for name, (calls, tot, slf) in rows:
        lines.append(f"  {name:<42} {calls / reps:>8.0f} {tot / reps:>10.4f} "
                     f"{slf / reps:>10.4f}")
    return lines


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_wconv():
    """Import wconv from this checkout's src/, never from anywhere else."""
    if not (SRC / "wconv" / "__init__.py").is_file():
        raise ImportError(f"no wconv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wconv.cli
    if Path(wconv.cli.__file__).resolve().parent != (SRC / "wconv").resolve():
        raise ImportError(f"wconv imported from {wconv.cli.__file__}, not {SRC}")
    return wconv.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.input_seed(args.seed)
    nproc = len(os.sched_getaffinity(0))
    # The traced run keeps every span in this process, so it runs serially.
    threads = nproc if workload.parallel and not args.trace else 1
    out_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}" / "out"
    argv = workload.argv(seed, out_dir, threads)
    probe = None if args.trace else SetupProbe(argv, seed, workload.dataset)
    try:
        return measure(args, workload, seed, threads, argv, out_dir, probe)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if probe is not None:
            probe.close()


def measure(args, workload, seed: int, threads: int, argv: list[str],
            out_dir: Path, probe: SetupProbe | None) -> int:
    cli = load_wconv()
    reference = workloads.reference_for(workloads.load_reference(), workload.name,
                                        args.seed)
    run_dir = out_dir.parent

    env = environment(args, seed, threads)
    print("environment " + json.dumps(env, sort_keys=True))
    setup: list[float] = []

    # Untimed tiny run of the same subcommand, so lazy initialisation in numpy
    # happens before the first timed run; the timed runs report any failure.
    run_rep(cli.dispatch, workload,
            ["--seed", str(seed), "--out-dir", str(out_dir), *workload.warmup],
            out_dir, reference)

    tracer = tracing.Tracer()
    traced_dispatch = tracer.wrap(cli.dispatch, "cli.dispatch")

    def plain():
        return [run_rep(cli.dispatch, workload, argv, out_dir, reference)]

    def probed():
        # Set-up probes interleave with the runs, so both see the same
        # machine load.
        setup.append(probe.seconds())
        return plain()

    def traced():
        tracer.install()
        try:
            return [run_rep(traced_dispatch, workload, argv, out_dir, reference,
                            traced=True)]
        finally:
            tracer.restore()

    pairs = 0

    def pair():
        # Alternate which side goes first, so drift hits both alike.
        nonlocal pairs
        pairs += 1
        return plain() + traced() if pairs % 2 else traced() + plain()

    reps = repeat(args.seconds, pair if args.trace else probed)
    for i, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"FAIL run {i}: {problem}", file=sys.stderr)

    print(f"workload {workload.name}  seed {args.seed} (input seed {seed})  "
          f"threads {threads}  runs {len(reps)}")
    if args.trace:
        metrics = traced_metrics(reps, tracer)
        n_traced = sum(r.traced for r in reps)
        print(f"  traced at --threads {threads}: every span is recorded in this "
              "process; end-to-end metrics come from --trace 0")
        for line in self_time_table(tracer, n_traced):
            print(line)
        if tracer.missing:
            print(f"  not traced (absent): {', '.join(tracer.missing)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<38} {value:.6g} {unit}")
        print("  conv.gflop_per_s is computed: wconv.conv.flop_count scaled by "
              "batch x in_channels, over conv span time")
        with open(run_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        metrics = end_to_end(reps, setup, workload)
        for line in report_lines(workload, reps, metrics, setup):
            print(line)

    failed = sum(r.failed for r in reps)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "setup_s": setup,
                   "runs": [{"seconds": r.seconds, "traced": r.traced,
                             "problems": r.problems} for r in reps],
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
