"""A/B benchmark of this working tree against a base revision.

    python3 tools/ab.py --base 593a502 --label my_change \\
        --change "what the change does" --seeds 31-40 --pairs 10

Exports both sides into a temporary directory, in the same way: the base
revision with ``git archive``, and this working tree as the files git
tracks or would track, uncommitted edits and untracked files that are not
ignored included, but no ``.perfbench_out/``.  It copies this tree's
``perfbench/`` over the base's, so both sides run the same benchmark code
on their own ``src/``.  Then, per workload, it
alternates ``perfbench/run.py --trace 0`` between the base and this tree,
base first on even pairs (counting from 0), one seed per pair: pair ``i``
runs ``seeds[i % len(seeds)]``.  ``--pairs N`` runs every workload of
``BENCHMARK.json`` N times; ``--pairs W=N`` (repeatable) runs only the
workloads named.

Writes ``BENCH_<label>.json`` at the repo root: per workload, each side's
median and quartiles of every end-to-end metric ``BENCHMARK.json`` lists,
the change's median over the base's, the pairs the change won, whether
that shows a gain and whether the change stays within the metric's bound
(see ``summarise``), and the environment ``run.py`` recorded.  It refuses
to write the file if any environment field is null or the two sides'
environments differ.  With
``--tier1`` it also times one run of the tier-1 test suite per side, base
first, after the workloads, and records its wall time, its result line
and the ids of the tests that failed or errored.
The temporary directory is removed when the script ends.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
# The environment fields a BENCH file records for each workload.
ENV_KEYS = ("nproc", "cpu", "python", "numpy", "blas", "threads", "seconds")
# The tier-1 test suite, run from a tree's root with its src/ importable.
TIER1 = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors")
METHOD = ("alternating pairs (base first on even pairs, change first on odd), "
          "one seed per pair; medians and inclusive quartiles of the per-run "
          "values")


def parse_seeds(text: str) -> list[int]:
    """``31-40`` or ``31,33,35``, or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def plan_pairs(specs: list[str], workloads: list[str]) -> dict[str, int]:
    """Pairs per workload from ``N`` (every workload) or ``W=N`` items."""
    plan = {}
    for spec in specs:
        name, sep, count = spec.rpartition("=")
        for w in ([name] if sep else workloads):
            if w not in workloads:
                raise ValueError(f"unknown workload {w!r}, expected one of {workloads}")
            plan[w] = int(count)
    if not plan or min(plan.values()) < 1:
        raise ValueError("every workload needs at least one pair")
    return plan


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 5),
            "q1": round(q1, 5), "q3": round(q3, 5)}


def environment(records: list[dict]) -> dict:
    """The BENCH environment fields, which every run must record alike and
    none may leave null."""
    env = {key: records[0].get(key) for key in ENV_KEYS}
    missing = [key for key, value in env.items() if value is None]
    if missing:
        raise ValueError(f"run.py recorded no {', '.join(missing)}")
    for record in records[1:]:
        differ = [key for key in ENV_KEYS if record.get(key) != env[key]]
        if differ:
            raise ValueError(f"the runs' environments differ in {', '.join(differ)}")
    return env


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Compare the base and change result.json records of one workload's
    pairs (``runs[side][i]`` is pair i) on every end-to-end metric.

    ``gain_shown``: at least ten pairs ran, the change won at least nine
    tenths of them (ties count for neither), and its median beats the
    base's by more than the base's quartile distance.  ``within_bound``:
    the change's median is no worse than the base's by more than the
    metric's ``bound``, a fraction of the base's median (None for a
    metric that declares no bound)."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        b, c = quartiles(base), quartiles(change)
        wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(base, change))
        spread = b["q3"] - b["q1"]
        # how far the change's median is better than the base's (< 0: worse)
        gain = b["median"] - c["median"] if lower else c["median"] - b["median"]
        bound = m.get("bound")
        out[name] = {
            "unit": m["unit"], "base": b, "change": c,
            "change_over_base": round(c["median"] / b["median"], 4)
            if b["median"] else None,
            "change_wins": wins,
            "base_quartile_distance": round(spread, 5),
            "gain_shown": len(base) >= 10 and 10 * wins >= 9 * len(base)
            and gain > spread,
            "within_bound": None if bound is None
            else -gain <= bound * abs(b["median"]),
        }
    return out


def git(*args: str, root: Path = ROOT, text: bool = True):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=text).stdout


def export_revision(root: Path, rev: str, dest: Path) -> None:
    """The files of revision ``rev`` of the repository at ``root``, in ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, root=root,
                                             text=False))) as tar:
        tar.extractall(dest, filter="data")


def export_working_tree(root: Path, dest: Path) -> None:
    """The working tree at ``root`` as git sees it, in ``dest``: every file
    git tracks or would track (so uncommitted edits and untracked files that
    are not ignored), as it is on disk, except under ``.perfbench_out/``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                 root=root)
    for name in sorted(set(listed.split("\0")) - {""}):
        if name.startswith(".perfbench_out/") or not os.path.lexists(root / name):
            continue  # a benchmark output, or a tracked file deleted on disk
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / name, dest / name, follow_symlinks=False)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` window in ``tree``; its result.json record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    path = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0" / "result.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(trees: dict[str, Path], plan: dict[str, int], seeds: list[int],
            seconds: float, metrics: list[dict]) -> dict:
    result = {}
    for workload, pairs in plan.items():
        runs = {"base": [], "change": []}
        for i in range(pairs):
            seed = seeds[i % len(seeds)]
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                record = run_side(trees[side], workload, seed, seconds)
                runs[side].append(record)
                got = record["metrics"]
                values = "  ".join(f"{m['name']} {got[m['name']]['value']:.5g}"
                                   for m in metrics)
                print(f"{workload} pair {i + 1}/{pairs} seed {seed} {side:<6} "
                      f"{values}  failed {record['failed']}/{record['attempted']}",
                      file=sys.stderr, flush=True)
        env = environment([r["environment"] for side in runs.values() for r in side])
        result[workload] = {
            "seeds": [seeds[i % len(seeds)] for i in range(pairs)],
            "pairs": pairs,
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "environment": env,
            "metrics": summarise(runs, metrics),
        }
    return result


def time_tier1(tree: Path, command=TIER1) -> dict:
    """Wall time, exit code, pytest's closing result line and the ids its
    short summary lists as ``FAILED`` or ``ERROR`` (each with that word),
    of one run of ``command`` in ``tree`` with the tree's ``src/`` on the
    import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(list(command), cwd=tree, env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - start
    results = [line.strip("= ") for line in proc.stdout.splitlines()
               if re.search(r"\d+ (passed|failed|error)", line)]
    failures = re.findall(r"^(?:FAILED|ERROR) \S+", proc.stdout, re.MULTILINE)
    return {"seconds": round(seconds, 2), "returncode": proc.returncode,
            "result": results[-1] if results else None, "failures": failures}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--label", required=True, help="names BENCH_<label>.json")
    p.add_argument("--change", required=True, help="one line on what the change does")
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="e.g. 31-40 or 31,33,35: pair i runs seeds[i %% len(seeds)]")
    p.add_argument("--pairs", action="append", required=True,
                   help="N for every workload, or W=N for workload W (repeatable)")
    p.add_argument("--seconds", type=float, default=None,
                   help="run.py window (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--tier1", action="store_true",
                   help="also time one tier-1 test run per side")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        print(f"error: label {args.label!r} must be letters, digits, '_', '.' or '-'",
              file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        plan = plan_pairs(args.pairs, [w["name"] for w in bench["workloads"]])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    try:
        base = git("rev-parse", "--short", f"{args.base}^{{commit}}").strip()
    except subprocess.CalledProcessError:
        print(f"error: {args.base!r} names no commit", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix="wconv-ab-"))
    trees = {"base": tmp / "base", "change": tmp / "change"}
    try:
        export_revision(ROOT, base, trees["base"])
        export_working_tree(ROOT, trees["change"])
        shutil.rmtree(trees["base"] / "perfbench", ignore_errors=True)
        shutil.copytree(trees["change"] / "perfbench", trees["base"] / "perfbench")
        workloads = measure(trees, plan, args.seeds, seconds, bench["end_to_end"])
        tier1 = ({side: time_tier1(tree) for side, tree in trees.items()}
                 if args.tier1 else None)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "label": args.label, "base": base, "change": args.change,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "method": METHOD, "workloads": workloads,
    }
    if tier1 is not None:
        record["tier1"] = {"command": "PYTHONPATH=src " + " ".join(
            ["python3", *TIER1[1:]]), **tier1}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, w in workloads.items():
        for name, m in w["metrics"].items():
            print(f"{workload:<14} {name:<12} base {m['base']['median']:<10g} "
                  f"change {m['change']['median']:<10g} x{m['change_over_base']}  "
                  f"wins {m['change_wins']}/{w['pairs']}  "
                  f"gain_shown {m['gain_shown']}  within_bound {m['within_bound']}")
    if tier1 is not None:
        for side, run in tier1.items():
            print(f"tier-1 {side:<6} {run['seconds']} s  {run['result']}")
            for failure in run["failures"]:
                print(f"  {failure}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
