"""tools/ab.py, the A/B benchmark script: its summary arithmetic, and one
pair of the fast workload in a throwaway git repository."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_ab()
ENV = {"nproc": 2, "cpu": "x", "python": "3", "numpy": "2", "blas": "b",
       "threads": 1, "seconds": 1.0}


def test_seeds_and_pairs():
    assert ab.parse_seeds("31-34,51") == [31, 32, 33, 34, 51]
    assert ab.plan_pairs(["2"], ["a", "b"]) == {"a": 2, "b": 2}
    assert ab.plan_pairs(["b=3"], ["a", "b"]) == {"b": 3}
    for bad in (["c=1"], ["a=0"]):
        with pytest.raises(ValueError):
            ab.plan_pairs(bad, ["a", "b"])


@pytest.mark.parametrize("records, named", [
    ([{**ENV, "blas": None}], "blas"),
    ([ENV, {**ENV, "threads": 2}], "threads"),
])
def test_environment_refuses_null_or_mixed_records(records, named):
    with pytest.raises(ValueError, match=named):
        ab.environment(records)


def test_summary_compares_medians_and_counts_wins():
    def rec(run_s, work):
        return {"metrics": {"run_s": {"value": run_s},
                            "work_per_s": {"value": work}}}
    runs = {"base": [rec(1.0, 5.0), rec(2.0, 5.0), rec(3.0, 5.0)],
            "change": [rec(0.5, 6.0), rec(2.5, 4.0), rec(1.0, 5.0)]}
    metrics = [{"name": "run_s", "unit": "s", "better": "lower"},
               {"name": "work_per_s", "unit": "1/s", "better": "higher"}]
    got = ab.summarise(runs, metrics)
    assert got["run_s"]["base"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert got["run_s"]["change_over_base"] == 0.5
    assert got["run_s"]["change_wins"] == 2
    assert got["run_s"]["base_quartile_distance"] == 1.0
    assert got["work_per_s"]["change_wins"] == 1  # ties count for neither


RUN_S = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]


def run_s_pairs(base, change):
    def rec(value):
        return {"metrics": {"run_s": {"value": value}}}
    return {"base": [rec(v) for v in base], "change": [rec(v) for v in change]}


def test_clear_win_shows_a_gain():
    base = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    got = ab.summarise(run_s_pairs(base, [0.7] * 10), RUN_S)["run_s"]
    assert got["change_wins"] == 10
    assert got["gain_shown"] is True and got["within_bound"] is True


def test_win_inside_the_base_spread_shows_no_gain():
    # the change wins every pair, but by 0.01, less than the base's
    # quartile distance of 0.4
    base = [0.8, 1.2] * 5
    got = ab.summarise(run_s_pairs(base, [v - 0.01 for v in base]), RUN_S)["run_s"]
    assert got["change_wins"] == 10 and got["base_quartile_distance"] == 0.4
    assert got["gain_shown"] is False and got["within_bound"] is True


def test_loss_beyond_the_bound():
    base = [1.0] * 10
    got = ab.summarise(run_s_pairs(base, [1.3] * 10), RUN_S)["run_s"]
    assert got["change_wins"] == 0
    assert got["gain_shown"] is False and got["within_bound"] is False
    inside = ab.summarise(run_s_pairs(base, [1.2] * 10), RUN_S)["run_s"]
    assert inside["within_bound"] is True


def test_nine_of_ten_pairs_is_enough_but_fewer_pairs_are_not():
    base = [1.0] * 10
    got = ab.summarise(run_s_pairs(base, [0.5] * 9 + [1.5]), RUN_S)["run_s"]
    assert got["change_wins"] == 9 and got["gain_shown"] is True
    got = ab.summarise(run_s_pairs(base, [0.5] * 8 + [1.5] * 2), RUN_S)["run_s"]
    assert got["gain_shown"] is False
    got = ab.summarise(run_s_pairs(base[:9], [0.5] * 9), RUN_S)["run_s"]
    assert got["change_wins"] == 9 and got["gain_shown"] is False


def test_tier1_timing_runs_the_command_in_the_tree(tmp_path):
    # A stand-in for the suite: it prints pytest's closing line and shows
    # that the tree's src/ is importable.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text("VALUE = 7\n")
    script = "import probe; print('== 3 passed, 1 failed in 0.01s ==' if probe.VALUE == 7 else '')"
    got = ab.time_tier1(tmp_path, (sys.executable, "-c", script))
    assert got["result"] == "3 passed, 1 failed in 0.01s"
    assert got["returncode"] == 0 and got["seconds"] >= 0
    assert ab.parse_args(["--base", "x", "--label", "y", "--change", "z",
                          "--seeds", "1", "--pairs", "1", "--tier1"]).tier1
    assert not ab.parse_args(["--base", "x", "--label", "y", "--change", "z",
                              "--seeds", "1", "--pairs", "1"]).tier1


def test_tier1_timing_keeps_the_failing_test_ids(tmp_path):
    # pytest's short summary, as -q prints it after a failing run.
    summary = ("FAILED tests/test_a.py::TestA::test_ratio[3] - assert 1.6 <= 1.5"
               "\nERROR tests/test_b.py::test_setup - RuntimeError: boom\n"
               "== 1 failed, 8 passed, 1 error in 0.01s ==\n")
    script = f"import sys; print({summary!r}, end=''); sys.exit(1)"
    got = ab.time_tier1(tmp_path, (sys.executable, "-c", script))
    assert got["result"] == "1 failed, 8 passed, 1 error in 0.01s"
    assert got["failures"] == ["FAILED tests/test_a.py::TestA::test_ratio[3]",
                               "ERROR tests/test_b.py::test_setup"]
    assert got["returncode"] == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_one_pair_writes_a_bench_file(tmp_path):
    repo = tmp_path / "repo"
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".perfbench_out")
    for name in ("src", "perfbench", "tools"):
        shutil.copytree(ROOT / name, repo / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    git = ["git", "-C", str(repo), "-c", "user.name=ab", "-c",
           "user.email=ab@localhost", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    # The change side is the working tree as git sees it: an uncommitted
    # edit and an untracked file, but no benchmark output.
    init = repo / "src" / "wconv" / "__init__.py"
    init.write_text(init.read_text() + "EDITED = True\n")
    (repo / "notes.txt").write_text("untracked\n")
    (repo / ".perfbench_out").mkdir()
    (repo / ".perfbench_out" / "old.json").write_text("{}\n")
    change = tmp_path / "change"
    ab.export_working_tree(repo, change)
    assert "EDITED = True" in (change / "src" / "wconv" / "__init__.py").read_text()
    assert (change / "notes.txt").read_text() == "untracked\n"
    assert not (change / ".perfbench_out").exists()
    base = tmp_path / "base"
    ab.export_revision(repo, "HEAD", base)
    assert "EDITED" not in (base / "src" / "wconv" / "__init__.py").read_text()
    assert not (base / "notes.txt").exists()

    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "ab.py"), "--base", "HEAD",
         "--label", "t", "--change", "nothing", "--seeds", "0",
         "--pairs", "verify=1", "--seconds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((repo / "BENCH_t.json").read_text())
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert list(bench["workloads"]) == ["verify"]
    verify = bench["workloads"]["verify"]
    assert verify["pairs"] == 1 and verify["seeds"] == [0]
    assert None not in verify["environment"].values()
    assert verify["failed"] == {"base": 0, "change": 0}
    assert min(verify["attempted"].values()) >= 1
    assert list(verify["metrics"]) == names
    # Neither side ran in the repository itself, and no worktree was added.
    assert [p.name for p in (repo / ".perfbench_out").iterdir()] == ["old.json"]
    listed = subprocess.run([*git, "worktree", "list"], check=True,
                            capture_output=True, text=True).stdout
    assert len(listed.splitlines()) == 1
