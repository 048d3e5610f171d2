"""Tests of the benchmark itself: inputs, checks, tracer and determinism.

    python3 -m pytest -q perfbench/tests
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tables  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path, hard_deadline=float("inf"))


def test_generated_tables_are_seeded_groups(tmp_path):
    for name, build in tables.BUILDERS.items():
        G = tables.relabel(build(), random.Random(7))
        tables.check_group(G)
    a = workloads.write_tables(tables.BUILDERS, 3, tmp_path / "a")
    b = workloads.write_tables(tables.BUILDERS, 3, tmp_path / "b")
    c = workloads.write_tables(tables.BUILDERS, 4, tmp_path / "c")
    text = {k: {n: Path(p).read_text() for n, p in d.items()}
            for k, d in (("a", a), ("b", b), ("c", c))}
    assert text["a"] == text["b"]
    assert text["a"]["D8"] != text["c"]["D8"]


def test_check_group_rejects_a_non_group():
    mul, gens = tables.cyclic(3)
    mul[1][1] = 0
    with pytest.raises(ValueError):
        tables.check_group((mul, gens))


def _records(body, summary):
    return [{"schema-version": 1, "command": "cohomology G p=2"}, *body,
            {"summary": summary}]


def test_cohomology_check_uses_kuenneth_as_second_route():
    reference = {("Q8", 2): (2, 2), ("Z2", 2): (1, 1)}
    factors = (("Q8", 2), ("Z2", 2))
    good = _records([{"dim_h1": 3, "dim_h2": 5}], {"holds": 1})
    assert workloads.cohomology_check(3, 5, factors, reference)(0, good) \
        is None
    # a wrong rank fails even when the expected constant is wrong with it
    wrong = _records([{"dim_h1": 3, "dim_h2": 4}], {"holds": 1})
    assert workloads.cohomology_check(3, 4, factors, reference)(0, wrong)
    assert workloads.cohomology_check(3, 5, factors, {})(0, good)
    assert workloads.cohomology_check(3, 5)(1, good) == "exit code 1"


def test_dwyer_check_counts_outcomes():
    body = [{"vanishes": True, "defined": True, "cups_zero": True,
             "verdict": "holds"}] * 3
    recs = [{"schema-version": 1, "command": "verify dwyer"}, *body,
            {"summary": {"holds": 3}}]
    ok = workloads.dwyer_check(3, {(True, True, True): 3})
    assert ok(0, recs) is None
    assert workloads.dwyer_check(3, {(True, True, True): 2})(0, recs)
    assert workloads.dwyer_check(4, {(True, True, True): 3})(0, recs)


SMALL_JOBS = (
    ("verify", "dwyer", "--group", "{V4}", "--p", "2", "--n", "2"),
    ("verify", "twisting", "--group", "{V4}", "--p", "2", "--n", "3",
     "--k", "2", "--sample", "3", "--seed", "5"),
    ("cohomology", "--group", "{Q8xZ2}", "--p", "2"),
)


def _small_jobs(tmp_path):
    paths = workloads.write_tables(("V4", "Q8xZ2"), 11, tmp_path / "t")
    return [tuple(a.format(**paths) for a in job) for job in SMALL_JOBS]


def test_tracer_wraps_every_binding_and_keeps_output(tmp_path, runner):
    for args in _small_jobs(tmp_path):
        _, code, _, _, plain, _ = runner.cli(args)
        _, tcode, _, _, traced, trace = runner.cli(args, traced=True)
        assert code == tcode == 0
        assert plain == traced
        assert trace["missing"] == [] and trace["stale"] == []


def test_counts_and_records_repeat_at_one_seed(tmp_path, runner):
    jobs = _small_jobs(tmp_path)
    first = [runner.cli(args, traced=True) for args in jobs]
    again = [runner.cli(args, traced=True) for args in jobs]
    for (_, _, _, _, rec1, tr1), (_, _, _, _, rec2, tr2) in zip(first, again):
        assert rec1 == rec2
        assert tr1["counts"] == tr2["counts"]
        assert tr1["spans"] == tr2["spans"]
    counts = {}
    for *_, trace in first:
        for k, v in trace["counts"].items():
            counts[k] = counts.get(k, 0) + v
    for name in ("unitri.coset_quotients", "unitri.table_cells",
                 "unitri.fiber_builds", "unitri.matrix_mul_calls",
                 "gfp.elim_cells", "groups.homs_yielded",
                 "massey.defining_systems", "embedding.obstructions",
                 "cochains.complex_builds"):
        assert counts.get(name, 0) > 0, name


def test_same_seed_gives_byte_identical_records(tmp_path, runner):
    args = _small_jobs(tmp_path)[1]
    outs = []
    for _ in range(2):
        d = runner._fresh_dir()
        argv = [sys.executable, "-m", "masseylab.cli", *args,
                "--format", "records", "--no-cache"]
        _, code, _, _ = run.spawn(argv, run.job_env(d / "cache"),
                                  d / "stdout", 60)
        assert code == 0
        outs.append((d / "stdout").read_bytes())
    assert outs[0] == outs[1] and outs[0]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h2-elim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

