"""masseylab benchmark: times real CLI jobs from outside the program.

    python3 perfbench/run.py --workload lift-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it puts `src/` on the jobs'
PYTHONPATH and needs nothing built. Each job is a fresh interpreter running
`python -m masseylab.cli ... --format records --no-cache` with an empty
private MASSEYLAB_CACHE_DIR, the cold state a CLI user pays on every
command. One process drives the load in a closed loop: one job at a time,
in the workload's order, cycling through the list until `--seconds` have
passed and every job has run at least once.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json:
  wall_s       sum over jobs of each job's median wall time: one pass
  cpu_s        the same for user+sys CPU time of the job process
  peak_rss_mb  largest median max-RSS of any job
  setup_s      median wall time of fresh `import masseylab.cli` processes
and prints failed_frac (failed / attempted jobs) beside them.

--trace 1 alternates each job untraced and traced (perfbench/tracer.py) and
reports the per-layer metrics: self times summed over jobs of the median
traced run, work counts of the first traced run of each job, and the
tracing overhead (traced minus untraced pass wall time).

Every job's output is checked (see workloads.py); the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS, write_tables

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

RUN_LIMIT_S = 165       # a run must end within 180 s
JOB_TIMEOUT_S = 120
SETUP_SPAWNS = 9

# Per-layer self times that read exactly 0 on a workload that never enters
# the layer (h2-elim never touches unitri, massey, embedding or verify). The
# traced run prints them; BENCHMARK.json lists only the times in TIMES, which
# every workload measures above 0.
PRINTED_ONLY_TIMES = (
    "unitri.coset_quotient", "unitri.derived_map", "unitri.fiber_build",
    "unitri.unitri_table", "groups.hom_search", "massey.exhaustive",
    "massey.homlift", "massey.cups_check", "embedding.solve",
    "embedding.obstruction", "embedding.twist", "verify.suite")

COUNTS = (
    "unitri.coset_quotients", "unitri.fiber_builds",
    "unitri.matrix_mul_calls", "unitri.table_cells", "groups.hom_searches",
    "groups.homs_yielded", "groups.tables_built", "gfp.rref_calls",
    "gfp.solve_calls", "gfp.elim_cells", "cochains.complex_builds",
    "cochains.cochain_ops", "massey.queries", "massey.defining_systems",
    "embedding.solve_calls", "embedding.obstructions", "cli.records")

TIMES = ("groups.table_build", "gfp.elim", "cochains.complex",
         "cochains.cochain_ops", "cli.emit", "cli.command")


@dataclass
class Exec:
    """One execution of one job."""
    job: str
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    error: Optional[str]
    trace: Optional[dict] = None


def spawn(argv, env, out_path: Path, timeout: float):
    """Run argv with stdout to out_path and stderr beside it. Returns
    (wall seconds, exit code, rusage, timed out). The child is always
    reaped, also when this process is interrupted."""
    timed_out = []
    with open(out_path, "wb") as out, \
            open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])

    def kill():
        timed_out.append(True)
        os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    exited = False
    try:
        # WNOWAIT leaves the child a zombie, so its pid cannot be reused
        # before the timer is stopped.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        exited = True
    finally:
        timer.cancel()
        timer.join()
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
    return wall, os.waitstatus_to_exitcode(status), ru, bool(timed_out)


def job_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["MASSEYLAB_CACHE_DIR"] = str(cache_dir)
    return env


def read_records(path: Path) -> Optional[list]:
    try:
        return [json.loads(line) for line in path.read_text().splitlines()
                if line.strip()]
    except (OSError, ValueError):
        return None


class Runner:
    def __init__(self, work: Path, hard_deadline: float):
        self.work = work
        self.hard_deadline = hard_deadline
        self.n = 0

    def _fresh_dir(self) -> Path:
        self.n += 1
        d = self.work / "jobs" / f"{self.n:05d}"
        (d / "cache").mkdir(parents=True)
        return d

    def _timeout(self) -> float:
        return max(1.0, min(JOB_TIMEOUT_S,
                            self.hard_deadline - time.perf_counter()))

    def cli(self, args, traced=False):
        """One cold CLI job: (wall, exit code, rusage, timed out, records,
        trace summary or None)."""
        d = self._fresh_dir()
        cli_args = [*args, "--format", "records", "--no-cache"]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    str(d / "trace.json"), "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "masseylab.cli", *cli_args]
        wall, code, ru, timed_out = spawn(argv, job_env(d / "cache"),
                                          d / "stdout", self._timeout())
        trace = None
        if traced and (d / "trace.json").exists():
            trace = json.loads((d / "trace.json").read_text())
        return wall, code, ru, timed_out, read_records(d / "stdout"), trace

    def run(self, job, traced: bool) -> Exec:
        wall, code, ru, timed_out, records, trace = self.cli(job.args, traced)
        if timed_out:
            error = "timed out"
        elif records is None:
            error = f"exit code {code}, output is not JSON lines"
        else:
            error = job.check(code, records)
        if error is None and traced and trace is None:
            error = "tracer wrote no summary"
        return Exec(job.name, traced, wall, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024, error, trace)

    def import_time(self) -> float:
        """Wall time of a fresh interpreter importing masseylab.cli."""
        d = self._fresh_dir()
        wall, code, _, timed_out = spawn(
            [sys.executable, "-c", "import masseylab.cli"],
            job_env(d / "cache"), d / "stdout", self._timeout())
        if code != 0 or timed_out:
            raise RuntimeError("`import masseylab.cli` failed: " +
                               (d / "stdout.err").read_text()[-500:])
        return wall

    def reference_dims(self, pairs) -> dict:
        """(dim H^1, dim H^2) of fixture groups, by untimed CLI runs."""
        out = {}
        for name, p in pairs:
            _, code, _, _, records, _ = self.cli(
                ("cohomology", "--group", name, "--p", str(p)))
            if code == 0 and records and len(records) == 3:
                out[(name, p)] = (records[1].get("dim_h1"),
                                  records[1].get("dim_h2"))
            else:
                print(f"reference run for {name} p={p} failed", flush=True)
        return out


def closed_loop(runner: Runner, jobs, seconds: float, modes) -> list:
    """One job at a time, cycling through `jobs`, until `seconds` have
    passed and each job has run once in every mode of `modes`."""
    execs = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(jobs) or time.perf_counter() < deadline:
        for traced in modes:
            e = runner.run(jobs[k % len(jobs)], traced)
            if e.error:
                print(f"FAILED {e.job}{' (traced)' if traced else ''}: "
                      f"{e.error}", flush=True)
            if e.trace and (e.trace["missing"] or e.trace["stale"]):
                print(f"tracer on {e.job}: targets missing "
                      f"{e.trace['missing']}, bindings left unwrapped "
                      f"{e.trace['stale']}", flush=True)
            execs.append(e)
        k += 1
    return execs


def job_medians(execs, jobs, value, traced=False) -> list:
    """The median of value over each job's executions in one mode, for each
    job that has any (a traced job whose tracer failed has none)."""
    out = []
    for j in jobs:
        vals = [value(e) for e in execs if e.job == j.name
                and e.traced == traced]
        if vals:
            out.append(statistics.median(vals))
    return out


def end_to_end(execs, jobs, setup_s) -> dict:
    return {
        "wall_s": (sum(job_medians(execs, jobs, lambda e: e.wall)), "s"),
        "cpu_s": (sum(job_medians(execs, jobs, lambda e: e.cpu)), "s"),
        "peak_rss_mb": (max(job_medians(execs, jobs, lambda e: e.rss_mb)),
                        "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(execs, jobs) -> dict:
    traced = [e for e in execs if e.traced and e.trace]
    first = {}
    for e in traced:
        first.setdefault(e.job, e.trace)
    counts = {}
    for t in first.values():
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
    out = {name: (counts.get(name, 0), "count") for name in COUNTS}
    out["trace.spans"] = (sum(t["spans"] for t in first.values()), "count")
    calls = counts.get("embedding.solve_calls", 0)
    out["embedding.solved_frac"] = (
        counts.get("embedding.solved", 0) / calls if calls else 0.0, "ratio")
    for cat in TIMES + PRINTED_ONLY_TIMES:
        out[f"{cat}_s"] = (sum(job_medians(
            traced, jobs, lambda e: e.trace["self_s"].get(cat, 0.0),
            traced=True)), "s")
    wall_traced = sum(job_medians(execs, jobs, lambda e: e.wall, traced=True))
    wall_plain = sum(job_medians(execs, jobs, lambda e: e.wall))
    out["trace.wall_s"] = (wall_traced, "s")
    out["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return out


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "masseylab" / "cli.py").is_file():
        sys.stderr.write(f"no masseylab sources under {SRC}; run from the "
                         "root of a masseylab checkout\n")
        return 2
    declared = declared_metrics(bool(args.trace))
    started = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                 dir=WORK_ROOT))
    try:
        wl = WORKLOADS[args.workload]
        runner = Runner(work, started + RUN_LIMIT_S)
        paths = write_tables(wl.tables, args.seed, work / "tables")
        reference = runner.reference_dims(wl.reference)
        jobs = wl.jobs(paths, args.seed, reference)
        runner.import_time()    # unmeasured: writes the bytecode cache
        setup_s = None if args.trace else statistics.median(
            runner.import_time() for _ in range(SETUP_SPAWNS))
        modes = (False, True) if args.trace else (False,)
        execs = closed_loop(runner, jobs, args.seconds, modes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    failed = sum(e.error is not None for e in execs)
    correct = failed == 0 and len(reference) == len(wl.reference)
    computed = per_layer(execs, jobs) if args.trace else \
        end_to_end(execs, jobs, setup_s)
    computed_units = {k: u for k, (_, u) in computed.items()}
    mismatch = {k: u for k, u in declared.items()
                if computed_units.get(k) != u}
    if mismatch:
        sys.stderr.write(f"BENCHMARK.json metrics not computed as declared: "
                         f"{mismatch}\n")
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(execs)} job runs in {time.perf_counter() - started:.1f} s")
    for traced in modes:
        for j in jobs:
            mine = [e for e in execs if e.job == j.name and e.traced == traced]
            print(f"  {j.name + (' (traced)' if traced else ''):37s} "
                  f"runs {len(mine):2d}  median wall "
                  f"{statistics.median(e.wall for e in mine):8.3f} s  cpu "
                  f"{statistics.median(e.cpu for e in mine):8.3f} s")
    for name, (value, unit) in computed.items():
        mark = "" if name in declared else "   (printed only)"
        print(f"  {name:28s} {value:14.6g} {unit}{mark}")
    print(f"  {'failed_frac':28s} {failed / len(execs):14.6g} ratio "
          f"({failed} of {len(execs)})")
    result = {"correct": correct, "attempted": len(execs), "failed": failed,
              "metrics": {k: {"value": computed[k][0], "unit": u}
                          for k, u in declared.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
