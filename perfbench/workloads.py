"""The three workloads: which masseylab CLI jobs each runs, and how each
job's output is checked.

Every check is independent of the seed. The seed only relabels the group
tables (and seeds the twisting sample), and each quantity checked is an
isomorphism invariant: record counts, verdicts, how many tuples have a
vanishing Massey product, and dim H^1 / dim H^2.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import tables

# A check gets the job's exit code and its parsed records (header first,
# summary last) and returns None, or a one-line reason the job failed.
Check = Callable[[int, list], Optional[str]]


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple      # masseylab CLI arguments, before --format/--no-cache
    check: Check


def write_tables(names, seed: int, outdir: Path) -> dict:
    """Relabel each named group under its own seeded permutation and write
    it as a `.tbl` file; returns {name: path}. The same seed gives
    byte-identical files, and each seed gets its own directory, so no run
    can be served another seed's cached results."""
    outdir.mkdir(parents=True)
    paths = {}
    for name in names:
        G = tables.relabel(tables.BUILDERS[name](),
                           random.Random(f"{seed}:{name}"))
        tables.check_group(G)
        path = outdir / f"{name}.tbl"
        path.write_text(tables.format_table(G))
        paths[name] = str(path)
    return paths


def _common(code: int, records: list, command: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    if len(records) < 2 or records[0].get("schema-version") is None \
            or "summary" not in records[-1]:
        return "output lacks the schema-version header or the summary"
    if not records[0].get("command", "").startswith(command):
        return f"header names command {records[0].get('command')!r}"
    return None


def _all_hold(records: list, count: int) -> Optional[str]:
    body = records[1:-1]
    if len(body) != count:
        return f"{len(body)} records, expected {count}"
    if records[-1]["summary"] != {"holds": count}:
        return f"summary {records[-1]['summary']}, expected {count} holds"
    return None


def dwyer_check(count: int, outcomes: dict) -> Check:
    """All `count` tuples hold, and the numbers of tuples per
    (vanishes, defined, cups_zero) outcome are as given."""
    def check(code, records):
        err = _common(code, records, "verify dwyer") or \
            _all_hold(records, count)
        if err:
            return err
        seen = collections.Counter(
            (r["vanishes"], r["defined"], r["cups_zero"])
            for r in records[1:-1])
        if dict(seen) != outcomes:
            return f"outcome counts {dict(seen)}, expected {outcomes}"
        return None
    return check


def twisting_check(count: int) -> Check:
    def check(code, records):
        return _common(code, records, "verify twisting") or \
            _all_hold(records, count)
    return check


def easy_vanishing_check(tuples: int, steps: int) -> Check:
    def check(code, records):
        err = _common(code, records, "verify easy-vanishing") or \
            _all_hold(records, 1)
        if err:
            return err
        rec = records[1]
        want = {"tuples": tuples, "steps": steps, "mode": "filtration",
                "obstructions_zero": True, "verified": True}
        got = {k: rec.get(k) for k in want}
        return None if got == want else f"record {got}, expected {want}"
    return check


def cohomology_check(h1: int, h2: int, factors=None,
                     reference: Optional[dict] = None) -> Check:
    """dim H^1 and dim H^2 are as given. For a direct product of
    `factors`, they must also match Kuenneth over F_p computed from the
    factors' dims in `reference`:
        h1(GxH) = h1(G) + h1(H),
        h2(GxH) = h2(G) + h1(G) h1(H) + h2(H)."""
    def check(code, records):
        err = _common(code, records, "cohomology") or _all_hold(records, 1)
        if err:
            return err
        got = (records[1].get("dim_h1"), records[1].get("dim_h2"))
        if got != (h1, h2):
            return f"(dim H1, dim H2) = {got}, expected {(h1, h2)}"
        if factors:
            try:
                (g1, g2), (k1, k2) = (reference[f] for f in factors)
            except (KeyError, TypeError):
                return f"no reference dims for factors {factors}"
            kunneth = (g1 + k1, g2 + g1 * k1 + k2)
            if got != kunneth:
                return f"(dim H1, dim H2) = {got}, Kuenneth gives {kunneth}"
        return None
    return check


# Factor groups of the h2-elim products, as CLI fixture names with their
# prime; their dims come from untimed `cohomology` runs in each benchmark
# run, so the Kuenneth route never trusts a hard-coded number.
KUENNETH_FACTORS = (("Q8", 2), ("Z2", 2), ("Z4", 2), ("Z3", 3), ("S3", 3))


def lift_sweep(tables_: dict, seed: int, reference: dict) -> list:
    def dwyer(name, p, n, count, outcomes):
        return Job(f"dwyer-{name}-p{p}-n{n}",
                   ("verify", "dwyer", "--group", tables_[name],
                    "--p", str(p), "--n", str(n)),
                   dwyer_check(count, outcomes))
    return [
        dwyer("V4", 2, 3, 64, {(True, True, True): 19,
                               (False, False, False): 45}),
        dwyer("Q8", 2, 3, 64, {(True, True, True): 19,
                               (False, False, False): 45}),
        dwyer("D4", 2, 3, 64, {(True, True, True): 25,
                               (False, False, False): 39}),
        dwyer("Z2", 2, 4, 16, {(True, True, True): 8,
                               (False, False, False): 8}),
        dwyer("Z3", 3, 3, 27, {(True, True, True): 19,
                               (False, True, True): 8}),
    ]


def fiber_tower(tables_: dict, seed: int, reference: dict) -> list:
    return [
        Job("twisting-Z3xZ3-p3-sample30",
            ("verify", "twisting", "--group", tables_["Z3xZ3"], "--p", "3",
             "--n", "3", "--k", "2", "--sample", "30", "--seed", str(seed)),
            twisting_check(30)),
        Job("twisting-V4-p2",
            ("verify", "twisting", "--group", tables_["V4"], "--p", "2",
             "--n", "3", "--k", "2"),
            twisting_check(1216)),
        Job("easy-vanishing-Z3-p2-n4",
            ("verify", "easy-vanishing", "--group", tables_["Z3"],
             "--p", "2", "--n", "4"),
            easy_vanishing_check(tuples=1, steps=6)),
    ]


def h2_elim(tables_: dict, seed: int, reference: dict) -> list:
    def coh(name, p, h1, h2, factors=None):
        return Job(f"h2-{name}-p{p}",
                   ("cohomology", "--group", tables_[name], "--p", str(p)),
                   cohomology_check(h1, h2, factors, reference))
    return [
        coh("D8", 2, 2, 3),
        coh("Q8xZ2", 2, 3, 5, (("Q8", 2), ("Z2", 2))),
        coh("Z4xZ4", 2, 2, 3, (("Z4", 2), ("Z4", 2))),
        coh("Z3xS3", 3, 1, 1, (("Z3", 3), ("S3", 3))),
    ]


@dataclass(frozen=True)
class Workload:
    tables: tuple           # groups to generate for this workload
    jobs: Callable          # (tables, seed, reference dims) -> [Job]
    reference: tuple = ()   # (fixture, p) pairs to compute untimed


WORKLOADS = {
    "lift-sweep": Workload(("V4", "Q8", "D4", "Z2", "Z3"), lift_sweep),
    "fiber-tower": Workload(("Z3xZ3", "V4", "Z3"), fiber_tower),
    "h2-elim": Workload(("D8", "Q8xZ2", "Z4xZ4", "Z3xS3"), h2_elim,
                        KUENNETH_FACTORS),
}
