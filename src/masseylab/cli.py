"""Command-line entry point: fixtures, cohomology reports, Massey queries,
and the verification suites, with text or line-delimited record output.
Commands read the parsed `args`. `cohomology` and `verify` get their records
through `_cached_records`, the one cache path, so a hit prints what a miss
printed; README lists the exit codes."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import cochains as cc
from . import groups as gr
from .errors import BadParameter, MasseyLabError, ParseError

# Every command needs the modules above; none imports dataclasses or numpy.
# `massey`, `embedding`, `verify` and `unitri` are imported inside the
# functions that use them, so a cold `cohomology` job does not load and
# compile them, and `hashlib` only where a key or fingerprint is computed.

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
EXIT_PIPE = 4


# -- fixtures ------------------------------------------------------------------

def _u3_2():
    from .unitri import unitri_group
    return unitri_group(3, 2).as_finite_group()


def _z3xz3():
    return gr.build_vector_group(3, 2)


FIXTURES = {
    "Z1": lambda: gr.build_cyclic(1),
    "Z2": lambda: gr.build_cyclic(2),
    "Z3": lambda: gr.build_cyclic(3),
    "Z4": lambda: gr.build_cyclic(4),
    "Z5": lambda: gr.build_cyclic(5),
    "Z6": lambda: gr.build_cyclic(6),
    "Z8": lambda: gr.build_cyclic(8),
    "Z9": lambda: gr.build_cyclic(9),
    "V4": lambda: gr.build_vector_group(2, 2),
    "Z3xZ3": _z3xz3,
    "S3": gr.build_symmetric3,
    "D4": lambda: gr.build_dihedral(4),
    "Q8": gr.build_quaternion8,
    "U3_2": _u3_2,
    "SD9": lambda: gr.build_semidirect_cyclic(3, 2, 4),
}


def get_group(ref: str, line=None) -> gr.FiniteGroup:
    """A fixture by name, or the group file at path `ref`; `line` is the
    query-file line that names it, and a group file named there is named
    in its own parse errors, which keep that file's line."""
    if ref in FIXTURES:
        return FIXTURES[ref]()
    if os.path.exists(ref):
        with open(ref) as fh:
            text = fh.read()
        try:
            return gr.parse_group_file(text, label=os.path.basename(ref))
        except ParseError as e:
            if line is not None:
                e.args = (f"{ref}: {e}",)
            raise
    raise ParseError(f"unknown group {ref!r} (not a fixture, not a file)",
                     line=line)


# -- report plumbing -----------------------------------------------------------

class Report:
    def __init__(self, command: str):
        self.command = command
        self.records: list[dict] = []
        self.t0 = time.time()

    def add(self, **rec):
        self.records.append(rec)

    def verdicts(self):
        return [r.get("verdict", "holds") for r in self.records]

    def exit_code(self) -> int:
        vs = self.verdicts()
        if any(v == "fails" for v in vs):
            return EXIT_FAIL
        if any(v == "budget-exceeded" for v in vs):
            return EXIT_BUDGET
        return EXIT_OK

    def emit(self, args):
        out = sys.stdout
        if args.format == "records":
            header = {"schema-version": SCHEMA_VERSION, "command": self.command,
                      "seed": args.seed}
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.records:
                out.write(json.dumps(rec, sort_keys=True) + "\n")
            counts = {}
            for v in self.verdicts():
                counts[v] = counts.get(v, 0) + 1
            out.write(json.dumps({"summary": counts}, sort_keys=True) + "\n")
        else:
            out.write(f"== {self.command}\n")
            for rec in self.records:
                bits = " ".join(f"{k}={_txt(v)}" for k, v in rec.items())
                out.write(f"  {bits}\n")
            dt = time.time() - self.t0
            out.write(f"  ({len(self.records)} records, {dt:.2f}s)\n")
        out.flush()


def _txt(v):
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


# -- cache ---------------------------------------------------------------------

def _cache_dir() -> str:
    return os.environ.get("MASSEYLAB_CACHE_DIR",
                          os.path.join(os.path.expanduser("~"),
                                       ".cache", "masseylab"))


def _cache_key(args, command: str, G: gr.FiniteGroup, params):
    """Everything a command's records depend on: the command, the
    `--group` string (records echo it), the group's table, the other
    parameters, and the program itself, as the name and bytes of each of
    masseylab's `*.py` files in name order, so an entry stored by other
    code is never served. None for a `--no-cache` run, which then never
    loads hashlib (and OpenSSL)."""
    if args.no_cache:
        return None
    import hashlib
    parts = [command, args.group, G.fingerprint(), params]
    h = hashlib.sha256(json.dumps(parts, sort_keys=True).encode())
    here = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                data = fh.read()
            h.update(f"\0{name}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def cache_get(key):
    """The records stored under key, or None. Every command emits at least
    one record, so an entry that is not a non-empty list of JSON objects
    is a miss, and the run stores its own records over it."""
    if key is None:
        return None
    path = os.path.join(_cache_dir(), key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            hit = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(hit, list) and hit and \
            all(isinstance(r, dict) for r in hit):
        return hit
    return None


def cache_put(key, blob: str):
    """Store the JSON text of a command's records under key. A cache that
    cannot be written is a miss: the run's records and exit code stay those
    of a `--no-cache` run."""
    if key is None:
        return
    d = _cache_dir()
    path = os.path.join(d, key + ".json")
    tmp = path + f".tmp{os.getpid()}"
    try:
        os.makedirs(d, exist_ok=True)
        with open(tmp, "w") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _cached_records(args, command: str, G: gr.FiniteGroup, params,
                    compute) -> list[dict]:
    """compute()'s records from the cache, or passed through JSON once and
    stored as that text, so a miss holds exactly what a hit would."""
    key = _cache_key(args, command, G, params)
    hit = cache_get(key)
    if hit is not None:
        return hit
    blob = json.dumps(compute())
    cache_put(key, blob)
    return json.loads(blob)


# -- commands ------------------------------------------------------------------

def cmd_group(args) -> Report:
    rep = Report(f"group {args.action}")
    if args.action == "list":
        for name in sorted(FIXTURES):
            G = FIXTURES[name]()
            rep.add(name=name, order=G.order, abelian=G.is_abelian(),
                    fingerprint=G.fingerprint())
    elif args.action == "show":
        G = get_group(args.target)
        rep.add(name=args.target, order=G.order,
                generators=list(G.generators),
                abelian=G.is_abelian(),
                involutions=len(G.involutions()),
                fingerprint=G.fingerprint())
    elif args.action == "check":
        with open(args.target) as fh:
            G = gr.parse_group_file(fh.read())
        rep.add(file=args.target, order=G.order, valid=True)
    return rep


def cmd_cohomology(args) -> Report:
    G = get_group(args.group)
    p = args.p
    rep = Report(f"cohomology {args.group} p={p}")

    def compute():
        report = cc.demushkin_check(G, p)
        return [{"group": args.group, "p": p, "dim_h1": report["dim_h1"],
                 "dim_h2": report["dim_h2"],
                 "cup_form_nondegenerate": report["nondegenerate"],
                 "demushkin": report["verdict"]}]
    rep.records = _cached_records(args, "cohomology", G, [p], compute)
    return rep


def parse_query_file(text: str):
    """Query format: `group REF`, `p P`, `n N`, each once, then n lines
    `a v1 v2 ...` giving each character's values on the group's listed
    generators; blank and `#` lines are skipped, and an error names its
    line as numbered in the file."""
    from . import massey as ms
    lines, end = gr.numbered_lines(text)
    kv, at, rows = {}, {}, []
    for i, toks in lines:
        if toks[0] == "a":
            try:
                rows.append((i, [int(t) for t in toks[1:]]))
            except ValueError:
                raise ParseError("bad character row", line=i)
        elif toks[0] in kv:
            raise ParseError(f"repeated `{toks[0]}` line", line=i)
        elif toks[0] in ("group", "p", "n") and len(toks) == 2:
            kv[toks[0]], at[toks[0]] = toks[1], i
        else:
            raise ParseError(f"unrecognized line "
                             f"{text.splitlines()[i - 1].strip()!r}", line=i)
    for need in ("group", "p", "n"):
        if need not in kv:
            raise ParseError(f"missing `{need}` line", line=end)
    G = get_group(kv["group"], line=at["group"])
    ints = {}
    for key in ("p", "n"):
        try:
            ints[key] = int(kv[key])
        except ValueError:
            raise ParseError(f"`p` and `n` must be integers, got {kv['p']!r} "
                             f"and {kv['n']!r}", line=at[key])
    p, n = ints["p"], ints["n"]
    _check_massey_length(n)
    if len(rows) != n:
        raise ParseError(f"expected {n} character rows, got {len(rows)}",
                         line=rows[n][0] if len(rows) > n else end)
    chars = tuple(_char_from_gen_values(G, p, row, line=i) for i, row in rows)
    return ms.query(G, p, chars), kv["group"]


def _check_massey_length(n: int) -> None:
    if n < 2:
        raise BadParameter(f"a Massey product needs n >= 2, got {n}")


def _char_from_gen_values(G: gr.FiniteGroup, p: int, row,
                          line=None) -> cc.Cochain:
    """The character with the given values (mod p) on G's generators; a
    ParseError names `line`, the query-file line of the row."""
    chars = cc.characters(G, p)
    gens = G.generators
    if len(row) != len(gens):
        raise ParseError(f"character row has {len(row)} values for "
                         f"{len(gens)} generators", line=line)
    row = [v % p for v in row]
    for a in chars:
        if [a.value(g) for g in gens] == row:
            return a
    raise ParseError("generator values do not extend to a character",
                     line=line)


def cmd_massey(args) -> Report:
    from . import embedding as em
    from . import massey as ms
    from .unitri import unitri_group
    with open(args.query) as fh:
        q, gname = parse_query_file(fh.read())
    rep = Report(f"massey {args.query}")
    defined = ms.massey_defined(q, strategy=args.strategy)
    vanishes = ms.massey_vanishes(q, strategy=args.strategy) if defined \
        else False
    rec = {"group": gname, "p": q.p, "n": q.n,
           "chars": [list(a.values) for a in q.chars],
           "defined": defined, "vanishes": vanishes,
           "verdict": "holds"}
    if unitri_group(q.n + 1, q.p).materializable():
        sol = em.solve(em.build_dwyer_problem(q))
        rec["witness_lift"] = list(sol.gen_images()) if sol else None
        if (sol is not None) != vanishes:
            rec["verdict"] = "fails"
    rep.add(**rec)
    return rep


# -- verify suites -------------------------------------------------------------

def _suite_dwyer(args, G) -> list[dict]:
    from . import embedding as em
    from . import massey as ms
    _check_massey_length(args.n)
    out = []
    for chars in ms.h1_tuples(G, args.p, args.n):
        q = ms.MasseyQuery(G, args.p, chars)
        v1 = ms.massey_vanishes(q, "exhaustive")
        v2 = ms.massey_vanishes(q, "hom-lift")
        v3 = em.dwyer_solvable(q)
        d1 = ms.massey_defined(q, "exhaustive")
        d2 = ms.massey_defined(q, "hom-lift")
        c1 = ms.consecutive_cups_zero(q)
        c2 = next(q.lifts("U/P"), None) is not None
        ok = (v1 == v2 == v3) and (d1 == d2) and (c1 == c2)
        out.append({"tuple": [list(a.values) for a in chars],
                    "vanishes": v1, "defined": d1, "cups_zero": c1,
                    "verdict": "holds" if ok else "fails"})
    return out


def _suite_twisting(args, G) -> list[dict]:
    from . import embedding as em
    recs = em.verify_twisting(G, args.p, args.n, args.k,
                              sample=args.sample, seed=args.seed)
    return [{"psi": list(r["psi"]), "chi": list(r["chi"]),
             "verdict": "holds" if r["holds"] else "fails"} for r in recs]


def _suite_strong_vanishing(args, G) -> list[dict]:
    from . import massey as ms
    if args.n < 3:
        raise BadParameter(f"strong vanishing needs n >= 3, got {args.n}")
    reports = ms.strong_massey_vanishing(G, args.p,
                                         range(3, args.n + 1),
                                         budget=args.tuple_budget)
    return [{"n": r["n"], "tuples_checked": r["tuples_checked"],
             "counterexample": r["counterexample"],
             "verdict": r["verdict"]} for r in reports]


def _suite_easy_vanishing(args, G) -> list[dict]:
    from . import verify as vf
    _check_massey_length(args.n)
    rec = vf.easy_vanishing_drill(G, args.p, args.n)
    rec["verdict"] = "holds" if rec["verified"] else "fails"
    return [rec]


def _suite_case_by_case(args, G) -> list[dict]:
    from . import verify as vf
    audit = vf.case_by_case_audit()
    out = []
    for key in ((1, 1), (0, 0)):
        rec = audit[key]
        ok = key != (1, 1) or audit["verdict"]
        out.append({"superdiagonal": list(key), "count": rec["count"],
                    "orders": rec["orders"],
                    "verdict": "holds" if ok else "fails"})
    return out


def _suite_fiber_quotient(args, G) -> list[dict]:
    from . import verify as vf
    recs = vf.structure_audit(args.n, args.p)
    return [dict(r, verdict="holds" if r["holds"] else "fails")
            for r in recs]


SUITES = {
    "dwyer": _suite_dwyer,
    "twisting": _suite_twisting,
    "strong-vanishing": _suite_strong_vanishing,
    "easy-vanishing": _suite_easy_vanishing,
    "case-by-case": _suite_case_by_case,
    "fiber-quotient": _suite_fiber_quotient,
}


def cmd_verify(args) -> Report:
    rep = Report(f"verify {args.suite}")
    G = get_group(args.group)
    rep.records = _cached_records(
        args, f"verify {args.suite}", G,
        [args.p, args.n, args.k, args.sample, args.tuple_budget, args.seed],
        lambda: SUITES[args.suite](args, G))
    return rep


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "records"),
                        default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--no-cache", action="store_true")

    ap = argparse.ArgumentParser(prog="masseylab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("group", parents=[common])
    g.add_argument("action", choices=("list", "show", "check"))
    g.add_argument("target", nargs="?")

    c = sub.add_parser("cohomology", parents=[common])
    c.add_argument("--group", required=True)
    c.add_argument("--p", type=int, required=True)

    q = sub.add_parser("massey", parents=[common])
    q.add_argument("query")
    q.add_argument("--strategy", choices=("exhaustive", "hom-lift"),
                   default="exhaustive")

    v = sub.add_parser("verify", parents=[common])
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--group", default="V4")
    v.add_argument("--p", type=int, default=2)
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--k", type=int, default=2)
    v.add_argument("--sample", type=int, default=None)
    v.add_argument("--tuple-budget", type=int, default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        if args.cmd == "group":
            if args.action in ("show", "check") and not args.target:
                sys.stderr.write("group show/check needs a target\n")
                return EXIT_USAGE
            rep = cmd_group(args)
        elif args.cmd == "cohomology":
            rep = cmd_cohomology(args)
        elif args.cmd == "massey":
            rep = cmd_massey(args)
        else:
            rep = cmd_verify(args)
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_USAGE
    except MasseyLabError as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return EXIT_FAIL
    except OSError as e:
        sys.stderr.write(f"io error: {e}\n")
        return EXIT_USAGE
    try:
        rep.emit(args)
    except BrokenPipeError:
        # the reader has gone: keep the interpreter's final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())
