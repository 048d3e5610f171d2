"""Per-layer tracer for one masseylab CLI job.

    python3 perfbench/tracer.py OUT.json -- <masseylab arguments>

imports `masseylab.cli` in this fresh interpreter, wraps the layer
boundaries listed in SPANS, runs `masseylab.cli.main` on the arguments and
writes each category's self time and the work counts to OUT.json. The job's
records go to stdout exactly as in an untraced run, and the exit code is
main's.

A span is opened around every call of a wrapped function, and around every
`next()` of a wrapped generator, so a search is timed where it runs rather
than where it was created. Spans are kept in memory, in flat arrays, and
reduced when the job ends: a span's self time is its duration minus the
durations of its child spans, and a category's self time is the sum over its
spans. Functions not listed are not spans; their time counts to the nearest
listed caller.

`massey`, `embedding`, `verify` and `cli` import functions by name, and
`cli.SUITES` holds the suite functions, so each wrapper replaces every
binding of the original in every loaded masseylab module and module-level
dict, not only the one in its defining module. `stale_bindings()` lists any
binding the replacement missed.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import sys
import time
from array import array

INHERIT = "inherit"   # span counted in its caller's category
_ABSENT = object()


def _strategy(args, kwargs) -> str:
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy",
                                                         "exhaustive")
    return "massey.homlift" if strategy == "hom-lift" else "massey.exhaustive"


# (category, module, names). A category is a metric stem: its self time is
# reported as `<category>_s`. Names are module attributes or `Class.attr`.
SPANS = (
    ("unitri.coset_quotient", "unitri",
     ("CosetQuotient.__init__", "zeta_kappa_targets",
      "central_series_ker_phi")),
    ("unitri.derived_map", "unitri",
     ("UniTriGroup.phi_hom", "CosetQuotient.project", "FiberQuotient.phi_hom",
      "FiberQuotient.rho_hom", "FiberQuotient.parent_quotient_hom",
      "FiberQuotient.drop_to", "FiberQuotient.kernel_of_rho")),
    ("unitri.fiber_build", "unitri", ("FiberQuotient.__init__",)),
    ("unitri.unitri_table", "unitri", ("UniTriGroup.as_finite_group",)),
    ("groups.table_build", "groups",
     ("parse_group_file", "build_from_table", "validate_group",
      "find_generators", "build_cyclic", "build_direct_product",
      "build_vector_group", "build_semidirect_cyclic", "build_dihedral",
      "build_quaternion8", "build_symmetric3")),
    ("groups.hom_search", "groups", ("enumerate_homs",)),
    ("gfp.elim", "gfp",
     ("rref", "rank", "reduce_vector", "in_row_space", "nullspace", "solve",
      "solve_affine")),
    ("cochains.complex", "cochains",
     ("complex_data", "ComplexData.__init__", "ComplexData.delta_matrix",
      "ComplexData.d1", "ComplexData.d2", "ComplexData.b2_rref",
      "ComplexData.z1_basis", "ComplexData.h2_data",
      "ComplexData.canonical_2cocycle", "ComplexData.solve_delta1",
      "h1", "h2", "cup_form", "demushkin_check")),
    ("cochains.cochain_ops", "cochains",
     ("coboundary", "cup", "class_of", "is_coboundary", "is_cocycle")),
    ("massey.exhaustive", "massey",
     ("_values_exhaustive", "_iter_defining_systems")),
    ("massey.homlift", "massey", ("_values_hom_lift", "_uz_quotient")),
    ("massey.cups_check", "massey", ("consecutive_cups_zero",)),
    (_strategy, "massey",
     ("massey_vanishes", "massey_defined", "massey_product_set")),
    (INHERIT, "massey",
     ("massey_value", "is_defining_system", "defining_system_from_hom")),
    ("embedding.solve", "embedding",
     ("solve", "dwyer_solvable", "build_dwyer_problem",
      "find_order2_preimage", "is_solution", "is_real")),
    ("embedding.obstruction", "embedding",
     ("obstruction", "central_data", "rho_step_problem",
      "rho_step_obstruction", "solvable_iff_obstruction_zero")),
    ("embedding.twist", "embedding",
     ("twist", "embed_char_in_rho_kernel", "chars_of_quotient_hom")),
    ("verify.suite", "verify",
     ("block_lift", "real_check_z2", "case_by_case_audit", "splice_lifts",
      "easy_vanishing_drill", "obstruction_tower_audit",
      "filtration_length_report", "structure_audit", "demushkin_descent",
      "massey_strong_z2_sweep")),
    ("verify.suite", "embedding", ("verify_twisting",)),
    ("verify.suite", "massey", ("strong_massey_vanishing",)),
    ("verify.suite", "cli",
     ("_suite_dwyer", "_suite_twisting", "_suite_strong_vanishing",
      "_suite_easy_vanishing", "_suite_case_by_case",
      "_suite_fiber_quotient")),
    ("cli.emit", "cli", ("Report.emit",)),
    ("cli.command", "cli",
     ("main", "cmd_group", "cmd_cohomology", "cmd_massey", "cmd_verify",
      "get_group", "parse_query_file", "cache_get", "cache_put")),
)

# (module, name) -> counter bumped once per call.
CALL_COUNTS = {
    ("unitri", "CosetQuotient.__init__"): "unitri.coset_quotients",
    ("unitri", "FiberQuotient.__init__"): "unitri.fiber_builds",
    ("groups", "enumerate_homs"): "groups.hom_searches",
    ("gfp", "rref"): "gfp.rref_calls",
    ("gfp", "solve"): "gfp.solve_calls",
    ("cochains", "ComplexData.__init__"): "cochains.complex_builds",
    ("cochains", "coboundary"): "cochains.cochain_ops",
    ("cochains", "cup"): "cochains.cochain_ops",
    ("cochains", "class_of"): "cochains.cochain_ops",
    ("cochains", "is_coboundary"): "cochains.cochain_ops",
    ("cochains", "is_cocycle"): "cochains.cochain_ops",
    ("massey", "massey_vanishes"): "massey.queries",
    ("massey", "massey_defined"): "massey.queries",
    ("massey", "massey_product_set"): "massey.queries",
    ("massey", "massey_value"): "massey.defining_systems",
    ("embedding", "solve"): "embedding.solve_calls",
    ("embedding", "obstruction"): "embedding.obstructions",
}

# (module, generator name) -> counter bumped once per item yielded.
ITEM_COUNTS = {
    ("groups", "enumerate_homs"): "groups.homs_yielded",
}

# Hot functions that are counted but get no span, so that tracing them
# costs one counter bump per call.
COUNT_ONLY = {
    ("unitri", "UniTriMatrix.mul"): "unitri.matrix_mul_calls",
}

MODULES = ("groups", "gfp", "unitri", "cochains", "massey", "embedding",
           "verify", "cli")


def _rref_cells(counts, args, result):
    """rows x cols x pivots of one elimination: a computed work count."""
    shape = getattr(args[0], "shape", None)
    if shape is None:
        import numpy as np
        shape = np.shape(args[0])
    rows, cols = (shape if len(shape) == 2 else
                  ((1, shape[0]) if shape and shape[0] else (0, 0)))
    counts["gfp.elim_cells"] += rows * cols * len(result[1])


def _solved(counts, args, result):
    counts["embedding.solved"] += result is not None


def _records(counts, args, result):
    counts["cli.records"] += len(args[0].records)


AFTER = {
    ("gfp", "rref"): _rref_cells,
    ("embedding", "solve"): _solved,
    ("cli", "Report.emit"): _records,
}


class Tracer:
    def __init__(self):
        self.categories: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.cat = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self.originals: dict[int, object] = {}
        self.wrapped: set[int] = set()
        self.untraced = self.cat_id("untraced")

    def cat_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.categories)
            self.categories.append(name)
        return self._ids[name]

    # -- wrappers -------------------------------------------------------------

    def _category_of(self, category):
        """A function (args, kwargs, parent span) -> category id."""
        cats = self.cat
        if category == INHERIT:
            untraced = self.untraced
            return lambda a, k, parent: cats[parent] if parent >= 0 \
                else untraced
        if callable(category):
            return lambda a, k, parent: self.cat_id(category(a, k))
        cid = self.cat_id(category)
        return lambda a, k, parent: cid

    def span(self, fn, category, count=None, after=None, item_count=None):
        start, end, cats, parents = self.start, self.end, self.cat, \
            self.parent
        stack, counts, clock = self.stack, self.counts, time.perf_counter
        category_of = self._category_of(category)

        def enter(args, kwargs):
            parent = stack[-1]
            idx = len(start)
            cats.append(category_of(args, kwargs, parent))
            parents.append(parent)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            return idx

        def leave(idx):
            end[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def iterate(it, args, kwargs):
                try:
                    while True:
                        idx = enter(args, kwargs)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            leave(idx)
                        if item_count:
                            counts[item_count] += 1
                        yield item
                finally:
                    it.close()

            def wrapper(*args, **kwargs):
                if count:
                    counts[count] += 1
                return iterate(fn(*args, **kwargs), args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                if count:
                    counts[count] += 1
                idx = enter(args, kwargs)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(idx)
                if after:
                    after(counts, args, result)
                return result
        return functools.wraps(fn)(wrapper)

    def counter(self, fn, count):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def table_counter(self, fn):
        """Every FiniteGroup table is made by groups._raw_group; count it,
        with its cells (order^2), for the layer of the innermost span."""
        counts, stack, cats, names = self.counts, self.stack, self.cat, \
            self.categories

        def wrapper(mul, *args, **kwargs):
            top = stack[-1]
            layer = names[cats[top]].split(".")[0] if top >= 0 else "untraced"
            counts[f"{layer}.tables_built"] += 1
            counts[f"{layer}.table_cells"] += len(mul) ** 2
            return fn(mul, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    # -- installation ---------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"masseylab.{m}") for m in MODULES}
        targets = [(c, m, n) for c, m, names in SPANS for n in names]
        for category, mod, name in targets:
            key = (mod, name)
            self._replace(mods, mod, name, functools.partial(
                self.span, category=category, count=CALL_COUNTS.get(key),
                after=AFTER.get(key), item_count=ITEM_COUNTS.get(key)))
        for (mod, name), count in COUNT_ONLY.items():
            self._replace(mods, mod, name,
                          functools.partial(self.counter, count=count))
        self._replace(mods, "groups", "_raw_group", self.table_counter)
        return mods

    def _replace(self, mods, mod, name, make):
        owner = mods[mod]
        cls_name, _, attr = name.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{mod}.{name}")
            return
        if id(raw) in self.wrapped:     # an earlier target imported by name
            return
        if isinstance(raw, property):
            setattr(owner, attr, property(make(raw.fget), raw.fset, raw.fdel,
                                          raw.__doc__))
            return
        wrapped = make(raw)
        self.originals[id(raw)] = raw
        self.wrapped.add(id(wrapped))
        if cls_name:
            setattr(owner, attr, wrapped)
            return
        for m in _loaded_modules():
            for key, val in list(vars(m).items()):
                if val is raw:
                    setattr(m, key, wrapped)
                elif isinstance(val, dict):
                    for k, v in val.items():
                        if v is raw:
                            val[k] = wrapped

    def stale_bindings(self) -> list[str]:
        """Module-level names or dict entries still bound to an original."""
        out = []
        for m in _loaded_modules():
            for key, val in vars(m).items():
                if self.originals.get(id(val), _ABSENT) is val:
                    out.append(f"{m.__name__}.{key}")
                elif isinstance(val, dict):
                    out += [f"{m.__name__}.{key}[{k!r}]"
                            for k, v in val.items()
                            if self.originals.get(id(v), _ABSENT) is v]
        return out

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        import numpy as np
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.float64) - \
            np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        per_cat = np.bincount(np.frombuffer(self.cat, dtype=np.intc),
                              weights=dur - covered,
                              minlength=len(self.categories))
        return {"self_s": {c: float(per_cat[i])
                           for i, c in enumerate(self.categories)},
                "counts": dict(self.counts),
                "spans": n,
                "missing": self.missing,
                "stale": self.stale_bindings()}


def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "masseylab"
                                  or name.startswith("masseylab."))]


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 3
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = tracer.install()["cli"]
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
