"""Defining systems, Massey product sets, and the strong-vanishing sweep.

The two set-computation strategies are deliberately independent:
`exhaustive` works entirely inside the cochain complex (backtracking over
the free entries with linear solves), while `hom-lift` walks homomorphisms
into the unitriangular quotient U_{n+1}(p)/Z and reads defining systems off
matrix entries.  Their agreement is an acceptance gate, not an assumption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import cochains as cc
from .cochains import Cochain, CohomologyClass, complex_data
from .errors import (
    BadParameter,
    MasseyLabError,
    NotADefiningSystem,
    NotAHomomorphism,
    ShapeMismatch,
    SizeLimit,
)
from .groups import FiniteGroup, GroupHom, build_vector_group, enumerate_homs, \
    vec_to_index
from .unitri import CosetQuotient, FiberQuotient, UniTriGroup, unitri_group, \
    zeta_kappa_targets

EXHAUSTIVE_GROUP_LIMIT = 8
EXHAUSTIVE_N_LIMIT = 4


@dataclass(frozen=True)
class MasseyQuery:
    group: FiniteGroup
    p: int
    chars: tuple  # degree-1 cocycles a_1 ... a_n

    @property
    def n(self) -> int:
        return len(self.chars)

    def forced_hom(self) -> GroupHom:
        """-a_1 x -a_2 x ... x -a_n : G -> (Z/p)^n."""
        target = build_vector_group(self.p, self.n)
        images = tuple(
            vec_to_index(self.p, [(-a.value(g)) % self.p for a in self.chars])
            for g in self.group.elements())
        return GroupHom(self.group, target, images)


def query(G: FiniteGroup, p: int, chars) -> MasseyQuery:
    chars = tuple(chars)
    for a in chars:
        if a.degree != 1 or not cc.is_cocycle(a):
            raise ShapeMismatch("each input class must be a degree-1 cocycle")
    return MasseyQuery(G, p, chars)


@dataclass(frozen=True)
class DefiningSystem:
    group: FiniteGroup
    p: int
    n: int
    entries: dict  # (i, j) -> Cochain, 1 <= i < j <= n+1, (i,j) != (1, n+1)

    def entry(self, i: int, j: int) -> Cochain:
        return self.entries[(i, j)]

    def chars(self) -> tuple:
        return tuple(self.entries[(i, i + 1)] for i in range(1, self.n + 1))


def system_positions(n: int) -> list[tuple[int, int]]:
    """All (i, j) slots of a defining system, smallest span first."""
    return [(i, j) for span in range(1, n + 1)
            for i in range(1, n + 2 - span)
            for j in [i + span] if (i, j) != (1, n + 1)]


def _rhs_cochain(ds_entries, group, p, i, j) -> Cochain:
    rhs = cc.zero_cochain(group, p, 2)
    for k in range(i + 1, j):
        rhs = rhs + cc.cup(ds_entries[(i, k)], ds_entries[(k, j)])
    return rhs


def is_defining_system(ds: DefiningSystem):
    """(True, None) or (False, (i, j, x, y)) with the first failing
    evaluation of delta(a_ij) = sum a_ik cup a_kj."""
    G, p = ds.group, ds.p
    for (i, j) in system_positions(ds.n):
        if (i, j) not in ds.entries:
            raise ShapeMismatch(f"missing entry ({i},{j})")
        lhs = cc.coboundary(ds.entries[(i, j)])
        rhs = _rhs_cochain(ds.entries, G, p, i, j)
        if lhs.values != rhs.values:
            for x in range(1, G.order):
                for y in range(1, G.order):
                    if lhs.value(x, y) != rhs.value(x, y):
                        return False, (i, j, x, y)
    return True, None


def defining_system_from_hom(psi: GroupHom, n: int, p: int,
                             entry_reader: Callable[[int, int, int], int]
                             ) -> DefiningSystem:
    """Extract the system a_ij(g) = -e_ij(psi(g)) from a homomorphism into
    U_{n+1}(p) or one of its entry-readable quotients."""
    if not psi.is_valid():
        raise NotAHomomorphism("psi is not a homomorphism")
    G = psi.domain
    entries = {}
    for (i, j) in system_positions(n):
        vals = [(-entry_reader(psi.images[g], i, j)) % p
                for g in range(1, G.order)]
        entries[(i, j)] = Cochain(G, p, 1, tuple(vals))
    return DefiningSystem(G, p, n, entries)


def unitri_entry_reader(U: UniTriGroup) -> Callable[[int, int, int], int]:
    return U.entry_of


def coset_entry_reader(U: UniTriGroup, quot: CosetQuotient
                       ) -> Callable[[int, int, int], int]:
    """Entry reader on a coset quotient of U, via canonical representatives;
    only meaningful for entries constant on cosets."""
    def read(idx: int, i: int, j: int) -> int:
        return U.entry_of(quot.reps[idx], i, j)
    return read


def massey_value(ds: DefiningSystem) -> CohomologyClass:
    ok, witness = is_defining_system(ds)
    if not ok:
        raise NotADefiningSystem(f"defining equation fails at {witness}")
    total = cc.zero_cochain(ds.group, ds.p, 2)
    for k in range(2, ds.n + 1):
        total = total + cc.cup(ds.entries[(1, k)], ds.entries[(k, ds.n + 1)])
    return cc.class_of(total)


# -- set computation -----------------------------------------------------------

def _iter_defining_systems(q: MasseyQuery) -> Iterator[DefiningSystem]:
    """All defining systems for q by backtracking over the free entries in
    span order; each slot's equation is an affine linear system in that
    slot, solved exactly."""
    G, p, n = q.group, q.p, q.n
    data = complex_data(G, p)
    slots = [(i, j) for (i, j) in system_positions(n) if j - i >= 2]
    base = {(i, i + 1): q.chars[i - 1] for i in range(1, n + 1)}

    def rec(idx, entries):
        if idx == len(slots):
            yield DefiningSystem(G, p, n, dict(entries))
            return
        i, j = slots[idx]
        rhs = _rhs_cochain(entries, G, p, i, j)
        sol = data.solve_delta1(rhs.vector())
        if sol is None:
            return
        x0, basis = sol
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            v = x0.copy()
            for c, b in zip(coeffs, basis):
                v = (v + c * b) % p
            entries[(i, j)] = Cochain(G, p, 1, tuple(int(t) for t in v))
            yield from rec(idx + 1, entries)
        del entries[(i, j)]

    yield from rec(0, base)


def _values_exhaustive(q: MasseyQuery, stop_at_zero: bool) -> set:
    if q.group.order > EXHAUSTIVE_GROUP_LIMIT or q.n > EXHAUSTIVE_N_LIMIT:
        raise SizeLimit("exhaustive-cochain strategy out of budget")
    out: set[CohomologyClass] = set()
    for ds in _iter_defining_systems(q):
        val = massey_value(ds)
        out.add(val)
        if stop_at_zero and val.is_zero():
            return out
    return out


def _uz_quotient(n: int, p: int):
    (quotZ, zeta), _ = zeta_kappa_targets(n, p)
    return quotZ, zeta


def _values_hom_lift(q: MasseyQuery, stop_at_zero: bool) -> set:
    n, p = q.n, q.p
    U = unitri_group(n + 1, p)
    if not U.materializable():
        raise SizeLimit("hom-lift strategy needs a materializable U_{n+1}(p)")
    quotZ, zeta = _uz_quotient(n, p)
    reader = coset_entry_reader(U, quotZ)
    forced = q.forced_hom()
    out: set[CohomologyClass] = set()
    for psi in enumerate_homs(q.group, quotZ.group, fiber=(zeta, forced)):
        ds = defining_system_from_hom(psi, n, p, reader)
        val = massey_value(ds)
        out.add(val)
        if stop_at_zero and val.is_zero():
            return out
    return out


def massey_product_set(q: MasseyQuery, strategy: str = "exhaustive") -> set:
    """The set of n-fold Massey values over all defining systems; empty set
    means the product is not defined."""
    if strategy == "exhaustive":
        return _values_exhaustive(q, stop_at_zero=False)
    if strategy == "hom-lift":
        return _values_hom_lift(q, stop_at_zero=False)
    raise MasseyLabError(f"unknown strategy {strategy!r}")


def massey_vanishes(q: MasseyQuery, strategy: str = "exhaustive") -> bool:
    if strategy == "exhaustive":
        vals = _values_exhaustive(q, stop_at_zero=True)
    elif strategy == "hom-lift":
        vals = _values_hom_lift(q, stop_at_zero=True)
    else:
        raise MasseyLabError(f"unknown strategy {strategy!r}")
    return any(v.is_zero() for v in vals)


def massey_defined(q: MasseyQuery, strategy: str = "exhaustive") -> bool:
    if strategy == "hom-lift":
        n, p = q.n, q.p
        quotZ, zeta = _uz_quotient(n, p)
        forced = q.forced_hom()
        return next(enumerate_homs(q.group, quotZ.group,
                                   fiber=(zeta, forced)), None) is not None
    for _ in _iter_defining_systems(q):
        return True
    return False


# -- predicates ----------------------------------------------------------------

def consecutive_cups_zero(q: MasseyQuery, cross_check: bool = True) -> bool:
    """a_i cup a_{i+1} = 0 for all i; when the U/P quotient is materializable
    the equivalent lift criterion is computed too and must agree."""
    direct = all(cc.is_coboundary(cc.cup(q.chars[i], q.chars[i + 1]))
                 for i in range(q.n - 1))
    U = unitri_group(q.n + 1, q.p)
    if cross_check and U.materializable():
        _, (quotP, kappa) = zeta_kappa_targets(q.n, q.p)
        forced = q.forced_hom()
        via_lift = next(enumerate_homs(q.group, quotP.group,
                                       fiber=(kappa, forced)), None) is not None
        if via_lift != direct:
            raise MasseyLabError(
                "U/P lift criterion disagrees with the direct cup check")
    return direct


def h1_tuples(G: FiniteGroup, p: int, n: int) -> Iterator[tuple]:
    """All n-tuples of H^1 elements, lexicographic in basis coordinates."""
    if n < 0:
        raise BadParameter(f"tuple length n = {n} must be >= 0")
    dim = len(cc.h1(G, p))
    chars = [cc.h1_combination(G, p, coeffs)
             for coeffs in itertools.product(range(p), repeat=dim)]
    return itertools.product(chars, repeat=n)


def strong_massey_vanishing(G: FiniteGroup, p: int, n_range,
                            budget: Optional[int] = None) -> list[dict]:
    """Per-n report of the strong Massey vanishing property: every tuple
    with consecutive cups zero must have vanishing Massey product."""
    from . import embedding  # local import; embedding depends on this module
    reports = []
    for n in n_range:
        checked = 0
        counterexample = None
        exceeded = False
        for chars in h1_tuples(G, p, n):
            q = MasseyQuery(G, p, chars)
            if not consecutive_cups_zero(q, cross_check=False):
                continue
            checked += 1
            if budget is not None and checked > budget:
                exceeded = True
                break
            if not embedding.dwyer_solvable(q):
                counterexample = tuple(a.values for a in chars)
                break
        reports.append({
            "n": n,
            "verdict": "budget-exceeded" if exceeded else
                       ("fails" if counterexample else "holds"),
            "tuples_checked": checked,
            "counterexample": counterexample,
        })
    return reports
