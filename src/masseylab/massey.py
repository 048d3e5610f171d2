"""Defining systems, Massey product sets, and the strong-vanishing sweep.

The two set-computation strategies are deliberately independent:
`exhaustive` works entirely inside the cochain complex (backtracking over
the free entries with linear solves), while `hom-lift` walks homomorphisms
into the unitriangular quotient U_{n+1}(p)/Z and reads defining systems off
matrix entries.  Their agreement is an acceptance gate, not an assumption.
"""

from __future__ import annotations

import functools
import itertools
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
from .groups import CosetQuotient, FiniteGroup, GroupHom, Value, \
    build_vector_group, enumerate_homs, vec_to_index
from .unitri import unitri_group, zeta_kappa_targets

# the exhaustive strategy runs wherever the cochain complex is built
EXHAUSTIVE_GROUP_LIMIT = cc.MAX_COHOMOLOGY_ORDER
EXHAUSTIVE_N_LIMIT = 4

# Dwyer's dictionary: the forced map G -> (Z/p)^n lifts through phi from
# U = U_{n+1}(p) iff <a_1, ..., a_n> vanishes, through zeta from U/Z iff it
# is defined, and through kappa from U/P iff the consecutive cups vanish.
DWYER_TARGETS = {
    "U": lambda n, p: unitri_group(n + 1, p).phi_hom(),
    "U/Z": lambda n, p: zeta_kappa_targets(n, p)[0][1],
    "U/P": lambda n, p: zeta_kappa_targets(n, p)[1][1],
}


class MasseyQuery(Value):
    __slots__ = ("group", "p", "chars", "__dict__")  # __dict__: forced_hom

    def __init__(self, group, p, chars):
        self.group, self.p = group, p
        self.chars = chars  # degree-1 cocycles a_1 ... a_n

    def _key(self) -> tuple:
        return self.group, self.p, self.chars

    @property
    def n(self) -> int:
        return len(self.chars)

    @functools.cached_property
    def forced_hom(self) -> GroupHom:
        """-a_1 x -a_2 x ... x -a_n : G -> (Z/p)^n, built once per
        query."""
        target = build_vector_group(self.p, self.n)
        images = tuple(
            vec_to_index(self.p, [(-a.value(g)) % self.p for a in self.chars])
            for g in self.group.elements())
        return GroupHom(self.group, target, images)

    def dwyer_map(self, target: str = "U") -> GroupHom:
        """The map onto (Z/p)^n of a Dwyer target (see DWYER_TARGETS); a
        U_{n+1}(p) past the table cap is refused where it is built."""
        if target not in DWYER_TARGETS:
            raise BadParameter(f"unknown target {target!r}")
        return DWYER_TARGETS[target](self.n, self.p)

    def lifts(self, target: str = "U") -> Iterator[GroupHom]:
        """Every lift of the forced map through `dwyer_map(target)`, in the
        deterministic order of `enumerate_homs`."""
        alpha = self.dwyer_map(target)
        return enumerate_homs(self.group, alpha.domain,
                              fiber=(alpha, self.forced_hom))


def query(G: FiniteGroup, p: int, chars) -> MasseyQuery:
    chars = tuple(chars)
    for a in chars:
        if a.degree != 1 or not cc.is_cocycle(a):
            raise ShapeMismatch("each input class must be a degree-1 cocycle")
    return MasseyQuery(G, p, chars)


class DefiningSystem:
    __slots__ = ("group", "p", "n", "entries")

    def __init__(self, group, p, n, entries):
        self.group, self.p, self.n = group, p, n
        # (i, j) -> Cochain, 1 <= i < j <= n+1, (i,j) != (1, n+1)
        self.entries = entries

    def entry(self, i: int, j: int) -> Cochain:
        return self.entries[(i, j)]


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
        if lhs.vec != rhs.vec:
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
        entries[(i, j)] = cc.cochain(
            G, p, 1, [-entry_reader(psi.images[g], i, j)
                      for g in range(1, G.order)])
    return DefiningSystem(G, p, n, entries)


def massey_value(ds: DefiningSystem) -> CohomologyClass:
    """The class of the defining equation's right-hand side at the corner
    (1, n+1)."""
    ok, witness = is_defining_system(ds)
    if not ok:
        raise NotADefiningSystem(f"defining equation fails at {witness}")
    return cc.class_of(_rhs_cochain(ds.entries, ds.group, ds.p, 1, ds.n + 1))


# -- set computation -----------------------------------------------------------

def _iter_defining_systems(q: MasseyQuery) -> Iterator[DefiningSystem]:
    """All defining systems for q by backtracking over the free entries in
    span order; each slot's equation is an affine linear system in that
    slot, solved exactly.  The caps checked here bind all three deciders."""
    G, p, n = q.group, q.p, q.n
    if G.order > EXHAUSTIVE_GROUP_LIMIT:
        raise SizeLimit(f"the exhaustive-cochain strategy takes groups of "
                        f"order <= {EXHAUSTIVE_GROUP_LIMIT}, got {G.order}")
    if n > EXHAUSTIVE_N_LIMIT:
        raise SizeLimit(f"the exhaustive-cochain strategy takes n <= "
                        f"{EXHAUSTIVE_N_LIMIT}, got n = {n}")
    data = complex_data(G, p)
    chars = cc.characters(G, p)
    slots = [(i, j) for (i, j) in system_positions(n) if j - i >= 2]
    base = {(i, i + 1): q.chars[i - 1] for i in range(1, n + 1)}

    def rec(idx, entries):
        if idx == len(slots):
            yield DefiningSystem(G, p, n, dict(entries))
            return
        i, j = slots[idx]
        rhs = _rhs_cochain(entries, G, p, i, j)
        x0 = data.solve_delta1(rhs.vec)
        if x0 is None:
            return
        x0 = Cochain(G, p, 1, x0)
        for chi in chars:  # B^1 = 0, so x0 + Z^1 = x0 + H^1
            entries[(i, j)] = x0 + chi
            yield from rec(idx + 1, entries)
        del entries[(i, j)]

    yield from rec(0, base)


def _values_exhaustive(q: MasseyQuery) -> Iterator[CohomologyClass]:
    """q's Massey values, one per defining system in backtracking order."""
    return map(massey_value, _iter_defining_systems(q))


def _uz_quotient(n: int, p: int) -> CosetQuotient:
    return zeta_kappa_targets(n, p)[0][0]


def _values_hom_lift(q: MasseyQuery) -> Iterator[CohomologyClass]:
    """q's Massey values, one per lift into U/Z in search order."""
    n, p = q.n, q.p
    lifts = q.lifts("U/Z")
    U, reps = unitri_group(n + 1, p), _uz_quotient(n, p).reps
    # a system's entries are constant on Z-cosets: read each at the coset's rep
    reader = lambda idx, i, j: U.entry_of(reps[idx], i, j)
    return (massey_value(defining_system_from_hom(psi, n, p, reader))
            for psi in lifts)


def _values(q: MasseyQuery, strategy: str) -> Iterator[CohomologyClass]:
    if strategy == "exhaustive":
        return _values_exhaustive(q)
    if strategy == "hom-lift":
        return _values_hom_lift(q)
    raise MasseyLabError(f"unknown strategy {strategy!r}")


def massey_product_set(q: MasseyQuery, strategy: str = "exhaustive") -> set:
    """The set of n-fold Massey values over all defining systems; empty set
    means the product is not defined."""
    return set(_values(q, strategy))


def massey_vanishes(q: MasseyQuery, strategy: str = "exhaustive") -> bool:
    return any(v.is_zero() for v in _values(q, strategy))


def massey_defined(q: MasseyQuery, strategy: str = "exhaustive") -> bool:
    if strategy == "exhaustive":
        systems = _iter_defining_systems(q)
    elif strategy == "hom-lift":
        systems = q.lifts("U/Z")
    else:
        raise MasseyLabError(f"unknown strategy {strategy!r}")
    return next(systems, None) is not None


# -- predicates ----------------------------------------------------------------

def consecutive_cups_zero(q: MasseyQuery) -> bool:
    """a_i cup a_{i+1} = 0 for all i, in the cochain complex; the lift
    through U/P is the same predicate's other route (`q.lifts("U/P")`)."""
    return all(cc.is_coboundary(cc.cup(q.chars[i], q.chars[i + 1]))
               for i in range(q.n - 1))


def h1_tuples(G: FiniteGroup, p: int, n: int) -> Iterator[tuple]:
    """All n-tuples of H^1 elements, lexicographic in basis coordinates."""
    if n < 0:
        raise BadParameter(f"tuple length n = {n} must be >= 0")
    return itertools.product(cc.characters(G, p), repeat=n)


def strong_massey_vanishing(G: FiniteGroup, p: int, n_range,
                            budget: Optional[int] = None) -> list[dict]:
    """Per-n report of the strong Massey vanishing property: every tuple
    with consecutive cups zero must have vanishing Massey product."""
    from . import embedding  # local import; embedding depends on this module
    if budget is not None and budget < 0:
        raise BadParameter(f"tuple budget {budget} must be >= 0")
    reports = []
    for n in n_range:
        checked = 0
        counterexample = None
        exceeded = False
        for chars in h1_tuples(G, p, n):
            q = MasseyQuery(G, p, chars)
            if not consecutive_cups_zero(q):
                continue
            if budget is not None and checked == budget:
                exceeded = True
                break
            checked += 1
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
