"""Executable witnesses for the structural lemmas: order-2 block lifts,
the U_3(2) preimage audit, lift splicing, the filtration drill, the
central-step obstruction audits, and the descending-induction solver."""

from __future__ import annotations

import functools

from . import cochains as cc
from . import embedding as em
from . import massey as ms
from .cochains import Cochain
from .embedding import EmbeddingProblem
from .errors import (
    AdjacentOnes,
    BadParameter,
    FormDegenerate,
    HypothesisViolated,
    MasseyLabError,
    NotApplicable,
    SizeMismatch,
)
from .groups import FiniteGroup, GroupHom, build_cyclic, enumerate_homs, \
    vec_to_index
from .unitri import (
    UniTriGroup,
    UniTriMatrix,
    central_series_ker_phi,
    fiber_quotient,
    position_quotient,
    unitri_group,
    zero_positions,
)


class SignPattern:
    """The row vector (a_1(g), ..., a_n(g)) for G = Z/2, p = 2."""
    __slots__ = ("bits",)

    def __init__(self, bits):
        if len(bits) < 1 or any(b not in (0, 1) for b in bits):
            raise BadParameter("pattern must be a nonempty 0/1 vector")
        self.bits = bits

    @property
    def n(self) -> int:
        return len(self.bits)

    def has_adjacent_ones(self) -> bool:
        return any(self.bits[i] and self.bits[i + 1]
                   for i in range(self.n - 1))


def block_lift(pattern: SignPattern) -> UniTriMatrix:
    """The involution A = I + sum(pattern_i * e_{i,i+1}) in U_{n+1}(2);
    valid exactly when the pattern has no adjacent ones."""
    if pattern.has_adjacent_ones():
        raise AdjacentOnes(f"pattern {pattern.bits} has adjacent ones")
    U = unitri_group(pattern.n + 1, 2)
    return U.matrix_of(U.index_from(
        lambda i, j: pattern.bits[i - 1] if j == i + 1 else 0))


def real_check_z2(pattern: SignPattern):
    """Is the order-2 lifting problem for this pattern solvable in
    U_{n+1}(2)?  Returns (verdict, witness matrix or None); complete search
    that does not materialize the group."""
    A = em.find_order2_preimage(pattern.bits)
    return A is not None, A


def case_by_case_audit() -> dict:
    """All preimages of (1,1) and of (0,0) under the superdiagonal map in
    U_3(2), with their element orders."""
    U = unitri_group(3, 2)
    G, phi = U.as_finite_group(), U.phi_hom()
    rec = {}
    for key in ((1, 1), (0, 0)):
        orders = sorted(G.element_order(x) for x in G.elements()
                        if phi(x) == vec_to_index(2, key))
        rec[key] = {"count": len(orders), "orders": orders}
    rec["verdict"] = all(o > 2 for o in rec[(1, 1)]["orders"])
    return rec


def splice_lifts(left: GroupHom, right: GroupHom, Ul: UniTriGroup,
                 Ur: UniTriGroup) -> GroupHom:
    """Combine psi_left : G -> Ul = U_a(p) and psi_right : G -> Ur = U_b(p)
    into the block-diagonal homomorphism G -> U_{a+b}(p), whose
    superdiagonal splices the two patterns with a 0 at position a."""
    if left.codomain != Ul.as_finite_group() or \
            right.codomain != Ur.as_finite_group():
        raise SizeMismatch("each factor must land in its unitriangular group")
    if left.domain != right.domain or Ul.p != Ur.p:
        raise SizeMismatch("factors must share the domain and the prime")
    a, p = Ul.n, Ul.p
    U = unitri_group(a + Ur.n, p)

    def entry(g, i, j):
        """Entry (i, j) of the block-diagonal image of g."""
        if j <= a:
            return Ul.entry_of(left(g), i, j)
        return Ur.entry_of(right(g), i - a, j - a) if i > a else 0
    images = tuple(U.index_from(functools.partial(entry, g))
                   for g in left.domain.elements())
    return GroupHom(left.domain, U.as_finite_group(), images).check()


# -- the central filtration drill ----------------------------------------------

class _FiltrationTower:
    """U_{n+1}(p) and its quotients U/N_t along the central series of
    Ker(phi), each element its digits at N_t's zero positions, with the
    connecting surjections.  N_0 = {1}, so groups[0] is U's own table and
    a lift down the tower lands in U; the top keeps the superdiagonal in
    order, so its elements are those of (Z/p)^n."""

    def __init__(self, n: int, p: int):
        if n < 2:
            raise BadParameter(f"the tower needs n >= 2, got n = {n}")
        self.U = unitri_group(n + 1, p)
        chain, _ = central_series_ker_phi(n)
        self.groups = [self.U.as_finite_group()] + [
            position_quotient(n + 1, p, kept, f"U/N{t}")
            for t, kept in enumerate(chain) if t]
        # alpha_t : U/N_t -> U/N_{t+1} drops the digit, of place value w,
        # of the one position that N_{t+1} adjoins
        self.alphas = []
        for t, (lo, hi) in enumerate(zip(self.groups, self.groups[1:])):
            (drop,) = set(chain[t]).difference(chain[t + 1])
            w = p ** (len(chain[t]) - 1 - chain[t].index(drop))
            self.alphas.append(GroupHom(lo, hi, tuple(
                x // (w * p) * w + x % w for x in lo.elements())))


@functools.cache
def _tower(n: int, p: int) -> _FiltrationTower:
    return _FiltrationTower(n, p)


def easy_vanishing_drill(G: FiniteGroup, p: int, n: int) -> dict:
    """When H^2(G, Z/p) = 0, build a solution of every Dwyer problem at
    this n by walking the central filtration of Ker(phi_{n+1}) and lifting
    one central step at a time; every per-step obstruction must be 0."""
    dim_h2, _ = cc.h2(G, p)
    if dim_h2 != 0:
        raise NotApplicable(f"dim H^2 = {dim_h2} != 0")
    trivial_only = len(cc.h1(G, p)) == 0
    if not unitri_group(n + 1, p).materializable():
        if trivial_only:
            # the only tuple is all-zero; the trivial homomorphism lifts
            # itself at every filtration step, with identically-zero cocycle
            steps = n * (n + 1) // 2 - n
            return {"group": G.label, "p": p, "n": n, "tuples": 1,
                    "steps": steps,
                    "obstructions_zero": True, "verified": True,
                    "mode": "trivial-map"}
        from .errors import SizeLimit
        raise SizeLimit(f"U_{n + 1}({p}) not materializable")
    tower = _tower(n, p)
    tuples = 0
    for chars in ms.h1_tuples(G, p, n):
        q = ms.MasseyQuery(G, p, chars)
        forced = q.forced_hom
        psi = GroupHom(G, tower.groups[-1], forced.images)
        for t in reversed(range(len(tower.alphas))):
            E = EmbeddingProblem(tower.alphas[t], psi)
            o = em.obstruction(E)
            if not o.is_zero():
                raise MasseyLabError(
                    f"nonzero obstruction at step {t} with H^2 = 0 "
                    "(implementation fault)")
            psi = em.solve(E)
            if psi is None:
                raise MasseyLabError(
                    "zero obstruction but no lift found (implementation fault)")
        phi = tower.U.phi_hom()
        if any(phi(psi(g)) != forced(g) for g in G.elements()):
            raise MasseyLabError("final lift does not project correctly")
        tuples += 1
    return {"group": G.label, "p": p, "n": n, "tuples": tuples,
            "steps": len(tower.alphas), "obstructions_zero": True,
            "verified": True, "mode": "filtration"}


# -- central-step obstruction audits -------------------------------------------

def _audit_step(G: FiniteGroup, alpha: GroupHom):
    """solve <=> obstruction-zero, and lift-policy independence, over
    homomorphisms phi : G -> codomain(alpha)."""
    records = []
    for phi in enumerate_homs(G, alpha.codomain):
        E = EmbeddingProblem(alpha, phi)
        report = em.solvable_iff_obstruction_zero(E)
        records.append({
            "phi": phi.gen_images(),
            "obstruction_zero": report["obstruction_zero"],
            "solvable": report["solvable"],
            "agree": report["agree"],
            "lift_independent":
                report["obstruction"] == em.obstruction(E, "max"),
        })
    return records


def obstruction_tower_audit(G: FiniteGroup, m: int, p: int) -> list[dict]:
    """Audit every central step of the Ker(phi_m) filtration and of the
    rho_{k,m} tower inside U_m(p)."""
    out = []
    tower = _tower(m - 1, p)
    for t, alpha in enumerate(tower.alphas):
        recs = _audit_step(G, alpha)
        out.append({"step": f"filtration t={t}", "records": recs})
    for k in range(1, m - 1):
        fq = fiber_quotient(k, m, p)
        recs = _audit_step(G, fq.rho_hom())
        out.append({"step": f"rho k={k}", "records": recs})
    return out


def filtration_length_report(n_values, p: int) -> list[dict]:
    """Lengths of the central series of Ker(phi_{n+1}); the entry count
    n(n-1)/2 is what the filtration actually has, and the report records
    that this differs from the (n-1 choose 2) one might expect from
    indexing the series by the weight alone.  No table is built, so any n
    runs."""
    out = []
    for n in n_values:
        chain, _ = central_series_ker_phi(n)
        length = len(chain) - 1
        expected = n * (n - 1) // 2
        out.append({"n": n, "p": p, "length": length,
                    "entry_count": expected,
                    "matches_entry_count": length == expected,
                    "note": "length is n(n-1)/2, not binom(n-1,2)"})
    return out


def structure_audit(m: int, p: int) -> list[dict]:
    """Exhaustive checks of the M_{k,m} subgroup structure inside U_m(p):
    normality, the two-sided block-kernel description, the fiber-product
    realization of the quotient, and |Ker rho| = p with iota additive."""
    if m < 2:
        raise BadParameter(f"the M_{{k,m}} audit needs m >= 2, got {m}")
    U = unitri_group(m, p)
    G = U.as_finite_group()
    out = []
    for k in range(1, m):
        members = set(U.vanishing_on(zero_positions(m, "M", k)))
        normal = all(G.conjugate(g, s) in members
                     for g in G.elements() for s in members)
        # M = Ker(upper-left (m-1)-block) \cap Ker(lower-right (m+1-k)-block)
        both_kernels = {x for x in G.elements()
                        if U.upper_left(x, m - 1) == 0
                        and U.lower_right(x, m + 1 - k) == 0}
        fq = fiber_quotient(k, m, p)
        proj = fq.parent_quotient_hom()
        rec = {
            "k": k, "m": m, "p": p,
            "normal": normal,
            "kernel_description": members == both_kernels,
            "quotient_order": G.order // len(members) == fq.order,
            "projection_surjective": proj.is_surjective(),
            "projection_kernel": set(proj.kernel()) == members,
        }
        if k <= m - 2:
            ker = fq.kernel_of_rho()
            additive = all(
                fq.iota(fq.group.mul[x][y]) ==
                (fq.iota(x) + fq.iota(y)) % p
                for x in ker for y in ker)
            rec["ker_rho_order_p"] = len(ker) == p
            rec["iota_additive"] = additive
        rec["holds"] = all(v for key, v in rec.items()
                           if isinstance(v, bool))
        out.append(rec)
    return out


# -- descending-induction solver ------------------------------------------------

def _solve_chi(G: FiniteGroup, p: int, a_prev: Cochain, target_klass):
    """Lexicographically least chi in H^1 coordinates with
    class(a_prev cup chi) = target_klass, using dim H^2 = 1."""
    basis = cc.h1(G, p)
    t_target = cc.h2_coordinate(target_klass.representative)
    coeffs = [cc.h2_coordinate(cc.cup(a_prev, b)) for b in basis]
    if t_target == 0:
        xs = [0] * len(basis)
    else:
        js = [i for i, c in enumerate(coeffs) if c]
        if not js:
            raise FormDegenerate(
                "cup with the previous character is identically zero")
        j = js[-1]
        xs = [0] * len(basis)
        xs[j] = (t_target * pow(coeffs[j], -1, p)) % p
    return cc.h1_combination(G, p, xs)


def demushkin_descent(G: FiniteGroup, p: int, chars) -> GroupHom:
    """Solve the Dwyer problem for a tuple of everywhere-nonzero classes
    with consecutive cups zero, over a group whose cup pairing
    H^1 x H^1 -> H^2 is a nondegenerate form on a 1-dimensional H^2.

    Descends k = n-1, ..., 1 through the rho tower, twisting by a
    character chosen via the cup form whenever the step obstruction is
    nonzero; the returned map is a verified solution.

    No group the lab builds is known to reach the twisting branch. A search
    of groups up to order 24 (the CLI fixtures, dihedral and
    `build_semidirect_cyclic` groups, and their direct products) found dim
    H^1 = 1, at p = 2, on every group with dim H^2 = 1 and a nondegenerate
    cup form; there a_1 cup a_1 != 0, so the consecutive-cups hypothesis
    rules out n >= 2. This is a finding of that search, not a theorem."""
    report = cc.demushkin_check(G, p)
    if report["dim_h2"] != 1:
        raise HypothesisViolated(f"dim H^2 = {report['dim_h2']} != 1")
    if not report["nondegenerate"]:
        raise FormDegenerate("cup pairing on H^1 is degenerate")
    chars = tuple(chars)
    n = len(chars)
    if n < 2:
        raise BadParameter("need at least two classes")
    for a in chars:
        if a.is_zero():
            raise HypothesisViolated("a zero class must be handled by "
                                     "splicing, not descent")
    for i in range(n - 1):
        if not cc.is_coboundary(cc.cup(chars[i], chars[i + 1])):
            raise HypothesisViolated(
                f"a_{i + 1} cup a_{i + 2} is not zero in H^2")
    q = ms.MasseyQuery(G, p, chars)
    if n == 2:
        sol = em.solve(em.build_dwyer_problem(q))
        if sol is None:
            raise MasseyLabError("cup product zero but U_3 lift not found")
        return sol
    m = n + 1
    left = demushkin_descent(G, p, chars[:-1])     # -> U_n(p)
    right = demushkin_descent(G, p, chars[-2:])    # -> U_3(p)
    fq = fiber_quotient(n - 1, m, p)
    images = tuple(fq.index_of(left(g), right(g)) for g in G.elements())
    psi = GroupHom(G, fq.group, images).check()
    for k in range(n - 1, 1, -1):
        o = em.rho_step_obstruction(psi, k, m, p)
        if not o.is_zero():
            chi = _solve_chi(G, p, chars[k - 2], -o)
            tgt = fiber_quotient(k, m, p)
            psi = em.twist(psi, em.embed_char_in_rho_kernel(tgt, chi))
            o = em.rho_step_obstruction(psi, k, m, p)
            if not o.is_zero():
                raise MasseyLabError("twist failed to kill the obstruction")
        E = em.rho_step_problem(psi, k, m, p)
        psi = em.solve(E)
        if psi is None:
            raise MasseyLabError("zero obstruction but no lift found")
    # psi now lands in Q_{1,m} = U_m: M_{1,m} is trivial, so the lift of an
    # element is the element itself
    Um = unitri_group(m, p)
    fq1 = fiber_quotient(1, m, p)
    sol = GroupHom(G, Um.as_finite_group(),
                   tuple(fq1.lift(psi(g)) for g in G.elements())).check()
    forced = q.forced_hom
    phi = Um.phi_hom()
    if any(phi(sol(g)) != forced(g) for g in G.elements()):
        raise MasseyLabError("descent output is not a lift of the characters")
    return sol


# -- pattern sweeps for G = Z/2, p = 2 ------------------------------------------

def massey_strong_z2_sweep(n_values) -> list[dict]:
    """For G = Z/2, p = 2: consecutive-cups-zero tuples are exactly the
    no-adjacent-ones patterns; those lift by an involution (block lift and
    complete search agree), and adjacent-ones patterns have no real lift."""
    import itertools
    Z2 = build_cyclic(2)
    a = cc.h1(Z2, 2)[0]
    zero = cc.zero_cochain(Z2, 2, 1)
    out = []
    for n in n_values:
        rec = {"n": n, "patterns": 2 ** n, "holds": True, "failures": []}
        for bits in itertools.product((0, 1), repeat=n):
            pattern = SignPattern(bits)
            chars = tuple(a if b else zero for b in bits)
            q = ms.MasseyQuery(Z2, 2, chars)
            ccz = ms.consecutive_cups_zero(q)
            adjacent = pattern.has_adjacent_ones()
            ok = ccz == (not adjacent)
            solvable, witness = real_check_z2(pattern)
            ok = ok and (solvable == (not adjacent))
            if not adjacent:
                A = block_lift(pattern)
                ok = ok and A.mul(A).is_identity() and A.phi() == bits
                ok = ok and solvable
            if unitri_group(n + 1, 2).materializable():
                E = em.build_dwyer_problem(q)
                real, t = em.is_real(E)
                ok = ok and real == (not adjacent)
                ok = ok and (em.solve(E) is not None) == (not adjacent)
                if adjacent:
                    ok = ok and t == 1
            if not ok:
                rec["holds"] = False
                rec["failures"].append(bits)
        out.append(rec)
    return out
