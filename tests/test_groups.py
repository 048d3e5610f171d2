import functools
import itertools
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as o

from masseylab import cli
from masseylab import embedding as em
from masseylab import groups as gr
from masseylab import massey as ms
from masseylab.cli import FIXTURES
from masseylab.errors import (
    BadParameter,
    GeneratorsDontGenerate,
    NoInverse,
    NonAssociative,
    ParseError,
    SizeLimit,
)
from masseylab.groups import CosetQuotient
from masseylab.unitri import (
    central_series_ker_phi,
    fiber_quotient,
    unitri_group,
    zeta_kappa_targets,
)


def test_cyclic_basics():
    Z6 = gr.build_cyclic(6)
    assert Z6.order == 6
    assert Z6.is_abelian()
    assert Z6.element_order(1) == 6
    assert Z6.involutions() == [3]
    gr.validate_group(Z6.mul, Z6.generators)


def test_vector_group_encoding():
    V = gr.build_vector_group(2, 3)
    assert V.order == 8
    assert gr.vec_to_index(2, [1, 0, 1]) == 5
    assert tuple(gr.index_to_vec(2, 3, 5)) == (1, 0, 1)
    assert all(V.element_order(x) == 2 for x in range(1, 8))


def test_named_builders():
    assert gr.build_dihedral(4).order == 8
    assert not gr.build_dihedral(4).is_abelian()
    Q8 = gr.build_quaternion8()
    assert Q8.order == 8
    assert len(Q8.involutions()) == 1  # only -1
    S3 = gr.build_symmetric3()
    assert S3.order == 6
    assert len(S3.involutions()) == 3
    gr.validate_group(Q8.mul, Q8.generators)
    gr.validate_group(S3.mul, S3.generators)


def test_semidirect_builder():
    G = gr.build_semidirect_cyclic(3, 2, 4)
    assert G.order == 81
    assert not G.is_abelian()
    with pytest.raises(Exception):
        gr.build_semidirect_cyclic(3, 1, 3)  # p divisible by l


def test_direct_product_roundtrip():
    Z2, Z3 = gr.build_cyclic(2), gr.build_cyclic(3)
    P = gr.build_direct_product(Z2, Z3)
    assert P.order == 6
    assert P.is_abelian()
    # isomorphic to Z6: has an element of order 6
    assert any(P.element_order(x) == 6 for x in P.elements())


def test_build_from_table_relocates_identity():
    # Z/2 table with the identity at index 1
    table = [[1, 0], [0, 1]]
    G = gr.build_from_table(table, None)
    assert G.mul[0][0] == 0 and G.mul[1][1] == 0


def test_validate_catches_broken_table():
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 2]]
    with pytest.raises(NonAssociative):
        gr.build_from_table(table, None)


def test_a_rejected_table_leaves_no_edge_list_cached():
    """Both tables generate and fail Light's test. Their edge walks were
    once left in `_edges`'s cache for the life of the process."""
    before = gr._edges.cache_info().currsize
    for table, gens in (([[0, 1, 2], [1, 2, 0], [2, 0, 2]], None),
                        ([[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 3, 0],
                          [3, 3, 0, 0]], [1, 2])):
        with pytest.raises(NonAssociative):
            gr.build_from_table(table, gens)
    assert gr._edges.cache_info().currsize == before


def test_size_limit():
    """CONTAINER_LIMIT caps every group closed from an action, so cyclic
    and dihedral groups pass the group-file limit of 64."""
    with pytest.raises(SizeLimit):
        gr.build_cyclic(gr.CONTAINER_LIMIT + 1)
    assert gr.build_cyclic(1024).element_order(1) == 1024
    D = gr.build_dihedral(512)
    assert D.order == 1024 and D.element_order(1) == 512


def test_hom_validity_and_kernel():
    Z4, Z2 = gr.build_cyclic(4), gr.build_cyclic(2)
    f = gr.GroupHom(Z4, Z2, (0, 1, 0, 1)).check()
    assert f.kernel() == [0, 2]
    assert f.is_surjective()
    bad = gr.GroupHom(Z4, Z2, (0, 1, 1, 0))
    assert not bad.is_valid()


def test_enumerate_homs_counts():
    V4 = gr.build_vector_group(2, 2)
    assert len(list(gr.enumerate_homs(V4, V4))) == 16
    assert len(list(gr.enumerate_homs(gr.build_cyclic(4),
                                      gr.build_cyclic(2)))) == 2
    assert len(list(gr.enumerate_homs(gr.build_symmetric3(),
                                      gr.build_cyclic(2)))) == 2
    assert len(list(gr.enumerate_homs(gr.build_cyclic(2),
                                      gr.build_symmetric3()))) == 4
    assert len(list(gr.enumerate_homs(gr.build_cyclic(6),
                                      gr.build_cyclic(3)))) == 3


def test_enumerate_homs_fiber_and_fixed():
    Z2 = gr.build_cyclic(2)
    V4 = gr.build_vector_group(2, 2)
    proj = gr.GroupHom(V4, Z2, tuple(gr.index_to_vec(2, 2, x)[0]
                                     for x in range(4)))
    forced = gr.GroupHom(Z2, Z2, (0, 1))
    lifts = list(gr.enumerate_homs(Z2, V4, fiber=(proj, forced)))
    assert len(lifts) == 2  # g -> (1,0) or (1,1)
    assert gr.fibers(proj) == ((0, 1), (2, 3))
    assert gr.fibers(proj) is gr.fibers(proj)
    assert [f.images for f in lifts] == \
        [gr.extend_hom(Z2, V4, (h,)).images for h in (2, 3)]
    assert gr.extend_hom(gr.build_cyclic(4), Z2, (1,)).images == (0, 1, 0, 1)
    assert gr.extend_hom(Z2, gr.build_cyclic(4), (1,)) is None


def test_group_file_roundtrip():
    S3 = gr.build_symmetric3()
    text = gr.format_group_file(S3)
    G = gr.parse_group_file(text)
    assert G.mul == S3.mul


def test_group_file_parse_errors():
    with pytest.raises(ParseError):
        gr.parse_group_file("nonsense")
    with pytest.raises(ParseError):
        gr.parse_group_file("order 2\ngenerators 1\n0 1")


def test_an_element_without_inverse_raises_no_inverse():
    # the numbers {1, 0} under multiplication, 1 at index 0 and 0 at index 1:
    # associative, with an identity, and 0 has no inverse
    table = [[0, 1], [1, 1]]
    with pytest.raises(NoInverse):
        gr.build_from_table(table)
    with pytest.raises(NoInverse):
        gr.validate_group(((0, 1), (1, 1)), (1,))


def test_equal_tables_built_by_two_routes_hash_equal():
    U = unitri_group(3, 2).as_finite_group()
    parsed = gr.parse_group_file(gr.format_group_file(U), label=U.label)
    rebuilt = gr.build_from_table([list(row) for row in V4.mul],
                                  V4.generators, label=V4.label)
    for G, H in ((U, parsed), (V4, rebuilt)):
        assert G == H and G.mul is not H.mul
        assert hash(G) == hash(H) == hash((G.order, G.inv))
    assert hash(gr.FiniteGroup(U.order, U.mul, U.inv, U.generators,
                               "other", U.action)) == hash(U)
    assert "_hash" not in repr(U)


def test_homs_built_twice_are_equal_values():
    f, g = (gr.GroupHom(V4, V4, tuple(V4.elements())) for _ in range(2))
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != gr.GroupHom(V4, V4, (0, 2, 1, 3))
    assert f != (V4, V4, f.images)  # a value, not a tuple


def test_generators_must_generate():
    table = gr.build_vector_group(2, 2).mul
    with pytest.raises(GeneratorsDontGenerate):
        gr.build_from_table([list(r) for r in table], [1])


# -- Light's associativity test against the all-triples reference --------------

def small_products():
    """Every direct product of two CLI fixtures of order at most 64."""
    names = sorted(FIXTURES)
    for i, a in enumerate(names):
        for b in names[i:]:
            G, H = FIXTURES[a](), FIXTURES[b]()
            if G.order * H.order <= 64:
                yield gr.build_direct_product(G, H)


def test_light_and_the_all_triples_loop_agree_on_the_fixtures():
    groups = [make() for make in FIXTURES.values()] + list(small_products())
    assert max(G.order for G in groups) == 81
    for G in groups:
        gr.validate_group(G.mul, G.generators)
        assert o.associativity_failure(o.array_of(G.mul)) is None


def test_light_checks_every_listed_generator():
    # (x*1)*y = x*(1*y) for every x and y, so a check of element 1 alone
    # passes; element 2 fails at (1*2)*3 = 2*3 = 0 != 1*(2*3) = 1*0 = 1
    table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 3, 0], [3, 3, 0, 0]]
    assert o.associativity_failure(table) is not None
    with pytest.raises(NonAssociative):
        gr.build_from_table(table, [1, 2])
    with pytest.raises(NonAssociative):
        gr.build_from_table(table, [2, 1])


def test_a_table_that_fails_two_checks_meets_the_first():
    """The checks run in order: inverses, identity, generation, Light's
    test.  Row 2 of the first table has no 0 and generator 1 spans {0, 1};
    generator 1 of the second spans {0, 1} and generator 2 fails Light's
    test."""
    with pytest.raises(NoInverse):
        gr.build_from_table([[0, 1, 2], [1, 1, 0], [2, 2, 2]], [1])
    with pytest.raises(GeneratorsDontGenerate):
        gr.build_from_table([[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 3, 0],
                             [3, 3, 0, 0]], [1])


@st.composite
def one_cell_corruptions(draw):
    """A fixture of order 3..16 with one cell (x, y), x, y != 0, set to
    another index, and the fixture's generators; kept only when the
    identity, the inverses and generation still hold."""
    G = FIXTURES[draw(st.sampled_from(
        [n for n in sorted(FIXTURES) if 3 <= FIXTURES[n]().order <= 16]))]()
    table = [list(row) for row in G.mul]
    x, y = (draw(st.integers(1, G.order - 1)) for _ in range(2))
    table[x][y] = draw(st.sampled_from(
        [v for v in G.elements() if v != table[x][y]]))
    assume(all(0 in row for row in table))
    assume(len(o.span(table, G.generators)) == G.order)
    return table, G.generators


@settings(max_examples=200, deadline=None)
@given(one_cell_corruptions())
def test_light_refuses_a_corrupted_cell_exactly_when_a_triple_fails(case):
    table, generators = case
    if o.associativity_failure(table) is None:
        gr.build_from_table(table, generators)
    else:
        with pytest.raises(NonAssociative):
            gr.build_from_table(table, generators)


def full_table_symmetric3():
    """The replaced S3 builder: every product of permutations written out
    and validated as a table given whole."""
    perms = sorted(itertools.permutations(range(3)))
    index = {q: i for i, q in enumerate(perms)}
    mul = [[index[tuple(a[b[i]] for i in range(3))] for b in perms]
           for a in perms]
    return gr.build_from_table(mul, generators=None, label="S3")


def test_symmetric3_from_its_action_is_the_full_table_group():
    S3, old = gr.build_symmetric3(), full_table_symmetric3()
    assert S3 == old and S3.inv == old.inv
    assert S3.generators == old.generators == (1, 2)
    assert S3.fingerprint() == old.fingerprint()


def test_a_group_file_is_validated_once(tmp_path, monkeypatch, capsys):
    calls = []
    validate = gr.validate_group
    monkeypatch.setattr(gr, "validate_group",
                        lambda *args: calls.append(args) or validate(*args))
    text = gr.format_group_file(Q8)
    G = gr.parse_group_file(text)
    assert [(list(map(list, rows)), tuple(gens)) for rows, gens in calls] \
        == [(list(map(list, G.mul)), G.generators)]
    path = tmp_path / "q8.tbl"
    path.write_text(text)
    calls.clear()
    assert cli.main(["group", "check", str(path)]) == 0
    assert len(calls) == 1
    capsys.readouterr()


# -- the edge list and the hom law against their all-pairs references ----------

def oracle_homs(G, H, fiber=None):
    """The backtracking search that closes the partial map over the
    subgroup generated so far after every generator image: the reference
    the one-pass `enumerate_homs` must agree with, image for image and in
    the same order."""
    def close(known, assigned):
        known = dict(known)
        queue = list(known)
        while queue:
            x = queue.pop()
            for g, h in assigned:
                y, iy = G.mul[x][g], H.mul[known[x]][h]
                if known.get(y) is None:
                    known[y] = iy
                    queue.append(y)
                elif known[y] != iy:
                    return None
        return known

    gens = G.generators
    if not gens:
        yield (0,) * G.order
        return
    candidates = []
    for pos, g in enumerate(gens):
        cand = list(H.elements())
        if fiber is not None:
            alpha, forced = fiber
            cand = [h for h in cand if alpha(h) == forced(g)]
        og = G.element_order(g)
        candidates.append([h for h in cand if og % H.element_order(h) == 0])

    def rec(pos, known, assigned):
        if pos == len(gens):
            yield tuple(known[x] for x in G.elements())
            return
        for h in candidates[pos]:
            ext = close(known, assigned + [(gens[pos], h)])
            if ext is not None:
                yield from rec(pos + 1, ext, assigned + [(gens[pos], h)])

    yield from rec(0, {0: 0}, [])


def all_pairs_law(f):
    G, H, im = f.domain, f.codomain, f.images
    return im[0] == 0 and all(im[G.mul[x][y]] == H.mul[im[x]][im[y]]
                              for x in G.elements() for y in G.elements())


def images(homs):
    return [f.images for f in homs]


V4 = gr.build_vector_group(2, 2)
D4 = gr.build_dihedral(4)
Q8 = gr.build_quaternion8()
DOMAINS = {
    "Z1": gr.build_cyclic(1), "Z2": gr.build_cyclic(2),
    "Z3": gr.build_cyclic(3), "V4": V4, "S3": gr.build_symmetric3(),
    "Q8": Q8, "D4": D4, "Z2^3": gr.build_vector_group(2, 3),
    "D4xZ2": gr.build_direct_product(D4, gr.build_cyclic(2)),
}
# Built on first use, not at import: a fault in a table builder then fails
# the tests that use the table instead of erroring the module's collection.
CODOMAINS = {
    "V4": lambda: V4, "D4": lambda: D4, "Q8": lambda: Q8,
    "U4(2)": lambda: unitri_group(4, 2).as_finite_group(),
    "Q24(2)": lambda: fiber_quotient(2, 4, 2).group,
}


@functools.cache
def codomain(name):
    return CODOMAINS[name]()


@pytest.mark.parametrize("hname", sorted(CODOMAINS))
@pytest.mark.parametrize("gname", sorted(DOMAINS))
def test_enumerate_homs_matches_the_backtracking_oracle(gname, hname):
    G, H = DOMAINS[gname], codomain(hname)
    got = images(gr.enumerate_homs(G, H))
    assert got == list(oracle_homs(G, H))
    assert len(set(got)) == len(got)


def dwyer_queries():
    """(query, Dwyer target) for every n-tuple of H^1 elements of a few
    fixtures (n = 2, 3) and each target U, U/Z and U/P."""
    for G, p, n in ((V4, 2, 2), (Q8, 2, 2), (D4, 2, 2),
                    (gr.build_cyclic(3), 3, 2), (V4, 2, 3)):
        for chars in ms.h1_tuples(G, p, n):
            q = ms.MasseyQuery(G, p, chars)
            for target in ("U", "U/Z", "U/P"):
                yield q, target


def dwyer_problems():
    """The fiber-constrained lifting problems of `dwyer_queries`."""
    for q, target in dwyer_queries():
        yield em.EmbeddingProblem(q.dwyer_map(target), q.forced_hom)


def test_fiber_constrained_search_matches_the_oracle():
    solved = 0
    for E in dwyer_problems():
        fiber = (E.alpha, E.phi)
        got = images(gr.enumerate_homs(E.G, E.B, fiber=fiber))
        assert got == list(oracle_homs(E.G, E.B, fiber=fiber))
        assert all(em.is_solution(E, gr.GroupHom(E.G, E.B, im))
                   for im in got)
        solved += bool(got)
    assert solved  # some problem has solutions, and some has none
    assert solved < len(list(dwyer_problems()))


def test_query_lifts_are_the_dwyer_problems_solutions():
    """`MasseyQuery.lifts(target)` walks the same Hom(G, B) search as the
    embedding problem of `dwyer_map(target)`."""
    for q, target in dwyer_queries():
        E = em.EmbeddingProblem(q.dwyer_map(target), q.forced_hom)
        assert images(q.lifts(target)) == \
            images(gr.enumerate_homs(E.G, E.B, fiber=(E.alpha, E.phi)))


def test_query_lifts_refuse_an_unknown_target_and_a_large_u():
    q = ms.MasseyQuery(V4, 2, next(ms.h1_tuples(V4, 2, 2)))
    with pytest.raises(BadParameter, match="unknown target 'U/M'"):
        q.lifts("U/M")
    big = ms.MasseyQuery(V4, 2, next(ms.h1_tuples(V4, 2, 6)))
    # the one refusal is the table builder's
    for target in ("U", "U/Z", "U/P"):
        with pytest.raises(SizeLimit, match=r"^\|U7\(2\)\| = 2097152 > 4096$"):
            big.lifts(target)


@pytest.mark.parametrize("gname, hname", [("V4", "U4(2)"), ("D4", "D4"),
                                          ("Z2^3", "Q24(2)"), ("S3", "D4")])
def test_fixed_images_match_the_oracle(gname, hname):
    """extend_hom on every full tuple of fixed generator images: the
    oracle's homomorphism with those images, or None where it has none."""
    G, H = DOMAINS[gname], codomain(hname)
    oracle = {tuple(im[g] for g in G.generators): im
              for im in oracle_homs(G, H)}
    for vs in itertools.product(H.elements(), repeat=len(G.generators)):
        f = gr.extend_hom(G, H, vs)
        assert (None if f is None else f.images) == oracle.get(vs)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)), st.sampled_from(sorted(CODOMAINS)),
       st.data())
def test_is_valid_agrees_with_the_all_pairs_law(gname, hname, data):
    """Drawn maps: a homomorphism, one with a single image changed, or
    random images (the identity image included or not)."""
    G, H = DOMAINS[gname], codomain(hname)
    homs = images(itertools.islice(gr.enumerate_homs(G, H), 50))
    kind = data.draw(st.sampled_from(["hom", "perturbed", "random"]))
    elem = st.integers(0, H.order - 1)
    if kind == "random":
        im = tuple(data.draw(st.lists(elem, min_size=G.order,
                                      max_size=G.order)))
    else:
        im = list(data.draw(st.sampled_from(homs)))
        if kind == "perturbed":
            im[data.draw(st.integers(0, G.order - 1))] = data.draw(elem)
        im = tuple(im)
    f = gr.GroupHom(G, H, im)
    assert f.is_valid() == all_pairs_law(f)
    if kind == "hom":
        assert f.is_valid()


@pytest.mark.parametrize("gname", sorted(DOMAINS))
def test_edge_list_is_breadth_first_over_the_listed_generators(gname):
    G = DOMAINS[gname]
    edges = gr._edges(G)
    d = len(G.generators)
    assert [(x, s) for x, s, _ in edges] == \
        [(x, s) for x in dict.fromkeys(x for x, _, _ in edges)
         for s in range(d)]
    assert all(y == G.mul[x][G.generators[s]] for x, s, y in edges)
    reached = [0]
    for x, _, y in edges:
        assert x in reached  # each x is reached before its own edges
        if y not in reached:
            reached.append(y)
    assert sorted(reached) == list(G.elements())
    assert len(edges) == G.order * d


def test_edge_list_is_walked_once_per_group():
    assert gr._edges(Q8) is gr._edges(Q8)
    assert isinstance(gr._edges(Q8), tuple)


def with_generators(G, generators):
    """G's table with another generator list."""
    return gr.FiniteGroup(G.order, G.mul, G.inv, generators, G.label,
                          tuple(array("H", (row[g] for row in G.mul))
                                for g in generators))


def test_edge_list_refuses_generators_that_do_not_span():
    short = with_generators(V4, (1,))
    for _ in range(2):  # a refusal is never cached
        with pytest.raises(GeneratorsDontGenerate):
            gr._edges(short)
    with pytest.raises(GeneratorsDontGenerate):
        gr.GroupHom(short, V4, tuple(V4.elements())).is_valid()
    with pytest.raises(GeneratorsDontGenerate):
        next(gr.enumerate_homs(short, V4))
    with pytest.raises(GeneratorsDontGenerate):
        gr.validate_group(Q8.mul, (2,))
    with pytest.raises(GeneratorsDontGenerate):
        next(gr.enumerate_homs(with_generators(V4, ()), V4))


def test_find_generators_spans_with_a_greedy_set():
    for G in DOMAINS.values():
        gens = gr.find_generators(G.mul)
        assert len(gr._edges(with_generators(G, gens))) == \
            G.order * len(gens)
    assert gr.find_generators(V4.mul) == (1, 2)
    assert gr.find_generators(gr.build_cyclic(1).mul) == ()


# -- the table closure against the tables the constructors build ---------------

GATHER_CASES = (
    [("fixture", name) for name in sorted(FIXTURES)]
    + [("U", c) for c in [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (3, 5)]]
    + [("Q", c) for c in [(1, 3, 2), (2, 4, 2), (1, 4, 3), (2, 4, 3),
                          (2, 5, 2), (3, 5, 2)]]
    + [("(Z/2)^12", None)])


def case_group(kind, arg):
    return FIXTURES[arg]() if kind == "fixture" else \
        unitri_group(*arg).as_finite_group() if kind == "U" else \
        fiber_quotient(*arg).group if kind == "Q" else \
        gr.build_vector_group(2, 12)


@pytest.mark.parametrize("kind,arg", GATHER_CASES,
                         ids=[f"{k} {a}" if a else k for k, a in GATHER_CASES])
def test_row_gathers_match_the_column_gather_table(kind, arg):
    """A case's generators listed in reverse, so that the tree and the
    gather of each row differ from its constructor's; for (Z/2)^12 that
    is x -> x + e_i, i = 1..12.  Read in index order, each row is a 2-byte
    array equal to the reference's, and the inverses are its inverses."""
    G = case_group(kind, arg)
    table, inv = gr.table_from_action(G.action[::-1], G.order)
    want = o.closure(G.action[::-1], G.order)
    assert inv == o.inverses(want)
    for x, row in enumerate(table):
        assert type(row) is array and row.typecode == "H"
        assert np.array_equal(row, want[x])


CLOSURE_CASES = GATHER_CASES + [("coset", c) for c in [(3, 2), (4, 2),
                                                       (3, 3)]]


@pytest.mark.parametrize(
    "kind,arg", CLOSURE_CASES,
    ids=[f"{k} {a}" if a else k for k, a in CLOSURE_CASES])
def test_closure_matches_the_tuple_closure_and_the_inverse_scan(kind, arg):
    """The group closed from a case's action is the one its own
    constructor built, hash included, with the same generators and the
    reference's inverses; a coset case is U_{n+1}(p) modulo each step of
    its central series, and, at n = 3, p = 2, U/Z and U/P."""
    if kind == "coset":
        n, p = arg
        U = unitri_group(n + 1, p)
        groups = [CosetQuotient(U.as_finite_group(), U.vanishing_on(zero)).group
                  for zero in central_series_ker_phi(n)[0]]
        if arg == (3, 2):
            groups += [quot.group for quot, _ in zeta_kappa_targets(n, p)]
    else:
        groups = [case_group(kind, arg)]
    for G in groups:
        H = gr.group_from_action(G.action, G.order, G.generators, G.label)
        assert H == G and hash(H) == hash(G)
        assert H.inv == G.inv == o.inverses(o.closure(G.action, G.order))
        assert H.generators == G.generators


@pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (3, 3)])
def test_coset_quotient_projects_and_induces_maps(n, p):
    """On each quotient: project() is a surjective hom with kernel
    `normal`; induced(f) after project() is f, for the superdiagonal map
    and for the next step's projection; and a map that does not vanish on
    `normal`, such as the identity of U or the previous step's projection,
    induces nothing."""
    U = unitri_group(n + 1, p)
    G, phi = U.as_finite_group(), U.phi_hom()
    quots = [CosetQuotient(G, U.vanishing_on(zero))
             for zero in central_series_ker_phi(n)[0]]
    steps = len(quots)
    if (n, p) == (3, 2):
        quots += [quot for quot, _ in zeta_kappa_targets(n, p)]
    identity = gr.GroupHom(G, G, tuple(G.elements()))
    for t, quot in enumerate(quots):
        proj = quot.project()
        assert proj.is_valid() and proj.is_surjective()
        assert proj.kernel() == list(quot.normal)
        nxt = [quots[t + 1].project()] if t + 1 < steps else []
        for f in [phi] + nxt:
            bar = quot.induced(f)
            assert bar.domain is quot.group and bar.codomain is f.codomain
            assert bar.is_valid()
            assert tuple(bar(proj(x)) for x in G.elements()) == f.images
        if quot.normal == (0,):  # N_0 = {1}, on which every map vanishes
            assert t == 0
            continue
        prev = [quots[t - 1].project()] if t < steps else []
        for f in [identity] + prev:
            with pytest.raises(BadParameter, match="does not vanish"):
                quot.induced(f)


def test_closure_refuses_a_non_spanning_or_oversized_action():
    with pytest.raises(GeneratorsDontGenerate):
        gr.table_from_action([[row[1] for row in V4.mul]], 4)
    with pytest.raises(GeneratorsDontGenerate):
        gr.table_from_action([], 8)
    table, inv = gr.table_from_action([], 1)
    assert (list(table), inv) == ([array("H", [0])], (0,))
    n = gr.CONTAINER_LIMIT + 1
    with pytest.raises(SizeLimit):
        gr.table_from_action([[*range(1, n), 0]], n)


def test_closure_refuses_a_column_of_the_wrong_length():
    for columns in ([[1, 0], [0]], [[1]], [[1, 0, 0]]):
        with pytest.raises(BadParameter, match="does not have 2 entries"):
            gr.table_from_action(columns, 2)
