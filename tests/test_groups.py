import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from masseylab import embedding as em
from masseylab import groups as gr
from masseylab import massey as ms
from masseylab.errors import (
    GeneratorsDontGenerate,
    InconsistentConstraint,
    NonAssociative,
    ParseError,
    SizeLimit,
)
from masseylab.unitri import fiber_quotient, unitri_group


def test_cyclic_basics():
    Z6 = gr.build_cyclic(6)
    assert Z6.order == 6
    assert Z6.is_abelian()
    assert Z6.element_order(1) == 6
    assert Z6.involutions() == [3]
    gr.validate_group(Z6)


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
    gr.validate_group(Q8)
    gr.validate_group(S3)


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


def test_size_limit():
    with pytest.raises(SizeLimit):
        gr.build_cyclic(65)


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
    with pytest.raises(InconsistentConstraint):
        list(gr.enumerate_homs(Z2, V4, fixed={0: 1}, fiber=(proj, forced)))


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


def test_generators_must_generate():
    table = gr.build_vector_group(2, 2).mul
    with pytest.raises(GeneratorsDontGenerate):
        gr.build_from_table([list(r) for r in table], [1])


# -- the edge list and the hom law against their all-pairs references ----------

def oracle_homs(G, H, fixed=None, fiber=None):
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
        if fixed is not None and pos in fixed:
            if fixed[pos] not in cand:
                raise InconsistentConstraint(f"generator #{pos}")
            cand = [fixed[pos]]
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
CODOMAINS = {
    "V4": V4, "D4": D4, "Q8": Q8,
    "U4(2)": unitri_group(4, 2).as_finite_group(),
    "Q24(2)": fiber_quotient(2, 4, 2).group,
}


@pytest.mark.parametrize("hname", sorted(CODOMAINS))
@pytest.mark.parametrize("gname", sorted(DOMAINS))
def test_enumerate_homs_matches_the_backtracking_oracle(gname, hname):
    G, H = DOMAINS[gname], CODOMAINS[hname]
    got = images(gr.enumerate_homs(G, H))
    assert got == list(oracle_homs(G, H))
    assert len(set(got)) == len(got)


def dwyer_problems():
    """Fiber-constrained lifting problems into U, U/Z and U/P for every
    n-tuple of H^1 elements of a few fixtures (n = 2, 3)."""
    for G, p, n in ((V4, 2, 2), (Q8, 2, 2), (D4, 2, 2),
                    (gr.build_cyclic(3), 3, 2), (V4, 2, 3)):
        for chars in ms.h1_tuples(G, p, n):
            q = ms.MasseyQuery(G, p, chars)
            for target in ("U", "U/Z", "U/P"):
                yield em.build_dwyer_problem(q, target)


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


@pytest.mark.parametrize("gname, hname", [("V4", "U4(2)"), ("D4", "D4"),
                                          ("Z2^3", "Q24(2)"), ("S3", "D4")])
def test_fixed_images_match_the_oracle(gname, hname):
    G, H = DOMAINS[gname], CODOMAINS[hname]
    d = len(G.generators)
    for pos in range(d):
        for v in H.elements():
            fixed = {pos: v}
            assert images(gr.enumerate_homs(G, H, fixed=fixed)) == \
                list(oracle_homs(G, H, fixed=fixed))
    for vs in itertools.islice(itertools.product(H.elements(), repeat=d),
                               0, None, 7):
        fixed = dict(enumerate(vs))
        assert images(gr.enumerate_homs(G, H, fixed=fixed)) == \
            list(oracle_homs(G, H, fixed=fixed))


def test_fixed_outside_the_fiber_is_inconsistent_in_both():
    E = next(dwyer_problems())
    fiber = (E.alpha, E.phi)
    g0 = E.G.generators[0]
    bad = next(b for b in E.B.elements() if E.alpha(b) != E.phi(g0))
    for search in (gr.enumerate_homs, oracle_homs):
        with pytest.raises(InconsistentConstraint):
            list(search(E.G, E.B, fixed={0: bad}, fiber=fiber))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)), st.sampled_from(sorted(CODOMAINS)),
       st.data())
def test_is_valid_agrees_with_the_all_pairs_law(gname, hname, data):
    """Drawn maps: a homomorphism, one with a single image changed, or
    random images (the identity image included or not)."""
    G, H = DOMAINS[gname], CODOMAINS[hname]
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


def test_edge_list_refuses_generators_that_do_not_span():
    short = dataclasses.replace(V4, generators=(1,))
    with pytest.raises(GeneratorsDontGenerate):
        gr._edges(short)
    with pytest.raises(GeneratorsDontGenerate):
        gr.GroupHom(short, V4, tuple(V4.elements())).is_valid()
    with pytest.raises(GeneratorsDontGenerate):
        next(gr.enumerate_homs(short, V4))
    with pytest.raises(GeneratorsDontGenerate):
        gr.validate_group(dataclasses.replace(Q8, generators=(2,)))
    with pytest.raises(GeneratorsDontGenerate):
        next(gr.enumerate_homs(dataclasses.replace(V4, generators=()), V4))


def test_find_generators_spans_with_a_greedy_set():
    for G in DOMAINS.values():
        gens = gr.find_generators(G.mul)
        assert len(gr._edges(dataclasses.replace(G, generators=gens))) == \
            G.order * len(gens)
    assert gr.find_generators(V4.mul) == (1, 2)
    assert gr.find_generators(gr.build_cyclic(1).mul) == ()
