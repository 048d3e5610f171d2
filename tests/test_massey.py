import itertools

import pytest

from masseylab import cochains as cc
from masseylab import embedding as em
from masseylab import groups as gr
from masseylab import massey as ms
from masseylab.errors import (
    MasseyLabError,
    NotADefiningSystem,
    ShapeMismatch,
    SizeLimit,
)
from masseylab.cli import FIXTURES
from masseylab.unitri import unitri_group

Z2 = gr.build_cyclic(2)
Z4 = gr.build_cyclic(4)
V4 = gr.build_vector_group(2, 2)


def chars_z2(bits):
    a = cc.h1(Z2, 2)[0]
    zero = cc.zero_cochain(Z2, 2, 1)
    return tuple(a if b else zero for b in bits)


def test_query_validates_degree():
    with pytest.raises(ShapeMismatch):
        ms.query(Z2, 2, (cc.zero_cochain(Z2, 2, 2),))


def test_system_positions():
    assert ms.system_positions(3) == [(1, 2), (2, 3), (3, 4),
                                      (1, 3), (2, 4)]


def test_n2_is_cup_singleton():
    a, b = cc.h1(V4, 2)
    q = ms.query(V4, 2, (a, b))
    s = ms.massey_product_set(q)
    assert s == {cc.class_of(cc.cup(a, b))}


def test_sign_convention_p3():
    # a_ij = -e_ij(psi) satisfies the defining equations; +e_ij does not
    Z3 = gr.build_cyclic(3)
    U = unitri_group(4, 3)
    G = U.as_finite_group()
    A = U.matrix_of(U.elementary_index(1, 2)).mul(
        U.matrix_of(U.elementary_index(2, 3)))
    psi = gr.GroupHom(Z3, G, (0, gr.vec_to_index(U.p, A.entries),
                              gr.vec_to_index(U.p, A.mul(A).entries))).check()
    ds_minus = ms.defining_system_from_hom(psi, 3, 3, U.entry_of)
    ok, _ = ms.is_defining_system(ds_minus)
    assert ok
    ds_plus = ms.DefiningSystem(Z3, 3, 3, {
        key: -c for key, c in ds_minus.entries.items()})
    ok_plus, witness = ms.is_defining_system(ds_plus)
    assert not ok_plus and witness is not None


def test_massey_value_rejects_broken_system():
    a, b = cc.h1(V4, 2)
    zero = cc.zero_cochain(V4, 2, 1)
    q = ms.query(V4, 2, (a, zero, b))
    ds = next(ms._iter_defining_systems(q))
    # shift the (1,3) slot by a non-cocycle, which changes delta(a_13)
    f = cc.cochain(V4, 2, 1, (1, 0, 0))
    assert not cc.is_cocycle(f)
    entries = dict(ds.entries)
    entries[(1, 3)] = ds.entry(1, 3) + f
    bad = ms.DefiningSystem(V4, 2, 3, entries)
    ok, witness = ms.is_defining_system(bad)
    assert not ok and witness is not None
    with pytest.raises(NotADefiningSystem):
        ms.massey_value(bad)


@pytest.mark.parametrize("bits,defined,vanishes", [
    ((1, 0, 1), True, True),
    ((1, 1, 0), False, False),
    ((0, 0, 0), True, True),
    ((1, 1, 1), False, False),
])
def test_z2_frozen_verdicts(bits, defined, vanishes):
    q = ms.MasseyQuery(Z2, 2, chars_z2(bits))
    for strategy in ("exhaustive", "hom-lift"):
        assert ms.massey_defined(q, strategy) == defined
        assert ms.massey_vanishes(q, strategy) == vanishes


def test_every_query_rejects_an_unknown_strategy():
    q = ms.MasseyQuery(Z2, 2, chars_z2((1, 0, 1)))
    for decide in (ms.massey_defined, ms.massey_vanishes,
                   ms.massey_product_set):
        with pytest.raises(MasseyLabError, match="unknown strategy 'bogus'"):
            decide(q, "bogus")


def test_forced_hom_is_built_once_per_query():
    q = ms.MasseyQuery(Z2, 2, chars_z2((1, 0, 1)))
    assert q.forced_hom is q.forced_hom
    assert q.forced_hom.images == (0, gr.vec_to_index(2, (1, 0, 1)))
    assert q == ms.MasseyQuery(Z2, 2, chars_z2((1, 0, 1)))


def test_z4_aaa_vanishes():
    a = cc.h1(Z4, 2)[0]
    q = ms.MasseyQuery(Z4, 2, (a, a, a))
    assert ms.massey_vanishes(q, "exhaustive")
    assert ms.massey_vanishes(q, "hom-lift")


def test_strategies_agree_v4_sets():
    for chars in itertools.islice(ms.h1_tuples(V4, 2, 3), 0, 64, 5):
        q = ms.MasseyQuery(V4, 2, chars)
        assert ms.massey_product_set(q, "exhaustive") == \
            ms.massey_product_set(q, "hom-lift")


def test_consecutive_cups_cross_check():
    a, b = cc.h1(V4, 2)
    zero = cc.zero_cochain(V4, 2, 1)
    # in H^*((Z/2)^2) = F_2[x, y] no product of nonzero classes vanishes
    assert not ms.consecutive_cups_zero(ms.MasseyQuery(V4, 2, (a, a, b)))
    assert not ms.consecutive_cups_zero(ms.MasseyQuery(V4, 2, (a, b, a)))
    assert ms.consecutive_cups_zero(ms.MasseyQuery(V4, 2, (a, zero, b)))


def test_exhaustive_size_limit():
    """The exhaustive strategy's group cap is the cochain complex's: it
    runs on Z9 and agrees with hom-lift there, and each of its three
    deciders refuses a group above order 32, or n above 4, by size."""
    G = gr.build_cyclic(9)
    a = cc.h1(G, 3)[0]
    assert ms.EXHAUSTIVE_GROUP_LIMIT == cc.MAX_COHOMOLOGY_ORDER
    q = ms.MasseyQuery(G, 3, (a, a, a))
    assert ms.massey_product_set(q, "exhaustive") == \
        ms.massey_product_set(q, "hom-lift")
    big = gr.build_cyclic(cc.MAX_COHOMOLOGY_ORDER + 1)
    zero = cc.zero_cochain(big, 3, 1)
    for decide in (ms.massey_product_set, ms.massey_defined,
                   ms.massey_vanishes):
        with pytest.raises(SizeLimit, match="takes n <= 4, got n = 5"):
            decide(ms.MasseyQuery(G, 3, (a,) * 5), "exhaustive")
        with pytest.raises(SizeLimit, match="order <= 32, got 33"):
            decide(ms.MasseyQuery(big, 3, (zero,) * 3), "exhaustive")


def test_h1_tuples_order_and_count():
    tuples = list(ms.h1_tuples(Z2, 2, 2))
    assert len(tuples) == 4
    assert all(a.values == (0,) for a in tuples[0])  # zero tuple first


def test_strong_vanishing_z2():
    reports = ms.strong_massey_vanishing(Z2, 2, range(3, 6))
    assert [r["verdict"] for r in reports] == ["holds"] * 3
    assert [r["tuples_checked"] for r in reports] == [5, 8, 13]


def test_strong_vanishing_budget():
    reports = ms.strong_massey_vanishing(Z2, 2, [4], budget=2)
    assert reports[0]["verdict"] == "budget-exceeded"


@pytest.mark.parametrize("name,p", [("D4", 2), ("Q8", 2), ("Z8", 2),
                                    ("U3_2", 2), ("Z3", 3)])
def test_routes_agree_on_every_triple(name, p):
    """The criterion 02/03 agreement at n = 3 on fixtures the acceptance
    sweep does not cover: exhaustive vs hom-lift vs Dwyer lift for
    vanishing, both strategies for definedness, and the U/P cross-check of
    the consecutive cups (which raises on disagreement)."""
    G = FIXTURES[name]()
    count = 0
    for chars in ms.h1_tuples(G, p, 3):
        count += 1
        q = ms.MasseyQuery(G, p, chars)
        assert ms.massey_vanishes(q, "exhaustive") == \
            ms.massey_vanishes(q, "hom-lift") == em.dwyer_solvable(q)
        assert ms.massey_defined(q, "exhaustive") == \
            ms.massey_defined(q, "hom-lift")
        ms.consecutive_cups_zero(q, cross_check=True)
    assert count == p ** (3 * len(cc.h1(G, p))) > 1
