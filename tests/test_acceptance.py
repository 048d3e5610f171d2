"""The acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline.
"""

import itertools
import random

from masseylab import cli
from masseylab import cochains as cc
from masseylab import embedding as em
from masseylab import groups as gr
from masseylab import massey as ms
from masseylab import verify as vf

Z2 = gr.build_cyclic(2)
Z3 = gr.build_cyclic(3)
Z4 = gr.build_cyclic(4)
Z5 = gr.build_cyclic(5)
V4 = gr.build_vector_group(2, 2)
S3 = gr.build_symmetric3()
Z3xZ3 = gr.build_vector_group(3, 2)

SWEEP_GROUPS = (Z2, Z4, V4)


def report(num, name, ok):
    print(f"\n[CRITERION {num:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _random_cochain(G, p, degree, rng):
    n = max(1, (G.order - 1) ** degree)
    return cc.cochain(G, p, degree, tuple(rng.randrange(p) for _ in range(n)))


def test_criterion_01_complex_axioms():
    rng = random.Random(2026)
    ok = True
    for G in (Z2, Z4, V4, S3):
        for p in (2, 3):
            for _ in range(100):
                f0 = _random_cochain(G, p, 0, rng)
                f1 = _random_cochain(G, p, 1, rng)
                g1 = _random_cochain(G, p, 1, rng)
                f2 = _random_cochain(G, p, 2, rng)
                ok &= cc.coboundary(cc.coboundary(f0)).is_zero()
                ok &= cc.coboundary(cc.coboundary(f1)).is_zero()
                lhs = cc.coboundary(cc.cup(f1, g1))
                rhs = cc.cup(cc.coboundary(f1), g1) - \
                    cc.cup(f1, cc.coboundary(g1))
                ok &= lhs.values == rhs.values
                lhs2 = cc.coboundary(cc.cup(f0, f2))
                rhs2 = cc.cup(cc.coboundary(f0), f2) + \
                    cc.cup(f0, cc.coboundary(f2))
                ok &= lhs2.values == rhs2.values
                if not ok:
                    break
    report(1, "complex axioms (delta^2 = 0, Leibniz; exact)", ok)


def test_criterion_02_dwyer_triple_agreement():
    ok = True
    for G in SWEEP_GROUPS:
        for n in (3, 4):
            for chars in ms.h1_tuples(G, 2, n):
                q = ms.MasseyQuery(G, 2, chars)
                v1 = ms.massey_vanishes(q, "exhaustive")
                v2 = ms.massey_vanishes(q, "hom-lift")
                v3 = em.dwyer_solvable(q)
                if not (v1 == v2 == v3):
                    ok = False
    report(2, "Dwyer correspondence (triple-wise, all tuples)", ok)


def test_criterion_03_quotient_lift_equivalences():
    ok = True
    for G in SWEEP_GROUPS:
        for n in (3, 4):
            for chars in ms.h1_tuples(G, 2, n):
                q = ms.MasseyQuery(G, 2, chars)
                if ms.massey_defined(q, "exhaustive") != \
                        ms.massey_defined(q, "hom-lift"):
                    ok = False
                if ms.consecutive_cups_zero(q) != \
                        (next(q.lifts("U/P"), None) is not None):
                    ok = False
    report(3, "defined <=> U/Z lift and cups-zero <=> U/P lift", ok)


def test_criterion_04_case_by_case():
    rec = vf.case_by_case_audit()
    ok = rec[(1, 1)]["count"] == 2 and rec[(1, 1)]["orders"] == [4, 4]
    report(4, "U_3(2) preimages of (1,1): exactly 2, both order 4", ok)


def test_criterion_05_order2_lift_sweep():
    recs = vf.massey_strong_z2_sweep(range(3, 9))
    ok = all(r["holds"] for r in recs)
    # adjacent-ones => not real, with the involution witness, where the
    # problem group is materializable
    a = cc.h1(Z2, 2)[0]
    zero = cc.zero_cochain(Z2, 2, 1)
    for bits in itertools.product((0, 1), repeat=3):
        q = ms.MasseyQuery(Z2, 2, tuple(a if b else zero for b in bits))
        real, witness = em.is_real(em.build_dwyer_problem(q))
        adjacent = vf.SignPattern(bits).has_adjacent_ones()
        ok &= real == (not adjacent)
        if adjacent:
            ok &= witness == 1
    report(5, "order-2 lifts for G = Z/2, n = 3..8 (both directions)", ok)


def test_criterion_06_obstruction_theory():
    ok = True
    for G, m, p in ((Z2, 4, 2), (V4, 4, 2), (Z2, 5, 2), (Z3, 4, 3)):
        audit = vf.obstruction_tower_audit(G, m, p)
        for step in audit:
            for r in step["records"]:
                ok &= r["agree"] and r["lift_independent"]
    report(6, "central obstructions: solve <=> 0, lift-independent", ok)


def test_criterion_07_twisting():
    recs = em.verify_twisting(V4, 2, 3, 2)
    ok = len(recs) > 0 and all(r["holds"] for r in recs)
    recs3 = em.verify_twisting(Z3xZ3, 3, 3, 2, sample=100, seed=2026)
    ok &= len(recs3) >= 100 and all(r["holds"] for r in recs3)
    report(7, "twisting identity (exhaustive p=2; 100 seeded at p=3)", ok)


def test_criterion_08_structure_lemmas():
    ok = True
    for m, p in ((4, 2), (4, 3)):
        for r in vf.structure_audit(m, p):
            ok &= r["holds"]
    report(8, "M_{k,m} structure / fiber product / iota (m=4, p=2,3)", ok)


def test_criterion_09_easy_vanishing():
    ok = True
    for G, p in ((Z3, 2), (Z5, 2), (S3, 5)):
        rec = vf.easy_vanishing_drill(G, p, 3)
        ok &= rec["verified"] and rec["obstructions_zero"]
    report(9, "filtration drill with H^2 = 0 (all obstructions 0)", ok)


def test_criterion_10_demushkin_and_filtration_length():
    ok = cc.demushkin_check(Z2, 2)["verdict"] is True
    ok &= cc.demushkin_check(Z3, 3)["verdict"] is False
    ok &= cc.demushkin_check(Z5, 5)["verdict"] is False
    ok &= cc.demushkin_check(gr.build_cyclic(1), 2)["verdict"] is False
    recs = vf.filtration_length_report([2, 3, 4], 2)
    ok &= [r["length"] for r in recs] == [1, 3, 6]
    ok &= all(r["matches_entry_count"] for r in recs)
    ok &= all("binom" in r["note"] for r in recs)  # discrepancy is recorded
    report(10, "Demushkin checker + filtration length n(n-1)/2", ok)


def test_criterion_11_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MASSEYLAB_CACHE_DIR", str(tmp_path / "cache"))
    outs = []
    for argv in (
        ["verify", "dwyer", "--group", "Z4", "--p", "2", "--n", "3",
         "--format", "records", "--seed", "3", "--no-cache"],
        ["verify", "twisting", "--group", "V4", "--p", "2", "--n", "3",
         "--k", "2", "--sample", "6", "--seed", "3", "--format", "records",
         "--no-cache"],
    ):
        runs = []
        for _ in range(2):
            code = cli.main(argv)
            runs.append((code, capsys.readouterr().out))
        outs.append(runs[0] == runs[1])
    report(11, "byte-identical structured reports across runs", all(outs))
