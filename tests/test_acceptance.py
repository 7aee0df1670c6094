"""Acceptance gate: one test per criterion, exact values, hard time budgets.

Run with `pytest -s tests/test_acceptance.py` to see one pass line per
criterion.  Every equality is exact; the only tolerances are wall-clock
budgets.
"""

import random
import time

import pytest

from stripemerge.bounds import (
    MergeParams,
    redundant_cover_sets,
    mds_merge_lower,
    read_lower,
    total_lower,
    unchanged_upper,
)
from stripemerge.codes import (
    LinearCode,
    is_mds,
    is_optimal_lrc,
)
from stripemerge.convert import (
    build_lrc_merge,
    build_mds_merge,
    build_mds_to_lrc,
    execute,
    verify_convertible,
)
from stripemerge.field import field_create
from stripemerge.grs import grs_dual_prescribed
from stripemerge.matrix import MatQ, vandermonde
from stripemerge.pgl import (
    RationalFunction,
    all_points,
    cyclic_subgroup_of_order,
    fixed_field_generator,
    split_structure,
    subgroup_cyclic_qplus1,
    subgroup_dihedral,
)
from stripemerge.poly import Poly

from paper_lemmas import enumerated_min_distance, restricted_dim


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"{label} took {elapsed:.1f}s > {self.seconds}s"
        print(f"PASS {label} ({elapsed:.2f}s)")


F23 = field_create(23, 1)
QUAD23 = (F23.element(21), F23.element(5))  # x^2 - 2x + 5


@pytest.fixture(scope="module")
def group23():
    return subgroup_cyclic_qplus1(F23, QUAD23, 4)


def test_criterion_1_q23_reproduction(group23):
    budget = Budget(5.0)

    full = subgroup_cyclic_qplus1(F23, QUAD23, 24)
    assert full.order == 24

    recorded_orbits = [
        {"inf", "9", "14", "19"},
        {"20", "5", "6", "4"},
        {"2", "16", "18", "13"},
        {"21", "7", "17", "11"},
        {"12", "3", "15", "10"},
        {"0", "8", "1", "22"},
    ]
    got = [{p.label() for p in o} for o in split_structure(group23).free_orbits]
    assert len(got) == 6
    for orbit in recorded_orbits:
        assert orbit in got

    z = fixed_field_generator(group23)
    assert z.num.to_obj() == [7, 4, 8, 0, 1]  # x^4 + 8x^2 + 4x + 7
    assert z.den.to_obj() == [21, 11, 4, 1]  # x^3 + 4x^2 + 11x + 21

    cc = build_mds_merge(F23, group23, k=5, t=4, lprime=4,
                         evaluate_at_pole=True, per_initial_dims=(5, 5, 5, 4))
    measured = cc.static_access()
    assert measured.write_cost == 4
    assert measured.read_cost == 16
    assert all(len(triples) == 4 for _, triples in cc.plan.terms)  # 4 reads per symbol
    report = verify_convertible(cc, check_components=False)
    assert report.ok and report.access_optimal

    budget.done("criterion 1: q=23 four-stripe reproduction")


def test_criterion_2_mds_merge_family(group23):
    budget = Budget(30.0)
    for t in (2, 3, 4):
        cc = build_mds_merge(F23, group23, k=5, t=t, lprime=4, evaluate_at_pole=True)
        assert (cc.final.n, cc.final.k) == (5 * t + 4, 5 * t)
        assert is_mds(cc.final)  # all (n-k) = 4-column parity subsets full rank
        measured = cc.static_access()
        assert (measured.read_cost, measured.write_cost) == (4 * t, 4)
        assert all(len(triples) == t for _, triples in cc.plan.terms)
        floor = mds_merge_lower(cc.params)
        assert (floor.min_read, floor.min_write) == (4 * t, 4)
        report = verify_convertible(cc, check_components=False)
        assert report.ok and report.access_optimal
    budget.done("criterion 2: MDS merge family t in {2,3,4}")


def test_criterion_3_lrc_merge_desk_instance():
    budget = Budget(60.0)
    F32 = field_create(2, 5)
    group = subgroup_dihedral(F32, 3, "q_plus")
    sub = cyclic_subgroup_of_order(group, 3)
    cc = build_lrc_merge(F32, group, sub, k=2, t=2, lprime=2, delta=2)

    assert all((c.n, c.k) == (12, 4) for c in cc.initials)
    assert (cc.final.n, cc.final.k) == (18, 8)
    assert cc.params.d_final == 8
    assert is_optimal_lrc(cc.initials[0], cc.initial_cert)
    # d_F = 8: every 7-column subset of the 10x18 parity matrix has rank 7
    assert cc.final.parity.rows == 10
    assert is_optimal_lrc(cc.final, cc.final_cert)

    measured = cc.static_access()
    assert (measured.read_cost, measured.write_cost) == (8, 6)  # (t r l, l(r+d-1))
    report = verify_convertible(cc, check_components=False)
    assert report.ok and report.access_optimal
    assert (report.reference.min_read, report.reference.min_write) == (8, 6)
    budget.done("criterion 3: q=32 locally-repairable merge")


def test_criterion_4_mds_to_lrc_desk_instance():
    budget = Budget(10.0)
    cc = build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4,
                          n_init=(9, 9, 9, 9))
    assert (cc.final.n, cc.final.k) == (20, 16)
    assert cc.params.r == 9 and cc.params.d_final == 4
    # d_F = 4 via all C(20,3) = 1140 3-column rank checks, plus locality
    assert is_optimal_lrc(cc.final, cc.final_cert)

    block = cc.final.parity.submatrix_cols(list(cc.plan.written))
    assert block.rows == block.cols == 4
    block.invert()  # invertible 4x4 written block

    p = cc.params
    for i in range(4):
        assert len(cc.plan.unchanged[i]) == 4 == unchanged_upper(p, i)
        assert len(cc.plan.reads[i]) == 3 == read_lower(p, i, 4)
    measured = cc.static_access()
    assert (measured.read_cost, measured.write_cost) == (12, 4)
    report = verify_convertible(cc, check_components=False)
    assert report.ok and report.access_optimal
    budget.done("criterion 4: q=23 MDS-to-LRC desk instance")


def test_criterion_5_bound_reduction():
    budget = Budget(5.0)
    rng = random.Random(505)
    done = 0
    while done < 500:
        t = rng.randrange(2, 7)
        k_initial = tuple(rng.randrange(1, 10) for _ in range(t))
        n_initial = tuple(k + rng.randrange(1, 10) for k in k_initial)
        l_f = rng.randrange(1, 10)
        k_final = sum(k_initial)
        params = MergeParams(
            k_initial=k_initial,
            n_initial=n_initial,
            n_final=k_final + l_f,
            k_final=k_final,
            d_final=l_f + 1,
            r=k_final,
            delta=2,
        )
        general = total_lower(params)
        special = mds_merge_lower(params)
        assert general.min_read == special.min_read
        assert general.min_write == special.min_write
        done += 1
    budget.done("criterion 5: locality bound reduces to the MDS bound (500 cases)")


def _random_mobius(F, rng):
    while True:
        a, b, c, d = (rng.randrange(F.q) for _ in range(4))
        if F.sub_enc(F.mul_enc(a, d), F.mul_enc(b, c)):
            from stripemerge.pgl import Mobius

            return Mobius(F, a, b, c, d)


def _random_ratfun(F, rng):
    while True:
        num = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
        den = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
        if not num.is_zero() and not den.is_zero():
            return RationalFunction(num, den)


def test_criterion_6_property_suites(group23):
    budget = Budget(120.0)
    rng = random.Random(606)

    # action contract: (sigma f)(sigma P) = f(P), 100+ regular triples
    checked = 0
    points23 = all_points(F23)
    while checked < 120:
        f = _random_ratfun(F23, rng)
        m = _random_mobius(F23, rng)
        p = points23[rng.randrange(len(points23))]
        if f.valuation(p) < 0:
            continue
        assert f.substitute(m).eval_at(m.place_action(p), 0) == f.eval_at(p, 0)
        checked += 1

    # G H^T = 0 for every constructed code
    constructions = [
        build_mds_merge(F23, group23, k=5, t=3, lprime=4, evaluate_at_pole=True),
        build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4,
                         n_init=(9, 9, 9, 9)),
    ]
    F32 = field_create(2, 5)
    d6 = subgroup_dihedral(F32, 3, "q_plus")
    constructions.append(
        build_lrc_merge(F32, d6, cyclic_subgroup_of_order(d6, 3), k=2, t=2, lprime=2)
    )
    for cc in constructions:
        for code in list(cc.initials) + [cc.final]:
            assert (code.generator @ code.parity.transpose()).is_zero()

    # restricted dimension recovers k whenever |Gamma| >= n - d + 1
    cases = 0
    for q in (5, 7):
        F = field_create(q, 1)
        while cases < (100 if q == 5 else 200):
            n = rng.randrange(4, 11)
            k = rng.randrange(1, 4)
            g = MatQ(F, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            if g.rank() < k:
                continue
            code = LinearCode(F, generator=g)
            d = enumerated_min_distance(code)
            gamma = rng.sample(range(n), n - d + 1)
            assert restricted_dim(code, gamma) == k
            cases += 1

    # greedy generation-set construction: postconditions on 100+ cases
    lrc = constructions[2]
    done = 0
    while done < 110:
        code, cert = (
            (lrc.initials[0], lrc.initial_cert)
            if done % 2
            else (lrc.final, lrc.final_cert)
        )
        size = rng.randrange(1, code.n + 1)
        s_set = rng.sample(range(code.n), size)
        cap = rng.randrange(1, size + 1)
        a_set, t_set = redundant_cover_sets(cert, code, s_set, cap)  # asserts inside
        assert len(a_set) == (cert.delta - 1) * (cap // (cert.r + cert.delta - 1))
        assert len(set(s_set) & set(t_set)) <= cap
        done += 1

    # prescribed-parity multipliers stay orthogonal
    for _ in range(110):
        n = rng.randrange(3, 11)
        k = rng.randrange(1, n)
        locs = [F23.element(e) for e in rng.sample(range(23), n)]
        v = grs_dual_prescribed(F23, locs, k)
        assert (vandermonde(F23, k, locs, v)
                @ vandermonde(F23, n - k, locs).transpose()).is_zero()

    # unchanged symbols survive execution for all three constructions
    for cc in constructions:
        for trial in range(40):
            words = []
            for code in cc.initials:
                msg = [cc.field.element(rng.randrange(cc.field.q)) for _ in range(code.k)]
                words.append(code.encode(msg))
            final_word, _ = execute(cc, words)
            for i, pairs in enumerate(cc.plan.unchanged):
                for src, dst in pairs:
                    assert final_word[dst] == words[i][src]

    budget.done("criterion 6: property suites")


def test_criterion_7_field_spread():
    """Large-parameter claims are out of desk scope; the property load runs
    over every field the constructions touch instead."""
    budget = Budget(60.0)
    rng = random.Random(707)
    for q, (p, s) in [(5, (5, 1)), (7, (7, 1)), (8, (2, 3)), (16, (2, 4)),
                      (23, (23, 1)), (32, (2, 5)), (37, (37, 1))]:
        F = field_create(p, s)
        assert F.q == q
        for _ in range(100):
            a, b, c = (F.element(rng.randrange(q)) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            if a.enc:
                assert a * a.inverse() == F.one
        # a small MDS evaluation code over every field
        n = min(q, 6)
        k = 2 if n > 2 else 1
        locs = [F.element(e) for e in range(n)]
        gen = vandermonde(F, k, locs)
        code = LinearCode(F, generator=gen)
        assert is_mds(code)
        # orbit censuses for the even-characteristic group sources
        if q in (8, 32):
            g = subgroup_dihedral(F, 3, "q_plus")
            ss = split_structure(g)
            assert len(ss.free_orbits) * g.order + len(ss.ramified) == q + 1
            assert len(ss.ramified) <= 2 * g.order - 2
    budget.done("criterion 7: property spread over q in {5,7,8,16,23,32,37}")
