import random

import pytest

from stripemerge import codes
from stripemerge.codes import (
    InfeasibleCheck,
    LinearCode,
    LocalityCertificate,
    check_locality,
    distance_at_least,
    grs_certificate,
    is_mds,
    is_optimal_lrc,
    min_distance,
    singleton_lrc_bound,
)
from stripemerge.convert import build_mds_to_lrc
from stripemerge.field import field_create
from stripemerge.grs import GrsSpec, grs_code
from stripemerge.matrix import MatQ, rank_of_rows

from paper_lemmas import enumerated_min_distance, restricted_dim


def elems(F, *encs):
    return [F.element(e) for e in encs]


def test_encode_identity_generator():
    F = field_create(5, 1)
    code = LinearCode(F, generator=MatQ.identity(F, 3))
    msg = elems(F, 2, 0, 4)
    assert list(code.encode(msg)) == msg


def test_generator_parity_orthogonal():
    F = field_create(5, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, 0, 1, 2, 3, 4)), k=2))
    assert (code.generator @ code.parity.transpose()).is_zero()
    # explicit both-matrices constructor validates orthogonality
    LinearCode(F, generator=code.generator, parity=code.parity)
    with pytest.raises(ValueError):
        LinearCode(F, generator=code.generator, parity=MatQ.identity(F, 5).submatrix_cols([0, 1, 2]).transpose())


def test_dual_involution():
    F = field_create(5, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, 0, 1, 2, 3, 4)), k=2))
    dual = LinearCode(F, generator=code.parity)
    double = LinearCode(F, generator=dual.parity)
    # same codeword set: generators row-reduce identically
    assert code.generator.rref()[0].to_obj() == double.generator.rref()[0].to_obj()


def test_min_distance_enumerate_grs():
    F = field_create(5, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, 0, 1, 2, 3, 4)), k=2))
    assert enumerated_min_distance(code) == 4
    assert min_distance(code) == 4


def test_min_distance_repetition():
    F = field_create(3, 1)
    code = LinearCode(F, generator=MatQ(F, [[1, 1, 1, 1, 1, 1]]))
    assert enumerated_min_distance(code) == 6
    assert min_distance(code) == 6


def test_min_distance_strategies_agree_random():
    rng = random.Random(99)
    # GF(32) and GF(49) keep k <= 2 so that enumeration stays cheap; with n
    # up to 10 their walks go 3 or more columns deep
    for p, s, k_max, n_max in ((5, 1, 3, 8), (7, 1, 3, 8), (2, 3, 3, 8), (3, 2, 3, 8),
                               (2, 5, 2, 10), (7, 2, 2, 10)):
        F = field_create(p, s)
        q = F.q
        done = 0
        while done < 30:
            n = rng.randrange(3, n_max + 1)
            k = rng.randrange(1, min(k_max + 1, n))
            # half the codes are sparse, so low-weight words and dependent
            # column prefixes are common
            zeros = rng.choice((0.0, 0.5))
            g = MatQ(F, [[0 if rng.random() < zeros else rng.randrange(q) for _ in range(n)]
                         for _ in range(k)])
            if g.rank() < k:
                continue
            code = LinearCode(F, generator=g)
            d = enumerated_min_distance(code)
            assert min_distance(code) == d
            assert distance_at_least(code, d) and not distance_at_least(code, d + 1)
            # from d + 2 on, a dependent set can end before the subset's last
            # column, so the walk refutes it at an inner level
            assert not any(distance_at_least(code, e) for e in range(d + 2, n - k + 3))
            done += 1


def test_is_mds():
    F = field_create(23, 1)
    for k in (1, 2, 3, 5):
        for n in (6, 9, 12):
            code = grs_code(F, GrsSpec(locators=tuple(elems(F, *range(n))), k=k))
            assert is_mds(code)
    # repeated generator column kills the Singleton equality
    bad = LinearCode(F, generator=MatQ(F, [[1, 1, 0], [0, 0, 1]]))
    assert not is_mds(bad)


def test_singleton_lrc_bound():
    assert singleton_lrc_bound(10, 4, 4, 2) == 7  # r = k: plain Singleton
    assert singleton_lrc_bound(18, 8, 2, 2) == 8
    assert singleton_lrc_bound(20, 16, 9, 2) == 4
    with pytest.raises(ValueError):
        singleton_lrc_bound(5, 6, 2, 2)
    with pytest.raises(ValueError):
        singleton_lrc_bound(5, 3, 2, 1)


def test_singleton_bound_delta2_reduction():
    for n in range(2, 41):
        for k in range(1, n):
            for r in range(1, k + 1):
                assert singleton_lrc_bound(n, k, r, 2) == n - k - (-(-k // r)) + 2


def test_check_locality_single_parity_groups():
    F = field_create(7, 1)
    # two groups of 3, each carrying one overall parity: [6,4] code
    gen = MatQ(
        F,
        [
            [1, 0, 6, 0, 0, 0],
            [0, 1, 6, 0, 0, 0],
            [0, 0, 0, 1, 0, 6],
            [0, 0, 0, 0, 1, 6],
        ],
    )
    code = LinearCode(F, generator=gen)
    cert = LocalityCertificate(r=2, delta=2, groups=((0, 1, 2), (3, 4, 5)))
    assert check_locality(code, cert)
    assert is_optimal_lrc(code, cert)  # d = 2 = 6-4+1-(2-1)(1)


def test_check_locality_mds_full_group():
    F = field_create(23, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, *range(6))), k=3))
    # r = k, one group of all coordinates: allowed only when n <= r + 1
    good = LocalityCertificate(r=5, delta=2, groups=(tuple(range(6)),))
    assert check_locality(code, good)
    with pytest.raises(ValueError):
        tight = LocalityCertificate(r=3, delta=2, groups=(tuple(range(6)),))
        check_locality(code, tight)  # group larger than r + delta - 1


def test_is_optimal_lrc_shrunk_r_fails():
    F = field_create(7, 1)
    gen = MatQ(
        F,
        [
            [1, 0, 6, 0, 0, 0],
            [0, 1, 6, 0, 0, 0],
            [0, 0, 0, 1, 0, 6],
            [0, 0, 0, 0, 1, 6],
        ],
    )
    code = LinearCode(F, generator=gen)
    # declaring r = 1 demands distance 6 - 4 + 1 - 3 = 0 < actual feasible bound,
    # but groups of size 3 violate r + delta - 1 = 2
    with pytest.raises(ValueError):
        is_optimal_lrc(code, LocalityCertificate(r=1, delta=2, groups=((0, 1, 2), (3, 4, 5))))


def test_restricted_dim_basics():
    F = field_create(5, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, 0, 1, 2, 3)), k=2))
    assert restricted_dim(code, range(4)) == 2
    assert restricted_dim(code, [2]) == 1


def test_restricted_dim_full_recovery_property():
    # any Gamma with |Gamma| >= n - d + 1 sees the full dimension
    rng = random.Random(4)
    cases = 0
    for q in (5, 7):
        F = field_create(q, 1)
        while cases < 100 * (1 if q == 5 else 2):
            n = rng.randrange(4, 11)
            k = rng.randrange(1, 4)
            g = MatQ(F, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            if g.rank() < k:
                continue
            code = LinearCode(F, generator=g)
            d = enumerated_min_distance(code)
            size = n - d + 1
            for _ in range(3):
                gamma = rng.sample(range(n), size) if size else []
                if gamma:
                    assert restricted_dim(code, gamma) == k
            cases += 1


def test_distance_at_least_budget():
    F = field_create(2, 1)
    gen = MatQ(F, [[1] * 40])
    code = LinearCode(F, generator=gen)
    with pytest.raises(InfeasibleCheck):
        distance_at_least(code, 25, budget=1000)


def test_distance_at_least_checks_only_the_widest_subsets():
    # GRS [24, 2] over GF(25) has d = 23: C(24, 22) = 276 subsets fit the
    # budget although C(24, 3) = 2024 do not, and 23 columns of 22-row
    # parity are always dependent
    F = field_create(5, 2)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, *range(24))), k=2))
    assert distance_at_least(code, 23, budget=1000)
    assert not distance_at_least(code, 24, budget=1000)


def test_distance_at_least_spends_one_row_per_subset(monkeypatch):
    # GRS [12, 4] over GF(13) is MDS, so d = 9 needs every 8-column subset
    # of the 8-row parity matrix: one rank check each, on the residue of
    # the subset's last column alone (8 cells), not on all 8 columns
    F = field_create(13, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, *range(12))), k=4))
    calls = []

    def counting(field, rows):
        calls.append(len(rows) * len(rows[0]))
        return rank_of_rows(field, rows)

    monkeypatch.setattr(codes, "rank_of_rows", counting)
    assert distance_at_least(code, 9)
    assert len(calls) == 495
    assert sum(calls) == 495 * 8


def grs_generator(F, places, k, mults):
    """Rows m < k of v_j * a_j^m; the place None (infinity) has column
    (0, ..., 0, 1) before its multiplier."""
    return MatQ(F, [
        [F.mul_enc(v, int(m == k - 1) if a is None else F.pow_enc(a, m))
         for a, v in zip(places, mults)]
        for m in range(k)
    ])


def random_grs(rng, F, with_infinity):
    """A GRS [n, k] code with 2 <= k <= n - 2 on random places, which it
    carries, random nonzero multipliers, and its places."""
    q = F.q
    n = rng.randrange(4, min(q, 10) + 1)
    places = rng.sample(range(q), n - 1) + [None] if with_infinity else rng.sample(range(q), n)
    rng.shuffle(places)
    k = rng.randrange(2, n - 1)
    mults = [rng.randrange(1, q) for _ in range(n)]
    return LinearCode(F, generator=grs_generator(F, places, k, mults), places=places), places


GRS_FIELDS = ((2, 3), (3, 2), (13, 1), (5, 2))  # GF(8), GF(9), GF(13), GF(25)


def test_grs_certificate_proves_only_true_distances():
    rng = random.Random(7)
    subcodes_certified = 0
    for p, s in GRS_FIELDS:
        F = field_create(p, s)
        for trial in range(12):
            code, places = random_grs(rng, F, with_infinity=trial % 2 == 1)
            n, k = code.n, code.k
            assert grs_certificate(code, n - k + 1)
            assert distance_at_least(code, n - k + 1)
            # a random subcode of dimension kk < k, claimed at every distance
            kk = rng.randrange(1, k)
            mix = MatQ(F, [[rng.randrange(F.q) for _ in range(k)] for _ in range(kk)])
            if mix.rank() < kk:
                continue
            sub = LinearCode(F, generator=mix @ code.generator, places=places)
            for d in range(2, n - kk + 2):
                if grs_certificate(sub, d):
                    assert distance_at_least(sub, d)
                    subcodes_certified += 1
    assert subcodes_certified > 0


def test_grs_certificate_rejects_a_changed_entry():
    # with k >= 2 and n - k >= 2, changing one entry at a finite nonzero
    # place leaves no full-support GRS dual containing the code (at 0 and
    # infinity one row holds the column's only nonzero entry, so a change
    # there can be a new multiplier)
    rng = random.Random(8)
    for p, s in GRS_FIELDS:
        F = field_create(p, s)
        for trial in range(8):
            code, places = random_grs(rng, F, with_infinity=trial % 2 == 1)
            d = code.n - code.k + 1
            assert grs_certificate(code, d)
            data = code.generator.to_obj()
            i = rng.randrange(code.k)
            j = rng.choice([j for j, a in enumerate(places) if a])
            data[i][j] = rng.choice([e for e in range(F.q) if e != data[i][j]])
            changed = LinearCode(F, generator=MatQ(F, data), places=places)
            assert not grs_certificate(changed, d)


def witnessed(code, places):
    """The same code with `places` as its witness."""
    return LinearCode(code.field, generator=code.generator, places=places)


def test_grs_certificate_rejects_bad_places():
    F = field_create(13, 1)
    places = [0, 1, 2, 3, 4, 5, 6, None]
    code = LinearCode(F, generator=grs_generator(F, places, 3, [1] * 8))
    assert grs_certificate(witnessed(code, places), 6)
    # repeated: a wrong witness, whose folded code has dimension 3 where the
    # dual of GRS_5 on 7 places has dimension 2
    assert not grs_certificate(witnessed(code, [0, 1, 2, 3, 4, 5, 5, None]), 6)
    assert not grs_certificate(witnessed(code, [0, 1, 2, 3, 4, 5, None, None]), 6)
    assert not grs_certificate(witnessed(code, places[:-1]), 6)  # wrong length
    assert not grs_certificate(witnessed(code, places + [7]), 6)
    # out of range: GF(13) arithmetic would read 13 as 0 and 14 as 1
    assert not grs_certificate(witnessed(code, [13, 1, 2, 3, 4, 5, 6, None]), 6)
    assert not grs_certificate(witnessed(code, [0, 14, 2, 3, 4, 5, 6, None]), 6)
    assert not grs_certificate(witnessed(code, [-1, 1, 2, 3, 4, 5, 6, None]), 6)
    assert not grs_certificate(witnessed(code, None), 6)
    assert not grs_certificate(witnessed(code, ()), 6)
    assert not grs_certificate(witnessed(code, places), 7)  # w = 6 > n - k = 5
    # the dual of a Vandermonde matrix with a repeated place has two
    # proportional parity columns, so distance 2, although the all-ones
    # multipliers span the kernel of its folded certificate system: the
    # rank check on the repeated places' parity columns is what refuses it
    for twice in ([0, 1, 2, 3, 4, 5, 5], [0, 1, 2, 3, 4, None, None]):
        dual = LinearCode(F, parity=grs_generator(F, twice, 3, [1] * 7), places=twice)
        assert not distance_at_least(dual, 3)
        assert not grs_certificate(dual, 4)


def test_folded_certificate_on_random_repeated_places():
    # H stacks the rows v_P a_P^m, m < w, over places with repeats (one
    # multiplier per place) on top of random rows, so the folded system
    # always has a solution and the rank check on the repeated places'
    # parity columns decides; the certificate must never beat the walk
    rng = random.Random(11)
    outcomes = set()
    for p, s in GRS_FIELDS:
        F = field_create(p, s)
        for _ in range(10):
            distinct = rng.sample(list(range(F.q)) + [None], rng.randrange(3, 6))
            n = rng.randrange(len(distinct) + 1, len(distinct) + 4)
            places = distinct + [rng.choice(distinct) for _ in range(n - len(distinct))]
            rng.shuffle(places)
            mult = {a: rng.randrange(1, F.q) for a in distinct}
            w = rng.randrange(1, len(distinct))
            extra = [[rng.randrange(F.q) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
            rows = grs_generator(F, places, w, [mult[a] for a in places]).data + extra
            if rank_of_rows(F, rows) != len(rows) or len(rows) >= n:
                continue
            code = LinearCode(F, parity=MatQ(F, rows), places=places)
            certified = grs_certificate(code, w + 1)
            if certified:
                assert distance_at_least(code, w + 1)
            outcomes.add(certified)
    assert outcomes == {True, False}


MDS_TO_LRC_FIELDS = ((19, 1), (23, 1), (5, 2), (3, 3))  # GF(19), GF(23), GF(25), GF(27)


def test_folded_certificate_on_mds_to_lrc_finals():
    # the MDS-to-LRC final repeats its gamma places in every repair group:
    # its own places certify d_F and never d_F + 1, and a forged witness
    # (shuffled places, or one place copied onto another coordinate)
    # certifies only distances the walk confirms
    rng = random.Random(12)
    forged_checks = 0
    for p, s in MDS_TO_LRC_FIELDS:
        F = field_create(p, s)
        for _ in range(3):
            cc = build_mds_to_lrc(F, s=2, a=1, tprime=2, delta=2, k_init=4, n_init=[7] * 4,
                                  elements=rng.sample(range(F.q), 19))
            final, d = cc.final, cc.params.d_final
            assert len(set(final.places)) < final.n
            assert grs_certificate(final, d) and distance_at_least(final, d)
            assert not grs_certificate(final, d + 1) and not distance_at_least(final, d + 1)
            for trial in range(6):
                forged = list(final.places)
                if trial % 2:
                    rng.shuffle(forged)
                else:
                    i, j = rng.sample(range(final.n), 2)
                    forged[j] = forged[i]
                code = LinearCode(F, generator=final.generator, places=forged)
                for dd in (d, d + 1):
                    forged_checks += 1
                    if grs_certificate(code, dd):
                        assert distance_at_least(code, dd)
    assert forged_checks == 144


def test_is_mds_falls_through_to_the_walk(monkeypatch):
    F = field_create(13, 1)
    places = list(range(12))
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, *places)), k=4))
    walks = []
    real = codes.distance_at_least

    def counted(code, d, budget=codes.SUBSET_BUDGET):
        walks.append(d)
        return real(code, d, budget)

    monkeypatch.setattr(codes, "distance_at_least", counted)
    assert is_mds(witnessed(code, places)) and walks == []
    assert is_mds(witnessed(code, places[:-1] + [0])) and walks == [9]
    assert is_mds(witnessed(code, None)) and walks == [9, 9]


def test_labels_roundtrip_and_errors():
    F = field_create(5, 1)
    code = LinearCode(F, generator=MatQ.identity(F, 2), labels=["a", "b"])
    again = LinearCode.from_obj(F, code.to_obj())
    assert again.labels == ("a", "b")
    with pytest.raises(ValueError):
        LinearCode(F, generator=MatQ.identity(F, 2), labels=["a", "a"])
    with pytest.raises(ValueError):
        LinearCode(F)
