import itertools
import random

import pytest

from stripemerge.codes import (
    InfeasibleCheck,
    LinearCode,
    LocalityCertificate,
    check_locality,
    distance_at_least,
    is_mds,
    is_optimal_lrc,
    min_distance,
    singleton_lrc_bound,
)
from stripemerge.field import field_create
from stripemerge.grs import GrsSpec, grs_code
from stripemerge.matrix import MatQ, vandermonde


def elems(F, *encs):
    return [F.element(e) for e in encs]


def brute_min_weight(code):
    """Independent oracle: enumerate all messages, count nonzero symbols."""
    F = code.field
    best = None
    for msg in itertools.product(range(F.q), repeat=code.k):
        if not any(msg):
            continue
        word = code.encode([F.element(m) for m in msg])
        w = sum(1 for e in word if e.enc)
        best = w if best is None else min(best, w)
    return best


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
    double = code.dual().dual()
    # same codeword set: generators row-reduce identically
    assert code.generator.rref()[0].to_obj() == double.generator.rref()[0].to_obj()


def test_min_distance_enumerate_grs():
    F = field_create(5, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, 0, 1, 2, 3, 4)), k=2))
    assert min_distance(code, "enumerate") == 4
    assert min_distance(code, "parity_subsets") == 4
    assert brute_min_weight(code) == 4


def test_min_distance_repetition():
    F = field_create(3, 1)
    code = LinearCode(F, generator=MatQ(F, [[1, 1, 1, 1, 1, 1]]))
    assert min_distance(code, "enumerate") == 6
    assert min_distance(code, "parity_subsets") == 6


def test_min_distance_strategies_agree_random():
    rng = random.Random(99)
    for p, s in ((5, 1), (7, 1), (2, 3), (3, 2)):
        F = field_create(p, s)
        q = F.q
        done = 0
        while done < 30:
            n = rng.randrange(3, 9)
            k = rng.randrange(1, min(4, n))
            g = MatQ(F, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            if g.rank() < k:
                continue
            code = LinearCode(F, generator=g)
            d = min_distance(code, "enumerate")
            assert min_distance(code, "parity_subsets") == d
            assert distance_at_least(code, d) and not distance_at_least(code, d + 1)
            done += 1


def test_min_distance_infeasible():
    F = field_create(23, 1)
    gen = vandermonde(F, 7, elems(F, *range(20)))
    code = LinearCode(F, generator=gen)
    with pytest.raises(InfeasibleCheck):
        min_distance(code, "enumerate")  # 23^7 > 10^7


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
    assert code.restricted_dim(range(4)) == 2
    assert code.restricted_dim([2]) == 1


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
            d = min_distance(code, "enumerate")
            size = n - d + 1
            for _ in range(3):
                gamma = rng.sample(range(n), size) if size else []
                if gamma:
                    assert code.restricted_dim(gamma) == k
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


def test_labels_roundtrip_and_errors():
    F = field_create(5, 1)
    code = LinearCode(F, generator=MatQ.identity(F, 2), labels=["a", "b"])
    again = LinearCode.from_obj(F, code.to_obj())
    assert again.labels == ("a", "b")
    with pytest.raises(ValueError):
        LinearCode(F, generator=MatQ.identity(F, 2), labels=["a", "a"])
    with pytest.raises(ValueError):
        LinearCode(F)
