import itertools
import random

import pytest

from stripemerge.codes import is_mds, min_distance
from stripemerge.field import field_create
from stripemerge.grs import GrsSpec, annihilator, grs_code, grs_dual_prescribed
from stripemerge.matrix import vandermonde

from paper_lemmas import enumerated_min_distance, reference_dual_prescribed


def test_grs_basic_mds():
    F = field_create(5, 1)
    code = grs_code(F, GrsSpec(locators=(0, 1, 2, 3, 4), k=2))
    assert (code.n, code.k) == (5, 2)
    assert enumerated_min_distance(code) == 4
    assert is_mds(code)


def test_grs_single_parity():
    F = field_create(7, 1)
    code = grs_code(F, GrsSpec(locators=(1, 2, 3, 4, 5), k=4))
    assert min_distance(code) == 2


def test_grs_all_one_multipliers_is_plain_evaluation():
    F = field_create(7, 1)
    locs = (0, 2, 5)
    with_v = grs_code(F, GrsSpec(locators=locs, k=2, multipliers=(1, 1, 1)))
    plain = grs_code(F, GrsSpec(locators=locs, k=2))
    assert with_v.generator.to_obj() == plain.generator.to_obj()


def test_grs_spec_validation():
    F = field_create(5, 1)
    with pytest.raises(ValueError, match="^repeated locator$"):
        grs_code(F, GrsSpec(locators=(1, 1, 2), k=2))
    with pytest.raises(ValueError, match="^need 1 <= k < n"):
        grs_code(F, GrsSpec(locators=(1, 2), k=2))
    with pytest.raises(ValueError, match="^multiplier length mismatch$"):
        grs_code(
            F, GrsSpec(locators=(1, 2, 3), k=2,
                       multipliers=(1, 1))
        )
    with pytest.raises(ValueError, match="^zero column multiplier$"):
        grs_code(
            F, GrsSpec(locators=(1, 2, 3), k=2,
                       multipliers=(1, 0, 2))
        )


def test_annihilator_small_cases():
    F = field_create(5, 1)
    assert annihilator(F, []).to_obj() == [1]
    assert annihilator(F, [0]).to_obj() == [0, 1]
    # (x - 1)(x - 2) = x^2 - 3x + 2 = x^2 + 2x + 2 over GF(5)
    assert annihilator(F, [1, 2]).to_obj() == [2, 2, 1]


def test_annihilator_vanishes_exactly_exhaustive():
    # every subset of GF(23) up to size 5: zero exactly on the subset
    F = field_create(23, 1)
    for size in range(6):
        for subset in itertools.combinations(range(23), size):
            poly = annihilator(F, subset)
            assert poly.degree == size and poly.coeffs[-1] == 1  # monic
            members = set(subset)
            for e in range(F.q):
                assert (poly.eval(e) == 0) == (e in members)


def test_dual_prescribed_small_example():
    F = field_create(5, 1)
    v = grs_dual_prescribed(F, [1, 2, 3], 1)
    assert list(v) == [1, 3, 1]
    # both parity rows annihilate v
    par = vandermonde(F, 2, [1, 2, 3])
    for row in par.data:
        acc = 0
        for coeff, vi in zip(row, v):
            acc = (acc + coeff * vi) % 5
        assert acc == 0


def test_dual_prescribed_single_parity_row():
    F = field_create(7, 1)
    locs = [0, 3, 5, 6]
    v = grs_dual_prescribed(F, locs, 3)  # n = k + 1: parity is the all-ones row
    gen = vandermonde(F, 3, locs, v)
    ones = vandermonde(F, 1, locs)
    assert (gen @ ones.transpose()).is_zero()


def test_dual_prescribed_orthogonality_random():
    rng = random.Random(23)
    for q in (23, 32):
        F = field_create(2, 5) if q == 32 else field_create(q, 1)
        for _ in range(50):
            n = rng.randrange(3, 11)
            k = rng.randrange(1, n)
            locs = rng.sample(range(F.q), n)
            v = grs_dual_prescribed(F, locs, k)
            gen = vandermonde(F, k, locs, v)
            par = vandermonde(F, n - k, locs)
            assert (gen @ par.transpose()).is_zero()
            assert all(v)


DUAL_FIELDS = [(7, 1), (2, 3), (3, 2), (23, 1), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]


@pytest.mark.parametrize("p, s", DUAL_FIELDS, ids=[f"GF({p ** s})" for p, s in DUAL_FIELDS])
def test_dual_prescribed_equals_the_kernel_solve(p, s):
    # the product formula, scaled to a last entry of 1, is MatQ.kernel's
    # basis vector of V_{n-1}, for every n from 2 to min(q, 12)
    F = field_create(p, s)
    rng = random.Random(F.q)
    for n in range(2, min(F.q, 12) + 1):
        for _ in range(4):
            locs = rng.sample(range(F.q), n)
            v = grs_dual_prescribed(F, locs, rng.randrange(1, n))
            assert list(v) == reference_dual_prescribed(F, locs)


def test_dual_prescribed_refusals(monkeypatch):
    F = field_create(7, 1)
    for k in (0, 3):
        with pytest.raises(ValueError, match=f"^need 1 <= k < n, got k={k} n=3$"):
            grs_dual_prescribed(F, [1, 2, 3], k)
    # a repeated locator is refused before any inverse is taken
    inverses = []
    inv = F.inv_enc
    monkeypatch.setattr(F, "inv_enc", lambda a: inverses.append(a) or inv(a))
    with pytest.raises(ValueError, match="^repeated locator$"):
        grs_dual_prescribed(F, [1, 2, 1, 4], 2)
    assert inverses == []
