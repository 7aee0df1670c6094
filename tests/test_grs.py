import itertools
import random

import pytest

from stripemerge.codes import is_mds, min_distance
from stripemerge.field import field_create
from stripemerge.grs import GrsSpec, annihilator, grs_code, grs_dual_prescribed
from stripemerge.matrix import vandermonde

from paper_lemmas import enumerated_min_distance


def elems(F, *encs):
    return [F.element(e) for e in encs]


def test_grs_basic_mds():
    F = field_create(5, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, 0, 1, 2, 3, 4)), k=2))
    assert (code.n, code.k) == (5, 2)
    assert enumerated_min_distance(code) == 4
    assert is_mds(code)


def test_grs_single_parity():
    F = field_create(7, 1)
    code = grs_code(F, GrsSpec(locators=tuple(elems(F, 1, 2, 3, 4, 5)), k=4))
    assert min_distance(code) == 2


def test_grs_all_one_multipliers_is_plain_evaluation():
    F = field_create(7, 1)
    locs = tuple(elems(F, 0, 2, 5))
    with_v = grs_code(F, GrsSpec(locators=locs, k=2, multipliers=tuple(elems(F, 1, 1, 1))))
    plain = grs_code(F, GrsSpec(locators=locs, k=2))
    assert with_v.generator.to_obj() == plain.generator.to_obj()


def test_grs_spec_validation():
    F = field_create(5, 1)
    with pytest.raises(ValueError, match="^repeated locator$"):
        grs_code(F, GrsSpec(locators=tuple(elems(F, 1, 1, 2)), k=2))
    with pytest.raises(ValueError, match="^need 1 <= k < n"):
        grs_code(F, GrsSpec(locators=tuple(elems(F, 1, 2)), k=2))
    with pytest.raises(ValueError, match="^multiplier length mismatch$"):
        grs_code(
            F, GrsSpec(locators=tuple(elems(F, 1, 2, 3)), k=2,
                       multipliers=tuple(elems(F, 1, 1)))
        )
    with pytest.raises(ValueError, match="^zero column multiplier$"):
        grs_code(
            F, GrsSpec(locators=tuple(elems(F, 1, 2, 3)), k=2,
                       multipliers=tuple(elems(F, 1, 0, 2)))
        )


def test_annihilator_small_cases():
    F = field_create(5, 1)
    assert annihilator(F, []).to_obj() == [1]
    assert annihilator(F, elems(F, 0)).to_obj() == [0, 1]
    # (x - 1)(x - 2) = x^2 - 3x + 2 = x^2 + 2x + 2 over GF(5)
    assert annihilator(F, elems(F, 1, 2)).to_obj() == [2, 2, 1]


def test_annihilator_vanishes_exactly_exhaustive():
    # every subset of GF(23) up to size 5: zero exactly on the subset
    F = field_create(23, 1)
    els = list(F.elements())
    for size in range(6):
        for subset in itertools.combinations(range(23), size):
            poly = annihilator(F, [els[e] for e in subset])
            assert poly.degree == size and poly.coeffs[-1] == 1  # monic
            members = set(subset)
            for e in els:
                assert (poly.eval(e).enc == 0) == (e.enc in members)


def test_dual_prescribed_small_example():
    F = field_create(5, 1)
    v = grs_dual_prescribed(F, elems(F, 1, 2, 3), 1)
    assert [e.enc for e in v] == [1, 3, 1]
    # both parity rows annihilate v
    par = vandermonde(F, 2, elems(F, 1, 2, 3))
    for row in par.data:
        acc = 0
        for coeff, vi in zip(row, v):
            acc = (acc + coeff * vi.enc) % 5
        assert acc == 0


def test_dual_prescribed_single_parity_row():
    F = field_create(7, 1)
    locs = elems(F, 0, 3, 5, 6)
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
            locs = [F.element(e) for e in rng.sample(range(F.q), n)]
            v = grs_dual_prescribed(F, locs, k)
            gen = vandermonde(F, k, locs, v)
            par = vandermonde(F, n - k, locs)
            assert (gen @ par.transpose()).is_zero()
            assert all(e.enc for e in v)
