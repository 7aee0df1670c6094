import random

import pytest

from stripemerge.field import field_create
from stripemerge.poly import Poly, divide_out

FAMILIES = [(23, 1), (2, 3), (3, 2), (2, 5), (7, 2)]


def ref_eval(F, coeffs, x):
    """Horner's rule on add_enc and mul_enc, constant-first coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = F.add_enc(F.mul_enc(acc, x), c)
    return acc


def ref_divmod(F, num, den):
    """Schoolbook long division, one sub_enc(mul_enc(...)) per term."""
    rem = list(num)
    quot = [0] * max(len(rem) - len(den) + 1, 0)
    inv_lead = F.inv_enc(den[-1])
    while len(rem) >= len(den) and rem:
        shift = len(rem) - len(den)
        factor = F.mul_enc(rem[-1], inv_lead)
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] = F.sub_enc(rem[shift + i], F.mul_enc(factor, c))
        while rem and rem[-1] == 0:
            rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return quot, rem


def ref_split_root(F, coeffs, x):
    """Evaluate, and divide by X - x while the value is 0."""
    lin = [F.neg_enc(x), 1]
    m = 0
    while not ref_eval(F, coeffs, x):
        coeffs, rem = ref_divmod(F, coeffs, lin)
        assert not rem
        m += 1
    return m, ref_eval(F, coeffs, x)


def split_root(poly, x):
    """(m, c(x)) for poly = (X - x)^m * c: divide_out after one Horner
    pass, the root splitter that RationalFunction.local runs."""
    F = poly.field
    return divide_out(F, F.horner(poly.coeffs[::-1], x), x)


@pytest.mark.parametrize("p, s", FAMILIES)
def test_split_root(p, s):
    # (X - x)^m * c with c(x) != 0 splits back into (m, c(x)) at every x,
    # x = 0 included (there the product's low m coefficients are 0)
    F = field_create(p, s)
    rng = random.Random(F.q)
    for x in F.elements():
        lin = Poly(F, (F.neg_enc(x.enc), 1))
        for m in range(7):
            for _ in range(3):
                c = Poly.zero(F)
                while c.is_zero() or not ref_eval(F, c.coeffs, x.enc):
                    c = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
                product = lin ** m * c
                assert split_root(product, x.enc) == (m, ref_eval(F, c.coeffs, x.enc))
                assert split_root(product, x.enc) == ref_split_root(F, product.coeffs, x.enc)


@pytest.mark.parametrize("p, s", FAMILIES)
def test_split_root_of_random_polynomials_matches_the_reference(p, s):
    # arbitrary coefficients, so zero constant terms and repeated roots at
    # x = 0 come up too
    F = field_create(p, s)
    rng = random.Random(F.q + 1)
    for _ in range(60):
        coeffs = [rng.randrange(F.q) if rng.random() < 0.5 else 0 for _ in range(9)]
        coeffs[rng.randrange(9)] = rng.randrange(1, F.q)
        poly = Poly(F, coeffs)
        for x in range(F.q):
            assert split_root(poly, x) == ref_split_root(F, poly.coeffs, x)
    assert split_root(Poly(F, [0, 0, 0, 1, 1]), 0) == (3, 1)


@pytest.mark.parametrize("p, s", FAMILIES)
def test_eval_and_divmod_match_the_reference(p, s):
    F = field_create(p, s)
    rng = random.Random(F.q + 2)
    for _ in range(200):
        num = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 10))])
        den = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))])
        x = rng.randrange(F.q)
        assert num.eval(F.element(x)).enc == ref_eval(F, num.coeffs, x)
        if den.is_zero():
            continue
        quot, rem = num.divmod(den)
        assert (list(quot.coeffs), list(rem.coeffs)) == ref_divmod(F, num.coeffs, den.coeffs)


def test_cross_field_operations_raise():
    F, G, H = field_create(23, 1), field_create(7, 2), field_create(29, 1)
    poly = Poly(F, (3, 1, 5))
    cases = {
        "eval at GF(49)": lambda: poly.eval(G.element(5)),
        "eval at GF(29)": lambda: poly.eval(H.element(26)),
        "scale": lambda: poly.scale(G.element(3)),
        "+": lambda: poly + Poly(H, (1, 2)),
        "-": lambda: poly - Poly(H, (1, 2)),
        "*": lambda: poly * Poly(H, (1, 28)),
        "divmod": lambda: poly.divmod(Poly(H, (1, 1))),
        "//": lambda: poly // Poly(G, (1, 1)),
        "%": lambda: poly % Poly(G, (1, 1)),
        "gcd": lambda: poly.gcd(Poly(H, (1, 1))),
        "gcd with zero": lambda: poly.gcd(Poly.zero(G)),
    }
    for name, op in cases.items():
        with pytest.raises(ValueError, match="different fields") as err:
            op()
        assert "GF(23)" in str(err.value), name
        assert "GF(49)" in str(err.value) or "GF(29)" in str(err.value), name
    # an equal context built separately is the same field
    same = field_create(23, 1)
    assert poly + Poly(same, (1,)) == Poly(F, (4, 1, 5))
    assert poly.eval(same.element(2)).enc == (3 + 2 + 5 * 4) % 23
