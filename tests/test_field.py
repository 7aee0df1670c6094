import gc
import random

import pytest

from stripemerge import field
from stripemerge.field import (
    MAX_Q,
    FieldCtx,
    field_create,
    primitive_quadratic_check,
    primitive_quadratic_search,
)
from stripemerge.grs import GrsSpec, annihilator, grs_code, grs_dual_prescribed
from stripemerge.matrix import vandermonde
from stripemerge.pgl import RationalFunction, subgroup_affine, subgroup_cyclic_qplus1
from stripemerge.poly import Poly

from paper_lemmas import reference_quadratic_check, reference_quadratic_search


def brute_first_irreducible_gf2(degree):
    """Independent oracle: first monic irreducible over GF(2), packed scan order."""

    def poly_mod(a, m):
        # polynomials as bit-lists, constant first
        a = list(a)
        while len(a) >= len(m):
            if a[-1]:
                shift = len(a) - len(m)
                for i, c in enumerate(m):
                    a[shift + i] ^= c
            a.pop()
        return a

    def irreducible(m):
        deg = len(m) - 1
        for d in range(1, deg // 2 + 1):
            for enc in range(2 ** d):
                div = [(enc >> i) & 1 for i in range(d)] + [1]
                if not any(poly_mod(m, div)):
                    return False
        return True

    for enc in range(2 ** degree):
        cand = [(enc >> i) & 1 for i in range(degree)] + [1]
        if irreducible(cand):
            return tuple(cand)
    raise AssertionError


def test_prime_field_creation():
    F = field_create(23, 1)
    assert F.q == 23
    assert F.mul_enc(15, 17) == (15 * 17) % 23 == 2


def test_gf4_unique_modulus():
    F = field_create(2, 2, modulus=[1, 1, 1])
    assert F.q == 4
    a = 2  # the class of x
    assert F.mul_enc(a, a) == F.add_enc(a, 1)  # x^2 = x + 1


def test_gf32_default_modulus_matches_scan_oracle():
    F = field_create(2, 5)
    assert F.modulus == brute_first_irreducible_gf2(5)


def test_field_create_errors():
    with pytest.raises(ValueError):
        field_create(6, 1)
    with pytest.raises(ValueError):
        field_create(2, 2, modulus=[0, 0, 1])  # x^2 is reducible
    with pytest.raises(ValueError):
        field_create(2, 3, modulus=[1, 1, 1])  # degree mismatch
    with pytest.raises(ValueError):
        field_create(2, 0)


def test_field_size_is_bounded_before_the_primality_test(monkeypatch):
    # trial division of 2^61 - 1 would run for hours, and 2^(10^6) has more
    # digits than int-to-str conversion allows; each must name the maximum
    tested = []

    def spy(n):
        tested.append(n)
        return False

    monkeypatch.setattr(field, "_is_prime", spy)
    for p, s in ((2 ** 61 - 1, 1), (10 ** 12 + 39, 1), (2, 10 ** 6), (2, 17), (257, 2)):
        with pytest.raises(ValueError, match=f"^field size {p}\\^{s} exceeds supported "
                                             f"maximum {MAX_Q}$"):
            FieldCtx(p, s)
    assert tested == []
    monkeypatch.undo()
    assert FieldCtx(65521, 1).q == 65521  # the largest prime below the bound
    with pytest.raises(ValueError, match="^characteristic 1 is not prime$"):
        FieldCtx(1, 10 ** 6)


def test_arith_examples():
    F = field_create(23, 1)
    assert F.mul_enc(15, 17) == 2
    assert F.inv_enc(2) == 12
    assert F.mul_enc(2, 12) == 1
    for a in (0, 5, 22):
        assert F.add_enc(a, 0) == a
    assert F.sub_enc(7, 9) == 21
    assert F.pow_enc(2, -1) == 12
    assert F.pow_enc(3, 0) == 1


def test_arith_errors():
    F = field_create(23, 1)
    G = field_create(5, 1)
    with pytest.raises(ZeroDivisionError):
        F.mul_enc(3, F.inv_enc(0))
    with pytest.raises(ZeroDivisionError):
        F.inv_enc(0)
    # symbols of two fields never mix: a word refuses the other field's symbol
    with pytest.raises(ValueError, match="^coordinate 1 is in FieldCtx"):
        F.encodings([F.element(3), G.element(2)])


SHARED_FIELDS = [(7, 1), (2, 5), (7, 2), (257, 1)]


@pytest.mark.parametrize("p,s", SHARED_FIELDS, ids=[f"GF({p ** s})" for p, s in SHARED_FIELDS])
def test_element_zero_and_one_are_the_instances_word_hands_out(p, s):
    F = field_create(p, s)
    for e in range(F.q):
        assert F.element(e) is F.word([e])[0]
    assert F.element(0) is F.word([0])[0] and F.element(1) is F.word([1])[0]
    # the argument is still read through int(), and the refusals are unchanged
    assert F.element(2.9) is F.element("2") is F.word([2])[0]
    for bad in (-1, F.q, 2 ** 62):
        with pytest.raises(ValueError, match=rf"^encoding {bad} out of range for GF\({F.q}\)$"):
            F.element(bad)
    with pytest.raises(ValueError, match="^invalid literal for int"):
        F.element("x")
    with pytest.raises(TypeError):
        F.element(None)


F23 = field_create(23, 1)

# every public entry that takes a scalar from its caller, as a function of
# one bad encoding: x^2 - 2x + 5 (21, 5) is primitive over GF(23)
SCALAR_ENTRIES = {
    "vandermonde locator": lambda e: vandermonde(F23, 2, [1, e]),
    "vandermonde multiplier": lambda e: vandermonde(F23, 2, [1, 2], [1, e]),
    "grs_code locator": lambda e: grs_code(F23, GrsSpec((1, 2, e), 2)),
    "grs_code multiplier": lambda e: grs_code(F23, GrsSpec((1, 2, 3), 2, (1, 1, e))),
    "grs_dual_prescribed": lambda e: grs_dual_prescribed(F23, [1, 2, e], 1),
    "annihilator": lambda e: annihilator(F23, [1, e]),
    "subgroup_affine mult": lambda e: subgroup_affine(F23, [1, e], [0]),
    "subgroup_affine add": lambda e: subgroup_affine(F23, [1], [0, e]),
    "subgroup_cyclic_qplus1 a": lambda e: subgroup_cyclic_qplus1(F23, (e, 5), 4),
    "subgroup_cyclic_qplus1 b": lambda e: subgroup_cyclic_qplus1(F23, (21, e), 4),
    "primitive_quadratic_check a": lambda e: primitive_quadratic_check(F23, e, 5),
    "primitive_quadratic_check b": lambda e: primitive_quadratic_check(F23, 21, e),
    "Poly.constant": lambda e: Poly.constant(F23, e),
    "Poly.scale": lambda e: Poly(F23, (3, 1)).scale(e),
    "Poly.eval": lambda e: Poly(F23, (3, 1)).eval(e),
    "RationalFunction.constant": lambda e: RationalFunction.constant(F23, e),
}


@pytest.mark.parametrize("bad", [-1, 23])
@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
def test_every_scalar_entry_refuses_an_encoding_outside_the_field(entry, bad):
    with pytest.raises(ValueError, match=rf"^encoding {bad} out of range for GF\(23\)$"):
        SCALAR_ENTRIES[entry](bad)


def elements_of(F):
    """The encodings of the FieldElem objects of F that exist."""
    return sorted(obj.enc for obj in gc.get_objects()
                  if isinstance(obj, field.FieldElem) and obj.field is F)


@pytest.mark.parametrize("p,s", [(65521, 1), (3, 7)], ids=["GF(65521)", "GF(2187)"])
def test_a_large_field_makes_only_the_elements_it_hands_out(p, s):
    # above TABLE_Q each element is made on its first lookup and kept, so
    # the instances stay shared without all q of them being built
    F = field_create(p, s)
    assert F.q > field.TABLE_Q and elements_of(F) == []
    enc = 12345 % F.q
    one, e = F.element(1), F.element(enc)
    assert elements_of(F) == [1, enc]
    assert F.element(1) is one and F.element(enc) is e
    assert all(x is y for x, y in zip(F.word([enc, 1, enc]), (e, one, e), strict=True))
    # an encoding past the field is refused, as a smaller field's tuple refuses it
    with pytest.raises(IndexError, match=rf"^encoding {F.q} out of range for GF\({F.q}\)$"):
        F.word([1, F.q])
    assert elements_of(F) == [1, enc]


def test_element_order():
    F = field_create(23, 1)
    assert F.order_enc(1) == 1
    assert F.order_enc(22) == 2
    G = field_create(5, 1)
    assert G.order_enc(2) == 4  # powers 2, 4, 3, 1
    with pytest.raises(ZeroDivisionError):
        F.order_enc(0)


ORDER_FIELDS = [(2, 1), (3, 2), (23, 1), (2, 5), (7, 2), (5, 3), (2, 6)]


@pytest.mark.parametrize("p,s", ORDER_FIELDS, ids=[f"GF({p ** s})" for p, s in ORDER_FIELDS])
def test_element_order_matches_brute_force_powers(p, s):
    F = field_create(p, s)
    for a in range(1, F.q):
        power, order = a, 1
        while power != 1:
            power, order = F.mul_enc(power, a), order + 1
        assert F.order_enc(a) == order


def companion_order(F, a, b):
    """Independent oracle: order of the root of x^2 + a x + b via 2x2 powers."""
    m = [[0, 1], [F.neg_enc(b), F.neg_enc(a)]]
    cur = [[1, 0], [0, 1]]

    def mul(x, y):
        return [
            [
                F.add_enc(F.mul_enc(x[0][0], y[0][0]), F.mul_enc(x[0][1], y[1][0])),
                F.add_enc(F.mul_enc(x[0][0], y[0][1]), F.mul_enc(x[0][1], y[1][1])),
            ],
            [
                F.add_enc(F.mul_enc(x[1][0], y[0][0]), F.mul_enc(x[1][1], y[1][0])),
                F.add_enc(F.mul_enc(x[1][0], y[0][1]), F.mul_enc(x[1][1], y[1][1])),
            ],
        ]

    for k in range(1, F.q ** 2 + 1):
        cur = mul(cur, m)
        if cur == [[1, 0], [0, 1]]:
            return k
    raise AssertionError


def test_primitive_quadratic_paper_instance():
    F = field_create(23, 1)
    # x^2 - 2x + 5
    assert primitive_quadratic_check(F, 21, 5)


def test_primitive_quadratic_gf2():
    F = field_create(2, 1)
    assert primitive_quadratic_check(F, 1, 1)  # x^2 + x + 1, root order 3


def test_primitive_quadratic_search_gf3():
    F = field_create(3, 1)
    a, b = primitive_quadratic_search(F)
    assert companion_order(F, a, b) == 8


def test_primitive_quadratic_rejects_reducible_and_low_order():
    F = field_create(5, 1)
    # x^2 - 1 = (x-1)(x+1)
    assert not primitive_quadratic_check(F, 0, 4)
    # x^2 + 1 is irreducible over GF(5) but its root has order 4, not 24
    assert not primitive_quadratic_check(F, 0, 1)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_primitive_quadratic_check_matches_the_reference(p, s):
    # the norm and trace criterion against the root scan and order test
    F = field_create(p, s)
    for a in range(F.q):
        for b in range(F.q):
            assert primitive_quadratic_check(F, a, b) == reference_quadratic_check(F, a, b), (a, b)


# every field the builders see in the tests and the benchmark; all 70 fields
# with q <= 256 are checked by tests/check_quadratic_search.py
BUILDER_FIELDS = [(5, 1), (7, 1), (3, 2), (2, 4), (23, 1), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]


@pytest.mark.parametrize("p,s", BUILDER_FIELDS)
def test_primitive_quadratic_search_matches_the_reference(p, s):
    F = field_create(p, s)
    assert primitive_quadratic_search(F) == reference_quadratic_search(F)


TEST_FIELDS = [(23, 1, None), (2, 5, None), (7, 2, None), (3, 3, None)]


@pytest.mark.parametrize("p,s,modulus", TEST_FIELDS)
def test_field_axioms_random(p, s, modulus):
    F = field_create(p, s, modulus)
    rng = random.Random(1234 + F.q)
    for _ in range(250):  # 4 fields x 250 = 1000 triples
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        add, mul = F.add_enc, F.mul_enc
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        if a:
            assert mul(a, F.inv_enc(a)) == 1


def test_fermat_all_small_fields():
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4),
                 (23, 1), (5, 2), (3, 3), (2, 5), (7, 2), (61, 1), (2, 6)]:
        F = field_create(p, s)
        assert F.q <= 64
        for a in range(1, F.q):
            assert F.pow_enc(a, F.q - 1) == 1


def test_field_create_deterministic():
    a = field_create(2, 8)
    b = field_create(2, 8)
    assert a.modulus == b.modulus
    assert a == b


def test_serialization_roundtrip():
    F = field_create(2, 5)
    assert FieldCtx.from_obj(F.to_obj()) == F
    G = field_create(23, 1)
    assert G.to_obj() == {"p": 23, "s": 1, "modulus": [0, 1]}


def test_from_obj_shares_one_context_per_field():
    # one context per (p, s, modulus) read, which builds its tables once;
    # the constructor still builds a new one, and a refused field raises
    # on every read
    F = field_create(2, 5)
    shared = FieldCtx.from_obj(F.to_obj())
    assert shared is not F and shared == F
    assert FieldCtx.from_obj(F.to_obj()) is shared
    prime = FieldCtx.from_obj({"p": 23, "s": 1})
    assert FieldCtx.from_obj({"p": 23, "s": 1, "modulus": [4, 5]}) is prime  # unread at s = 1
    assert FieldCtx.from_obj({"p": 2, "s": 5}) is not shared  # no modulus: read as another key
    assert FieldCtx(2, 5, F.modulus) is not shared
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible"):
            FieldCtx.from_obj({"p": 2, "s": 2, "modulus": [1, 0, 1]})


# -- the table set against table-free references -------------------------------


def digit_add(F, a, b):
    """Reference: add the GF(p) digits of a and b one by one."""
    p, out, mult = F.p, 0, 1
    for _ in range(F.s):
        out += (a % p + b % p) % p * mult
        a, b, mult = a // p, b // p, mult * p
    return out


def digit_neg(F, a):
    p, out, mult = F.p, 0, 1
    for _ in range(F.s):
        out += (-a) % p * mult
        a, mult = a // p, mult * p
    return out


ADD_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (2, 1), (23, 1), (2, 5)]


@pytest.mark.parametrize("p,s", ADD_FIELDS, ids=[f"GF({p ** s})" for p, s in ADD_FIELDS])
def test_add_neg_sub_match_digit_reference_on_every_pair(p, s):
    F = field_create(p, s)
    q = F.q
    for a in range(q):
        neg = F.neg_enc(a)
        assert neg == digit_neg(F, a)
        assert F.add_enc(a, neg) == 0  # a + (-a), the sums Zech marks None
        assert F.add_enc(a, 0) == F.add_enc(0, a) == a
        for b in range(q):
            want = digit_add(F, a, b)
            assert F.add_enc(a, b) == want
            assert F.sub_enc(want, b) == a
    assert F.neg_enc(0) == 0 and F.sub_enc(0, 0) == 0


@pytest.mark.parametrize("p,s", ADD_FIELDS, ids=[f"GF({p ** s})" for p, s in ADD_FIELDS])
def test_zech_table_solves_one_plus_alpha_i(p, s):
    F = field_create(p, s)
    nones = []
    for i, z in enumerate(F._zech):
        total = digit_add(F, 1, F._exp[i])
        if z is None:
            nones.append(i)
            assert total == 0
        else:
            assert F._exp[z] == total != 0
    # 1 + alpha^i = 0 only at alpha^i = -1, whose log is (q - 1)/2, or 0 when p = 2
    assert nones == [(F.q - 1) // 2 if p > 2 else 0]
    assert F._log[0] is None and len(F._exp) == 2 * (F.q - 1)


MUL_FIELDS = [(2, 1), (3, 1), (23, 1), (2, 5), (7, 2)]


@pytest.mark.parametrize("p,s", MUL_FIELDS, ids=[f"GF({p ** s})" for p, s in MUL_FIELDS])
def test_mul_inv_pow_match_schoolbook_on_every_element(p, s):
    F = field_create(p, s)
    q = F.q
    for a in range(q):
        for b in range(q):
            assert F.mul_enc(a, b) == F._raw_mul(a, b)
        for e in range(2 * q + 1):
            assert F.pow_enc(a, e) == F._raw_pow(a, e)
        if a:
            inv = F.inv_enc(a)
            assert F._raw_mul(a, inv) == 1
            for e in range(1, q + 1):
                assert F.pow_enc(a, -e) == F._raw_pow(inv, e)
    with pytest.raises(ZeroDivisionError):
        F.inv_enc(0)


class DigitPathCtx(FieldCtx):
    """A FieldCtx whose tables are built through the digit-schoolbook
    product in every field, prime fields included."""

    def _raw_mul(self, a, b):
        p, s, modulus = self.p, self.s, self.modulus
        da = [a // p ** i % p for i in range(s)]
        db = [b // p ** i % p for i in range(s)]
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(len(prod) - 1, s - 1, -1):  # modulus is monic of degree s
            factor = prod[top]
            for i, m in enumerate(modulus):
                prod[top - s + i] = (prod[top - s + i] - factor * m) % p
        return sum(c * p ** i for i, c in enumerate(prod[:s]))


@pytest.mark.parametrize("p", [2, 3, 23, 101, 251])
def test_prime_field_tables_match_the_digit_path(p):
    F, D = field_create(p, 1), DigitPathCtx(p, 1)
    assert (F._exp, F._log, F._zech) == (D._exp, D._log, D._zech)


def test_gf65521_matches_integer_arithmetic():
    p = 65521
    F = field_create(p, 1)
    # the generator is the least primitive root mod p
    factors = [2, 3, 5, 7, 13]  # p - 1 = 2^4 * 3^2 * 5 * 7 * 13
    root = next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in factors))
    assert F._exp[1] == root
    rng = random.Random(p)
    for _ in range(3000):
        a, b, e = rng.randrange(p), rng.randrange(1, p), rng.randrange(-3 * p, 3 * p)
        assert F.mul_enc(a, b) == a * b % p
        assert F.inv_enc(b) == pow(b, -1, p)
        assert F.pow_enc(b, e) == pow(b, e, p)
        assert F.pow_enc(a, abs(e)) == pow(a, abs(e), p)
