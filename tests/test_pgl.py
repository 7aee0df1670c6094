import random

import pytest

from stripemerge.field import field_create
from stripemerge.pgl import (
    GroupTable,
    Mobius,
    ProjPoint,
    RationalFunction,
    all_points,
    build_group,
    cyclic_subgroup_of_order,
    fixed_field_generator,
    split_structure,
    subgroup_affine,
    subgroup_cyclic_qplus1,
    subgroup_dihedral,
)
from stripemerge.poly import Poly

from paper_lemmas import multiplicative_subgroup, subfield_elements

F23 = field_create(23, 1)
QUAD23 = (F23.element(21), F23.element(5))  # x^2 - 2x + 5

# the six orbits of the order-4 subgroup, as listed for the q=23 instance
ORBITS23 = [
    {"inf", "9", "14", "19"},
    {"20", "5", "6", "4"},
    {"2", "16", "18", "13"},
    {"21", "7", "17", "11"},
    {"12", "3", "15", "10"},
    {"0", "8", "1", "22"},
]


def pt(F, enc):
    return ProjPoint.of(F.element(enc))


INF = ProjPoint.infinity()


def test_point_action_examples():
    eye = Mobius.identity(F23)
    for p in all_points(F23):
        assert eye.point_action(p) == p
    swap = Mobius(F23, 0, 1, 1, 0)
    assert swap.point_action(pt(F23, 0)) == INF
    assert swap.point_action(INF) == pt(F23, 0)
    m = Mobius(F23, 0, 1, 21, 5)  # x -> 1/(-2x + 5)
    assert m.point_action(pt(F23, 9)) == pt(F23, 7)  # (18+5)^-1... = 10^-1 = 7


def test_place_action_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        m = random_mobius(F23, rng)
        p = random_point(F23, rng)
        assert m.place_action(m.inverse().place_action(p)) == p
        assert Mobius.identity(F23).place_action(p) == p


def random_mobius(F, rng):
    while True:
        a, b, c, d = (rng.randrange(F.q) for _ in range(4))
        det = F.sub_enc(F.mul_enc(a, d), F.mul_enc(b, c))
        if det:
            return Mobius(F, a, b, c, d)


def random_point(F, rng):
    enc = rng.randrange(F.q + 1)
    return INF if enc == F.q else pt(F, enc)


def random_ratfun(F, rng, max_deg=3):
    while True:
        num = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, max_deg + 2))])
        den = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, max_deg + 2))])
        if not num.is_zero() and not den.is_zero():
            return RationalFunction(num, den)


def test_substitute_examples():
    x = RationalFunction.x(F23)
    assert x.substitute(Mobius.identity(F23)) == x
    # eta^6 sends x to (3x - 1)/(5x + 1)
    eta = Mobius(F23, 0, 1, F23.neg_enc(5), F23.neg_enc(21))
    img = x.substitute(eta.power(6))
    want = RationalFunction(Poly(F23, [22, 3]), Poly(F23, [1, 5]))
    assert img == want


def test_apply_preserves_degree():
    rng = random.Random(6)
    for _ in range(60):
        f = random_ratfun(F23, rng)
        m = random_mobius(F23, rng)
        assert f.substitute(m).degree == f.degree


def test_action_contract():
    # (sigma f)(sigma P) = f(P) whenever f is regular at P
    rng = random.Random(7)
    checked = 0
    for F in (F23, field_create(2, 3)):
        while checked < (250 if F is F23 else 500):
            f = random_ratfun(F, rng)
            m = random_mobius(F, rng)
            p = random_point(F, rng)
            if f.is_zero() or f.valuation(p) < 0:
                continue
            lhs = f.substitute(m).eval_at(m.place_action(p), 0)
            assert lhs == f.eval_at(p, 0)
            checked += 1


def test_place_action_composition():
    rng = random.Random(8)
    for _ in range(100):
        m1, m2 = random_mobius(F23, rng), random_mobius(F23, rng)
        p = random_point(F23, rng)
        assert m1.compose(m2).place_action(p) == m1.place_action(m2.place_action(p))


def test_compose_matches_substitution_order():
    rng = random.Random(9)
    x = RationalFunction.x(F23)
    for _ in range(30):
        m1, m2 = random_mobius(F23, rng), random_mobius(F23, rng)
        composed = x.substitute(m1.compose(m2))
        nested = x.substitute(m2).substitute(m1)
        assert composed == nested


def test_cyclic_subgroup_trivial_and_full():
    trivial = subgroup_cyclic_qplus1(F23, QUAD23, 1)
    assert trivial.order == 1
    full = subgroup_cyclic_qplus1(F23, QUAD23, 24)
    assert full.order == 24
    ss = split_structure(full)
    assert len(ss.free_orbits) == 1 and len(ss.free_orbits[0]) == 24
    assert not ss.ramified


def test_cyclic_subgroup_order4_orbits():
    group = subgroup_cyclic_qplus1(F23, QUAD23, 4)
    ss = split_structure(group)
    got = [{p.label() for p in orbit} for orbit in ss.free_orbits]
    for want in ORBITS23:
        assert want in got
    assert len(got) == 6 and not ss.ramified


def test_cyclic_subgroup_validation():
    with pytest.raises(ValueError):
        subgroup_cyclic_qplus1(F23, QUAD23, 5)  # 5 does not divide 24
    # non-primitive quadratic rejected
    with pytest.raises(ValueError):
        subgroup_cyclic_qplus1(F23, (F23.zero, F23.element(22)), 4)


def test_split_structure_trivial_group():
    trivial = GroupTable(F23, [Mobius.identity(F23)])
    ss = split_structure(trivial)
    assert len(ss.free_orbits) == F23.q + 1
    assert all(len(o) == 1 for o in ss.free_orbits)
    assert not ss.ramified


def test_split_structure_orbit_ordering():
    group = subgroup_cyclic_qplus1(F23, QUAD23, 4)
    ss = split_structure(group)
    for orbit in ss.free_orbits:
        rep = orbit[0]
        assert rep.sort_key() == min(p.sort_key() for p in orbit)
        for j, sigma in enumerate(group.elements):
            assert sigma.place_action(rep) == orbit[j]


def test_affine_trivial_and_translations():
    F9 = field_create(3, 2)
    trivial = subgroup_affine(F9, [F9.one], [F9.zero])
    assert trivial.order == 1
    # translations by the prime subfield: orbits are cosets, infinity fixed
    prime = subfield_elements(F9, 1)
    trans = subgroup_affine(F9, [F9.one], prime)
    assert trans.order == 3
    ss = split_structure(trans)
    assert len(ss.ramified) == 1 and ss.ramified[0].is_infinity
    assert len(ss.free_orbits) == 3  # 9 points in cosets of GF(3)


def test_affine_gf16_census():
    F16 = field_create(2, 4)
    mult = multiplicative_subgroup(F16, 3)
    add = subfield_elements(F16, 2)
    group = subgroup_affine(F16, mult, add)
    assert group.order == 12
    ss = split_structure(group)
    # (q - p^v)/(u p^v) = (16 - 4)/12 = 1 completely split base place
    assert len(ss.free_orbits) == 1
    assert len(ss.ramified) == 5  # infinity plus the p^v points of index u


def test_affine_closure_violation():
    F16 = field_create(2, 4)
    mult = multiplicative_subgroup(F16, 3)
    w = subfield_elements(F16, 2)
    not_stable = [F16.zero, next(e for e in w if e.enc not in (0, 1))]
    with pytest.raises(ValueError):
        subgroup_affine(F16, mult, not_stable)


def test_dihedral_small():
    F32 = field_create(2, 5)
    tiny = subgroup_dihedral(F32, 1, "q_plus")
    assert tiny.order == 2
    group = subgroup_dihedral(F32, 3, "q_plus")
    assert group.order == 6
    ss = split_structure(group)
    assert len(ss.free_orbits) == 5 and len(ss.ramified) == 3  # 30 split points
    F8 = field_create(2, 3)
    g8 = subgroup_dihedral(F8, 3, "q_plus")
    assert g8.order == 6
    ss8 = split_structure(g8)
    assert len(ss8.free_orbits) == 1 and len(ss8.ramified) == 3


def test_dihedral_q_minus():
    F16 = field_create(2, 4)
    group = subgroup_dihedral(F16, 5, "q_minus")
    assert group.order == 10
    ss = split_structure(group)
    assert len(ss.ramified) <= 2 * group.order - 2


def test_dihedral_validation():
    with pytest.raises(ValueError):
        subgroup_dihedral(F23, 4, "q_plus")  # odd characteristic
    F32 = field_create(2, 5)
    with pytest.raises(ValueError):
        subgroup_dihedral(F32, 4, "q_plus")  # 4 does not divide 33
    with pytest.raises(ValueError):
        subgroup_dihedral(F32, 3, "sideways")


def test_group_table_validation():
    eta = Mobius(F23, 0, 1, F23.neg_enc(5), F23.neg_enc(21))
    with pytest.raises(ValueError):
        GroupTable(F23, [eta])  # no identity, not closed
    with pytest.raises(ValueError):
        GroupTable(F23, [Mobius.identity(F23), eta])


def test_left_coset_reps():
    F32 = field_create(2, 5)
    group = subgroup_dihedral(F32, 3, "q_plus")
    sub = cyclic_subgroup_of_order(group, 3)
    reps = group.left_coset_reps(sub)
    assert len(reps) == 2
    assert reps[0].is_identity()
    covered = {rep.compose(h).m for rep in reps for h in sub.elements}
    assert covered == {g.m for g in group.elements}


def test_fixed_field_generator_trivial():
    trivial = GroupTable(F23, [Mobius.identity(F23)])
    assert fixed_field_generator(trivial) == RationalFunction.x(F23)


def test_fixed_field_generator_order4_matches_recorded():
    group = subgroup_cyclic_qplus1(F23, QUAD23, 4)
    z = fixed_field_generator(group)
    assert z.num.to_obj() == [7, 4, 8, 0, 1]
    assert z.den.to_obj() == [21, 11, 4, 1]
    for sigma in group.elements:
        assert z.substitute(sigma) == z


def test_fixed_field_generator_translations():
    F3 = field_create(3, 1)
    trans = subgroup_affine(F3, [F3.one], list(F3.elements()))
    z = fixed_field_generator(trans)
    assert z.den.to_obj() == [1]
    assert z.num.to_obj() == [0, 2, 0, 1]  # x^3 - x


def test_fixed_field_generator_invariance_and_degree():
    for group in (
        subgroup_cyclic_qplus1(F23, QUAD23, 6),
        cyclic_subgroup_of_order(subgroup_dihedral(field_create(2, 5), 3, "q_plus"), 3),
    ):
        z = fixed_field_generator(group)
        assert z.degree == group.order
        for sigma in group.elements:
            assert z.substitute(sigma) == z


def test_ratfun_eval_examples():
    F5 = field_create(5, 1)
    x = RationalFunction.x(F5)
    assert x.eval_at(pt(F5, 3), 0) == F5.element(3)
    # x^{k-1} at infinity with budget k-1 extracts the leading coefficient
    f = RationalFunction.from_poly(Poly(F5, [0, 0, 0, 1]))
    assert f.eval_at(INF, 3) == F5.one
    g = RationalFunction(Poly(F5, [4, 1]), Poly(F5, [3, 1]))  # (x-1)/(x-2)
    assert g.eval_at(pt(F5, 2), 1) == F5.one
    with pytest.raises(ValueError):
        g.eval_at(pt(F5, 2), 0)


def test_eval_at_reads_local_expansion():
    """eval_at(P, m) is 0 when v_P(f) + m > 0, raises when it is < 0, and
    is otherwise the unit value of local(P); where the denominator does
    not vanish it is num(beta) / den(beta), local splits off any root of
    the numerator, and eval_enc is its encoding."""
    for F, seed in ((field_create(5, 1), 11), (field_create(3, 2), 12)):
        rng = random.Random(seed)
        for _ in range(40):
            f = random_ratfun(F, rng)
            if f.is_zero():
                continue
            for p in all_points(F):
                v, u = f.local(p)
                assert v == f.valuation(p)
                if p.is_infinity:
                    assert u == (f.num.leading() / f.den.leading()).enc
                elif f.den.eval(p.finite).enc:
                    assert v >= 0
                    assert (f.num.eval(p.finite) / f.den.eval(p.finite)).enc == \
                        f.eval_at(p).enc
                    # at a root of num, v is its multiplicity and u the value
                    # of num / (x - beta)^v over den
                    lin = Poly(F, (F.neg_enc(p.finite.enc), 1))
                    rest, m = f.num, 0
                    while not rest.eval(p.finite).enc:
                        rest, m = rest // lin, m + 1
                    assert v == m
                    assert u == (rest.eval(p.finite) / f.den.eval(p.finite)).enc
                for budget in range(3):
                    if v + budget < 0:
                        where = "infinity" if p.is_infinity else p.finite.enc
                        with pytest.raises(ValueError, match=f"pole of order {-v} at {where} "):
                            f.eval_at(p, budget)
                        continue
                    want = 0 if v + budget else u
                    assert f.eval_at(p, budget).enc == f.eval_enc(p, budget) == want


def test_valuation_and_divisor():
    F5 = field_create(5, 1)
    x = RationalFunction.x(F5)
    assert x.valuation(INF) == -1
    assert x.valuation(pt(F5, 0)) == 1
    support, residual = x.divisor_support()
    assert support == {pt(F5, 0): 1, INF: -1} and residual == 0
    rng = random.Random(10)
    for _ in range(100):
        f, g = random_ratfun(F5, rng), random_ratfun(F5, rng)
        p = random_point(F5, rng)
        if f.is_zero() or g.is_zero() or (f * g).is_zero():
            continue
        assert (f * g).valuation(p) == f.valuation(p) + g.valuation(p)


def test_divisor_of_recorded_generator():
    group = subgroup_cyclic_qplus1(F23, QUAD23, 4)
    z = fixed_field_generator(group)
    assert z.valuation(INF) == -1  # deg num = deg den + 1
    support, residual = z.divisor_support()
    poles = {p for p, v in support.items() if v < 0}
    den_roots = {pt(F23, e.enc) for e in F23.elements() if z.den.eval(e).enc == 0}
    assert poles == den_roots | {INF}
    total = sum(support.values()) + residual
    assert total == 0


def test_group_serialization_roundtrip():
    group = subgroup_cyclic_qplus1(F23, QUAD23, 4)
    again = build_group(F23, group.to_obj())
    assert {g.m for g in again.elements} == {g.m for g in group.elements}
    explicit = GroupTable(F23, group.elements)
    again2 = build_group(F23, explicit.to_obj())
    assert {g.m for g in again2.elements} == {g.m for g in group.elements}
