import json
import random

import pytest

from stripemerge.convert import build_mds_merge
from stripemerge.field import FieldCtx, field_create
from stripemerge.pgl import (
    GroupTable,
    Mobius,
    ProjPoint,
    RationalFunction,
    all_points,
    build_group,
    cyclic_subgroup_of_order,
    fixed_field_divisor,
    fixed_field_generator,
    projective_line,
    split_structure,
    subgroup_affine,
    subgroup_cyclic_qplus1,
    subgroup_dihedral,
)
from stripemerge.poly import Poly, poly_from_roots

from paper_lemmas import (
    group_cases,
    group_disagreements,
    multiplicative_subgroup,
    subfield_elements,
)

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


def divided_local(f, p):
    """(v, u) of local(p) by long division: at finite beta, divide each of
    num and den by X - beta while the remainder, the value at beta, is 0."""
    F = f.field
    if p.is_infinity:
        return f.den.degree - f.num.degree, F.mul_enc(f.num.coeffs[-1], F.inv_enc(f.den.coeffs[-1]))
    lin = Poly(F, (F.neg_enc(p.finite.enc), 1))

    def split(poly):
        m = 0
        while True:
            quot, rem = poly.divmod(lin)
            if rem.coeffs:
                return m, rem.coeffs[0]
            poly, m = quot, m + 1

    (m_num, a), (m_den, b) = split(f.num), split(f.den)
    return m_num - m_den, F.mul_enc(a, F.inv_enc(b))


@pytest.mark.parametrize("p, s", ((7, 1), (3, 2)))
def test_local_divides_on_from_the_first_horner_pass(p, s, monkeypatch):
    # seeded functions with zeros and poles of multiplicity up to 3: at
    # every place local gives the (v, u) of long division, and at finite
    # beta it runs |v| + 2 Horner passes, m + 1 on the polynomial with a
    # root of multiplicity m there and one on the other
    F = field_create(p, s)
    rng = random.Random(36 + F.q)
    passes = []
    horner = F.horner
    monkeypatch.setattr(F, "horner", lambda high_first, x: passes.append(x) or horner(high_first, x))
    for _ in range(25):
        zeros, poles = (rng.sample(range(F.q), rng.randrange(0, 3)) for _ in range(2))
        num = poly_from_roots(F, [F.element(r) for r in zeros for _ in range(rng.randrange(1, 4))])
        den = poly_from_roots(F, [F.element(r) for r in poles for _ in range(rng.randrange(1, 4))])
        num = num * Poly(F, [rng.randrange(1, F.q), rng.randrange(F.q)])
        f = RationalFunction(num, den)
        for place in all_points(F):
            want = divided_local(f, place)
            passes.clear()
            assert f.local(place) == want
            if not place.is_infinity:
                assert len(passes) == abs(want[0]) + 2


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


# -- tables, shared groups and Henrici arithmetic -----------------------------


GROUP_FIELDS = ((2, 3), (3, 2), (23, 1), (5, 2), (2, 6))


@pytest.mark.parametrize("p,s", GROUP_FIELDS, ids=[f"GF({p ** s})" for p, s in GROUP_FIELDS])
def test_group_tables_match_the_references(p, s):
    # action tables against reference_image on every point, element
    # orders, closure verdicts and messages, the orbit split and the coset
    # reps against the compose-based references, on every subgroup family
    F = field_create(p, s)
    checks, bad = group_disagreements(F, random.Random(22 * 1000 + F.q))
    assert bad == []
    kinds = {name.split()[0] for name, _ in group_cases(F)}
    assert kinds == {"cyclic_qplus1", "affine", "explicit"} | ({"dihedral"} if p == 2 else set())
    assert checks > 100


def test_action_tables_above_the_product_table_limit():
    # entries are filled on first lookup in every field, so one lookup
    # fills one entry, not q of them, in GF(23) as in GF(65521)
    F = field_create(257, 1)
    checks, bad = group_disagreements(F, random.Random(257), cases=[])
    assert bad == [] and checks == 3 * 29
    for big in (field_create(23, 1), field_create(65521, 1)):
        line = projective_line(big)
        m = Mobius(big, 1, 1, 0, 1)  # x |-> x + 1, which moves places by -1
        assert m.place_action(line[0]) is line[big.q - 1]
        assert m.point_action(line[0]) is line[1]
        assert len(m.place_table()) == 1 and len(m.point_table()) == 1


def test_actions_return_the_shared_points():
    line = projective_line(F23)
    assert all_points(F23) == [line[i] for i in range(24)]
    assert all(a is b for a, b in zip(all_points(F23), all_points(F23)))
    m = Mobius(F23, 0, 1, 21, 5)
    assert m.point_action(pt(F23, 9)) is line[7]
    assert m.place_action(INF) is line[m.place_table()[23]]


def test_build_group_shares_one_table_per_spec():
    spec = {"kind": "cyclic_qplus1", "quad": [21, 5], "d": 4}
    group = build_group(F23, spec)
    assert build_group(F23, dict(spec)) is group
    assert build_group(FieldCtx.from_obj(F23.to_obj()), spec) is group
    assert build_group(F23, {**spec, "d": 6}) is not group
    # what depends only on the group is derived once and shared
    sub = cyclic_subgroup_of_order(group, 2)
    assert cyclic_subgroup_of_order(group, 2) is sub
    assert split_structure(group) is split_structure(group)
    assert group.left_coset_reps(sub) is group.left_coset_reps(sub)
    assert isinstance(group.left_coset_reps(sub), tuple)
    assert fixed_field_generator(group) is fixed_field_generator(group)
    assert fixed_field_divisor(group) is fixed_field_divisor(group)
    assert dict(fixed_field_divisor(group)) == fixed_field_generator(group).divisor_support()[0]


@pytest.mark.parametrize("spec,message", [
    ({"kind": "cyclic_qplus1", "quad": [0, 0], "d": 4}, "not primitive"),
    ({"kind": "cyclic_qplus1", "quad": [21, 5], "d": 5}, "does not divide"),
    ({"kind": "dihedral", "u": 3, "variant": ["q_plus"]}, "even characteristic"),
    ({"kind": "explicit", "elements": [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0]]}, "duplicate"),
])
def test_build_group_refuses_a_bad_spec_on_every_read(spec, message):
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            build_group(F23, spec)


def test_refused_cyclic_subgroup_is_refused_again():
    group = subgroup_cyclic_qplus1(F23, QUAD23, 4)
    for _ in range(2):
        with pytest.raises(ValueError, match="no element of order 3"):
            cyclic_subgroup_of_order(group, 3)
    with pytest.raises(ValueError, match="not a subgroup"):
        group.left_coset_reps(subgroup_cyclic_qplus1(F23, QUAD23, 3))


def test_group_provenance_is_a_copy():
    # a shared group must not hand out its recipe: a caller that edits
    # one bundle's provenance would change every later build of the group
    recipe = {"kind": "cyclic_qplus1", "quad": [21, 5], "d": 4}
    group = build_group(F23, recipe)
    recipe["quad"].append(7)
    obj = group.to_obj()
    obj["quad"].append(99)
    assert group.to_obj() == {"kind": "cyclic_qplus1", "quad": [21, 5], "d": 4}

    def build():
        cc = build_mds_merge(F23, build_group(F23, {"kind": "cyclic_qplus1", "quad": [21, 5], "d": 4}),
                             k=5, t=4, lprime=4, evaluate_at_pole=True, per_initial_dims=(5, 5, 5, 4))
        return cc, json.dumps(cc.to_obj(), sort_keys=True)

    first, before = build()
    first.to_obj()["provenance"]["group"]["quad"].append(3)
    assert build()[1] == before


def ratfun_with_factor(F, rng, common):
    f = random_ratfun(F, rng)
    return RationalFunction(f.num * common, f.den * common) if rng.randrange(2) else f


@pytest.mark.parametrize("p,s", [(23, 1), (2, 3), (5, 2), (257, 1)], ids=["GF(23)", "GF(8)", "GF(25)", "GF(257)"])
def test_henrici_arithmetic_matches_full_reduction(p, s):
    # products, powers, sums and differences, with denominators that
    # share factors half of the time, against a gcd of the whole result
    F = field_create(p, s)
    rng = random.Random(p * 10 + s)
    for _ in range(60):
        common = Poly(F, [rng.randrange(F.q) for _ in range(2)] + [1])
        f, g = ratfun_with_factor(F, rng, common), ratfun_with_factor(F, rng, common)
        shared = RationalFunction(Poly.one(F), common)
        f, g = (f * shared, g * shared) if rng.randrange(2) else (f, g)
        assert f * g == RationalFunction(f.num * g.num, f.den * g.den)
        assert f + g == RationalFunction(f.num * g.den + g.num * f.den, f.den * g.den)
        assert f - g == RationalFunction(f.num * g.den - g.num * f.den, f.den * g.den)
        for e in (0, 1, 2, 3):
            assert f ** e == RationalFunction(f.num ** e, f.den ** e)
            if not f.is_zero():
                assert f ** -e == RationalFunction(f.den ** e, f.num ** e)
        for h in (f * g, f + g, f - g, f ** 2):
            assert h.den.coeffs[-1] == 1 and h.num.gcd(h.den).degree == 0
    zero = RationalFunction.constant(F.zero)
    f = random_ratfun(F, rng)
    assert f - f == zero and (f - f).den == Poly.one(F)
    assert zero * f == zero and f + zero == f and zero ** 0 == RationalFunction.constant(F.one)
    with pytest.raises(ZeroDivisionError):
        zero ** -1
