import json
import random

import pytest

from stripemerge.convert import build_mds_merge
from stripemerge.field import FieldCtx, field_create
from stripemerge.pgl import (
    GroupTable,
    Mobius,
    RationalFunction,
    build_group,
    cyclic_subgroup_of_order,
    fixed_field_divisor,
    fixed_field_generator,
    place_obj,
    split_structure,
    subgroup_affine,
    subgroup_cyclic_qplus1,
    subgroup_dihedral,
)
from stripemerge.poly import Poly, poly_from_roots

from paper_lemmas import (
    factored_cases,
    factored_disagreements,
    group_cases,
    group_disagreements,
    multiplicative_subgroup,
    subfield_elements,
)

F23 = field_create(23, 1)
QUAD23 = (21, 5)  # x^2 - 2x + 5

# the six orbits of the order-4 subgroup, as listed for the q=23 instance
ORBITS23 = [
    {"inf", "9", "14", "19"},
    {"20", "5", "6", "4"},
    {"2", "16", "18", "13"},
    {"21", "7", "17", "11"},
    {"12", "3", "15", "10"},
    {"0", "8", "1", "22"},
]


# a place is its index: the encoding, and q for infinity
INF23 = F23.q


def test_point_action_examples():
    eye = Mobius.identity(F23)
    for p in range(F23.q + 1):
        assert eye.point_action(p) == p
    swap = Mobius(F23, 0, 1, 1, 0)
    assert swap.point_action(0) == INF23
    assert swap.point_action(INF23) == 0
    m = Mobius(F23, 0, 1, 21, 5)  # x -> 1/(-2x + 5)
    assert m.point_action(9) == 7  # (18+5)^-1... = 10^-1 = 7


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
    return rng.randrange(F.q + 1)


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
            if f.is_zero() or f.local(p)[0] < 0:
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
    got = [{str(place_obj(F23, p)) for p in orbit} for orbit in ss.free_orbits]
    for want in ORBITS23:
        assert want in got
    assert len(got) == 6 and not ss.ramified


def test_cyclic_subgroup_validation():
    with pytest.raises(ValueError):
        subgroup_cyclic_qplus1(F23, QUAD23, 5)  # 5 does not divide 24
    # non-primitive quadratic rejected
    with pytest.raises(ValueError):
        subgroup_cyclic_qplus1(F23, (0, 22), 4)


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
        assert rep == min(orbit)
        for j, sigma in enumerate(group.elements):
            assert sigma.place_action(rep) == orbit[j]


def test_affine_trivial_and_translations():
    F9 = field_create(3, 2)
    trivial = subgroup_affine(F9, [1], [0])
    assert trivial.order == 1
    # translations by the prime subfield: orbits are cosets, infinity fixed
    prime = subfield_elements(F9, 1)
    trans = subgroup_affine(F9, [1], prime)
    assert trans.order == 3
    ss = split_structure(trans)
    assert len(ss.ramified) == 1 and ss.ramified[0] == F9.q
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
    not_stable = [0, next(e for e in w if e not in (0, 1))]
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
    trans = subgroup_affine(F3, [1], list(range(F3.q)))
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
    assert x.eval_at(3, 0) == 3
    # x^{k-1} at infinity with budget k-1 extracts the leading coefficient
    f = RationalFunction(Poly(F5, [0, 0, 0, 1]), Poly.one(F5))
    assert f.eval_at(F5.q, 3) == 1
    g = RationalFunction(Poly(F5, [4, 1]), Poly(F5, [3, 1]))  # (x-1)/(x-2)
    assert g.eval_at(2, 1) == 1
    with pytest.raises(ValueError):
        g.eval_at(2, 0)


def quotient(F, a, b):
    return F.mul_enc(a, F.inv_enc(b))


def test_eval_at_reads_local_expansion():
    """eval_at(P, m) is 0 when v_P(f) + m > 0, raises when it is < 0, and
    is otherwise the unit value of local(P); where the denominator does
    not vanish it is num(beta) / den(beta), local splits off any root of
    the numerator."""
    for F, seed in ((field_create(5, 1), 11), (field_create(3, 2), 12)):
        rng = random.Random(seed)
        for _ in range(40):
            f = random_ratfun(F, rng)
            if f.is_zero():
                continue
            for p in range(F.q + 1):
                v, u = f.local(p)
                assert v == divided_local(f, p)[0]
                if p == F.q:
                    assert u == quotient(F, f.num.coeffs[-1], f.den.coeffs[-1])
                elif f.den.eval(p):
                    assert v >= 0
                    assert quotient(F, f.num.eval(p), f.den.eval(p)) == f.eval_at(p)
                    # at a root of num, v is its multiplicity and u the value
                    # of num / (x - beta)^v over den
                    lin = Poly(F, (F.neg_enc(p), 1))
                    rest, m = f.num, 0
                    while not rest.eval(p):
                        rest, m = rest // lin, m + 1
                    assert v == m
                    assert u == quotient(F, rest.eval(p), f.den.eval(p))
                for budget in range(3):
                    if v + budget < 0:
                        where = "infinity" if p == F.q else p
                        with pytest.raises(ValueError, match=f"pole of order {-v} at {where} "):
                            f.eval_at(p, budget)
                        continue
                    want = 0 if v + budget else u
                    assert f.eval_at(p, budget) == want


def divided_local(f, p):
    """(v, u) of local(p) by long division: at finite beta, divide each of
    num and den by X - beta while the remainder, the value at beta, is 0."""
    F = f.field
    if p == F.q:
        return f.den.degree - f.num.degree, F.mul_enc(f.num.coeffs[-1], F.inv_enc(f.den.coeffs[-1]))
    lin = Poly(F, (F.neg_enc(p), 1))

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
        num = poly_from_roots(F, [r for r in zeros for _ in range(rng.randrange(1, 4))])
        den = poly_from_roots(F, [r for r in poles for _ in range(rng.randrange(1, 4))])
        num = num * Poly(F, [rng.randrange(1, F.q), rng.randrange(F.q)])
        f = RationalFunction(num, den)
        for place in range(F.q + 1):
            want = divided_local(f, place)
            passes.clear()
            assert f.local(place) == want
            if place != F.q:
                assert len(passes) == abs(want[0]) + 2


FACTORED_FIELDS = [(5, 1), (2, 3), (3, 2), (23, 1), (2, 5), (7, 2), (257, 1)]


@pytest.mark.parametrize("p, s", FACTORED_FIELDS, ids=[f"GF({p ** s})" for p, s in FACTORED_FIELDS])
def test_factored_local_equals_the_multiplied_out_function(p, s, monkeypatch):
    """FactoredFunction.local and eval_at equal the multiplied-out
    function's at every place, infinity included, for roots of
    multiplicity up to 3, 0 among them, non-monic parts with zeros and
    poles, places where z takes a part's c, and budgets that raise; and
    z's local, and that of z - c, is taken once per place for every
    function that shares it."""
    F = field_create(p, s)
    checks, reached, bad = factored_disagreements(F, random.Random(29 + F.q), 12)
    assert checks and bad == []
    assert reached == {"infinity", "root", "pole of z", "zero of z", "z = c", "z finite", "raised"}
    taken = []
    local = RationalFunction.local
    monkeypatch.setattr(RationalFunction, "local",
                        lambda f, place: taken.append((f.to_obj(), place)) or local(f, place))
    for _, fns in factored_cases(F, random.Random(F.q), 6):
        taken.clear()
        for fn in fns * 2:
            for place in range(F.q + 1):
                fn.local(place)
        assert len(taken) == len({(json.dumps(f), place) for f, place in taken})


def test_valuation_and_divisor():
    F5 = field_create(5, 1)
    x = RationalFunction.x(F5)
    assert x.local(F5.q)[0] == -1
    assert x.local(0)[0] == 1
    support, residual = x.divisor_support()
    assert support == {0: 1, F5.q: -1} and residual == 0
    rng = random.Random(10)
    for _ in range(100):
        f, g = random_ratfun(F5, rng), random_ratfun(F5, rng)
        p = random_point(F5, rng)
        if f.is_zero() or g.is_zero() or (f * g).is_zero():
            continue
        assert (f * g).local(p)[0] == f.local(p)[0] + g.local(p)[0]


def test_divisor_of_recorded_generator():
    group = subgroup_cyclic_qplus1(F23, QUAD23, 4)
    z = fixed_field_generator(group)
    assert z.local(INF23)[0] == -1  # deg num = deg den + 1
    support, residual = z.divisor_support()
    poles = {p for p, v in support.items() if v < 0}
    den_roots = {e for e in range(F23.q) if z.den.eval(e) == 0}
    assert poles == den_roots | {INF23}
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
        m = Mobius(big, 1, 1, 0, 1)  # x |-> x + 1, which moves places by -1
        assert m.place_action(0) == big.q - 1
        assert m.point_action(0) == 1
        assert len(m.place_table()) == 1 and len(m.point_table()) == 1


def test_actions_return_the_table_indices():
    m = Mobius(F23, 0, 1, 21, 5)
    assert m.point_action(9) == m.point_table()[9] == 7
    assert m.place_action(INF23) == m.place_table()[INF23]
    assert all(type(m.place_action(i)) is int for i in range(F23.q + 1))
    assert [place_obj(F23, i) for i in (0, 22, INF23)] == [0, 22, "inf"]


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
    zero = RationalFunction.constant(F, 0)
    f = random_ratfun(F, rng)
    assert f - f == zero and (f - f).den == Poly.one(F)
    assert zero * f == zero and f + zero == f and zero ** 0 == RationalFunction.constant(F, 1)
    with pytest.raises(ZeroDivisionError):
        zero ** -1
