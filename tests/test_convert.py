import functools
import inspect
import itertools
import json
import random
import re
from pathlib import Path

import pytest

from stripemerge import codes, convert
from stripemerge.cli import _construct
from stripemerge.bounds import read_lower, total_lower, unchanged_upper
from stripemerge.codes import LinearCode, check_locality, is_mds, is_optimal_lrc, min_distance
from stripemerge.convert import (
    KINDS,
    ConversionPlan,
    ConvertibleCode,
    build_lrc_merge,
    build_mds_merge,
    build_mds_to_lrc,
    execute,
    verify_convertible,
)
from stripemerge.field import field_create, primitive_quadratic_search
from stripemerge.matrix import MatQ
from stripemerge.poly import Poly
from stripemerge.pgl import (
    Mobius,
    ProjPoint,
    RationalFunction,
    all_points,
    cyclic_subgroup_of_order,
    subgroup_affine,
    subgroup_cyclic_qplus1,
    subgroup_dihedral,
)

from paper_lemmas import subfield_elements
from test_packed import CONVERSIONS, conversion

BENCH_REQUESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "instances.json").read_text(
        encoding="utf-8"
    )
)["requests"]


@functools.cache
def bench_cc(name):
    """The builder's conversion for one benchmark request, built once."""
    return _construct(BENCH_REQUESTS[name])


F23 = field_create(23, 1)
QUAD23 = (F23.element(21), F23.element(5))


def group23(d):
    return subgroup_cyclic_qplus1(F23, QUAD23, d)


def random_words(cc, rng):
    words = []
    for code in cc.initials:
        msg = [cc.field.element(rng.randrange(cc.field.q)) for _ in range(code.k)]
        words.append(code.encode(msg))
    return words


@pytest.fixture(scope="module")
def cc_q23():
    return build_mds_merge(F23, group23(4), k=5, t=4, lprime=4,
                           evaluate_at_pole=True, per_initial_dims=(5, 5, 5, 4))


@pytest.fixture(scope="module")
def cc_q32():
    F32 = field_create(2, 5)
    group = subgroup_dihedral(F32, 3, "q_plus")
    sub = cyclic_subgroup_of_order(group, 3)
    return build_lrc_merge(F32, group, sub, k=2, t=2, lprime=2)


@pytest.fixture(scope="module")
def cc_vi():
    return build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4,
                            n_init=(9, 9, 9, 9))


def test_mds_merge_q23_shapes_and_costs(cc_q23):
    assert [c.n for c in cc_q23.initials] == [9, 9, 9, 8]
    assert [c.k for c in cc_q23.initials] == [5, 5, 5, 4]
    assert (cc_q23.final.n, cc_q23.final.k) == (23, 19)
    rep = cc_q23.static_access()
    assert (rep.read_cost, rep.write_cost, rep.per_symbol_read) == (16, 4, 16)
    # every written symbol combines exactly one read per stripe
    for _, triples in cc_q23.plan.terms:
        assert len(triples) == 4
        assert sorted(i for i, _, _ in triples) == [0, 1, 2, 3]


def test_mds_merge_q23_verify(cc_q23):
    report = verify_convertible(cc_q23, check_components=False)
    assert report.ok and report.access_optimal
    assert (report.floors.min_read, report.floors.min_write) == (16, 4)
    assert (report.default_read, report.default_write) == (19, 4)


def test_mds_merge_q23_distance(cc_q23):
    assert min_distance(cc_q23.final) == 5
    assert all(is_mds(c) for c in cc_q23.initials)


def test_mds_merge_t1_trivial():
    cc = build_mds_merge(F23, group23(4), k=4, t=1, lprime=4)
    rep = cc.static_access()
    assert (rep.read_cost, rep.write_cost) == (4, 4)
    assert (cc.final.n, cc.final.k) == (8, 4)
    report = verify_convertible(cc, check_components=True)
    assert report.ok and not report.bounds_applicable


def test_mds_merge_pole_free_route():
    # k + 1 = 5 orbits avoid infinity, so the plain route fits q = 23, l = 4
    cc = build_mds_merge(F23, group23(4), k=4, t=2, lprime=4)
    assert all(not lab.endswith("pinf") for lab in cc.final.labels)
    report = verify_convertible(cc, check_components=True)
    assert report.ok and report.access_optimal


def test_mds_merge_affine_group_fixed_infinity():
    # translation group: infinity is ramified (fixed), so the written block
    # is an ordinary orbit and every pole-swap function degenerates to 1
    F16 = field_create(2, 4)
    trans = subgroup_affine(F16, [F16.one], subfield_elements(F16, 1))
    cc = build_mds_merge(F16, trans, k=3, t=2, lprime=2, evaluate_at_pole=True)
    assert not cc.provenance["evaluate_at_pole"]  # no pole route available
    assert (cc.final.n, cc.final.k) == (8, 6)
    rep = cc.static_access()
    assert (rep.read_cost, rep.write_cost) == (4, 2)
    report = verify_convertible(cc, check_components=True)
    assert report.ok and report.access_optimal


def test_mds_merge_full_cyclic_group_rejected():
    # the order-24 group leaves no room for k >= 24: parameter error
    with pytest.raises(ValueError):
        build_mds_merge(F23, group23(24), k=5, t=4, lprime=24, evaluate_at_pole=True)


def test_mds_merge_validation_errors():
    with pytest.raises(ValueError):
        build_mds_merge(F23, group23(4), k=5, t=5, lprime=4)  # t > group order
    with pytest.raises(ValueError):
        build_mds_merge(F23, group23(4), k=3, t=2, lprime=4)  # group order > k
    with pytest.raises(ValueError):
        build_mds_merge(F23, group23(4), k=5, t=2, lprime=3)  # lprime < group order
    with pytest.raises(ValueError):
        # needs six orbits but only five avoid infinity
        build_mds_merge(F23, group23(4), k=5, t=2, lprime=4, evaluate_at_pole=False)
    with pytest.raises(ValueError):
        build_mds_merge(F23, group23(4), k=5, t=4, lprime=4,
                        evaluate_at_pole=True, per_initial_dims=(5, 5, 5))
    with pytest.raises(ValueError):
        build_mds_merge(F23, group23(4), k=5, t=4, lprime=4,
                        evaluate_at_pole=True, per_initial_dims=(5, 5, 5, 6))


def test_mds_merge_unchanged_values(cc_q23):
    rng = random.Random(2)
    for _ in range(25):
        words = random_words(cc_q23, rng)
        final_word, _ = execute(cc_q23, words)
        for i, pairs in enumerate(cc_q23.plan.unchanged):
            for src, dst in pairs:
                assert final_word[dst] == words[i][src]
                assert cc_q23.initials[i].labels[src] == cc_q23.final.labels[dst]


def test_lrc_merge_q32_shapes_and_costs(cc_q32):
    assert all((c.n, c.k) == (12, 4) for c in cc_q32.initials)
    assert (cc_q32.final.n, cc_q32.final.k) == (18, 8)
    rep = cc_q32.static_access()
    assert (rep.read_cost, rep.write_cost) == (8, 6)
    assert rep.per_symbol_read == 12  # 2 reads per written symbol, 6 written
    for _, triples in cc_q32.plan.terms:
        assert len(triples) == 2


def test_lrc_merge_q32_verify(cc_q32):
    report = verify_convertible(cc_q32, check_components=False)
    assert report.ok and report.access_optimal
    assert (report.floors.min_read, report.floors.min_write) == (8, 6)
    assert (report.reference.min_read, report.reference.min_write) == (8, 6)


def test_lrc_merge_q32_optimal_components(cc_q32):
    assert is_optimal_lrc(cc_q32.initials[0], cc_q32.initial_cert)
    assert is_optimal_lrc(cc_q32.final, cc_q32.final_cert)
    assert min_distance(cc_q32.initials[0]) == 8


def test_lrc_merge_schedule_reconstruction(cc_q32):
    # reconstructed values equal the stored ones on every codeword
    rng = random.Random(3)
    field = cc_q32.field
    sched = cc_q32.plan.schedule[0]
    for _ in range(20):
        words = random_words(cc_q32, rng)
        for i in range(len(cc_q32.initials)):
            for coord, parts in sched.recon:
                acc = field.zero
                for src, coeff in parts:
                    acc = acc + field.element(coeff) * words[i][src]
                assert acc == words[i][coord]


def test_lrc_merge_degenerate_single_coset():
    F32 = field_create(2, 5)
    group = subgroup_dihedral(F32, 3, "q_plus")
    sub = cyclic_subgroup_of_order(group, 3)
    cc = build_lrc_merge(F32, sub, sub, k=2, t=1, lprime=1)
    rep = cc.static_access()
    assert rep.write_cost == 3  # one block of r + delta - 1
    report = verify_convertible(cc, check_components=False)
    assert report.ok and not report.bounds_applicable


def test_lrc_merge_affine_translations():
    F16 = field_create(2, 4)
    big = subgroup_affine(F16, [F16.one], subfield_elements(F16, 2))
    small = subgroup_affine(F16, [F16.one], subfield_elements(F16, 1))
    assert big.is_subgroup(small)
    cc = build_lrc_merge(F16, big, small, k=2, t=2, lprime=2)
    assert cc.provenance["degenerate_locality"]  # r = 1
    rep = cc.static_access()
    assert (rep.read_cost, rep.write_cost) == (4, 4)
    report = verify_convertible(cc, check_components=True)
    assert report.ok and report.access_optimal


def test_lrc_merge_delta3_translation_pair():
    # repair groups of size 4 with two locally-rebuilt symbols per block
    F64 = field_create(2, 6)
    w_all = [e for e in F64.elements() if (e ** 8) == e]  # GF(8)
    nz = [w for w in w_all if w.enc]
    sub4 = [F64.zero, nz[0], nz[1], nz[0] + nz[1]]
    big = subgroup_affine(F64, [F64.one], w_all)
    small = subgroup_affine(F64, [F64.one], sub4)
    cc = build_lrc_merge(F64, big, small, k=2, t=2, lprime=2, delta=3)
    assert (cc.final.n, cc.final.k) == (24, 8)
    assert cc.params.d_final == 11 and cc.params.r == 2
    rep = cc.static_access()
    assert (rep.read_cost, rep.write_cost) == (8, 8)  # 2 of 4 read per block
    assert rep.per_symbol_read == 16
    report = verify_convertible(cc, check_components=False)
    assert report.ok and report.access_optimal
    assert check_locality(cc.final, cc.final_cert)
    assert is_optimal_lrc(cc.initials[0], cc.initial_cert)  # [16,4] with d = 11


def test_lrc_merge_nested_cyclic_odd_characteristic():
    # same shape as the dihedral desk instance, from nested cyclic groups
    G6 = subgroup_cyclic_qplus1(F23, QUAD23, 6)
    H3 = cyclic_subgroup_of_order(G6, 3)
    cc = build_lrc_merge(F23, G6, H3, k=2, t=2, lprime=2, delta=2)
    assert (cc.final.n, cc.final.k) == (18, 8)
    rep = cc.static_access()
    assert (rep.read_cost, rep.write_cost) == (8, 6)
    report = verify_convertible(cc, check_components=False)
    assert report.ok and report.access_optimal
    assert is_optimal_lrc(cc.final, cc.final_cert)  # d = 8 again


def test_lrc_merge_validation_errors():
    F32 = field_create(2, 5)
    group = subgroup_dihedral(F32, 3, "q_plus")
    sub = cyclic_subgroup_of_order(group, 3)
    other = subgroup_dihedral(F32, 1, "q_plus")
    with pytest.raises(ValueError):
        build_lrc_merge(F32, group, other, k=2, t=2, lprime=2)  # not a subgroup
    with pytest.raises(ValueError):
        build_lrc_merge(F32, group, sub, k=2, t=3, lprime=2)  # t > coset count
    with pytest.raises(ValueError):
        build_lrc_merge(F32, group, sub, k=1, t=1, lprime=2)  # cosets > k
    with pytest.raises(ValueError):
        build_lrc_merge(F32, group, sub, k=2, t=2, lprime=2, delta=4)  # r < 1


def test_mds_to_lrc_vi_shapes_and_costs(cc_vi):
    assert all((c.n, c.k) == (9, 4) for c in cc_vi.initials)
    assert (cc_vi.final.n, cc_vi.final.k) == (20, 16)
    assert cc_vi.params.d_final == 4 and cc_vi.params.r == 9
    rep = cc_vi.static_access()
    assert (rep.read_cost, rep.write_cost) == (12, 4)
    assert rep.unchanged_counts == (4, 4, 4, 4)


def test_mds_to_lrc_vi_bounds(cc_vi):
    p = cc_vi.params
    for i in range(4):
        assert len(cc_vi.plan.unchanged[i]) == unchanged_upper(p, i) == 4
        assert len(cc_vi.plan.reads[i]) == read_lower(p, i, 4) == 3
    report = verify_convertible(cc_vi, check_components=False)
    assert report.ok and report.access_optimal
    assert (report.floors.min_read, report.floors.min_write) == (12, 4)


def test_mds_to_lrc_vi_components(cc_vi):
    assert all(is_mds(c) for c in cc_vi.initials)
    assert is_optimal_lrc(cc_vi.final, cc_vi.final_cert)
    assert min_distance(cc_vi.final) == 4


def test_mds_to_lrc_written_block_invertible(cc_vi):
    # the written columns of the parity matrix form an invertible square block
    w = list(cc_vi.plan.written)
    assert len(w) == 4
    block = cc_vi.final.parity.submatrix_cols(w)
    assert block.rows == block.cols == 4
    block.invert()  # raises if singular


def test_mds_to_lrc_larger_instance():
    F37 = field_create(37, 1)
    cc = build_mds_to_lrc(F37, s=2, a=2, tprime=2, delta=2, k_init=6,
                          n_init=(14, 14, 14, 14))
    assert (cc.final.n, cc.final.k) == (30, 24)
    assert cc.params.d_final == 6 and cc.params.r == 14
    w = list(cc.plan.written)
    assert len(w) == 6
    cc.final.parity.submatrix_cols(w).invert()
    assert verify_convertible(cc, check_components=False).ok


def test_mds_to_lrc_supplied_elements():
    # reversed locator assignment: still optimal, different plan
    cc = build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4,
                          n_init=(9, 9, 9, 9), elements=list(range(19, 0, -1)))
    assert verify_convertible(cc, check_components=False).ok
    with pytest.raises(ValueError):
        build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4,
                         n_init=(9, 9, 9, 9), elements=[1, 1] + list(range(17)))
    with pytest.raises(ValueError):
        build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4,
                         n_init=(9, 9, 9, 9), elements=[0, 1, 2])


def test_mds_to_lrc_single_group():
    cc = build_mds_to_lrc(F23, s=2, a=1, tprime=1, delta=2, k_init=4,
                          n_init=(9, 9))
    assert cc.params.n_final == 10 and cc.params.k_final == 8
    assert verify_convertible(cc, check_components=True).ok


def test_mds_to_lrc_validation_errors():
    with pytest.raises(ValueError):
        build_mds_to_lrc(F23, s=1, a=1, tprime=2, delta=2, k_init=4, n_init=(9,) * 2)
    with pytest.raises(ValueError):
        build_mds_to_lrc(F23, s=2, a=2, tprime=2, delta=2, k_init=4, n_init=(9,) * 4)
    with pytest.raises(ValueError):
        build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4, n_init=(9,) * 3)
    with pytest.raises(ValueError):
        build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4, n_init=(6,) * 4)


def test_mds_merge_smallest_full_length_fields():
    # the written block absorbs the whole projective line: n_F = q + 1
    for q, k in ((5, 2), (7, 3)):
        F = field_create(q, 1)
        quad = primitive_quadratic_search(F)
        group = subgroup_cyclic_qplus1(F, quad, 2)
        cc = build_mds_merge(F, group, k=k, t=2, lprime=2, evaluate_at_pole=True)
        assert cc.final.n == min(2 * k + 2, q + 1)
        assert is_mds(cc.final) and all(is_mds(c) for c in cc.initials)
        report = verify_convertible(cc, check_components=False)
        assert report.ok and report.access_optimal


def test_gf9_conversions():
    # MDS merges with and without the pole route, and MDS to LRC, over GF(9)
    F9 = field_create(3, 2)
    group = subgroup_cyclic_qplus1(F9, (F9.element(1), F9.element(5)), 2)
    ccs = [build_mds_merge(F9, group, k=3, t=2, lprime=3, evaluate_at_pole=pole)
           for pole in (False, True)]
    ccs.append(build_mds_to_lrc(F9, s=2, a=1, tprime=1, delta=2, k_init=3, n_init=(5, 5)))
    assert ccs[1].provenance["evaluate_at_pole"]
    rng = random.Random(9)
    for cc in ccs:
        msgs = [[F9.element(rng.randrange(9)) for _ in range(code.k)] for code in cc.initials]
        final_word, _ = execute(cc, [code.encode(m) for code, m in zip(cc.initials, msgs)])
        assert final_word == cc.final.encode([e for m in msgs for e in m])
        report = verify_convertible(cc)
        assert report.ok and report.components_ok and report.access_optimal
        assert (report.measured.read_cost, report.measured.write_cost) == (4, 2)


def full_length_merge(q, k):
    F = field_create(q, 1)
    group = subgroup_cyclic_qplus1(F, primitive_quadratic_search(F), 2)
    return build_mds_merge(F, group, k=k, t=2, lprime=2, evaluate_at_pole=True)


def gf9_merge(pole):
    F9 = field_create(3, 2)
    group = subgroup_cyclic_qplus1(F9, (F9.element(1), F9.element(5)), 2)
    return build_mds_merge(F9, group, k=3, t=2, lprime=3, evaluate_at_pole=pole)


# every build that merges by evaluation: the benchmark's MDS and LRC merges
# (its MDS-to-LRC requests evaluate no terms), the GF(9) merges of
# test_gf9_conversions and the full-length merges of
# test_mds_merge_smallest_full_length_fields
COMPOSED_MERGES = {
    **{name: functools.partial(_construct, request) for name, request in BENCH_REQUESTS.items()
       if request["kind"] != "mds_to_lrc"},
    "gf9": functools.partial(gf9_merge, False),
    "gf9_pole": functools.partial(gf9_merge, True),
    "gf5_full_length": functools.partial(full_length_merge, 5, 2),
    "gf7_full_length": functools.partial(full_length_merge, 7, 3),
}


def built_term_rows(factor, move, basis, places, budgets):
    """The terms built as rational functions and evaluated place by place."""
    return [[(factor * f.substitute(move)).eval_at(p, b).enc for p, b in zip(places, budgets)]
            for f in basis]


@pytest.mark.parametrize("name", sorted(COMPOSED_MERGES))
def test_composed_values_equal_the_built_terms(name, monkeypatch):
    calls = []
    stripe_rows = convert._stripe_rows

    def recording(factor, move, basis, places, budgets, cache):
        rows = stripe_rows(factor, move, basis, places, budgets, cache)
        # a copy, as _merge_by_evaluation scales the kept columns in place
        calls.append((factor, move, basis, places, budgets, [list(row) for row in rows]))
        return rows

    monkeypatch.setattr(convert, "_stripe_rows", recording)
    COMPOSED_MERGES[name]()
    assert calls
    reached = set()
    for factor, move, basis, places, budgets, rows in calls:
        assert rows == built_term_rows(factor, move, basis, places, budgets)
        reached |= {(p.is_infinity, move.point_action(p).is_infinity, b > 0)
                    for p, b in zip(places, budgets)}
    if name.endswith("full_length"):
        # the whole projective line: infinity, with its budget, fixed by the
        # identity and moved to a finite place, and a finite place moved to
        # infinity, beside the composed places
        assert reached == {(True, True, True), (True, False, True),
                           (False, True, False), (False, False, False)}


def test_composed_values_at_a_pole_of_the_factor():
    F7 = field_create(7, 1)
    x = RationalFunction.x(F7)

    def const(c):
        return RationalFunction.constant(F7.element(c))

    factor = RationalFunction(Poly.one(F7), Poly(F7, (F7.neg_enc(1), 1)))  # 1 / (x - 1)
    shift = Mobius(F7, 1, 1, 0, 1)  # x -> x + 1
    # the moved basis functions are (x - 1)^2, x - 1 and x^2 + 3: the first
    # two cancel the factor's pole at 1, the last does not
    basis = [(x - const(2)) ** 2, x - const(2), (x - const(1)) ** 2 + const(3)]
    places = [ProjPoint.of(e) for e in F7.elements()]
    cache: dict = {}
    for budgets in ([0] * 7, [1] * 7):
        rows = convert._stripe_rows(factor, shift, basis[:2], places, budgets, cache)
        assert rows == built_term_rows(factor, shift, basis[:2], places, budgets)
    with pytest.raises(ValueError, match="pole of order 1 at 1 exceeds budget 0"):
        convert._stripe_rows(factor, shift, basis, places, [0] * 7, cache)


def function_with_divisor(F, rng):
    """c * prod (x - beta)^e over three random finite places, e in +-1, +-2:
    zeros and poles at chosen places, and at infinity unless the e sum to 0."""
    x = RationalFunction.x(F)
    f = RationalFunction.constant(F.element(rng.randrange(1, F.q)))
    for beta in rng.sample(list(F.elements()), 3):
        f = f * (x - RationalFunction.constant(beta)) ** rng.choice((-2, -1, 1, 2))
    return f


@pytest.mark.parametrize("p, s", [(7, 1), (2, 3), (3, 2)])
def test_stripe_rows_at_every_place(p, s, monkeypatch):
    """_stripe_rows equals the built terms at every place of the line, with
    budgets 0 to 2, for seeded random Moebius moves, every other one fixing
    infinity, and factors and basis functions with zeros and poles at chosen
    places; a pole beyond the budget raises the built terms' message."""
    F = field_create(p, s)
    rng = random.Random(F.q)
    reached = set()
    derivative = convert._derivative

    def recording(move, pt, img):
        reached.add((pt.is_infinity, img.is_infinity))
        return derivative(move, pt, img)

    monkeypatch.setattr(convert, "_derivative", recording)
    raised = 0
    for trial in range(16):
        c = rng.randrange(1, F.q) if trial % 2 else 0
        while True:
            try:
                move = Mobius(F, rng.randrange(F.q), rng.randrange(F.q), c, rng.randrange(F.q))
                break
            except ValueError:  # a singular matrix
                continue
        factor = function_with_divisor(F, rng)
        basis = [function_with_divisor(F, rng) for _ in range(3)]
        cache: dict = {}
        # one basis function a call, so that a pole of one does not hide the
        # others; the shared cache still serves every place and budget
        for f in basis:
            term = factor * f.substitute(move)  # as built_term_rows builds it
            for pt, budget in itertools.product(all_points(F), range(3)):
                rows = functools.partial(convert._stripe_rows, factor, move, [f], [pt], [budget])
                try:
                    want = term.eval_at(pt, budget).enc
                except ValueError as exc:
                    raised += 1
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        rows(cache)
                    continue
                assert rows(cache) == [[want]]
    # _derivative runs only where a basis function has v != 0 at the moved
    # place: reached with infinity fixed, infinity moved, a finite place
    # moved to infinity, and both places finite
    assert reached == {(True, True), (True, False), (False, True), (False, False)}, reached
    assert raised


def test_construction_is_deterministic():
    import json

    a = build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4,
                         n_init=(9, 9, 9, 9))
    b = build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4,
                         n_init=(9, 9, 9, 9))
    assert json.dumps(a.to_obj(), sort_keys=True) == json.dumps(b.to_obj(), sort_keys=True)
    c = build_mds_merge(F23, group23(4), k=5, t=3, lprime=4, evaluate_at_pole=True)
    d = build_mds_merge(F23, group23(4), k=5, t=3, lprime=4, evaluate_at_pole=True)
    assert json.dumps(c.to_obj(), sort_keys=True) == json.dumps(d.to_obj(), sort_keys=True)


def test_field_size_cap():
    with pytest.raises(ValueError):
        field_create(2, 17)  # q > 2^16 is out of scope


def test_execute_zero_inputs(cc_vi):
    field = cc_vi.field
    words = [tuple(field.zero for _ in range(c.n)) for c in cc_vi.initials]
    final_word, rep = execute(cc_vi, words)
    assert all(e.enc == 0 for e in final_word)
    assert (rep.read_cost, rep.write_cost) == (12, 4)  # costs count accesses


def test_execute_rejects_non_codeword(cc_vi):
    field = cc_vi.field
    words = [list(w) for w in random_words(cc_vi, random.Random(5))]
    words[0][0] = words[0][0] + field.one
    with pytest.raises(ValueError):
        execute(cc_vi, [tuple(w) for w in words])


def rebuilt(obj, **changes):
    """obj built again from its constructor's arguments, read off its
    attributes of the same names, with some of them replaced."""
    names = inspect.signature(type(obj)).parameters
    assert set(changes) <= set(names)
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in names})


def with_plan(cc, **changes):
    """The same conversion with some plan fields replaced."""
    return ConvertibleCode(
        initials=cc.initials,
        final=cc.final,
        plan=rebuilt(cc.plan, **changes),
        initial_cert=cc.initial_cert,
        final_cert=cc.final_cert,
    )


def corrupt_first_term(cc):
    w, triples = cc.plan.terms[0]
    i, coord, coeff = triples[0]
    bad_triples = ((i, coord, coeff % (cc.field.q - 1) + 1),) + triples[1:]
    if bad_triples[0][2] == coeff:
        bad_triples = ((i, coord, (coeff + 1) % cc.field.q or 1),) + triples[1:]
    return with_plan(cc, terms=((w, bad_triples),) + cc.plan.terms[1:])


@pytest.mark.parametrize("name", CONVERSIONS)
def test_execute_detects_corrupt_plan(name):
    # the wrong coefficient changes the first written symbol unless the
    # symbol it multiplies is 0, so the inputs are drawn until it is not
    bad_cc = corrupt_first_term(conversion(name))
    i, coord, _ = bad_cc.plan.terms[0][1][0]
    rng = random.Random(6)
    words = random_words(bad_cc, rng)
    while not words[i][coord]:
        words = random_words(bad_cc, rng)
    with pytest.raises(AssertionError, match="^converted word violates the final parity$"):
        execute(bad_cc, words)


@pytest.mark.parametrize("name", CONVERSIONS)
def test_verify_reports_membership_apart_from_bijectivity(name):
    # a wrong coefficient keeps the map injective but leaves the final code
    report = verify_convertible(corrupt_first_term(conversion(name)), check_components=False)
    assert report.bijective and not report.membership_ok and not report.ok


def test_verify_checks_unchanged_columns_exactly(cc_vi, monkeypatch):
    # two unchanged symbols of stripe 0 swapped in the generator rows, not
    # in the plan's data: the verdict comes from those rows, not from
    # trial runs
    bad = with_plan(cc_vi)
    (a, da), (b, db), *rest = bad.plan.unchanged[0]
    real = ConversionPlan.generator_rows

    def swapped(plan, initials):
        rows = real(plan, initials)
        for row, g in zip(rows, initials[0].generator.data):
            row[da], row[db] = g[b], g[a]
        return rows

    monkeypatch.setattr(ConversionPlan, "generator_rows", swapped)
    report = verify_convertible(bad, check_components=False)
    assert not report.unchanged_ok and not report.ok


def test_verify_executes_once_when_membership_holds(cc_vi, monkeypatch):
    calls = []
    real = convert.execute

    def counted(cc, words):
        calls.append(words)
        return real(cc, words)

    monkeypatch.setattr(convert, "execute", counted)
    assert verify_convertible(cc_vi, check_components=False).ok
    assert len(calls) == 1
    verify_convertible(corrupt_first_term(cc_vi), check_components=False)
    assert len(calls) == 1


def test_verify_compares_the_executed_word_with_the_generator_rows(cc_vi, monkeypatch):
    # the zero word is a codeword, so the final parity check in execute
    # passes it; only the word the all-ones messages predict tells it apart
    F = cc_vi.field
    rows = cc_vi.plan.generator_rows(cc_vi.initials)
    predicted = [functools.reduce(F.add_enc, col, 0) for col in zip(*rows)]
    first = next(j for j, e in enumerate(predicted) if e)

    def zero(cc, words):
        return F.word([0] * cc.final.n), cc.plan.access

    monkeypatch.setattr(convert, "execute", zero)
    with pytest.raises(AssertionError, match=rf"at coordinate {first} of the final word, "
                                             rf"where the generator rows predict {predicted[first]}$"):
        verify_convertible(cc_vi, check_components=False)


def test_compiled_plan_folds_the_schedule(cc_q32):
    compiled = cc_q32.plan
    assert compiled.storage == tuple(s.storage for s in cc_q32.plan.schedule)
    # 6 written symbols from 2 reads each; the rebuilt reads expand to storage
    assert cc_q32.static_access().per_symbol_read == 12
    assert sum(len(tr) for _, tr in compiled.writes) == 16
    assert all(c in compiled.storage[i] for _, tr in compiled.writes for i, c, _ in tr)


def test_compile_rejects_unreachable_reads(cc_q32):
    sched = cc_q32.plan.schedule[0]
    no_recipe = rebuilt(sched, recon=sched.recon[1:])
    with pytest.raises(ValueError, match="unreachable"):
        with_plan(cc_q32, schedule=(no_recipe, sched))
    target, parts = sched.recon[0]
    unread = rebuilt(sched, recon=((target, parts + ((0, 1),)),) + sched.recon[1:])
    with pytest.raises(ValueError, match="unread source"):
        with_plan(cc_q32, schedule=(sched, unread))
    with pytest.raises(ValueError, match="shape"):
        with_plan(cc_q32, schedule=(sched,))


def test_compile_takes_one_recipe_per_rebuilt_read(cc_q32):
    # a second, wrong recipe for a target used to replace the first (or be
    # replaced) without a word, and a recipe for a storage coordinate to be
    # ignored
    sched = cc_q32.plan.schedule[0]
    target, parts = sched.recon[0]
    wrong = (target, tuple((src, (c + 1) % cc_q32.field.q) for src, c in parts))
    for recon in ((wrong, *sched.recon), (*sched.recon, wrong)):
        with pytest.raises(ValueError,
                           match=rf"^plan.schedule\[1\].recon repeats coordinate {target}$"):
            with_plan(cc_q32, schedule=(sched, rebuilt(sched, recon=recon)))
    stored = sched.storage[0]
    of_storage = rebuilt(sched, recon=(*sched.recon, (stored, parts)))
    with pytest.raises(ValueError,
                       match=rf"^plan.schedule\[0\].recon rebuilds storage coordinate {stored}$"):
        with_plan(cc_q32, schedule=(of_storage, sched))


def test_builders_check_the_plan_against_direct_evaluation(monkeypatch):
    # a plan whose first coefficient is off by one must not reach the final code
    real = ConversionPlan.generator_rows

    def skewed(plan, initials):
        (w, ((i, coord, coeff), *more)), *rest = plan.terms
        bad = (w, ((i, coord, coeff % (plan.field.q - 1) + 1), *more))
        return real(rebuilt(plan, terms=(bad, *rest)), initials)

    monkeypatch.setattr(ConversionPlan, "generator_rows", skewed)
    assert_evaluation_builders_fail()


def test_builders_check_every_term_coefficient(monkeypatch):
    # a coefficient read off one basis function is checked on all of them
    real = convert._term_coefficient

    def skewed(field, wvals, rvals):
        return field.add_enc(real(field, wvals, rvals), 1)

    monkeypatch.setattr(convert, "_term_coefficient", skewed)
    assert_evaluation_builders_fail()


def assert_evaluation_builders_fail():
    F32 = field_create(2, 5)
    dihedral = subgroup_dihedral(F32, 3, "q_plus")
    with pytest.raises(AssertionError, match="direct evaluation"):
        build_mds_merge(F23, group23(4), k=4, t=2, lprime=4)
    with pytest.raises(AssertionError, match="direct evaluation"):
        build_lrc_merge(F32, dihedral, cyclic_subgroup_of_order(dihedral, 3),
                        k=2, t=2, lprime=2)


def test_bundle_roundtrip(cc_q32):
    again = ConvertibleCode.from_obj(cc_q32.to_obj())
    rng = random.Random(7)
    words = random_words(again, rng)
    a, _ = execute(again, words)
    b, _ = execute(cc_q32, words)
    assert a == b


def test_measured_costs_meet_floors_everywhere(cc_q23, cc_q32, cc_vi):
    for cc in (cc_q23, cc_q32, cc_vi):
        rep = cc.static_access()
        floors = total_lower(cc.params)
        assert rep.read_cost >= floors.min_read
        assert rep.write_cost >= floors.min_write


# the walk cannot finish these finals within SUBSET_BUDGET and needs over a
# second for each initial stripe
WALK_INFEASIBLE = {"q64_lrc_merge_d2", "q64_lrc_merge_d3"}


def verify_recording_walks(cc, monkeypatch):
    """verify_convertible(cc) and the codes it hands to distance_at_least,
    after checking that those are only check_locality's group codes."""
    walked = []
    real = codes.distance_at_least

    def recorded(code, d, budget=codes.SUBSET_BUDGET):
        walked.append(code)
        return real(code, d, budget)

    with monkeypatch.context() as m:
        m.setattr(codes, "distance_at_least", recorded)
        report = verify_convertible(cc)
    components = (*cc.initials, cc.final)
    assert not any(code is c for code in walked for c in components)
    checks = [(cc.initial_cert, len(cc.initials)), (cc.final_cert, 1)]
    groups = [len(g) for cert, times in checks if cert for _ in range(times) for g in cert.groups]
    assert [code.n for code in walked] == groups
    return report


@pytest.mark.parametrize("name", sorted(BENCH_REQUESTS))
def test_certified_components_agree_with_the_walk(name, monkeypatch):
    cc = bench_cc(name)
    report = verify_recording_walks(cc, monkeypatch)
    assert report.components_ok is True
    if name not in WALK_INFEASIBLE:
        # a bundle read back from JSON has no places, so every code is walked
        walked = ConvertibleCode.from_obj(cc.to_obj())
        assert all(c.places is None for c in (*walked.initials, walked.final))
        assert verify_convertible(walked).to_obj() == report.to_obj()


def test_mds_to_lrc_gf101_final_is_certified(monkeypatch):
    # a [40, 32, 7] final whose subset walk takes about 30 s: its repeated
    # gamma places certify it in one folded kernel solve
    cc = _construct({"kind": "mds_to_lrc", "field": {"p": 101, "s": 1},
                     "params": {"s": 2, "a": 2, "tprime": 2, "delta": 3, "k_init": 8,
                                "n_init": [14] * 4}})
    assert (cc.final.n, cc.final.k, cc.params.d_final) == (40, 32, 7)
    report = verify_recording_walks(cc, monkeypatch)
    assert report.components_ok is True and report.access_optimal is True


@pytest.mark.parametrize("name", sorted(BENCH_REQUESTS))
def test_bundle_params_are_derived_from_the_codes(name):
    cc = bench_cc(name)
    obj = cc.to_obj()
    assert ConvertibleCode.from_obj(obj).params == cc.params
    for key, value in obj["params"].items():
        off = [value[0] + 1, *value[1:]] if isinstance(value, list) else value + 1
        with pytest.raises(ValueError, match="^params"):
            ConvertibleCode.from_obj(dict(obj, params=dict(obj["params"], **{key: off})))


@pytest.mark.parametrize("name", sorted(BENCH_REQUESTS))
def test_bundle_kind_is_derived_from_the_certificates(name):
    cc = bench_cc(name)
    obj = cc.to_obj()
    assert cc.kind == obj["kind"] == BENCH_REQUESTS[name]["kind"]
    assert ConvertibleCode.from_obj(obj).kind == cc.kind
    for other in set(KINDS.values()) - {cc.kind}:
        with pytest.raises(ValueError, match="^kind"):
            ConvertibleCode.from_obj(dict(obj, kind=other))
    if cc.kind == "mds_merge":
        # an MDS final is a (k, n - k + 1)-LRC with one group, but such a
        # certificate makes the bundle an MDS-to-LRC conversion
        n, k = cc.final.n, cc.final.k
        cert = {"r": k, "delta": n - k + 1, "groups": [list(range(n))]}
        with pytest.raises(ValueError, match="^kind"):
            ConvertibleCode.from_obj(dict(obj, final_cert=cert))
        # with delta = 2 the one group is too large, which is refused first
        with pytest.raises(ValueError, match=r"^group \(0, 1,.*\) larger than"):
            ConvertibleCode.from_obj(dict(obj, final_cert=dict(cert, delta=2)))
    F29 = field_create(29, 1)
    first = cc.initials[0]
    foreign = LinearCode(F29, generator=MatQ(F29, [[1] * first.n]), labels=first.labels)
    with pytest.raises(ValueError, match=r"^initials\[0\] is over FieldCtx\(GF\(29\)\)"):
        ConvertibleCode(
            initials=(foreign, *cc.initials[1:]),
            final=cc.final,
            plan=cc.plan,
            initial_cert=cc.initial_cert,
            final_cert=cc.final_cert,
        )
    # a field above every benchmark field, so that every coefficient is an element of it
    F67 = field_create(67, 1)
    with pytest.raises(ValueError, match=r"^plan is over FieldCtx\(GF\(67\)\)"):
        ConvertibleCode(
            initials=cc.initials,
            final=cc.final,
            plan=rebuilt(cc.plan, field=F67),
            initial_cert=cc.initial_cert,
            final_cert=cc.final_cert,
        )
