"""Reference implementations of paper lemmas that only the tests use.

Each one is the direct, slow definition that a faster library routine is
checked against, or a small helper that builds the paper's subgroups for
the tests:

* reference_quadratic_check and reference_quadratic_search: x^2 + a x + b
  is primitive iff no field element is a root and the class of X in
  GF(q)[x]/(x^2 + a x + b) has multiplicative order q^2 - 1, found by
  raising X to (q^2 - 1)/l for each prime l | q^2 - 1 on FieldElem pairs;
* multiplicative_subgroup and subfield_elements: the order-u subgroup of
  GF(q)* and the subfield GF(p^v), by scanning the field;
* enumerated_min_distance: the least weight of m * G over every nonzero
  message m, which codes.min_distance's parity-subset walk is checked
  against;
* restricted_dim: the dimension of a code restricted to a coordinate set;
* reference_grs_certificate: the GRS-dual certificate as one kernel solve
  of the k·w × N system over the folded generator, which
  codes.grs_certificate's dual filter is checked against, on the seeded
  codes of certificate_cases by certificate_disagreements;
* grs_generator: the rows v_j a_j^m of a GRS generator on given places;
* reference_inverses, reference_image, reference_place_action,
  reference_order, reference_closure_error, reference_split and
  reference_coset_reps: a Mobius map's point and place actions on
  homogeneous coordinates, with inverses read off the powers of a
  generator (not through pgl._coord, which fills the action tables),
  and element orders, GroupTable's closure verdict and message, the
  orbit split and the left coset transversal by composing matrices,
  which the action tables and the signature-based group code of pgl are
  checked against, on the groups of group_cases by group_disagreements.
"""

import itertools
import operator
from collections import Counter

from stripemerge.codes import LinearCode, grs_certificate
from stripemerge.field import FieldCtx, FieldElem, _factorize, primitive_quadratic_search
from stripemerge.matrix import MatQ, rank_of_rows
from stripemerge.pgl import (
    GroupTable,
    Mobius,
    all_points,
    cyclic_subgroup_of_order,
    projective_line,
    split_structure,
    subgroup_affine,
    subgroup_cyclic_qplus1,
    subgroup_dihedral,
)


def _quad_mul(x, y, a: FieldElem, b: FieldElem):
    u1, v1 = x
    u2, v2 = y
    vv = v1 * v2
    return (u1 * u2 - b * vv, u1 * v2 + u2 * v1 - a * vv)


def _quad_pow(x, e: int, a: FieldElem, b: FieldElem, field: FieldCtx):
    result = (field.one, field.zero)
    while e:
        if e & 1:
            result = _quad_mul(result, x, a, b)
        x = _quad_mul(x, x, a, b)
        e >>= 1
    return result


def reference_quadratic_check(a: FieldElem, b: FieldElem) -> bool:
    """True iff x^2 + a x + b has no root in GF(q) and X has order q^2 - 1."""
    field = a.field
    for beta in field.elements():
        if beta * beta + a * beta + b == field.zero:
            return False
    root = (field.zero, field.one)
    one = (field.one, field.zero)
    order = field.q ** 2 - 1
    for prime in _factorize(order):
        if _quad_pow(root, order // prime, a, b, field) == one:
            return False
    return True


def reference_quadratic_search(field: FieldCtx) -> tuple[FieldElem, FieldElem]:
    """First (a, b) in ascending-encoding scan that reference_quadratic_check accepts."""
    for a in field.elements():
        for b in field.elements():
            if reference_quadratic_check(a, b):
                return (a, b)
    raise AssertionError("no primitive quadratic exists")


def multiplicative_subgroup(field: FieldCtx, u: int) -> list[FieldElem]:
    """The unique order-u subgroup of GF(q)*, ascending encodings."""
    if u < 1 or (field.q - 1) % u:
        raise ValueError(f"{u} does not divide q - 1 = {field.q - 1}")
    return [e for e in field.elements() if e.enc and e ** u == field.one]


def subfield_elements(field: FieldCtx, v: int) -> list[FieldElem]:
    """GF(p^v) inside GF(p^s): fixed points of the v-fold Frobenius."""
    if v < 1 or field.s % v:
        raise ValueError(f"GF({field.p}^{v}) is not a subfield of GF({field.q})")
    size = field.p ** v
    return [e for e in field.elements() if e ** size == e]


def enumerated_min_distance(code: LinearCode) -> int:
    """Least Hamming weight over the q^k - 1 nonzero messages times G."""
    f = code.field
    g = code.generator.data
    best = code.n + 1
    for msg in itertools.product(range(f.q), repeat=code.k):
        if not any(msg):
            continue
        weight = 0
        for j in range(code.n):
            acc = 0
            for i in range(code.k):
                if msg[i] and g[i][j]:
                    acc = f.add_enc(acc, f.mul_enc(msg[i], g[i][j]))
            if acc:
                weight += 1
                if weight >= best:
                    break
        best = min(best, weight)
    return best


def restricted_dim(code: LinearCode, gamma) -> int:
    """dim of the code punctured to the coordinates in gamma."""
    return code.generator.submatrix_cols(sorted(set(gamma))).rank()


def grs_generator(F: FieldCtx, places, k: int, mults) -> MatQ:
    """Rows m < k of v_j * a_j^m; the place None (infinity) has column
    (0, ..., 0, 1) before its multiplier."""
    return MatQ(F, [
        [F.mul_enc(v, int(m == k - 1) if a is None else F.pow_enc(a, m))
         for a, v in zip(places, mults)]
        for m in range(k)
    ])


def reference_grs_kernel(code: LinearCode, w: int) -> list[list[int]]:
    """The kernel basis, from MatQ.kernel, of the system
    sum_P v_P a_P^m sum_{j at P} g_ij = 0 over generator rows i and
    m < w: one unknown per distinct place P of code.places, in order of
    first appearance, infinity's powers being (0, ..., 0, 1)."""
    f = code.field
    count = Counter(code.places)
    slot = {p: s for s, p in enumerate(count)}
    folded = [[0] * len(slot) for _ in range(code.k)]
    for frow, grow in zip(folded, code.generator.data):
        for p, g in zip(code.places, grow):
            frow[slot[p]] = f.add_enc(frow[slot[p]], g)
    powers = []  # powers[m][s] = a_s^m; infinity's column is (0, ..., 0, 1)
    row = [1] * len(slot)
    for m in range(w):
        powers.append([int(m == w - 1) if p is None else e for p, e in zip(count, row)])
        row = [e if p is None else f.mul_enc(e, p) for p, e in zip(count, row)]
    return MatQ(f, [
        [f.mul_enc(g, a) for g, a in zip(frow, prow)]
        for frow in folded
        for prow in powers
    ]).kernel()


def reference_grs_certificate(code: LinearCode, d: int) -> bool:
    """codes.grs_certificate by its definition: with w = d - 1, True iff
    some vector of reference_grs_kernel(code, w) has no zero entry and
    the parity columns at the coordinates whose place repeats have full
    rank; False for missing or out-of-range places and for w > n - k."""
    f = code.field
    n, k, w = code.n, code.k, d - 1
    places = code.places
    if places is None or len(places) != n:
        return False
    if any(p is not None and not (isinstance(p, int) and 0 <= p < f.q) for p in places):
        return False
    if w < 1:
        return True
    if w > n - k:
        return False
    if not any(all(v) for v in reference_grs_kernel(code, w)):
        return False
    count = Counter(places)
    repeated = [j for j, p in enumerate(places) if count[p] > 1]
    h = code.parity.data if repeated else ()
    return rank_of_rows(f, [[hrow[j] for hrow in h] for j in repeated]) == len(repeated)


CASE_KINDS = ("grs", "subcode", "repeated", "random", "forged", "changed")


def certificate_cases(F: FieldCtx, rng, count: int) -> list[tuple[str, LinearCode]]:
    """(kind, code) pairs over F from count cases, each code carrying
    places, the kinds in turn: a GRS code on distinct places, every other
    one given by a random basis of its dual; a random subcode of one; a
    parity matrix stacking the GRS_w rows of places with repeats (one
    multiplier per place) on random rows; a random generator; a GRS code
    with a forged witness (its places shuffled, or one copied onto another
    coordinate); a GRS code with one generator entry changed.  A case
    with repeated places gives three codes: the parity matrix alone, a
    random generator of the code alone (so code.parity is derived from
    it), and both.  Every other case has a place at infinity, and two in four
    one at 0."""
    q = F.q
    out = []
    i = 0
    while i < count:
        kind = CASE_KINDS[i % len(CASE_KINDS)]
        forced = [p for p, on in ((None, i % 2), (0, i % 4 < 2)) if on]
        size = rng.randrange(4, min(q + 1, 10) + 1)
        pool = [p for p in [*range(q), None] if p not in forced]
        distinct = forced + rng.sample(pool, size - len(forced))
        rng.shuffle(distinct)
        n = len(distinct)
        mults = [rng.randrange(1, q) for _ in range(n)]
        if kind == "repeated":
            places = distinct + [rng.choice(distinct) for _ in range(rng.randrange(1, 4))]
            rng.shuffle(places)
            mult = dict(zip(distinct, mults))
            w = rng.randrange(1, n)
            extra = [[rng.randrange(q) for _ in places] for _ in range(rng.randrange(1, 4))]
            rows = grs_generator(F, places, w, [mult[a] for a in places]).data + extra
            if rank_of_rows(F, rows) == len(rows) < len(places):
                parity = MatQ(F, rows)
                code = LinearCode(F, parity=parity, places=places)
                k = code.k
                mix = MatQ(F, [[rng.randrange(q) for _ in range(k)] for _ in range(k)])
                if mix.rank() == k:
                    gen = mix @ code.generator
                    out += [(kind, code), (kind, LinearCode(F, generator=gen, places=places)),
                            (kind, LinearCode(F, generator=gen, parity=parity, places=places))]
                    i += 1
            continue
        k = rng.randrange(1, n)
        if kind == "random":
            gen = MatQ(F, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        else:
            gen = grs_generator(F, distinct, k, mults)
        places = list(distinct)
        if kind == "subcode" and k > 1:
            mix = MatQ(F, [[rng.randrange(q) for _ in range(k)] for _ in range(rng.randrange(1, k))])
            gen = mix @ gen
        elif kind == "forged":
            if i % 4 < 2:
                rng.shuffle(places)
            else:
                a, b = rng.sample(range(n), 2)
                places[b] = places[a]
        elif kind == "changed":
            data = gen.to_obj()
            r, j = rng.randrange(k), rng.randrange(n)
            data[r][j] = rng.choice([e for e in range(q) if e != data[r][j]])
            gen = MatQ(F, data)
        if gen.rank() != gen.rows:
            continue
        code = LinearCode(F, generator=gen, places=places)
        if kind == "grs" and i % 4:
            mix = MatQ(F, [[rng.randrange(q) for _ in range(n - k)] for _ in range(n - k)])
            if mix.rank() < n - k:
                continue
            code = LinearCode(F, parity=mix @ code.parity, places=places)
        out.append((kind, code))
        i += 1
    return out


def certificate_disagreements(F: FieldCtx, rng, count: int):
    """Compare codes.grs_certificate with reference_grs_certificate for
    d = 1 .. n - k + 2 on certificate_cases(F, rng, count).  Returns the
    checks made, the number that certified a distance d >= 2, the largest
    kernel dimension of the system for such a d, and the disagreements
    as (kind, places, d, fast, reference).  A kernel of dimension >= 2
    never certifies: each of its echelon basis vectors is 0 at the
    others' pivots."""
    checks = certified = widest = 0
    bad = []
    for kind, code in certificate_cases(F, rng, count):
        for d in range(1, code.n - code.k + 3):
            fast, ref = grs_certificate(code, d), reference_grs_certificate(code, d)
            checks += 1
            if fast != ref:
                bad.append((kind, code.places, d, fast, ref))
            if 2 <= d <= code.n - code.k + 1:
                certified += fast
                widest = max(widest, len(reference_grs_kernel(code, d - 1)))
    return checks, certified, widest, bad


# -- groups of Moebius maps, by composing matrices ---------------------------


def reference_inverses(field: FieldCtx) -> list[int]:
    """inverses[v], the w with v w = 1 (0 at v = 0), paired off along the
    powers of a generator g found by repeated multiplication, since
    g^i g^(q - 1 - i) = 1: no inv_enc, exp or log lookup."""
    q = field.q
    for g in range(1, q):
        powers = [1]
        while len(powers) < q - 1 and (x := field.mul_enc(powers[-1], g)) != 1:
            powers.append(x)
        if len(powers) == q - 1:
            break
    inverses = [0] * q
    for i, x in enumerate(powers):
        inverses[x] = powers[-i]
    return inverses


def reference_image(field: FieldCtx, m, pt, inverses):
    """The point pt moved by the matrix m = (a, b, c, d), on homogeneous
    coordinates: beta is (beta : 1) and infinity (1 : 0), (x : z) goes to
    (a x + b z : c x + d z), and (u : v) is infinity at v = 0 and
    u inverses[v] otherwise.  pgl._coord is not used."""
    a, b, c, d = m
    mul, add = field.mul_enc, field.add_enc
    x, z = (1, 0) if pt.finite is None else (pt.finite.enc, 1)
    u, v = add(mul(a, x), mul(b, z)), add(mul(c, x), mul(d, z))
    return projective_line(field)[mul(u, inverses[v]) if v else field.q]


def reference_place_action(g: Mobius, pt, inverses):
    """The place at pt moved by g: the adjugate's image of pt."""
    f = g.field
    a, b, c, d = g.m
    return reference_image(f, (d, f.neg_enc(b), f.neg_enc(c), a), pt, inverses)


def reference_order(g: Mobius) -> int:
    """Least k >= 1 with g composed k times the identity."""
    k, cur = 1, g
    while not cur.is_identity():
        cur, k = cur.compose(g), k + 1
        if k > g.field.q ** 2:
            raise AssertionError("runaway order computation")
    return k


def reference_closure_error(field: FieldCtx, elements):
    """The ValueError message GroupTable(field, elements) gives, found by
    composing matrices in its order of checks, or None for a group."""
    elems = list(elements)
    seen = {e.m for e in elems}
    if len(seen) != len(elems):
        return "duplicate group elements"
    if (1, 0, 0, 1) not in seen:
        return "group table lacks the identity"
    ordered = [Mobius.identity(field)] + sorted(
        (e for e in elems if not e.is_identity()), key=Mobius.sort_key)
    for g in ordered:
        if g.inverse().m not in seen:
            return "group table not closed under inverse"
        for h in ordered:
            if g.compose(h).m not in seen:
                return "group table not closed under composition"
    return None


def reference_split(group: GroupTable):
    """(free orbits, ramified points) of the place action, each orbit
    listed as the group's elements move its least point, by sort_key."""
    remaining = {pt.sort_key(): pt for pt in all_points(group.field)}
    inverses = reference_inverses(group.field)
    free, ramified = [], []
    while remaining:
        rep = remaining.pop(min(remaining))
        images = [reference_place_action(g, rep, inverses) for g in group.elements]
        orbit = {pt.sort_key(): pt for pt in images}
        for key in orbit:
            remaining.pop(key, None)
        if len(orbit) == group.order:
            free.append(tuple(images))
        else:
            ramified.extend(orbit.values())
    free.sort(key=lambda orbit: orbit[0].sort_key())
    return tuple(free), tuple(sorted(ramified, key=lambda pt: pt.sort_key()))


def reference_coset_reps(group: GroupTable, sub: GroupTable) -> list:
    """The first element of each left coset g sub, in canonical order,
    with the cosets found by composing matrices."""
    seen, reps = set(), []
    for g in group.elements:
        coset = frozenset(g.compose(h).m for h in sub.elements)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)
    return reps


def group_cases(F: FieldCtx) -> list:
    """(name, group) for every subgroup family of pgl over F: the order-d
    subgroup of the cyclic group of order q + 1 for each d | q + 1; for
    even q the dihedral groups of order 2u, u | q + 1 (q_plus) and
    u | q - 1 (q_minus); and the affine groups x |-> a x + b with a in
    the order-u subgroup of GF(q)* for each u | q - 1, b in {0}, and
    the translations by the prime field; and for q > 2 the cyclic group
    of order q - 1 of the maps that fix 0 and 1."""
    q = F.q
    cases = []
    quad = primitive_quadratic_search(F)
    for d in (d for d in range(1, q + 2) if (q + 1) % d == 0):
        cases.append((f"cyclic_qplus1 d={d}", subgroup_cyclic_qplus1(F, quad, d)))
    if F.p == 2:
        for variant, size in (("q_plus", q + 1), ("q_minus", q - 1)):
            for u in (u for u in range(1, size + 1) if size % u == 0):
                cases.append((f"dihedral {variant} u={u}", subgroup_dihedral(F, u, variant)))
    for u in (u for u in range(1, q) if (q - 1) % u == 0):
        cases.append((f"affine u={u}", subgroup_affine(F, multiplicative_subgroup(F, u), [F.zero])))
    prime_field = [F.element(e) for e in range(F.p)] if F.s == 1 else subfield_elements(F, 1)
    cases.append(("affine translations", subgroup_affine(F, [F.one], prime_field)))
    if q > 2:
        # every element fixes 0 and 1, so only infinity tells cosets apart
        lam = next(e.enc for e in F.elements() if e.enc > 1 and e.multiplicative_order() == q - 1)
        fixing = Mobius(F, lam, 0, F.sub_enc(lam, 1), 1)
        cases.append(("explicit fixing 0 and 1", GroupTable.from_generators(F, [fixing])))
    return cases


def group_disagreements(F: FieldCtx, rng, cases=None, quadratic_budget: int = 1 << 10):
    """Compare pgl's table-based group code with the references over F.

    On 20 seeded random Mobius maps, 9 that fix two of 0, 1 and
    infinity, and the elements of each (name, group) of cases (by default
    group_cases(F)), all of them or 16 drawn from a larger group: the
    point and place tables against reference_image on every point, each
    image the field's shared point, and the element orders.  On each group: the
    orbit split; the coset reps of each cyclic subgroup of prime order;
    and the closure verdict and message of the group, of the group
    without one element and of the group with one more.  A check whose
    reference would compose more than quadratic_budget pairs is skipped.
    Returns the comparisons made and the disagreements as (case, what)."""
    points = all_points(F)
    inverses = reference_inverses(F)
    bad, checks = [], 0

    def check(case, what, fast, ref):
        nonlocal checks
        checks += 1
        if fast != ref:
            bad.append((case, what))

    def actions(case, g):
        fast = [g.point_action(pt) for pt in points] + [g.place_action(pt) for pt in points]
        ref = ([reference_image(F, g.m, pt, inverses) for pt in points]
               + [reference_place_action(g, pt, inverses) for pt in points])
        check(case, f"actions of {g!r}", fast, ref)
        check(case, f"shared points of {g!r}", all(map(operator.is_, fast, ref)), True)

    def random_mobius():
        while True:
            m = [rng.randrange(F.q) for _ in range(4)]
            if F.sub_enc(F.mul_enc(m[0], m[3]), F.mul_enc(m[1], m[2])):
                return Mobius(F, *m)

    # maps that fix two of 0, 1 and infinity: x |-> l x, l x + 1 - l and
    # l x / ((l - 1) x + 1), whose powers can bring two of them back
    # before the third
    fixing = []
    for _ in range(3):
        lam = rng.randrange(2, F.q) if F.q > 2 else 1
        one_minus = F.sub_enc(1, lam)
        fixing += [Mobius(F, lam, 0, 0, 1), Mobius(F, lam, one_minus, 0, 1),
                   Mobius(F, lam, 0, F.neg_enc(one_minus), 1)]
    for i, g in enumerate([random_mobius() for _ in range(20)] + fixing):
        actions(f"map {i}", g)
        check(f"map {i}", f"order of {g!r}", g.order(), reference_order(g))
    for case, group in group_cases(F) if cases is None else cases:
        n = group.order
        elements = group.elements if n <= 16 else rng.sample(group.elements, 16)
        for g in elements:
            actions(case, g)
            check(case, f"order of {g!r}", g.order(), reference_order(g))
        free, ramified = reference_split(group)
        split = split_structure(group)
        check(case, "orbit split", (split.free_orbits, split.ramified), (free, ramified))
        orders = {g.order() for g in group.elements}
        for m in sorted(m for m in orders if m > 1 and all(m % r for r in range(2, m))):
            sub = cyclic_subgroup_of_order(group, m)
            if n * m <= quadratic_budget:
                check(case, f"coset reps of order {m}", list(group.left_coset_reps(sub)),
                      reference_coset_reps(group, sub))
        # the reference composes every pair of a group, but stops at the
        # first missing product of a set with one element less or more
        outside = random_mobius()
        sets = [list(group.elements)] if n * n <= quadratic_budget else []
        if n > 1:
            drop = rng.randrange(1, n)
            sets.append([g for i, g in enumerate(group.elements) if i != drop])
        if outside not in group.elements:
            sets.append([*group.elements, outside])
        for elems in sets:
            try:
                GroupTable(F, elems)
                fast = None
            except ValueError as exc:
                fast = str(exc)
            check(case, f"closure of {len(elems)} elements", fast, reference_closure_error(F, elems))
    return checks, bad
