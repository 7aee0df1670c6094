"""Reference implementations of paper lemmas that only the tests use.

Each one is the direct, slow definition that a faster library routine is
checked against, or a small helper that builds the paper's subgroups for
the tests:

* reference_quadratic_check and reference_quadratic_search: x^2 + a x + b
  is primitive iff no field element is a root and the class of X in
  GF(q)[x]/(x^2 + a x + b) has multiplicative order q^2 - 1, found by
  raising X to (q^2 - 1)/l for each prime l | q^2 - 1 on encoding pairs;
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
  checked against, on the groups of group_cases by group_disagreements;
* multiplied_out: a FactoredFunction built as one RationalFunction,
  whose local and eval_at FactoredFunction's are checked against, on the
  functions of factored_cases by factored_disagreements;
* reference_dual_prescribed: the prescribed GRS dual multipliers as
  MatQ.kernel's basis vector of V_{n-1}, which grs_dual_prescribed's
  product formula is checked against.
"""

import itertools
from collections import Counter

from stripemerge.codes import LinearCode, grs_certificate
from stripemerge.field import FieldCtx, _factorize, primitive_quadratic_search
from stripemerge.matrix import MatQ, rank_of_rows, vandermonde
from stripemerge.pgl import (
    FactoredFunction,
    GroupTable,
    Mobius,
    RationalFunction,
    cyclic_subgroup_of_order,
    split_structure,
    subgroup_affine,
    subgroup_cyclic_qplus1,
    subgroup_dihedral,
)


def _quad_mul(field: FieldCtx, x, y, a: int, b: int):
    """(u1 + v1 X)(u2 + v2 X) mod X^2 + a X + b, on encoding pairs."""
    add, sub, mul = field.add_enc, field.sub_enc, field.mul_enc
    u1, v1 = x
    u2, v2 = y
    vv = mul(v1, v2)
    return (sub(mul(u1, u2), mul(b, vv)), sub(add(mul(u1, v2), mul(u2, v1)), mul(a, vv)))


def _quad_pow(field: FieldCtx, x, e: int, a: int, b: int):
    result = (1, 0)
    while e:
        if e & 1:
            result = _quad_mul(field, result, x, a, b)
        x = _quad_mul(field, x, x, a, b)
        e >>= 1
    return result


def reference_quadratic_check(field: FieldCtx, a: int, b: int) -> bool:
    """True iff x^2 + a x + b has no root in GF(q) and X has order q^2 - 1."""
    add, mul = field.add_enc, field.mul_enc
    for beta in range(field.q):
        if add(add(mul(beta, beta), mul(a, beta)), b) == 0:
            return False
    order = field.q ** 2 - 1
    for prime in _factorize(order):
        if _quad_pow(field, (0, 1), order // prime, a, b) == (1, 0):
            return False
    return True


def reference_quadratic_search(field: FieldCtx) -> tuple[int, int]:
    """First (a, b) in ascending-encoding scan that reference_quadratic_check accepts."""
    for a in range(field.q):
        for b in range(field.q):
            if reference_quadratic_check(field, a, b):
                return (a, b)
    raise AssertionError("no primitive quadratic exists")


def multiplicative_subgroup(field: FieldCtx, u: int) -> list[int]:
    """The encodings of the unique order-u subgroup of GF(q)*, ascending."""
    if u < 1 or (field.q - 1) % u:
        raise ValueError(f"{u} does not divide q - 1 = {field.q - 1}")
    return [e for e in range(1, field.q) if field.pow_enc(e, u) == 1]


def subfield_elements(field: FieldCtx, v: int) -> list[int]:
    """GF(p^v) inside GF(p^s): fixed points of the v-fold Frobenius, as
    ascending encodings."""
    if v < 1 or field.s % v:
        raise ValueError(f"GF({field.p}^{v}) is not a subfield of GF({field.q})")
    size = field.p ** v
    return [e for e in range(field.q) if field.pow_enc(e, size) == e]


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
    """The index of point pt moved by the matrix m = (a, b, c, d), on
    homogeneous coordinates: beta is (beta : 1) and infinity, index q,
    (1 : 0), (x : z) goes to (a x + b z : c x + d z), and (u : v) is
    infinity at v = 0 and u inverses[v] otherwise.  pgl._coord is not
    used."""
    a, b, c, d = m
    mul, add = field.mul_enc, field.add_enc
    x, z = (1, 0) if pt == field.q else (pt, 1)
    u, v = add(mul(a, x), mul(b, z)), add(mul(c, x), mul(d, z))
    return mul(u, inverses[v]) if v else field.q


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
    """(free orbits, ramified points) of the place action, as indices,
    each orbit listed as the group's elements move its least point."""
    remaining = set(range(group.field.q + 1))
    inverses = reference_inverses(group.field)
    free, ramified = [], []
    while remaining:
        rep = min(remaining)
        images = [reference_place_action(g, rep, inverses) for g in group.elements]
        orbit = set(images)
        remaining -= orbit
        if len(orbit) == group.order:
            free.append(tuple(images))
        else:
            ramified.extend(orbit)
    free.sort(key=lambda orbit: orbit[0])
    return tuple(free), tuple(sorted(ramified))


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
        cases.append((f"affine u={u}", subgroup_affine(F, multiplicative_subgroup(F, u), [0])))
    prime_field = list(range(F.p)) if F.s == 1 else subfield_elements(F, 1)
    cases.append(("affine translations", subgroup_affine(F, [1], prime_field)))
    if q > 2:
        # every element fixes 0 and 1, so only infinity tells cosets apart
        lam = next(e for e in range(2, q) if F.order_enc(e) == q - 1)
        fixing = Mobius(F, lam, 0, F.sub_enc(lam, 1), 1)
        cases.append(("explicit fixing 0 and 1", GroupTable.from_generators(F, [fixing])))
    return cases


def group_disagreements(F: FieldCtx, rng, cases=None, quadratic_budget: int = 1 << 10):
    """Compare pgl's table-based group code with the references over F.

    On 20 seeded random Mobius maps, 9 that fix two of 0, 1 and
    infinity, and the elements of each (name, group) of cases (by default
    group_cases(F)), all of them or 16 drawn from a larger group: the
    point and place tables against reference_image on every point, each
    image an int index in [0, q], and the element orders.  On each group: the
    orbit split; the coset reps of each cyclic subgroup of prime order;
    and the closure verdict and message of the group, of the group
    without one element and of the group with one more.  A check whose
    reference would compose more than quadratic_budget pairs is skipped.
    Returns the comparisons made and the disagreements as (case, what)."""
    points = range(F.q + 1)
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
        check(case, f"indices of {g!r}", all(type(i) is int and 0 <= i <= F.q for i in fast), True)

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


# -- factored functions, multiplied out; GRS duals, solved --------------------


def multiplied_out(fn: FactoredFunction) -> RationalFunction:
    """fn as one RationalFunction: its root part and parts multiplied out.
    Both are kept negated, so x - c is x + root and z - c is z + part."""
    F = fn.field
    out = RationalFunction.constant(F, 1)
    for base, factors in ((RationalFunction.x(F), fn.roots), (fn.z, fn.parts)):
        for c, m in factors.items():
            out = out * (base + RationalFunction.constant(F, c)) ** m
    return out


def factored_cases(F: FieldCtx, rng, count: int) -> list[tuple[RationalFunction, list]]:
    """count seeded (z, functions) pairs; a case's three functions share z
    and one `shared` dict, as a build's do.  z is c * prod (x - a)^e over
    one to three random places, c != 1 in most fields (non-monic), e in
    +-1 .. +-3.  A root part has up to four random roots, 0 among them in
    every other case, each of multiplicity 1 to 3; in two cases of three
    the parts z - c, exponents 1 to 3, have c = 0, a value z takes at a
    random place, and a random c."""
    x = RationalFunction.x(F)
    cases = []
    for n in range(count):
        z = RationalFunction.constant(F, rng.randrange(1, F.q))
        for a in rng.sample(range(F.q), min(rng.randrange(1, 4), F.q)):
            z = z * (x - RationalFunction.constant(F, a)) ** rng.choice(
                (-3, -2, -1, 1, 2, 3))
        shared: dict = {}
        fns = []
        for _ in range(3):
            roots = [a for a in rng.sample(range(F.q), min(rng.randrange(5), F.q))
                     for _ in range(rng.randrange(1, 4))]
            if n % 2 and 0 not in roots:
                roots += [0] * rng.randrange(1, 4)
            parts = []
            if n % 3:
                v, u = z.local(rng.randrange(F.q))
                parts = [c for c in {0, u if v == 0 else 0, rng.randrange(F.q)}
                         for _ in range(rng.randrange(1, 4))]
            fns.append(FactoredFunction(F, roots, z, parts, shared))
        cases.append((z, fns))
    return cases


def _outcome(f, pt, budget):
    try:
        return f.eval_at(pt, budget)
    except ValueError as exc:
        return str(exc)


def factored_disagreements(F: FieldCtx, rng, count: int):
    """Compare FactoredFunction.local, and eval_at with pole budgets 0 to
    2 (its value or its ValueError's message), with the multiplied-out
    function's at every place of the line, on factored_cases(F, rng,
    count).  Returns the checks made, the kinds of place reached, and the
    disagreements as (function, place, what, fast, reference)."""
    checks, reached, bad = 0, set(), []
    for z, fns in factored_cases(F, rng, count):
        for fn in fns:
            ref = multiplied_out(fn)
            for pt in range(F.q + 1):
                vz, uz = z.local(pt)
                if pt == F.q:
                    reached.add("infinity")
                elif F.neg_enc(pt) in fn.roots:
                    reached.add("root")
                if fn.parts:
                    reached.add("pole of z" if vz < 0 else "zero of z" if vz > 0
                                else "z = c" if any(F.add_enc(uz, c) == 0 for c in fn.parts)
                                else "z finite")
                pairs = [("local", fn.local(pt), ref.local(pt))]
                pairs += [(f"eval_at budget {b}", _outcome(fn, pt, b), _outcome(ref, pt, b))
                          for b in range(3)]
                reached |= {"raised" for _, _, want in pairs if isinstance(want, str)}
                for what, fast, want in pairs:
                    checks += 1
                    if fast != want:
                        bad.append((ref, pt, what, fast, want))
    return checks, reached, bad


def reference_dual_prescribed(F: FieldCtx, locators) -> list[int]:
    """The one kernel basis vector of V_{n-1}(locators), from MatQ.kernel,
    whose last entry is 1."""
    kernel = vandermonde(F, len(locators) - 1, locators).kernel()
    assert len(kernel) == 1
    return kernel[0]
