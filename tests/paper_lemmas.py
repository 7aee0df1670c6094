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
* grs_generator: the rows v_j a_j^m of a GRS generator on given places.
"""

import itertools
from collections import Counter

from stripemerge.codes import LinearCode, grs_certificate
from stripemerge.field import FieldCtx, FieldElem, _factorize
from stripemerge.matrix import MatQ, rank_of_rows


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
