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
* restricted_dim: the dimension of a code restricted to a coordinate set.
"""

import itertools

from stripemerge.codes import LinearCode
from stripemerge.field import FieldCtx, FieldElem, _factorize


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
