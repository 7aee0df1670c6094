"""Differential tests of the field's table kernels.

Membership checks and plan application sum products through the
packed-digit kernel (field.PackedSums); the reference here is the plain
fold of add_enc(mul_enc(...)), one field operation per term, which the
kernel replaced.  Row updates in elimination go through
FieldCtx.row_logs and FieldCtx.sub_scaled, and polynomial evaluation
through FieldCtx.horner; their references are sub_enc(d, mul_enc(c, s))
per entry and Horner's rule on add_enc and mul_enc.
"""

import json
import random
from pathlib import Path

import pytest

from stripemerge.cli import _construct
from stripemerge.codes import LinearCode
from stripemerge.convert import execute
from stripemerge.field import FieldCtx, field_create
from stripemerge.matrix import MatQ

FIELDS = [(2, 1), (2, 2), (2, 3), (3, 2), (23, 1), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6),
          (3, 4), (5, 3)]
FIELD_IDS = [f"GF({p ** s})" for p, s in FIELDS]

REQUESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "instances.json").read_text(
        encoding="utf-8"
    )
)["requests"]


def fold(field, coeffs, encs):
    """sum c_j * w_j, one add_enc and one mul_enc per term."""
    acc = 0
    for c, w in zip(coeffs, encs):
        acc = field.add_enc(acc, field.mul_enc(c, w))
    return acc


def fold_contains(code, encs):
    return all(fold(code.field, row, encs) == 0 for row in code.parity.data)


def random_parity(field, rng, rows, n, sparse):
    """A full-rank rows x n matrix without a zero column: each entry
    uniform over the field, or when sparse nonzero with probability 0.3."""
    def entry():
        if sparse:
            return rng.randrange(1, field.q) if rng.random() < 0.3 else 0
        return rng.randrange(field.q)

    while True:
        data = [[entry() for _ in range(n)] for _ in range(rows)]
        for j in range(n):
            if not any(row[j] for row in data):
                data[rng.randrange(rows)][j] = rng.randrange(1, field.q)
        mat = MatQ(field, data)
        if mat.rank() == rows:
            return mat


@pytest.mark.parametrize("p,s", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_contains_matches_the_fold(p, s, sparse):
    F = field_create(p, s)
    rng = random.Random(p * 1000 + s)
    for n in (4, 9, 17):
        code = LinearCode(F, parity=random_parity(F, rng, rng.randrange(1, n), n, sparse))
        for _ in range(20):
            encs = [rng.randrange(F.q) for _ in range(n)]
            assert code.contains([F.element(e) for e in encs]) == fold_contains(code, encs)
        for _ in range(5):
            word = code.encode([F.element(rng.randrange(F.q)) for _ in range(code.k)])
            assert code.contains(word) and fold_contains(code, [e.enc for e in word])
            for j in range(n):
                bad = list(word)
                bad[j] = bad[j] + F.element(rng.randrange(1, F.q))
                assert not code.contains(bad)
                assert not fold_contains(code, [e.enc for e in bad])


@pytest.mark.parametrize("p,s", FIELDS, ids=FIELD_IDS)
def test_dot_matches_the_fold(p, s):
    F = field_create(p, s)
    packed = F.packed()
    rng = random.Random(s * 100 + p)
    for _ in range(300):
        terms = rng.randrange(0, 40)
        coeffs = [rng.randrange(F.q) for _ in range(terms)]
        encs = [rng.randrange(F.q) for _ in range(terms)]
        row = packed.row(enumerate(coeffs))
        assert len(row) == sum(1 for c in coeffs if c)
        assert packed.dot(row, [packed.log[e] for e in encs]) == fold(F, coeffs, encs)


@pytest.mark.parametrize("p,s", FIELDS, ids=FIELD_IDS)
def test_longest_allowed_row_reduces_exactly(p, s):
    # every term adds p - 1 to every slot: 1 * (q - 1), whose digits are all p - 1
    F = field_create(p, s)
    packed = F.packed()
    top = packed.max_terms
    assert (p - 1) * top < 1 << packed.width <= (p - 1) * (top + 1)
    row = packed.row((j, 1) for j in range(top))
    digit = top * (p - 1) % p
    want = sum(digit * p ** i for i in range(s))
    assert packed.dot(row, [packed.log[F.q - 1]] * top) == want
    with pytest.raises(ValueError, match="exceeds"):
        packed.row((j, 1) for j in range(top + 1))


def test_log_table_marks_zero_with_none():
    for p, s in FIELDS:
        packed = field_create(p, s).packed()
        assert packed.log[0] is None
        assert len(packed.pexp) == 2 * (p ** s - 1)


@pytest.mark.parametrize("p,s", FIELDS, ids=FIELD_IDS)
def test_sub_scaled_matches_the_reference(p, s):
    F = field_create(p, s)
    rng = random.Random(p * 7 + s)
    # every c runs, c = -1 included; in odd characteristic log(-1) =
    # (q - 1)/2, so log c + log(-1) >= q - 1 for half of them and the
    # reduction of the folded log is exercised
    wraps = [c for c in range(1, F.q) if F._log[c] + F._log[F.neg_enc(1)] >= F.q - 1]
    assert len(wraps) == (0 if p == 2 else (F.q - 1) // 2)
    for c in range(F.q):
        for _ in range(3):
            n = rng.randrange(1, 13)
            start = rng.randrange(n)
            src = [rng.randrange(F.q) if rng.random() < 0.6 else 0 for _ in range(n)]
            dst = [rng.randrange(F.q) if rng.random() < 0.6 else 0 for _ in range(n)]
            logs = F.row_logs(src, start)
            assert [j for j, _ in logs] == [j for j in range(start, n) if src[j]]
            want = dst[:start] + [F.sub_enc(dst[j], F.mul_enc(c, src[j]))
                                  for j in range(start, n)]
            got = list(dst)
            F.sub_scaled(got, c, logs)
            assert got == want


@pytest.mark.parametrize("p,s", FIELDS, ids=FIELD_IDS)
def test_horner_matches_the_reference(p, s):
    F = field_create(p, s)
    rng = random.Random(p * 11 + s)
    for x in range(F.q):
        for _ in range(3):
            coeffs = [rng.randrange(F.q) for _ in range(rng.randrange(0, 9))]
            want, acc = [], 0
            for c in coeffs:
                acc = F.add_enc(F.mul_enc(acc, x), c)
                want.append(acc)
            assert F.horner(coeffs, x) == want


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_apply_matches_the_fold(name):
    cc = _construct(REQUESTS[name])
    F, compiled = cc.field, cc.plan
    rng = random.Random(name)
    for _ in range(10):
        encs = [[rng.randrange(F.q) for _ in range(code.n)] for code in cc.initials]
        out = compiled.apply([[F.element(e) for e in word] for word in encs])
        want = [None] * compiled.n
        for word, pairs in zip(encs, compiled.unchanged):
            for src, dst in pairs:
                want[dst] = word[src]
        for dst, triples in compiled.writes:
            want[dst] = fold(F, [c for _, _, c in triples],
                             [encs[i][coord] for i, coord, _ in triples])
        assert [e.enc for e in out] == want


def test_execute_rejects_symbols_of_another_field():
    cc = _construct(REQUESTS["q23_mds_to_lrc"])
    F29 = field_create(29, 1)
    words = [[cc.field.zero] * code.n for code in cc.initials]
    words[2][5] = F29.element(25)
    with pytest.raises(ValueError, match="input 2 coordinate 5 is in FieldCtx\\(GF\\(29\\)\\)"):
        execute(cc, words)
    words[2][5] = F29.element(3)  # a value GF(23) has too
    with pytest.raises(ValueError, match="input 2 coordinate 5"):
        execute(cc, words)
    # an equal field that is another object is the same field
    twin = FieldCtx(23, 1)
    words[2] = [twin.zero] * cc.initials[2].n
    final, _ = execute(cc, words)
    assert all(e.enc == 0 for e in final)


def test_contains_rejects_symbols_of_another_field():
    F23, F29 = field_create(23, 1), field_create(29, 1)
    code = LinearCode(F23, parity=MatQ(F23, [[1, 1, 1]]))
    assert code.contains([F23.element(e) for e in (1, 1, 21)])
    # 1 + 1 + 21 vanishes mod 23, and 25 has no log in GF(23)
    with pytest.raises(ValueError, match=r"coordinate 0 is in FieldCtx\(GF\(29\)\), "
                                         r"not FieldCtx\(GF\(23\)\)"):
        code.contains([F29.element(e) for e in (1, 1, 21)])
    with pytest.raises(ValueError, match=r"coordinate 2 is in FieldCtx\(GF\(29\)\)"):
        code.contains([F23.one, F23.one, F29.element(25)])
    assert code.contains([FieldCtx(23, 1).element(e) for e in (1, 1, 21)])


def test_execute_returns_one_access_report():
    cc = _construct(REQUESTS["q49_mds_to_lrc"])
    words = [[cc.field.zero] * code.n for code in cc.initials]
    _, first = execute(cc, words)
    _, second = execute(cc, words)
    assert first is second is cc.static_access()
    assert first.to_obj() == {
        "read_cost": sum(len(coords) for coords in cc.plan.storage),
        "write_cost": len(cc.plan.written),
        "per_symbol_read": sum(len(tr) for _, tr in cc.plan.terms),
        "unchanged_counts": [len(pairs) for pairs in cc.plan.unchanged],
    }
