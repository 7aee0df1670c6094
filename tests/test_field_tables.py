"""The addition and product tables of every field, and the kernels that
read them.

Every table entry, and sub_scaled, horner, Poly.__mul__, MatQ.__matmul__,
rank_of_rows, rref, echelon's rest, kernel, solve, invert and ColumnSums
(plain and with fed-back columns) on seeded random inputs, must equal a
reference computed without the tables (check_field_tables.Reference),
on one field of each family, on every field the builders use and on
GF(257) and GF(289), whose rows compute each entry on lookup; the CI step
check_field_tables.py does the same on every q <= 256 and on six larger
fields.  Above 256 a table starts with no rows and a lookup makes one
row that stores no entry; the kernels are checked there against integer
and schoolbook arithmetic too, up to GF(65521).  Building the tables
calls no public *_enc method, which the benchmark's tracer counts, and
stays cheap.
"""

import json
import random
import sys
import time
from pathlib import Path

import pytest

from stripemerge.field import FieldCtx, field_create
from stripemerge.matrix import MatQ, rank_of_rows

from check_field_tables import table_disagreements

ROOT = Path(__file__).resolve().parent.parent

# GF(2), GF(23): prime; GF(4) .. GF(256): characteristic 2; GF(9) .. GF(243):
# odd extensions; with every field of perfbench/instances.json among them;
# GF(257) and GF(289) = 17^2: rows that compute each entry on lookup, the
# latter by the Zech step
FIELDS = [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (23, 1), (5, 2), (3, 3), (2, 5), (7, 2),
          (2, 6), (3, 5), (2, 8), (257, 1), (17, 2)]


@pytest.mark.parametrize("p, s", FIELDS, ids=[f"GF({p ** s})" for p, s in FIELDS])
def test_tables_and_kernels_equal_the_reference(p, s):
    F = field_create(p, s)
    assert table_disagreements(F, random.Random(p ** s), cases=8) == []


LARGE = [(257, 1), (2, 9), (65521, 1)]


@pytest.mark.parametrize("p, s", LARGE, ids=[f"GF({p ** s})" for p, s in LARGE])
def test_fields_above_256_hold_no_tables_and_still_compute(p, s):
    def add(a, b):  # digit-wise: integers mod p, or XOR in characteristic 2
        return (a + b) % p if s == 1 else a ^ b

    # the tables start with no rows; a lookup makes one row, which stores
    # no entry: its size does not grow with q
    F = field_create(p, s)
    assert len(F.add_table) == len(F.mul_table) == 0
    for table, op in ((F.mul_table, F._raw_mul), (F.add_table, add)):
        row = table[3]
        assert row[F.q - 1] == op(3, F.q - 1) and len(table) == 1 and table[3] is row
        assert sys.getsizeof(row) < 256 and not hasattr(row, "__dict__")
    assert len(F.add_table) == len(F.mul_table) == 1

    rng = random.Random(F.q)
    x, y, z, w, c = (rng.randrange(1, F.q) for _ in range(5))
    a, b = [1, 0, x, y], [0, 1, z, w]
    combo = [add(u, F._raw_mul(c, v)) for u, v in zip(a, b)]  # a + c b
    assert rank_of_rows(F, [a, b, combo]) == 2
    assert MatQ(F, [combo, b]).rref() == (MatQ(F, [a, b]), 2, (0, 1))
    coeffs = [rng.randrange(F.q) for _ in range(6)]
    for point in (0, x):
        acc, want = 0, []
        for coeff in coeffs:
            acc = add(F._raw_mul(acc, point), coeff)
            want.append(acc)
        assert F.horner(coeffs, point) == want


def test_building_a_field_calls_no_public_arithmetic(monkeypatch):
    calls = []
    for name in ("add_enc", "sub_enc", "mul_enc", "inv_enc", "neg_enc", "pow_enc"):
        method = getattr(FieldCtx, name)

        def counted(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(FieldCtx, name, counted)
    for p, s in ((2, 8), (3, 5), (7, 2), (23, 1), (251, 1), (257, 1)):
        FieldCtx(p, s)
    assert calls == []
    FieldCtx(7, 2).add_enc(3, 4)
    assert calls == ["add_enc"]


def best_build_s(F, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        F._arith_tables()
        best = min(best, time.perf_counter() - t0)
    return best


def test_tables_build_in_milliseconds():
    assert best_build_s(field_create(2, 8)) < 0.008
    requests = json.loads((ROOT / "perfbench" / "instances.json").read_text())["requests"]
    fields = {(r["field"]["p"], r["field"]["s"]) for r in requests.values()}
    slow = {(p, s): t for p, s in sorted(fields) if (t := best_build_s(field_create(p, s))) >= 0.001}
    assert slow == {}
