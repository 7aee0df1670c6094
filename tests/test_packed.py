"""Differential tests of the field's table kernels.

Conversion and encoding sum products through the column-table kernel
(field.ColumnSums, over the packed digits of FieldCtx.packed_exp); the
reference here is the plain fold of add_enc(mul_enc(...)), one field
operation per term, which the kernel replaced.  Membership
(LinearCode.contains) is the exact product with the parity rows, and
test_contains_matches_the_fold holds it to the same fold.  The
test_column_sums_* tests run each word twice, so that both the cold
path, which fills the tables, and the warm lookup are checked;
test_fed_back_columns_match_the_fold does the same for kernels whose
checked rows also read the values of their unchecked rows, and
test_fed_back_terms_count_toward_the_slot_width fills a slot to the
bound with rows that reach it only through those terms.
test_zero_test_at_slot_boundaries runs the kernel's zero test on every
slot sum a row can reach, and test_execute_matches_the_reference runs
execute's one kernel against the fold per input and the fold of the
plan's writes; execute must fail its final parity test when the
kernel's first written value is off by one, and build one kernel, run
once per call.  ConversionPlan.generator_rows, one add_table and one
mul_table lookup per term, is the reference for the whole conversion
map, and test_execute_matches_generator_rows runs execute on every
initial generator row against it.  Row updates in elimination go through
FieldCtx.row_logs and FieldCtx.sub_scaled, and polynomial evaluation
through FieldCtx.horner; their references are sub_enc(d, mul_enc(c, s))
per entry and Horner's rule on add_enc and mul_enc.
"""

import json
import random
from itertools import repeat
from pathlib import Path

import pytest

from stripemerge.cli import _construct
from stripemerge.codes import LinearCode
from stripemerge.convert import build_mds_to_lrc, execute
from stripemerge.field import PACK_TERMS, ColumnSums, FieldCtx, field_create
from stripemerge.matrix import MatQ

from check_field_tables import Reference

FIELDS = [(2, 1), (2, 2), (2, 3), (3, 2), (23, 1), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6),
          (3, 4), (5, 3)]
FIELD_IDS = [f"GF({p ** s})" for p, s in FIELDS]
# digit slots wider than a byte: p > 128
WIDE_FIELDS = FIELDS + [(101, 1), (127, 1), (251, 1)]
WIDE_IDS = [f"GF({p ** s})" for p, s in WIDE_FIELDS]

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


def random_matrix(field, rng, rows, cols, density):
    """A rows x cols matrix whose entries are nonzero with probability
    density, with at least one zero row and one zero column when there
    are two or more of them."""
    data = [[rng.randrange(1, field.q) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]
    if rows > 1:
        data[rng.randrange(rows)] = [0] * cols
    if cols > 1:
        j = rng.randrange(cols)
        for row in data:
            row[j] = 0
    return data


def kernel_of(field, data, cols, checked):
    """The kernel of data whose first `checked` rows are zero-tested; with
    checked=0, run(w)[1] is all of M * w, as LinearCode.encode reads it."""
    return ColumnSums(field, [enumerate(row) for row in data], cols, checked)


@pytest.mark.parametrize("p,s", WIDE_FIELDS, ids=WIDE_IDS)
@pytest.mark.parametrize("density", [0.25, 1.0], ids=["sparse", "dense"])
def test_column_sums_match_the_fold(p, s, density):
    F = field_create(p, s)
    rng = random.Random(p * 1000 + s * 10 + int(density * 4))
    for rows, cols in ((1, 1), (3, 7), (6, 4), (9, 23)):
        data = random_matrix(F, rng, rows, cols, density)
        kernel, whole = kernel_of(F, data, cols, rows), kernel_of(F, data, cols, checked=0)
        for _ in range(8):
            encs = [rng.randrange(F.q) if rng.random() < 0.7 else 0 for _ in range(cols)]
            want = [fold(F, row, encs) for row in data]
            first = next((r for r, v in enumerate(want) if v), -1)
            # the first call fills the tables, the second reads them warm
            for _ in range(2):
                assert whole.run(encs) == (-1, want)
                assert kernel.run(encs) == (first, [])
        with pytest.raises(ValueError, match="length"):
            kernel.run(encs[:-1])


@pytest.mark.parametrize("p,s", WIDE_FIELDS, ids=WIDE_IDS)
def test_column_sums_reject_every_single_symbol_change(p, s):
    F = field_create(p, s)
    rng = random.Random(p * 31 + s)
    n = 11
    code = LinearCode(F, parity=random_parity(F, rng, 4, n, sparse=True))
    kernel = kernel_of(F, code.parity.data, n, code.parity.rows)
    whole = kernel_of(F, code.parity.data, n, checked=0)
    for _ in range(3):
        word = [e.enc for e in code.encode([F.element(rng.randrange(F.q))
                                            for _ in range(code.k)])]
        for _ in range(2):
            assert kernel.run(word)[0] == -1 and not any(whole.run(word)[1])
        for j in range(n):
            for delta in (1, rng.randrange(1, F.q)):
                bad = list(word)
                bad[j] = F.add_enc(bad[j], delta)
                assert not fold_contains(code, bad)
                assert kernel.run(bad)[0] >= 0
                assert whole.run(bad)[1] == [fold(F, row, bad) for row in code.parity.data]


@pytest.mark.parametrize("p,s", FIELDS + [(257, 1)], ids=FIELD_IDS + ["GF(257)"])
def test_fed_back_columns_match_the_fold(p, s):
    # the checked rows read the word and the unchecked rows' values, which
    # the reference folds from the word first; about half the checked rows
    # are made to vanish at one word, so the first failing row varies
    F = field_create(p, s)
    ref = Reference(F)
    rng = random.Random(p * 1009 + s)
    for cols, checked, unchecked in ((1, 1, 1), (4, 3, 2), (9, 5, 4), (6, 2, 7)):
        values_rows = random_matrix(F, rng, unchecked, cols, 0.6)
        for _ in range(4):
            encs = [rng.randrange(F.q) if rng.random() < 0.8 else 0 for _ in range(cols)]
            values = [fold(F, row, encs) for row in values_rows]
            y = encs + values
            checked_rows = random_matrix(F, rng, checked, cols + unchecked, 0.6)
            for row in checked_rows:
                if rng.random() < 0.5:
                    ref.vanish_at(row, y, rng)
            want = [fold(F, row, y) for row in checked_rows]
            first = next((r for r, v in enumerate(want) if v), -1)
            kernel = kernel_of(F, checked_rows + values_rows, cols, checked)
            # the first call fills the tables, the second reads them warm
            for _ in range(2):
                assert kernel.run(encs) == (first, values)
    with pytest.raises(ValueError, match="length"):
        kernel.run(encs + [0])
    # a checked row may read the word and the fed-back columns, an
    # unchecked row the word alone
    with pytest.raises(ValueError, match="^row 0 names column 2 of the 2 it may read$"):
        ColumnSums(F, [[(2, 1)], [(0, 1)]], 1, checked=1)
    with pytest.raises(ValueError, match="^row 1 names column 1 of the 1 it may read$"):
        ColumnSums(F, [[(1, 1)], [(1, 1)]], 1, checked=1)


@pytest.mark.parametrize("p,s", FIELDS, ids=FIELD_IDS)
def test_dot_matches_the_fold(p, s):
    # each row's product with a random word, one row at a time
    F = field_create(p, s)
    rng = random.Random(s * 100 + p)
    for _ in range(300):
        terms = rng.randrange(0, 40)
        coeffs = [rng.randrange(F.q) for _ in range(terms)]
        encs = [rng.randrange(F.q) for _ in range(terms)]
        assert kernel_of(F, [coeffs], terms, checked=0).run(encs) == (-1, [fold(F, coeffs, encs)])


@pytest.mark.parametrize("p,s", FIELDS, ids=FIELD_IDS)
def test_longest_allowed_row_reduces_exactly(p, s):
    # every term adds p - 1 to every slot: (q - 1) * 1, whose digits are all p - 1
    F = field_create(p, s)
    top = F.max_terms
    width = ((p - 1) * PACK_TERMS).bit_length()
    assert (p - 1) * top < 1 << width <= (p - 1) * (top + 1)
    digit = top * (p - 1) % p
    want = sum(digit * p ** i for i in range(s))
    # four rows of all-(q - 1) columns in one kernel, two checked and two
    # not, so that a top slot would carry into the next row if the bound
    # were too loose: between the unchecked rows, between the checked
    # rows, and from the top unchecked row into the first checked one
    rows = [[(j, F.q - 1) for j in range(top)]] * 4
    kernel = ColumnSums(F, rows, top, checked=2)
    assert kernel.run([1] * top) == (-1 if want == 0 else 0, [want, want])
    with pytest.raises(ValueError, match="exceed"):
        ColumnSums(F, [[(j, F.q - 1) for j in range(top + 1)]], top + 1, checked=1)


@pytest.mark.parametrize("p,s", FIELDS, ids=FIELD_IDS)
def test_fed_back_terms_count_toward_the_slot_width(p, s):
    # two checked rows of `terms` terms each, `half` on the one input
    # column and the rest on a fed-back column, with every term adding
    # p - 1 to every slot: their input terms alone would make the slots a
    # bit narrower.  terms runs to max_terms, and to the most terms whose
    # slot sums are multiples of p, where both rows must test 0: a slot
    # one bit too narrow would drop its top bit, or carry it into the
    # next, and flag a row
    F = field_create(p, s)
    top = F.max_terms
    half = top // 2
    while half % p == 0:
        half -= 1
    width = ((p - 1) * top).bit_length()
    assert ((p - 1) * half).bit_length() < width
    # the unchecked rows' value: half terms of (q - 1) * 1, each digit -half mod p
    value = sum(-half % p * p ** i for i in range(s))
    # c * value = q - 1, whose digits are all p - 1
    c = F.mul_enc(F.q - 1, F.inv_enc(value))
    unchecked = [[(0, F.q - 1)] * half] * 2
    for terms in (top, top - top % p):
        assert ((p - 1) * terms).bit_length() == width
        carried = [[(0, F.q - 1)] * half + [(1, c)] * (terms - half)] * 2
        kernel = ColumnSums(F, carried + unchecked, 1, checked=2)
        assert kernel.run([1]) == (-1 if terms % p == 0 else 0, [value, value])
    # a fed-back column that a row reads counts toward the column bound, and
    # one that no row reads does not
    with pytest.raises(ValueError, match=f"^{top + 1} columns exceed"):
        ColumnSums(F, [[(top, 1)], [(0, 1)]], top, checked=1)
    assert ColumnSums(F, [[(0, 1)], [(0, 1)]], top, checked=1).cols == top


def multiplicities(weight, p):
    """Multiplicities with sum weight such that sum_c mult_c * e_c, over
    e_c in [0, p), reaches every total in [0, (p - 1) * weight]: each is
    at most one more than the totals the earlier ones reach."""
    mults, reach = [], 0
    while weight:
        mults.append(min(weight, reach + 1))
        weight -= mults[-1]
        reach += (p - 1) * mults[-1]
    return mults[::-1]


def spread(totals, mults, p, fixed=()):
    """For each total, digits e_c in [0, p) with sum_c mults[c] * e_c =
    total, greedily from the largest multiplicity, followed by fixed."""
    rests, columns = list(totals), []
    for mult in mults:
        cap, most = p * mult, (p - 1) * mult
        column = [rest // mult if rest < cap else p - 1 for rest in rests]
        rests = [rest % mult if rest < cap else rest - most for rest in rests]
        columns.append(column)
    assert not any(rests)
    return list(zip(*columns, *map(repeat, fixed)))


def check_zero_test(p, weight, totals, side=None):
    """Run the zero test on slot sums equal to each total, in a kernel whose
    target row has `weight` terms and whose neighbours have `side` terms
    (weight by default).

    Over GF(p) the product of a coefficient 1 and a symbol e has the one
    digit e, and a column listed k times in a row adds k such terms, so a
    row of `weight` terms on a few columns takes each total as a slot sum
    from a short word.  The target row T is checked; below it lies an
    unchecked row L whose slot holds (p - 1) * side, the most a slot of a
    side-term row holds, and above it a checked row H holding the largest
    multiple of p that fits there, so that a carry out of any slot would
    change a verdict.  run is checked on the totals at and next to each
    multiple of p.
    """
    F = field_create(p, 1)
    side = side or weight
    mults, side_mults = multiplicities(weight, p), multiplicities(side, p)
    k, m = len(mults), len(side_mults)

    def row(mults, first):
        return [(first + c, 1) for c, mult in enumerate(mults) for _ in range(mult)]

    most = (p - 1) * side
    # T and H are checked, L is not: from the lowest block, L, T, H
    kernel = ColumnSums(F, [row(mults, 0), row(side_mults, k), row(side_mults, k + m)],
                        k + 2 * m, checked=2)
    fixed = spread([most - most % p], side_mults, p)[0] + (p - 1,) * m
    words = spread(totals, mults, p, fixed)
    got = [kernel.run(word)[0] == -1 for word in words]
    want = [total % p == 0 for total in totals]
    if got != want:
        total = next(t for t, g, v in zip(totals, got, want) if g != v)
        raise AssertionError(f"GF({p}), weight {weight}: zero test wrong at slot sum {total}")
    for total, word in zip(totals, words):
        if total % p in (0, 1, p - 1):
            first = -1 if total % p == 0 else 0
            assert kernel.run(word) == (first, [most % p]), (p, weight, total)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 23, 101, 127, 251])
def test_zero_test_at_slot_boundaries(p):
    # a kernel's slots depend on its heaviest row only through the width
    # w of (p - 1) * weight, and a lighter row of the same w reaches a
    # subset of the sums, so each w is run at its heaviest weight up to 3p
    width = [None] + [((p - 1) * weight).bit_length() for weight in range(1, 3 * p + 2)]
    for weight in range(1, 3 * p + 1):
        if width[weight + 1] != width[weight] or weight == 3 * p:
            check_zero_test(p, weight, list(range((p - 1) * weight + 1)))
    # the longest row a kernel takes, beside rows of 3p terms: every total
    # within p of 0, of p, of the top, of the largest multiple of p up to
    # the top and of the largest below 2^w, where x * p^-1 mod 2^w meets
    # the bound (2^w - 1) // p
    F = field_create(p, 1)
    top = (p - 1) * F.max_terms
    edge = ((1 << top.bit_length()) - 1) // p * p
    totals = {t for centre in (0, p, edge, top - top % p, top)
              for t in range(centre - p, centre + p + 1)}
    check_zero_test(p, F.max_terms, sorted(t for t in totals if 0 <= t <= top), side=3 * p)


def test_log_table_marks_zero_with_none():
    for p, s in FIELDS:
        F = field_create(p, s)
        assert F._log[0] is None
        # the digit tables the kernels read, at a stride of s bits (the
        # least in characteristic 2) and at two wider ones
        for stride in ((s,) if p == 2 else ()) + (9, 21):
            pexp = F.packed_exp(stride)
            mask = (1 << stride) - 1
            assert len(pexp) == 2 * (F.q - 1)
            assert [[v >> j * stride & mask for j in range(s)] for v in pexp] == [
                [e // p ** j % p for j in range(s)] for e in F._exp
            ]


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


def gf9_conversion():
    return build_mds_to_lrc(field_create(3, 2), s=2, a=1, tprime=1, delta=2, k_init=3,
                            n_init=(5, 5))


def conversion(name):
    return gf9_conversion() if name == "gf9_mds_to_lrc" else _construct(REQUESTS[name])


def fold_plan(plan, encs):
    """The final word from one word of encodings per stripe: unchanged
    symbols copied, and each written symbol the fold of its writes."""
    out = [None] * plan.n
    for word, pairs in zip(encs, plan.unchanged):
        for src, dst in pairs:
            out[dst] = word[src]
    for dst, triples in plan.writes:
        out[dst] = fold(plan.field, [c for _, _, c in triples],
                        [encs[i][coord] for i, coord, _ in triples])
    return out


CONVERSIONS = sorted(REQUESTS) + ["gf9_mds_to_lrc"]


@pytest.mark.parametrize("name", CONVERSIONS)
def test_execute_matches_the_reference(name):
    # the reference: the fold per input, the fold of the plan's writes,
    # and the fold of the final parity; then every single-symbol change of
    # every input must be refused, naming its stripe
    cc = conversion(name)
    F = cc.field
    rng = random.Random(name)
    for _ in range(3):
        words = [code.encode([F.element(rng.randrange(F.q)) for _ in range(code.k)])
                 for code in cc.initials]
        encs = [[e.enc for e in word] for word in words]
        assert all(fold_contains(code, enc) for code, enc in zip(cc.initials, encs))
        want = fold_plan(cc.plan, encs)
        assert fold_contains(cc.final, want)
        final, _ = execute(cc, words)
        assert [e.enc for e in final] == want
        for i, word in enumerate(words):
            for j in range(len(word)):
                bad = list(words)
                bad[i] = word[:j] + (word[j] + F.element(rng.randrange(1, F.q)),) + word[j + 1:]
                with pytest.raises(ValueError, match=f"^input {i} is not a codeword of stripe {i}:"):
                    execute(cc, bad)
        short = list(words)
        short[-1] = words[-1][:-1]
        i, n = len(words) - 1, len(words[-1])
        with pytest.raises(ValueError, match=f"^input {i} has {n - 1} symbols, stripe {i} has n = {n}$"):
            execute(cc, short)


@pytest.mark.parametrize("name", CONVERSIONS)
def test_encode_matches_the_fold(name):
    # encode runs a kernel with no checked rows, which skips the zero
    # test: each codeword symbol is the fold of the message with its
    # generator column, on every initial and the final code
    cc = conversion(name)
    F = cc.field
    rng = random.Random(name)
    for code in (*cc.initials, cc.final):
        columns = list(zip(*code.generator.data))
        for _ in range(4):
            message = [rng.randrange(F.q) for _ in range(code.k)]
            want = [fold(F, column, message) for column in columns]
            assert [e.enc for e in code.encode(F.word(message))] == want


@pytest.mark.parametrize("name", CONVERSIONS)
def test_execute_matches_generator_rows(name):
    # stripe i's generator row r, with zero words on the other stripes,
    # converts to row r of stripe i in the term-by-term generator_rows
    cc = conversion(name)
    F = cc.field
    rows = iter(cc.plan.generator_rows(cc.initials))
    zeros = [(F.zero,) * code.n for code in cc.initials]
    for i, code in enumerate(cc.initials):
        for g in code.generator.data:
            words = zeros[:i] + [F.word(g)] + zeros[i + 1:]
            final, _ = execute(cc, words)
            assert [e.enc for e in final] == next(rows)
    assert next(rows, None) is None


@pytest.mark.parametrize("name", CONVERSIONS)
def test_execute_tests_the_values_it_writes(name, monkeypatch):
    # with the kernel's first written value off by one, the final parity
    # check must fail: it tests the values execute returns, not a
    # re-derivation of them
    cc = conversion(name)
    F = cc.field
    rng = random.Random(name)
    words = [code.encode([F.element(rng.randrange(F.q)) for _ in range(code.k)])
             for code in cc.initials]
    final, _ = execute(cc, words)
    real = ColumnSums._reduce

    def off_by_one(kernel, acc, shifts):
        values = real(kernel, acc, shifts)
        values[0] = (values[0] + 1) % F.q
        return values

    monkeypatch.setattr(ColumnSums, "_reduce", off_by_one)
    with pytest.raises(AssertionError, match="^converted word violates the final parity$"):
        execute(cc, words)


@pytest.mark.parametrize("name", CONVERSIONS)
def test_execute_runs_one_kernel_and_no_membership_check(name, monkeypatch):
    # the first call builds the one kernel, and every call, one with a bad
    # input included, is one ColumnSums.run: no other kernel is built
    cc = conversion(name)
    F = cc.field
    calls = []

    def counted(what, real):
        def wrapper(*args, **kwargs):
            calls.append(what)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ColumnSums, "__init__", counted("build", ColumnSums.__init__))
    monkeypatch.setattr(ColumnSums, "run", counted("run", ColumnSums.run))
    zeros = [(F.zero,) * code.n for code in cc.initials]
    execute(cc, zeros)
    execute(cc, zeros)
    bad = [(F.one,) + zeros[0][1:]] + zeros[1:]
    with pytest.raises(ValueError, match="^input 0 is not a codeword of stripe 0:"):
        execute(cc, bad)
    assert calls == ["build"] + ["run"] * 3


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
    # 1 + 1 + 21 vanishes mod 23, and 25 is not an element of GF(23)
    with pytest.raises(ValueError, match=r"coordinate 0 is in FieldCtx\(GF\(29\)\), "
                                         r"not FieldCtx\(GF\(23\)\)"):
        code.contains([F29.element(e) for e in (1, 1, 21)])
    with pytest.raises(ValueError, match=r"coordinate 2 is in FieldCtx\(GF\(29\)\)"):
        code.contains([F23.one, F23.one, F29.element(25)])
    assert code.contains([FieldCtx(23, 1).element(e) for e in (1, 1, 21)])


def test_encode_rejects_symbols_of_another_field():
    cc = _construct(REQUESTS["q23_mds_to_lrc"])
    code = cc.initials[0]
    F29 = field_create(29, 1)
    message = [cc.field.element(3)] * code.k
    message[1] = F29.element(3)  # a value GF(23) has too
    with pytest.raises(ValueError, match=r"^coordinate 1 is in FieldCtx\(GF\(29\)\), "
                                         r"not FieldCtx\(GF\(23\)\)$"):
        code.encode(message)
    message[1] = F29.element(25)  # and one it has not
    with pytest.raises(ValueError, match=r"^coordinate 1 is in FieldCtx\(GF\(29\)\)"):
        code.encode(message)
    # an equal field that is another object is the same field
    twin = FieldCtx(23, 1)
    assert code.encode([twin.element(3)] * code.k) == code.encode([cc.field.element(3)] * code.k)


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
