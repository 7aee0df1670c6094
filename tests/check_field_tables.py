"""Check the addition and product tables, and the kernels that read them,
against a reference on every field with q <= 256 and on six larger ones.

    PYTHONPATH=src python3 tests/check_field_tables.py

For each prime power q <= 256, and for GF(257), GF(289), GF(343),
GF(512), GF(625) and GF(729), whose table rows compute each entry on
lookup (the Zech step in the odd extensions), every entry of
FieldCtx.add_table and FieldCtx.mul_table, read by index, must equal a
reference built here without them: addition digit by digit mod p, and
the product of a by b as the sum, over b's digits b_i, of b_i copies of
_raw_mul(a, x^i).  Then sub_scaled, horner (x = 0 included),
Poly.__mul__, MatQ.__matmul__, the elimination routines and the
column-table kernel ColumnSums, plain and with fed-back columns, must
agree with the same computation done on the reference tables, on seeded
random inputs.  The elimination routines are rank_of_rows, rref,
echelon's rest at a random width (the same space as the reference
RREF's rows pivoting at that width or later), kernel, solve and invert,
all read off the reference RREF.
Last, the division that ColumnSums reads its value lanes with, (x * M) >> k
for x // p with (k, M) = field._divider(p, w), is swept over every odd
prime p < 2^16 and every slot width w a kernel over GF(p) can have, from
bits(p - 1) to bits((p - 1) * max_terms): it must be exact, and x * M
must fit the lane's 2w + 2 bits, at x = 2^w - 1, at the largest multiple
of p below 2^w and at that multiple minus 1.  The readout's correctness
rests on this fact, as the lane tests in test_packed.py do on kernels.
It takes seconds, so it runs as its own CI step; pytest does not collect
it, and the tier-1 tests (test_field_tables.py) run the same comparison
on one field of each family, on every field the builders use and on
GF(257) and GF(289).  Exits 1 and lists the disagreements.
"""

import random
import sys
import time

from stripemerge.field import (MAX_Q, PACK_TERMS, ColumnSums, _digits, _divider, _factorize,
                               _is_prime, field_create)
from stripemerge.matrix import MatQ, echelon, rank_of_rows
from stripemerge.poly import Poly

SEED = 21
CASES = 20
LARGE = [(257, 1), (17, 2), (7, 3), (2, 9), (5, 4), (3, 6)]


class Reference:
    """Addition, product, negation and inverse of one field, as tables
    computed without the field's own."""

    def __init__(self, F):
        p, s, q = F.p, F.s, F.q
        digits = [_digits(e, p, s) for e in range(q)]
        weights = [p ** i for i in range(s)]
        self.add = [[sum(w * ((x + y) % p) for w, x, y in zip(weights, da, db))
                     for db in digits] for da in digits]
        self.mul = []
        for a in range(q):
            # a * (b_low + p^i d) = a * b_low + d * (a x^i): the row over
            # one more digit of b, d outer
            row = [0]
            for weight in weights:
                step, multiples = F._raw_mul(a, weight), [0]
                for _ in range(p - 1):
                    multiples.append(self.add[multiples[-1]][step])
                row = [self.add[r][m] for m in multiples for r in row]
            self.mul.append(row)
        self.neg = [row.index(0) for row in self.add]
        self.inv = [None] + [row.index(1) for row in self.mul[1:]]

    def dot(self, row, word):
        """sum row[j] * word[j]."""
        acc = 0
        for c, e in zip(row, word):
            acc = self.add[acc][self.mul[c][e]]
        return acc

    def vanish_at(self, row, y, rng):
        """Reset one coefficient of row on a nonzero y[j] so that the row
        vanishes at y; unchanged when y is 0."""
        nonzero = [j for j, e in enumerate(y) if e]
        if nonzero:
            j = rng.choice(nonzero)
            row[j] = 0
            row[j] = self.mul[self.neg[self.dot(row, y)]][self.inv[y[j]]]

    def axpy(self, dst, c, src):
        """dst - c * src, entry by entry."""
        times = self.mul[self.neg[c]]
        return [self.add[d][times[e]] for d, e in zip(dst, src)]

    def horner(self, high_first, x):
        acc, out = 0, []
        for c in high_first:
            acc = self.add[self.mul[acc][x]][c]
            out.append(acc)
        return out

    def poly_mul(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add[out[i + j]][self.mul[x][y]]
        while out and out[-1] == 0:
            out.pop()
        return out

    def matmul(self, a, b):
        out = []
        for row in a:
            acc = [0] * len(b[0])
            for x, brow in zip(row, b):
                acc = [self.add[o][self.mul[x][y]] for o, y in zip(acc, brow)]
            out.append(acc)
        return out

    def rref(self, rows):
        """(R, rank, pivots): the reduced row-echelon form is unique, so
        any correct elimination must give this one."""
        m = [list(r) for r in rows]
        pivots = []
        for col in range(len(m[0]) if m else 0):
            sel = next((r for r in range(len(pivots), len(m)) if m[r][col]), None)
            if sel is None:
                continue
            top = len(pivots)
            m[top], m[sel] = m[sel], m[top]
            m[top] = [self.mul[self.inv[m[top][col]]][e] for e in m[top]]
            for r in range(len(m)):
                if r != top:
                    m[r] = self.axpy(m[r], m[r][col], m[top])
            pivots.append(col)
        return m, len(pivots), tuple(pivots)


def _random_rows(rng, q, nrows, ncols, ref):
    """Rows with some of them combinations of others, so ranks fall short."""
    rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        if rng.random() < 0.4:
            j = rng.randrange(i)
            rows[i] = ref.axpy(rows[i] if rng.random() < 0.5 else [0] * ncols,
                               rng.randrange(q), rows[j])
    return rows


def table_disagreements(F, rng, cases=CASES):
    """Descriptions of every table entry and kernel result of F that
    differs from the reference."""
    q = F.q
    ref = Reference(F)
    bad = []
    for name, table, want in (("add_table", F.add_table, ref.add),
                              ("mul_table", F.mul_table, ref.mul)):
        if any(table[a][b] != want[a][b] for a in range(q) for b in range(q)):
            bad.append(f"GF({q}) {name} differs from the reference")
    for _ in range(cases):
        n = rng.randrange(1, 12)
        dst = [rng.randrange(q) for _ in range(n)]
        src = [rng.choice((0, rng.randrange(q))) for _ in range(n)]
        c = rng.randrange(q)
        got = list(dst)
        F.sub_scaled(got, c, F.row_logs(src))
        if got != ref.axpy(dst, c, src):
            bad.append(f"GF({q}) sub_scaled({dst}, {c}, {src}) = {got}")
        coeffs = [rng.randrange(q) for _ in range(rng.randrange(0, 9))]
        for x in (0, rng.randrange(q)):
            if F.horner(coeffs, x) != ref.horner(coeffs, x):
                bad.append(f"GF({q}) horner({coeffs}, {x})")
        a = [rng.randrange(q) for _ in range(rng.randrange(1, 8))]
        b = [rng.randrange(q) for _ in range(rng.randrange(1, 8))]
        if list((Poly(F, a) * Poly(F, b)).coeffs) != ref.poly_mul(a, b):
            bad.append(f"GF({q}) Poly({a}) * Poly({b})")
        r, k, cols = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 7)
        left = [[rng.randrange(q) for _ in range(k)] for _ in range(r)]
        right = [[rng.randrange(q) for _ in range(cols)] for _ in range(k)]
        if (MatQ(F, left) @ MatQ(F, right)).data != ref.matmul(left, right):
            bad.append(f"GF({q}) {left} @ {right}")
        bad += elimination_disagreements(F, rng, ref)
        bad += column_sums_disagreements(F, rng, ref)
    return bad


def elimination_disagreements(F, rng, ref):
    """rref, rank_of_rows, echelon's rest at a random width, kernel,
    solve and invert on seeded rows, against the reduced row-echelon form
    on the reference tables."""
    q, bad = F.q, []
    rows = _random_rows(rng, q, rng.randrange(1, 7), rng.randrange(1, 9), ref)
    ncols = len(rows[0])
    A = MatQ(F, rows)
    R, rank, pivots = want = ref.rref(rows)
    got = A.rref()
    if (got[0].data, *got[1:]) != want:
        bad.append(f"GF({q}) rref({rows})")
    if rank_of_rows(F, rows) != rank:
        bad.append(f"GF({q}) rank_of_rows({rows})")
    # the combinations vanishing on the first width columns are those of
    # the rows of R pivoting at width or later: the same space in RREF
    width = rng.randrange(ncols + 1)
    rest = echelon(F, [list(row) for row in rows], width)[1]
    reduced, dim, _ = ref.rref(rest)
    if reduced[:dim] != [row[width:] for row, c in zip(R, pivots) if c >= width]:
        bad.append(f"GF({q}) echelon({rows}, {width}) rest {rest}")
    kernel = []
    for free in (j for j in range(ncols) if j not in pivots):
        vec = [int(j == free) for j in range(ncols)]
        for row, c in zip(R, pivots):
            vec[c] = ref.neg[row[free]]
        kernel.append(vec)
    if A.kernel() != kernel:
        bad.append(f"GF({q}) kernel of {rows}")
    b = [rng.randrange(q) for _ in rows]
    aug, _, aug_pivots = ref.rref([row + [e] for row, e in zip(rows, b)])
    x = None
    if ncols not in aug_pivots:
        x = [0] * ncols
        for row, c in zip(aug, aug_pivots):
            x[c] = row[ncols]
    if A.solve(b) != x:
        bad.append(f"GF({q}) solve({rows}, {b})")
    n = min(len(rows), ncols)
    square = [row[:n] for row in rows[:n]]
    aug, full, aug_pivots = ref.rref([row + [int(i == j) for j in range(n)]
                                      for i, row in enumerate(square)])
    inverse = [row[n:] for row in aug] if full == n and aug_pivots[-1] < n else None
    try:
        got = MatQ(F, square).invert().data
    except ValueError:
        got = None
    if got != inverse:
        bad.append(f"GF({q}) invert({square})")
    return bad


def column_sums_disagreements(F, rng, ref):
    """ColumnSums on one seeded word, plain and with fed-back columns,
    against the reference: the values are the unchecked rows' sums over
    the word, and the checked rows, about half of them made to vanish,
    are summed over the word followed by the values when fed back."""
    q, bad = F.q, []
    cols, nchecked, nvalues = rng.randrange(1, 9), rng.randrange(0, 4), rng.randrange(0, 4)
    word = [rng.choice((0, rng.randrange(q))) for _ in range(cols)]
    values_rows = [[rng.choice((0, rng.randrange(q))) for _ in range(cols)] for _ in range(nvalues)]
    values = [ref.dot(row, word) for row in values_rows]
    for feedback in (False, True):
        y = word + values if feedback else word
        checked_rows = [[rng.choice((0, rng.randrange(q))) for _ in y] for _ in range(nchecked)]
        for row in checked_rows:
            if rng.random() < 0.5:
                ref.vanish_at(row, y, rng)
        sums = [ref.dot(row, y) for row in checked_rows]
        want = (next((r for r, v in enumerate(sums) if v), -1), values)
        kernel = ColumnSums(F, [enumerate(row) for row in checked_rows + values_rows], cols,
                            nchecked)
        # cold, then warm
        if kernel.run(word) != want or kernel.run(word) != want:
            bad.append(f"GF({q}) ColumnSums of {checked_rows} over {values_rows} at {word}")
    return bad


def division_disagreements():
    """((p, w, x) pairs swept, the ones where the lane division fails)."""
    swept, bad = 0, []
    for p in range(3, MAX_Q, 2):
        if not _is_prime(p):
            continue
        # max_terms is the most terms whose slot sums fit the bits that
        # PACK_TERMS terms need, so (p - 1) * max_terms has this width too
        for w in range((p - 1).bit_length(), ((p - 1) * PACK_TERMS).bit_length() + 1):
            k, m = _divider(p, w)
            top = (1 << w) - 1
            edge = top // p * p
            for x in (top, edge, edge - 1):
                swept += 1
                if x * m >> k != x // p or (x * m).bit_length() > 2 * w + 2:
                    bad.append(f"division by {p} at w = {w}: x = {x}, k = {k}, M = {m}")
    return swept, bad


def prime_powers(limit):
    """(p, s) for every prime power p^s <= limit, by increasing q."""
    return [next(iter(f.items())) for q in range(2, limit + 1) if len(f := _factorize(q)) == 1]


def main() -> int:
    bad = []
    fields = prime_powers(256) + LARGE
    for p, s in fields:
        F = field_create(p, s)
        bad += table_disagreements(F, random.Random(SEED * 1000 + F.q))
    print(f"{len(fields)} fields, every q <= 256 and {len(LARGE)} larger: tables and 11 routines "
          f"against the reference, {CASES} seeded cases each, {len(bad)} disagree")
    start = time.perf_counter()
    swept, wrong = division_disagreements()
    print(f"lane division by every odd prime p < {MAX_Q} at every slot width: {swept} cases, "
          f"{len(wrong)} wrong, {time.perf_counter() - start:.2f} s")
    for line in bad + wrong:
        print(line)
    return 1 if bad or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
