"""Exact arithmetic in small finite fields GF(p^s).

Elements are stored as integer encodings: the polynomial-basis coefficient
vector (c_0, ..., c_{s-1}) with c_i in [0, p) packs little-endian as
c_0 + c_1*p + ... + c_{s-1}*p^(s-1).  For prime fields (s = 1) the encoding
is the residue itself.  _digits is the one place that unpacks an encoding.

Every context, prime fields included, builds one table set at construction
from a multiplicative generator alpha: a doubled exp table (so that
log a + log b indexes it without a reduction mod q - 1), the log table
with None at 0, and the Zech table Z with 1 + alpha^i = alpha^Z(i) (None
where that sum is 0).  inv_enc, pow_enc and neg_enc are one table path
for every field: -a = alpha^(log a + log(-1)), where log(-1) is
(q - 1)/2 for odd p and 0 in characteristic 2.  Fields are capped at
q <= 2^16, which keeps every table small and every scan exhaustive.

Weighted sums, the inner loop of conversion and encoding (membership is
the exact product), go through one column-table kernel, ColumnSums.
packed_exp(S) stores each power of the generator with its GF(p) digits
in separate S-bit slots of one Python int, so a sum of products
c_j * w_j is one integer addition per term.  ColumnSums gives
each row of a fixed matrix M its own block of slots in one integer and
each column j a table from a symbol w_j to the packed products
w_j * M[r][j] of the whole column, so M * w is one lookup and one
addition per coordinate of w.  A kernel may also feed the values of its
unchecked rows back as extra columns that only its checked rows read,
one more lookup per value, so that one sum checks a word, computes
values from it and tests rows over both (execute checks the inputs,
writes the symbols and tests the final word this way).  Its slots are as
wide as its heaviest row needs, fed-back terms included, so no carry
crosses a slot, and one multiply by p^-1 tests every slot for 0 mod p at
once (the divisibility test of Granlund and Montgomery).  Tables fill on
first use, and two threads that fill one entry at once store equal
values, so codes and plans stay safe to share.
The kernel reads the field's own exp and log tables; add_enc and mul_enc
remain the reference it is tested against.

Every field also holds an addition and a product table, add_table and
mul_table, whose row a maps b to a + b and to a * b.  add_enc, mul_enc
and every scalar kernel index them, so an entry of a product, a row
update or a Horner step is two index operations; only FieldCtx.__init__
decides how they are stored.  With q <= TABLE_Q = 256 they are q tuples
of q encodings, built at construction without the *_enc methods:
addition digit by digit, each new top digit one rotation of the rows
below it, and each product row one bytes translate of the logs through
exp (about 2 ms at q = 256).  Above that each is a _Rows table whose
row a is made on first lookup and stores no entries.  In a prime field
a row of sums is the view from a of one shared read-only buffer holding
0, 1, ..., q - 1 twice (one C-level index per sum); every other row
computes each entry on lookup: a * b mod p or exp[log a + log b] for
products, XOR or the Zech step a + b = alpha^(log a + Z(log b - log a))
for sums.

Elimination and polynomial evaluation use two smaller kernels beside
ColumnSums.  The row kernel does dst[j] -= c * src[j]: row_logs(src)
takes the logs of a source row's nonzero entries once, and
sub_scaled(dst, c, logs) folds the negation into log c, so each entry
costs one exp lookup and one add_table lookup.  horner(coeffs, x) gives
Horner's partial sums at a fixed x, which are the value and the
quotient by X - x, each step acc = add_table[mul_table[x][acc]][c].
No module but this one reads the exp, log and Zech tables; the kernels
of poly, matrix and codes read add_table and mul_table.

A FieldCtx is immutable after construction and safe to share between
threads (two threads that build a packed table, the element table or a
table row at once build equal ones).  Elements of different contexts
never mix: any cross-field operation raises ValueError instead of
coercing.
"""

from __future__ import annotations

import functools
from array import array
import math
from operator import getitem
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .schema import as_int, as_ints, as_object

MAX_Q = 1 << 16
PACK_TERMS = 1 << 16  # sets each field's max_terms, the column bound of its kernels
TABLE_Q = 256  # the largest field that holds addition and product tables


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n <= 2^32 here)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _digits(enc: int, p: int, s: int) -> list[int]:
    """The s GF(p) digits of an encoding, c_0 first."""
    out = []
    for _ in range(s):
        enc, digit = divmod(enc, p)
        out.append(digit)
    return out


# -- dense polynomials over GF(p), used only for modulus handling -----------
# Coefficient lists are constant-first with no trailing zeros.


def _pnorm(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        _pnorm(a)
    return a


def _poly_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    m = _pnorm(list(m))
    deg = len(m) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            div = _digits(enc, p, d) + [1]
            if not _pmod(m, div, p):
                return False
    return True


def _first_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree s.

    The scan runs over the packed encoding c_0 + c_1 p + ... ascending, so
    two runs (or two implementations) agree on the default modulus.
    """
    for enc in range(p ** s):
        cand = _digits(enc, p, s) + [1]
        if _poly_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class _Rows(dict):
    """The addition or product table of a field with q > TABLE_Q: row a
    is make(a), made on its first lookup and shared by every later one."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], Sequence[int]]):
        super().__init__()
        self.make = make

    def __missing__(self, a: int) -> Sequence[int]:
        row = self[a] = self.make(a)
        return row


class _Row:
    """Row a of a _Rows table: entry b is computed on each lookup, by
    integer or log/Zech arithmetic, and no entry is stored."""

    __slots__ = ("a", "la", "p", "exp", "log", "zech")

    def __init__(self, field: FieldCtx, a: int):
        self.a, self.la, self.p = a, field._log[a], field.p
        self.exp, self.log, self.zech = field._exp, field._log, field._zech


class _PrimeProducts(_Row):
    __slots__ = ()

    def __getitem__(self, b: int) -> int:
        return self.a * b % self.p


class _XorSums(_Row):
    __slots__ = ()

    def __getitem__(self, b: int) -> int:
        return self.a ^ b


class _ZechSums(_Row):
    """a + b = alpha^(log a + Z(log b - log a)) in an odd-characteristic
    extension."""

    __slots__ = ()

    def __getitem__(self, b: int) -> int:
        la = self.la
        if la is None or not b:
            return self.a + b
        # log b - log a may be negative; the list index wraps it mod q - 1
        z = self.zech[self.log[b] - la]
        return 0 if z is None else self.exp[la + z]


class _LogProducts(_Row):
    __slots__ = ()

    def __getitem__(self, b: int) -> int:
        la = self.la
        return 0 if la is None or not b else self.exp[la + self.log[b]]


class FieldCtx:
    """The field GF(p^s) with a fixed monic irreducible modulus."""

    def __init__(self, p: int, s: int, modulus: Optional[Sequence[int]] = None):
        if s < 1:
            raise ValueError(f"extension degree must be >= 1, got {s}")
        # bound the size before p ** s is computed or p is tried by trial
        # division, whose cost grows with sqrt(p); p >= 2 bounds s by log2(MAX_Q)
        if p >= 2 and (p > MAX_Q or s >= MAX_Q.bit_length() or p ** s > MAX_Q):
            raise ValueError(f"field size {p}^{s} exceeds supported maximum {MAX_Q}")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p ** s
        self.p = p
        self.s = s
        self.q = q
        if s == 1:
            self.modulus = (0, 1)  # unused; kept for uniform serialization
        elif modulus is None:
            self.modulus = _first_irreducible(p, s)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree s")
            if not _poly_irreducible(modulus, p):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
            self.modulus = modulus
        self._exp, self._log, self._zech = self._build_tables()
        self._log_minus_one = self._log[p - 1]
        if q <= TABLE_Q:
            self.add_table, self.mul_table = self._arith_tables()
        elif s == 1:
            # row a of the sums is a view of 0, 1, ..., q - 1 twice, from a
            cycle = memoryview(array("l", range(q)) * 2).toreadonly()
            self.add_table = _Rows(lambda a: cycle[a:a + q])
            self.mul_table = _Rows(functools.partial(_PrimeProducts, self))
        else:
            self.add_table = _Rows(functools.partial(_XorSums if p == 2 else _ZechSums, self))
            self.mul_table = _Rows(functools.partial(_LogProducts, self))
        # the column bound of every ColumnSums over this field: the most
        # terms whose digit sums fit the bits that PACK_TERMS terms need
        self.max_terms = ((1 << ((p - 1) * PACK_TERMS).bit_length()) - 1) // (p - 1)
        self._packed: dict[int, list[int]] = {}
        self._elements: Optional[tuple[FieldElem, ...]] = None

    # -- low-level ops on integer encodings ---------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Product without tables: a * b mod p in a prime field, the
        schoolbook product mod the modulus otherwise."""
        p, s = self.p, self.s
        if s == 1:
            return a * b % p
        bc = _digits(b, p, s)
        prod = [0] * (2 * s - 1)
        for i, ai in enumerate(_digits(a, p, s)):
            if ai:
                for j, bj in enumerate(bc):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        return sum(c * p ** i for i, c in enumerate(_pmod(prod, list(self.modulus), p)))

    def _build_tables(self) -> tuple[list[int], list[Optional[int]], list[Optional[int]]]:
        """exp (doubled), log and Zech tables of the first generator.

        exp[i] = alpha^(i mod (q - 1)) for 0 <= i < 2(q - 1); log[0] and
        Z(i) for alpha^i = -1 are None.  1 + alpha^i only changes digit 0
        of alpha^i, so Z is read off exp by incrementing that digit mod p.
        """
        p, q = self.p, self.q
        order_factors = _factorize(q - 1)
        gen = 0
        for cand in range(2, q):
            if all(self._raw_pow(cand, (q - 1) // f) != 1 for f in order_factors):
                gen = cand
                break
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._raw_mul(exp[i - 1], gen)
        log: list[Optional[int]] = [None] * q
        for i, v in enumerate(exp):
            log[v] = i
        zech = [log[v + 1 if (v + 1) % p else v + 1 - p] for v in exp]
        return exp + exp, log, zech

    def _arith_tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The addition and product tables, built as bytes rows (every
        encoding is below q <= 256) and handed out as tuples of ints.

        Addition is digit-wise mod p, built one digit at a time from the
        top: with m = p^i, the row of low + m * top over i + 1 digits is
        the row of low with m * d added to the part where b's top digit
        is d, rotated by m * top.  Each shift is one translate.  The row
        of a != 0 in the product table is exp[log a + log b] for b != 0
        and 0 at b = 0: the bytes of log b translated through the slice
        of exp from log a, padded with zeros that b = 0 reads."""
        p, q = self.p, self.q
        add = [b"\0"]
        for _ in range(self.s):
            m = len(add)
            shifts = [bytes(range(m * d, m * (d + 1))).ljust(256, b"\0") for d in range(p)]
            flats = [b"".join([row.translate(shift) for shift in shifts]) for row in add]
            add = [flat[m * top:] + flat[:m * top] for top in range(p) for flat in flats]
        logs, pad = bytes([q - 1, *self._log[1:]]), bytes(257 - q)
        exp = bytes(self._exp)
        mul = [bytes(q)] + [logs.translate(exp[la:la + q - 1] + pad) for la in self._log[1:]]
        return tuple(map(tuple, add)), tuple(map(tuple, mul))

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def add_enc(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg_enc(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def sub_enc(self, a: int, b: int) -> int:
        return self.add_enc(a, self.neg_enc(b))

    def mul_enc(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._exp[self.q - 1 - self._log[a]]

    def pow_enc(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_enc(self.inv_enc(a), -e)
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def row_logs(self, row: Sequence[int], start: int = 0) -> list[tuple[int, int]]:
        """(j, log row[j]) for every nonzero row[j] with j >= start: a
        source row for sub_scaled, taken once and used for many rows."""
        log = self._log
        return [(j, log[row[j]]) for j in range(start, len(row)) if row[j]]

    def sub_scaled(self, dst: list[int], c: int, src_logs: Sequence[tuple[int, int]]) -> None:
        """dst[j] -= c * src[j] in place, where src_logs = row_logs(src).

        The negation is folded into the log of c, so each nonzero entry
        of src costs one exp lookup and one add_table lookup."""
        if not c:
            return
        exp, add = self._exp, self.add_table
        lc = (self._log[c] + self._log_minus_one) % (self.q - 1)
        for j, ls in src_logs:
            dst[j] = add[dst[j]][exp[lc + ls]]

    def horner(self, high_first: Sequence[int], x: int) -> list[int]:
        """Horner's partial sums at x of the coefficients given leading
        first: the last is the value at x and the others are the quotient
        by X - x, leading first (synthetic division).  Each step is
        add_table[mul_table[x][acc]][c]."""
        add, times_x, acc = self.add_table, self.mul_table[x], 0
        return [acc := add[times_x[acc]][c] for c in high_first]

    def packed_exp(self, stride: int) -> list[int]:
        """The doubled exp table with each power's GF(p) digits in
        stride-bit slots, digit j from bit j * stride, built on first use
        per stride; in a prime field it is the exp table itself."""
        if self.s == 1:
            return self._exp
        table = self._packed.get(stride)
        if table is None:
            # one pass over the powers per digit
            p, powers = self.p, self._exp[: self.q - 1]
            half = [0] * len(powers)
            for j in range(self.s):
                weight, shift = p ** j, j * stride
                half = [h + (e // weight % p << shift) for h, e in zip(half, powers)]
            table = self._packed[stride] = half + half
        return table

    def encodings(self, word: Sequence[FieldElem]) -> list[int]:
        """The encodings of word's symbols.  Raises ValueError, naming the
        coordinate and both fields, for a symbol of another field; an
        equal field that is another object is the same field."""
        encs = [w.enc for w in word if w.field is self]
        if len(encs) != len(word):
            for j, w in enumerate(word):
                if w.field != self:
                    raise ValueError(f"coordinate {j} is in {w.field}, not {self}")
            encs = [w.enc for w in word]
        return encs

    def word(self, encs: Iterable[int]) -> tuple[FieldElem, ...]:
        """The elements with these encodings, each one shared instance
        from a table of all q elements built on first use."""
        if self._elements is None:
            self._elements = tuple(FieldElem(self, enc) for enc in range(self.q))
        elements = self._elements
        return tuple([elements[e] for e in encs])

    # -- element factory -----------------------------------------------------

    def element(self, enc: int) -> FieldElem:
        enc = int(enc)
        if not 0 <= enc < self.q:
            raise ValueError(f"encoding {enc} out of range for GF({self.q})")
        return FieldElem(self, enc)

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    def elements(self) -> Iterator[FieldElem]:
        for enc in range(self.q):
            yield FieldElem(self, enc)

    # -- identity / serialization -------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.s, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.q}))" if self.s > 1 else f"FieldCtx(GF({self.p}))"

    def to_obj(self) -> dict:
        return {"p": self.p, "s": self.s, "modulus": list(self.modulus)}

    @classmethod
    def from_obj(cls, obj: dict) -> FieldCtx:
        """The field that obj names, validated.  Each (p, s, modulus) read
        gives one context per process, shared by every later read of it,
        so a field named by many requests and bundles builds its tables
        once; FieldCtx(p, s, modulus) still builds a new one."""
        obj = as_object(obj, "field")
        s = as_int(obj["s"], "s")
        modulus = obj.get("modulus") if s > 1 else None
        if modulus is not None:
            modulus = tuple(as_ints(modulus, "modulus"))
        return _shared_field(as_int(obj["p"], "p"), s, modulus)


class ColumnSums:
    """M * w for one fixed sparse matrix M over one field, one table lookup
    per column, and a zero test of all of M's first `checked` rows at once.

    rows[r] lists row r of M as (column, coefficient encoding) pairs, and
    cols is the length of a word w.  Each GF(p) digit of a row's sum has
    its own slot of S bits in one integer, a row owning a block of s
    adjacent slots (the unchecked rows the lowest blocks), and the table
    of column j maps a symbol encoding e to the packed digits of the
    products e * M[r][j] of the column's nonzeros, read off the field's
    digit table at stride S (FieldCtx.packed_exp).
    M * w is then sum(table_j[w_j]): one C-level lookup and one integer
    addition per coordinate.  run also reduces the unchecked rows, so with
    checked = 0 run(w)[1] is all of M * w, which is how encode reads it;
    a kernel with no checked rows skips the zero test.  Conversion and
    encoding build it; membership is the exact product, not a kernel.

    A checked row may also read fed-back columns: column cols + k holds
    the value v_k of the k-th unchecked row.  run then sums w, reduces
    the values, adds table_{cols+k}[v_k] for each and zero-tests the
    checked rows once, so a checked row tests a sum over the word and the
    values computed from it together.  An unchecked row reads the word
    alone, so those tables fill only checked blocks; a row that names a
    column past what it may read is refused.

    The slot width w is the least with (p - 1) * m < 2^w, where m is the
    most terms in one row, fed-back terms included, so every slot sum x
    is exact.  In odd characteristic S = 2w, and p | x iff x * p^-1 mod
    2^w is at most (2^w - 1) // p: multiplying by p^-1 permutes the
    residues mod 2^w and sends each multiple i * p < 2^w to i.  So
    acc * p^-1, masked to the low w bits of every checked slot, plus the
    bias 2^w - 1 - (2^w - 1) // p in each, sets bit w of exactly the
    slots that are nonzero mod p.
    No carry crosses a slot: x * p^-1 <= (2^w - 1)^2 < 2^2w, and the
    biased value is below 2^(w+1).  In characteristic 2, S = max(w, s),
    and a digit is zero iff its slot's low bit is clear.  More than the
    field's max_terms columns, the fed-back ones that rows read included,
    are refused.

    A table starts with only 0 in it.  A word that misses fills all its
    missing entries in one loop and is summed again, so a cold word costs
    about what one pass over M's nonzeros costs and a warm one a lookup
    per coordinate; a table holds at most q entries.  An entry depends
    only on M and the encoding, so two threads that fill one entry at
    once store equal values, and a shared code stays safe.
    """

    def __init__(self, field: FieldCtx, rows: Sequence[Iterable[tuple[int, int]]], cols: int,
                 checked: int):
        p, s = field.p, field.s
        rows = [[(j, c) for j, c in row if c] for row in rows]
        unchecked = len(rows) - checked
        w = ((p - 1) * max([1, *map(len, rows)])).bit_length()
        stride = max(w, s) if p == 2 else 2 * w
        block = s * stride
        self.cols = cols
        self._p, self._s, self._block = p, s, block
        # the unchecked rows own the lowest blocks, so that run reduces them
        # from a short integer, acc & _values_mask
        shifts = [i * block for i in (*range(unchecked, len(rows)), *range(unchecked))]
        self._unchecked = tuple(shifts[checked:])
        self._values_mask = (1 << unchecked * block) - 1
        self._first_checked = unchecked
        self._slot_mask = (1 << w) - 1
        offsets = [j * stride for j in range(s)]  # of a row's digit slots in its block
        self._top_first = offsets[::-1]
        digit_bits = sum(1 << offset for offset in offsets)  # bit 0 of each slot of a block
        if s > 1 and p == 2:
            # gathers the low bits of a row's slots into s adjacent bits
            self._top = offsets[-1]
            self._gather = sum(1 << (self._top - offset + j) for j, offset in enumerate(offsets))
            self._low_digits = digit_bits
        # bit 0 of every checked slot: the checked rows own consecutive blocks,
        # and (2^(checked * block) - 1) / (2^block - 1) has bit 0 of each set
        block_bits = ((1 << checked * block) - 1) // ((1 << block) - 1) << unchecked * block
        slot_bits = block_bits * digit_bits
        if p == 2:
            # the same test reads acc & low: p^-1 = 1, no bias, bit 0 guards
            self._pinv, self._bias = 1, 0
            self._low = self._guard = slot_bits
        else:
            # a slot holds its w low bits, the bias or bit w, with no overlap
            self._pinv = pow(p, -1, 1 << w)
            self._low = self._slot_mask * slot_bits
            self._bias = (self._slot_mask - self._slot_mask // p) * slot_bits
            self._guard = slot_bits << w
        log = self._log = field._log
        self._pexp = field.packed_exp(stride)
        # a checked row may read every column, the fed-back ones included,
        # an unchecked row the word's alone: it fills through a list that
        # shares only the word columns' entries
        entries: list[list[tuple[int, int]]] = [[] for _ in range(cols + unchecked)]
        for reach, first, last in ((entries, 0, checked), (entries[:cols], checked, len(rows))):
            for r in range(first, last):
                shift = shifts[r]
                try:
                    for j, c in rows[r]:
                        reach[j].append((shift, log[c]))
                except IndexError:
                    raise ValueError(
                        f"row {r} names column {j} of the {len(reach)} it may read"
                    ) from None
        while len(entries) > cols and not entries[-1]:
            entries.pop()  # a fed-back column that no row reads
        columns = len(entries)
        if columns > field.max_terms:
            raise ValueError(
                f"{columns} columns exceed the {field.max_terms} that a kernel over GF({p}) takes"
            )
        self._entries = entries
        self._tables = [{0: 0} for _ in entries]
        self._fed = self._tables[cols:]  # the fed-back columns' tables

    def _fill(self, encs: Sequence[int], start: int = 0) -> int:
        """Fill every entry that encs misses in the tables of columns
        start, start + 1, ... in one loop, then sum again."""
        log, pexp = self._log, self._pexp
        tables = self._tables[start:]
        for table, entries, e in zip(tables, self._entries[start:], encs):
            if e not in table:
                le = log[e]
                v = 0
                for shift, lc in entries:
                    v += pexp[le + lc] << shift
                table[e] = v
        return sum(map(getitem, tables, encs))

    def _reduce(self, acc: int, shifts: Sequence[int]) -> list[int]:
        """The encodings of the rows whose blocks start at shifts."""
        p, slot_mask = self._p, self._slot_mask
        if self._s == 1:
            return [(acc >> shift & slot_mask) % p for shift in shifts]
        if p == 2:
            # the digits are the low bits of the slots; one product moves
            # slot j's bit to bit top + j, and as the stride is >= s no two
            # partial products meet there, so nothing carries into those s bits
            low, gather, top = self._low_digits, self._gather, self._top
            digits = (1 << self._s) - 1
            return [((acc >> shift) & low) * gather >> top & digits for shift in shifts]
        # Horner over the digits, top slot first
        offsets = self._top_first
        out = []
        for shift in shifts:
            block = acc >> shift
            enc = 0
            for offset in offsets:
                enc = enc * p + (block >> offset & slot_mask) % p
            out.append(enc)
        return out

    def run(self, encs: Sequence[int]) -> tuple[int, list[int]]:
        """(r, values) from one sum: values are the encodings of the
        unchecked rows, and r is the first checked row of M * w (with the
        values in the fed-back columns) that is not 0, or -1 when they
        all are."""
        if len(encs) != self.cols:
            raise ValueError(f"word of length {len(encs)} for {self.cols} columns")
        try:
            acc = sum(map(getitem, self._tables, encs))
        except KeyError:
            acc = self._fill(encs)
        values = self._reduce(acc & self._values_mask, self._unchecked)
        if not self._guard:
            # no checked rows (encode): no zero test
            return -1, values
        if self._fed:
            try:
                acc += sum(map(getitem, self._fed, values))
            except KeyError:
                acc += self._fill(values, self.cols)
        bad = ((acc * self._pinv & self._low) + self._bias) & self._guard
        # the lowest flagged bit lies in the block of the first failing row
        first = ((bad & -bad).bit_length() - 1) // self._block - self._first_checked if bad else -1
        return first, values


class FieldElem:
    """An element of a FieldCtx; immutable value type."""

    __slots__ = ("field", "enc")

    def __init__(self, field: FieldCtx, enc: int):
        self.field = field
        self.enc = enc

    def _check(self, other: FieldElem) -> None:
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected FieldElem, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("operands belong to different fields")

    def __add__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        return FieldElem(self.field, self.field.add_enc(self.enc, other.enc))

    def __sub__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        return FieldElem(self.field, self.field.sub_enc(self.enc, other.enc))

    def __mul__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        return FieldElem(self.field, self.field.mul_enc(self.enc, other.enc))

    def __truediv__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        return FieldElem(
            self.field, self.field.mul_enc(self.enc, self.field.inv_enc(other.enc))
        )

    def __pow__(self, e: int) -> FieldElem:
        return FieldElem(self.field, self.field.pow_enc(self.enc, int(e)))

    def __neg__(self) -> FieldElem:
        return FieldElem(self.field, self.field.neg_enc(self.enc))

    def inverse(self) -> FieldElem:
        return FieldElem(self.field, self.field.inv_enc(self.enc))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElem)
            and self.field == other.field
            and self.enc == other.enc
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.s, self.enc))

    def __bool__(self) -> bool:
        return self.enc != 0

    def multiplicative_order(self) -> int:
        """Least e >= 1 with self^e = 1: (q - 1) / gcd(log self, q - 1)."""
        if self.enc == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        order = self.field.q - 1
        return order // math.gcd(self.field._log[self.enc], order)

    def __repr__(self) -> str:
        return f"<{self.enc} in GF({self.field.q})>"


@functools.lru_cache(maxsize=16)
def _shared_field(p: int, s: int, modulus: Optional[tuple[int, ...]]) -> FieldCtx:
    """FieldCtx(p, s, modulus), built once per arguments while among the
    16 most recently read; a refused field raises again on every read."""
    return FieldCtx(p, s, modulus)


def field_create(p: int, s: int, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Build GF(p^s); scans for the first irreducible modulus when omitted."""
    return FieldCtx(p, s, modulus)


# -- primitive quadratics ----------------------------------------------------
#
# x^2 + a x + b is primitive iff a root gamma has order q^2 - 1.  By Lidl and
# Niederreiter, Finite Fields, Thm 3.18, that holds iff all three of:
#   * the norm of gamma, gamma^(q+1) = b, is primitive in GF(q):
#     b != 0 and gcd(log b, q - 1) = 1;
#   * the polynomial is irreducible: for odd q the discriminant a^2 - 4b is a
#     non-square, nonzero with odd log; in characteristic 2, a != 0 and
#     Tr(b / a^2) = 1;
#   * for each prime l | q + 1, X^((q+1)/l) mod x^2 + a x + b lies outside
#     GF(q): as u + v X, its v is nonzero.
# The last is computed on encoding pairs (u, v), so no tower of FieldCtx
# objects is needed.  For irreducible f, X^(q+1) = b, so the least r with X^r
# in GF(q) divides q + 1, and the prime test shows it is q + 1.


def _x_power(field: FieldCtx, a: int, b: int, e: int) -> tuple[int, int]:
    """X^e mod x^2 + a x + b as the pair (u, v) = u + v X of encodings."""
    add, mul = field.add_enc, field.mul_enc
    na, nb = field.neg_enc(a), field.neg_enc(b)

    def times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        # X^2 = -a X - b
        vv = mul(x[1], y[1])
        return (add(mul(x[0], y[0]), mul(nb, vv)),
                add(add(mul(x[0], y[1]), mul(x[1], y[0])), mul(na, vv)))

    result, base = (1, 0), (0, 1)
    while e:
        if e & 1:
            result = times(result, base)
        base = times(base, base)
        e >>= 1
    return result


def _is_primitive_quadratic(field: FieldCtx, a: int, b: int) -> bool:
    """The three tests above, on encodings, cheapest first."""
    q = field.q
    if not b or math.gcd(field._log[b], q - 1) != 1:
        return False
    if field.p == 2:
        if not a:
            return False
        y = field.mul_enc(b, field.inv_enc(field.mul_enc(a, a)))
        trace = 0
        for _ in range(field.s):
            trace ^= y
            y = field.mul_enc(y, y)
        if trace != 1:
            return False
    else:
        disc = field.sub_enc(field.mul_enc(a, a), field.mul_enc(4 % field.p, b))
        if not disc or field._log[disc] % 2 == 0:
            return False
    return all(_x_power(field, a, b, (q + 1) // prime)[1] for prime in _factorize(q + 1))


def primitive_quadratic_check(a: FieldElem, b: FieldElem) -> bool:
    """True iff x^2 + a x + b is irreducible over GF(q) with root of order q^2 - 1."""
    a._check(b)
    return _is_primitive_quadratic(a.field, a.enc, b.enc)


def primitive_quadratic_search(field: FieldCtx) -> tuple[FieldElem, FieldElem]:
    """First (a, b) in ascending-encoding scan with x^2 + a x + b primitive."""
    for a_enc in range(field.q):
        for b_enc in range(field.q):
            if _is_primitive_quadratic(field, a_enc, b_enc):
                return field.element(a_enc), field.element(b_enc)
    raise AssertionError("no primitive quadratic exists")  # unreachable for q >= 2
