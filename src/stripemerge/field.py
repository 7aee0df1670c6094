"""Exact arithmetic in small finite fields GF(p^s).

Elements are stored as integer encodings: the polynomial-basis coefficient
vector (c_0, ..., c_{s-1}) with c_i in [0, p) packs little-endian as
c_0 + c_1*p + ... + c_{s-1}*p^(s-1).  For prime fields (s = 1) the encoding
is the residue itself.  _digits is the one place that unpacks an encoding.

Every context, prime fields included, builds one table set at construction
from a multiplicative generator alpha: a doubled exp table (so that
log a + log b indexes it without a reduction mod q - 1), the log table
with None at 0, and the Zech table Z with 1 + alpha^i = alpha^Z(i) (None
where that sum is 0).  mul_enc, inv_enc, pow_enc and neg_enc are one table
path for every field: -a = alpha^(log a + log(-1)), where log(-1) is
(q - 1)/2 for odd p and 0 in characteristic 2.  add_enc is (a + b) mod p
in prime fields, XOR in characteristic 2 and, in odd-characteristic
extensions, one Zech lookup: a + b = alpha^(log a + Z(log b - log a)).
Fields are capped at q <= 2^16, which keeps every table small and every
scan exhaustive.

Weighted sums, the inner loop of membership checks and plan application,
go through one packed-digit kernel instead (PackedSums, built on first
use by FieldCtx.packed()).  Each power of the generator is stored with
its GF(p) digits in separate b-bit slots of one Python int, so a sum of
products c_j * w_j is one integer addition per nonzero term and one
reduction mod p per slot at the end.  It is exact: no carry crosses a
slot, because the slot width is chosen so that (p - 1) * max_terms <
2^b and a row with more than max_terms terms is refused when it is
built.  The kernel reads the field's own exp and log tables; add_enc and
mul_enc remain the reference it is tested against.

Elimination and polynomial evaluation use two smaller kernels beside it.
The row kernel does dst[j] -= c * src[j]: row_logs(src) takes the logs
of a source row's nonzero entries once, and sub_scaled(dst, c, logs)
folds the negation into log c, so each entry costs one exp lookup and
one add_enc.  horner(coeffs, x) gives Horner's partial sums at a fixed
x, which are the value and the quotient by X - x, with each product by x
one exp lookup.  add_enc and mul_enc remain their reference too, and no
module but this one reads the tables.

A FieldCtx is immutable after construction and safe to share between
threads (two threads that build the packed tables at once build equal
ones).  Elements of different contexts never mix: any cross-field
operation raises ValueError instead of coercing.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

from .schema import as_int, as_ints, as_object

MAX_Q = 1 << 16
PACK_TERMS = 1 << 16  # every field's packed slots hold sums of this many terms


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
        self._packed: Optional[PackedSums] = None

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

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def add_enc(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a + b
        la = self._log[a]
        # log b - log a may be negative; the list index wraps it mod q - 1
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg_enc(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def sub_enc(self, a: int, b: int) -> int:
        return self.add_enc(a, self.neg_enc(b))

    def mul_enc(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

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
        of src costs one exp lookup and one add_enc."""
        if not c:
            return
        exp, add = self._exp, self.add_enc
        lc = (self._log[c] + self._log_minus_one) % (self.q - 1)
        for j, ls in src_logs:
            dst[j] = add(dst[j], exp[lc + ls])

    def horner(self, high_first: Sequence[int], x: int) -> list[int]:
        """Horner's partial sums at x of the coefficients given leading
        first: the last is the value at x and the others are the quotient
        by X - x, leading first (synthetic division).  Multiplying by the
        fixed x is one lookup, exp[log acc + log x]; at x = 0 the partial
        sums are the coefficients themselves."""
        if not x:
            return list(high_first)
        exp, log, add = self._exp, self._log, self.add_enc
        lx = log[x]
        acc = 0
        out = []
        for c in high_first:
            acc = add(exp[log[acc] + lx], c) if acc else c
            out.append(acc)
        return out

    def packed(self) -> PackedSums:
        """The packed-digit kernel of this field, built on first use."""
        if self._packed is None:
            self._packed = PackedSums(self)
        return self._packed

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
        obj = as_object(obj, "field")
        s = as_int(obj["s"], "s")
        modulus = obj.get("modulus") if s > 1 else None
        if modulus is not None:
            modulus = as_ints(modulus, "modulus")
        return cls(as_int(obj["p"], "p"), s, modulus)


class PackedSums:
    """Exact weighted sums over one field with one reduction per sum.

    log is the field's log table (None for 0).  pexp[i], for
    0 <= i < 2(q - 1), packs the GF(p) digits of alpha^(i mod (q-1)):
    digit j sits in bits [j*width, (j+1)*width).  A product c * w of
    nonzero elements is then pexp[log c + log w], and a sum of such
    products is a plain integer sum whose slot j holds the sum of their
    j-th digits, each at most p - 1.  width is the least b with
    (p - 1) * PACK_TERMS < 2^b; max_terms, the largest count with
    (p - 1) * max_terms < 2^b, bounds every row that row() builds, so no
    slot overflows into the next and reduce() recovers the exact sum.
    """

    def __init__(self, field: FieldCtx):
        p, s = field.p, field.s
        self.p, self.s = p, s
        self.width = ((p - 1) * PACK_TERMS).bit_length()
        self.max_terms = ((1 << self.width) - 1) // (p - 1)
        self._mask = (1 << self.width) - 1
        self._slots = tuple((j * self.width, p ** j) for j in range(s))
        self._low = sum(1 << shift for shift, _ in self._slots)
        self._top = (s - 1) * self.width
        self._gather = sum(1 << (self._top - shift + j) for j, (shift, _) in enumerate(self._slots))
        self._digit_mask = (1 << s) - 1
        self.log = field._log
        half = [
            sum(digit << shift for digit, (shift, _) in zip(_digits(e, p, s), self._slots))
            for e in field._exp[: field.q - 1]
        ]
        self.pexp = half + half

    def row(self, coeffs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        """(index, log c) for every (index, coefficient encoding) pair with
        c != 0; raises ValueError when more than max_terms remain."""
        log = self.log
        out = tuple((j, log[c]) for j, c in coeffs if c)
        if len(out) > self.max_terms:
            raise ValueError(
                f"row of {len(out)} nonzero terms exceeds the {self.max_terms} "
                f"that {self.width}-bit packed slots hold over GF({self.p})"
            )
        return out

    def dot(self, row: Sequence[tuple[int, int]], logs: Sequence[Optional[int]]) -> int:
        """The encoding of sum c_j * w_j over a row from row(), where
        logs[j] = log w_j."""
        pexp = self.pexp
        acc = 0
        for j, lc in row:
            lw = logs[j]
            if lw is not None:
                acc += pexp[lc + lw]
        return self.reduce(acc)

    def reduce(self, acc: int) -> int:
        """The encoding whose digit j is slot j of acc mod p."""
        p, mask = self.p, self._mask
        if self.s == 1:
            return acc % p
        if p == 2:
            # the digits are the low bits of the slots; one product moves
            # slot j's bit to bit top + j, and as width >= s no two partial
            # products meet, so nothing carries into those s bits
            return ((acc & self._low) * self._gather >> self._top) & self._digit_mask
        enc = 0
        for shift, weight in self._slots:
            enc += ((acc >> shift) & mask) % p * weight
        return enc


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

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_digits(self.enc, self.field.p, self.field.s))

    def multiplicative_order(self) -> int:
        """Least e >= 1 with self^e = 1: (q - 1) / gcd(log self, q - 1)."""
        if self.enc == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        order = self.field.q - 1
        return order // math.gcd(self.field._log[self.enc], order)

    def __repr__(self) -> str:
        return f"<{self.enc} in GF({self.field.q})>"


def field_create(p: int, s: int, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Build GF(p^s); scans for the first irreducible modulus when omitted."""
    return FieldCtx(p, s, modulus)


# -- primitive quadratics ----------------------------------------------------
#
# The quadratic extension GF(q)[x]/(x^2 + a x + b) is modelled directly on
# coefficient pairs (u, v) = u + v*X, so no tower of FieldCtx objects is
# needed.  x^2 + a x + b is primitive iff it is irreducible and the class of
# X has multiplicative order q^2 - 1.


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


def primitive_quadratic_check(a: FieldElem, b: FieldElem) -> bool:
    """True iff x^2 + a x + b is irreducible over GF(q) with root of order q^2 - 1."""
    field = a.field
    a._check(b)
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


def primitive_quadratic_search(field: FieldCtx) -> tuple[FieldElem, FieldElem]:
    """First (a, b) in ascending-encoding scan with x^2 + a x + b primitive."""
    for a_enc in range(field.q):
        a = field.element(a_enc)
        for b_enc in range(field.q):
            b = field.element(b_enc)
            if primitive_quadratic_check(a, b):
                return (a, b)
    raise AssertionError("no primitive quadratic exists")  # unreachable for q >= 2
