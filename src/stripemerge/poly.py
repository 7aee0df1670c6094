"""Dense univariate polynomials over a FieldCtx.

Coefficients are stored constant-first as integer encodings with no
trailing zeros; the zero polynomial has an empty coefficient tuple and
degree -1.  This is shared plumbing for the evaluation-code and
function-field modules.  Rational functions are evaluated at places by
one place-local evaluator, RationalFunction.local: a FieldCtx.horner
pass each for numerator and denominator, continued by divide_out on the
one that vanishes there.  divide_out is repeated synthetic division, one
Horner pass per root divided out, and long division subtracts multiples
of the divisor through FieldCtx.sub_scaled.  Products read the field's
add_table and mul_table rows: each term is two index operations.
Coefficients and every other scalar (a constant, a factor of scale, a
point of eval, a root) are plain int encodings; a scalar from the
caller outside [0, q) is refused (FieldCtx.scalar), and coefficients are
copied as given.  Operands of different fields raise ValueError.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import FieldCtx


def _check_field(f: FieldCtx, other: FieldCtx) -> None:
    if other is not f and other != f:
        raise ValueError(f"operands belong to different fields: {f} and {other}")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: FieldCtx) -> Poly:
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldCtx) -> Poly:
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldCtx) -> Poly:
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: FieldCtx, c: int) -> Poly:
        return cls(field, (field.scalar(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.coeffs))

    def __add__(self, other: Poly) -> Poly:
        f = self.field
        _check_field(f, other.field)
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out[i] = f.add_enc(a, b)
        return Poly(f, out)

    def __neg__(self) -> Poly:
        f = self.field
        return Poly(f, [f.neg_enc(c) for c in self.coeffs])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        f = self.field
        _check_field(f, other.field)
        if self.is_zero() or other.is_zero():
            return Poly.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        add, mul = f.add_table, f.mul_table
        for i, a in enumerate(self.coeffs):
            if a:
                times_a = mul[a]
                for j, b in enumerate(other.coeffs, i):
                    out[j] = add[out[j]][times_a[b]]
        return Poly(f, out)

    def scale(self, c: int) -> Poly:
        f = self.field
        times = f.mul_table[f.scalar(c)]
        return Poly(f, [times[a] for a in self.coeffs])

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        f = self.field
        _check_field(f, other.field)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = other.degree
        quot = [0] * max(len(rem) - dd, 0)
        inv_lead = f.inv_enc(other.coeffs[-1])
        div_logs = f.row_logs(other.coeffs)
        while len(rem) - 1 >= dd and rem:
            shift = len(rem) - 1 - dd
            factor = f.mul_enc(rem[-1], inv_lead)
            quot[shift] = factor
            window = rem[shift:]
            f.sub_scaled(window, factor, div_logs)
            rem[shift:] = window
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(f, quot), Poly(f, rem)

    def __mod__(self, other: Poly) -> Poly:
        return self.divmod(other)[1]

    def __floordiv__(self, other: Poly) -> Poly:
        return self.divmod(other)[0]

    def gcd(self, other: Poly) -> Poly:
        _check_field(self.field, other.field)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> Poly:
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        return self.scale(self.field.inv_enc(self.coeffs[-1]))

    def eval(self, x: int) -> int:
        f = self.field
        partial = f.horner(self.coeffs[::-1], f.scalar(x))
        return partial[-1] if partial else 0

    def to_obj(self) -> list[int]:
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)} over GF({self.field.q}))"


def divide_out(field: FieldCtx, partial: list[int], x: int) -> tuple[int, int]:
    """(m, c(x)) for a nonzero polynomial (X - x)^m * c with c(x) != 0,
    given its Horner partial sums at x (FieldCtx.horner), whose last is
    the value at x and whose others are the quotient by X - x, leading
    first.  Repeated synthetic division: while the value is 0, one more
    pass on the quotient divides out one more root, so a root of
    multiplicity m costs m passes beyond the one given."""
    m = 0
    while not partial[-1]:
        # a nonzero polynomial has at most deg roots, so the quotient
        # is never empty here
        partial, m = field.horner(partial[:-1], x), m + 1
    return m, partial[-1]


def poly_from_roots(field: FieldCtx, roots: Iterable[int]) -> Poly:
    """Monic product of (x - r) over the given root encodings."""
    out = Poly.one(field)
    for r in roots:
        out = out * Poly(field, (field.neg_enc(field.scalar(r)), 1))
    return out
