"""Moebius transformations on the projective line over GF(q).

An automorphism of the rational function field GF(q)(x) is determined by
x |-> (a x + b)/(c x + d) with ad - bc != 0, and this module keeps both
faces of that object straight:

  * point_action applies the matrix to a coordinate of the projective
    line (q finite points plus infinity);
  * place_action is the induced map on places, which is the coordinate
    action of the *adjugate* matrix: x - beta vanishes at beta, and its
    image under the substitution vanishes at (d*beta - b)/(-c*beta + a).

With these definitions the contract

    (sigma f) evaluated at sigma(P)  ==  f evaluated at P

holds exactly, where sigma f substitutes x |-> (ax+b)/(cx+d) into f.
Composition is automorphism composition (apply the right factor first);
in matrix terms that reverses the product, which only matters for the
non-abelian subgroups.  On places it is plain composition:
(sigma . tau).place_action(P) == sigma.place_action(tau.place_action(P)).

Matrices are canonicalized by scaling the first nonzero entry to 1, so
each group element has one representation and enumeration order is
reproducible.

Both actions are read off tables.  A point's index is its encoding, and
q for infinity; each Mobius holds, from its first use, a table of the
index of the image of each point, filled one entry at a time on first
lookup by field arithmetic (_coord), so that no lookup costs O(q) in any
field and a table holds only the points asked for.  Every lookup
returns the field's shared ProjPoint (projective_line).  A Mobius map
that fixes three points is the identity, so the indices of the places
it sends 0, 1 and infinity to determine an element: element orders, the
closure checks of a GroupTable and its coset transversals are read off
those triples, with no product of matrices.

What depends only on a group is derived once per GroupTable and shared:
its orbit split, left coset representatives, cyclic subgroups,
fixed-field generator and that generator's divisor.  build_group keeps
one GroupTable per (field, validated spec) among the 16 most recently
read, so requests that name one group share all of it.  Rational
functions stay reduced with a monic denominator, and their products,
powers and sums keep them so by Henrici's method (Knuth, TAOCP vol. 2,
4.5.1): cross gcds for a product, none for a power, and for a sum a
second gcd only when the denominators share a factor.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .field import FieldCtx, FieldElem, primitive_quadratic_check, primitive_quadratic_search
from .poly import Poly, divide_out
from .schema import as_encs, as_int, as_list, as_object


@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective line: a field element or infinity."""

    finite: Optional[FieldElem]

    @classmethod
    def of(cls, elem: FieldElem) -> ProjPoint:
        return cls(elem)

    @classmethod
    def infinity(cls) -> ProjPoint:
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self.finite is None

    def sort_key(self) -> tuple[int, int]:
        return (1, 0) if self.finite is None else (0, self.finite.enc)

    def label(self) -> str:
        return "inf" if self.finite is None else f"{self.finite.enc}"

    def to_obj(self):
        return "inf" if self.finite is None else self.finite.enc

    def __repr__(self) -> str:
        return f"P({self.label()})"


class _Line(dict):
    """One field's projective line: its points by index (the encoding,
    q for infinity), each made on its first lookup and shared by every
    later one."""

    __slots__ = ("field",)

    def __init__(self, field: FieldCtx):
        super().__init__()
        self.field = field

    def __missing__(self, i: int) -> ProjPoint:
        pt = self[i] = ProjPoint(None if i == self.field.q else FieldElem(self.field, i))
        return pt


@functools.lru_cache(maxsize=16)
def projective_line(field: FieldCtx) -> _Line:
    """The shared points of field's projective line, one _Line per field
    while among the 16 most recently used."""
    return _Line(field)


def all_points(field: FieldCtx) -> list[ProjPoint]:
    line = projective_line(field)
    return [line[i] for i in range(field.q + 1)]


def _coord(line: _Line, m: tuple[int, int, int, int], pt: ProjPoint) -> ProjPoint:
    """beta |-> (a beta + b)/(c beta + d) by field arithmetic, as a point
    of line: how the action tables fill their entries."""
    a, b, c, d = m
    f = line.field
    if pt.finite is None:
        return line[f.q] if c == 0 else line[f.mul_enc(a, f.inv_enc(c))]
    x = pt.finite.enc
    den = f.add_enc(f.mul_enc(c, x), d)
    num = f.add_enc(f.mul_enc(a, x), b)
    return line[f.q] if den == 0 else line[f.mul_enc(num, f.inv_enc(den))]


class _Images(dict):
    """The action table of a matrix: entry i, the index of the image of
    point i (infinity at index q), is filled by _coord on its first
    lookup."""

    __slots__ = ("line", "m")

    def __init__(self, line: _Line, m: tuple[int, int, int, int]):
        super().__init__()
        self.line, self.m = line, m

    def __missing__(self, i: int) -> int:
        img = _coord(self.line, self.m, self.line[i])
        v = self[i] = self.line.field.q if img.finite is None else img.finite.enc
        return v


class Mobius:
    """One element of PGL_2(q) in canonical (first-nonzero-is-1) form."""

    __slots__ = ("field", "m", "_line", "_point", "_place")

    def __init__(self, field: FieldCtx, a: int, b: int, c: int, d: int):
        det = field.sub_enc(field.mul_enc(a, d), field.mul_enc(b, c))
        if det == 0:
            raise ValueError("singular matrix does not define a Moebius map")
        for e in (a, b, c, d):
            if e:
                if e != 1:
                    inv = field.inv_enc(e)
                    a, b, c, d = (field.mul_enc(inv, x) for x in (a, b, c, d))
                break
        self.field = field
        self.m = (a, b, c, d)
        self._line = projective_line(field)
        self._point: Optional[_Images] = None
        self._place: Optional[_Images] = None

    @classmethod
    def identity(cls, field: FieldCtx) -> Mobius:
        return cls(field, 1, 0, 0, 1)

    def is_identity(self) -> bool:
        return self.m == (1, 0, 0, 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mobius) and self.field == other.field and self.m == other.m

    def __hash__(self) -> int:
        return hash((self.field.q, self.m))

    def sort_key(self) -> tuple[int, int, int, int]:
        return self.m

    def compose(self, other: Mobius) -> Mobius:
        """self after other: (self . other)(f) = self(other(f)).

        The function matrix of a composition is the reversed product:
        substituting sigma(x) into tau's expression applies tau's matrix
        to sigma's image.
        """
        f = self.field
        a2, b2, c2, d2 = other.m  # left factor of the matrix product
        a1, b1, c1, d1 = self.m
        return Mobius(
            f,
            f.add_enc(f.mul_enc(a2, a1), f.mul_enc(b2, c1)),
            f.add_enc(f.mul_enc(a2, b1), f.mul_enc(b2, d1)),
            f.add_enc(f.mul_enc(c2, a1), f.mul_enc(d2, c1)),
            f.add_enc(f.mul_enc(c2, b1), f.mul_enc(d2, d1)),
        )

    def inverse(self) -> Mobius:
        a, b, c, d = self.m
        f = self.field
        return Mobius(f, d, f.neg_enc(b), f.neg_enc(c), a)

    def power(self, e: int) -> Mobius:
        if e < 0:
            return self.inverse().power(-e)
        out = Mobius.identity(self.field)
        base = self
        while e:
            if e & 1:
                out = out.compose(base)
            base = base.compose(base)
            e >>= 1
        return out

    def order(self) -> int:
        """The least k >= 1 with self^k the identity: the first k at which
        k steps of the place action bring 0, 1 and infinity back."""
        table = self.place_table()
        q = self.field.q
        a, b, c, k = table[0], table[1], table[q], 1
        while (a, b, c) != (0, 1, q):
            a, b, c, k = table[a], table[b], table[c], k + 1
        return k

    def point_table(self) -> _Images:
        """The coordinate action as an index table, made on first use."""
        if self._point is None:
            self._point = _Images(self._line, self.m)
        return self._point

    def place_table(self) -> _Images:
        """The place action (the adjugate's coordinate action) as an
        index table, made on first use."""
        if self._place is None:
            a, b, c, d = self.m
            f = self.field
            self._place = _Images(self._line, (d, f.neg_enc(b), f.neg_enc(c), a))
        return self._place

    def point_action(self, pt: ProjPoint) -> ProjPoint:
        """Coordinate action beta |-> (a beta + b)/(c beta + d)."""
        return self._line[self.point_table()[self.field.q if pt.finite is None else pt.finite.enc]]

    def place_action(self, pt: ProjPoint) -> ProjPoint:
        """Image of the place at pt; adjugate coordinate action."""
        return self._line[self.place_table()[self.field.q if pt.finite is None else pt.finite.enc]]

    def to_obj(self) -> list[int]:
        return list(self.m)

    def __repr__(self) -> str:
        a, b, c, d = self.m
        return f"Mobius([{a},{b};{c},{d}] over GF({self.field.q}))"


def _signature(g: Mobius) -> tuple[int, int, int]:
    """The indices of the places g sends 0, 1 and infinity to, which
    determine g."""
    table = g.place_table()
    return table[0], table[1], table[g.field.q]


def _once_per_group(fn):
    """fn(group, *args), computed once per group and args and shared by
    every later call; a call that raises stores nothing."""
    name = fn.__name__

    @functools.wraps(fn)
    def shared(group, *args):
        key = (name, *args)
        derived = group._derived
        if key not in derived:
            derived[key] = fn(group, *args)
        return derived[key]

    return shared


class GroupTable:
    """A finite subgroup of PGL_2(q), canonically enumerated, identity first.

    A GroupTable is not changed after construction, so one table, with
    what is derived from it, can be shared by every build that names it.
    """

    def __init__(self, field: FieldCtx, elements: Iterable[Mobius], recipe: Optional[dict] = None):
        elems = list(elements)
        seen = {e.m for e in elems}
        if len(seen) != len(elems):
            raise ValueError("duplicate group elements")
        ident = Mobius.identity(field)
        if ident.m not in seen:
            raise ValueError("group table lacks the identity")
        rest = sorted((e for e in elems if not e.is_identity()), key=Mobius.sort_key)
        self.field = field
        self.elements: tuple[Mobius, ...] = tuple([ident] + rest)
        self._recipe = copy.deepcopy(recipe)
        self._derived: dict = {}
        # g . h lies in the group iff its signature, read off the place
        # tables, is one of the group's
        sigs = [_signature(g) for g in self.elements]
        members = set(sigs)
        for g in self.elements:
            if g.inverse().m not in seen:
                raise ValueError("group table not closed under inverse")
            table = g.place_table()
            if not members.issuperset((table[a], table[b], table[c]) for a, b, c in sigs):
                raise ValueError("group table not closed under composition")

    @classmethod
    def from_generators(cls, field: FieldCtx, gens: Sequence[Mobius],
                        recipe: Optional[dict] = None) -> GroupTable:
        frontier = [Mobius.identity(field)]
        seen = {frontier[0].m: frontier[0]}
        while frontier:
            cur = frontier.pop()
            for g in gens:
                for nxt in (cur.compose(g), g.compose(cur)):
                    if nxt.m not in seen:
                        seen[nxt.m] = nxt
                        frontier.append(nxt)
            if len(seen) > field.q ** 3:
                raise AssertionError("generator closure runaway")
        return cls(field, seen.values(), recipe=recipe)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_subgroup(self, sub: GroupTable) -> bool:
        mine = {e.m for e in self.elements}
        return all(e.m in mine for e in sub.elements)

    @_once_per_group
    def left_coset_reps(self, sub: GroupTable) -> tuple[Mobius, ...]:
        """Canonical transversal of self/sub: identity's coset first, then
        minimal representative per coset in canonical element order."""
        if not self.is_subgroup(sub):
            raise ValueError("not a subgroup")
        sub_sigs = [_signature(h) for h in sub.elements]
        seen: set = set()
        reps: list[Mobius] = []
        for g in self.elements:
            table = g.place_table()
            coset = frozenset((table[a], table[b], table[c]) for a, b, c in sub_sigs)
            if coset not in seen:
                seen.add(coset)
                reps.append(g)
        # canonical enumeration already puts the identity first
        return tuple(reps)

    def to_obj(self) -> dict:
        if self._recipe is not None:
            return copy.deepcopy(self._recipe)
        return {"kind": "explicit", "elements": [e.to_obj() for e in self.elements]}

    def __repr__(self) -> str:
        return f"GroupTable(order {self.order} over GF({self.field.q}))"


# -- rational functions ------------------------------------------------------


class RationalFunction:
    """A reduced fraction num/den in GF(q)(x) with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Poly.zero(num.field), Poly.one(num.field)
        else:
            num, den = _cancel(num, den)
            if den.coeffs[-1] != 1:
                lead_inv = den.leading().inverse()
                num, den = num.scale(lead_inv), den.scale(lead_inv)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> RationalFunction:
        """num/den as given, for coprime num and den with den monic; a
        zero num gets the denominator 1."""
        out = object.__new__(cls)
        out.num, out.den = num, den if num.coeffs else Poly.one(num.field)
        return out

    @classmethod
    def from_poly(cls, p: Poly) -> RationalFunction:
        return cls(p, Poly.one(p.field))

    @classmethod
    def x(cls, field: FieldCtx) -> RationalFunction:
        return cls(Poly.x(field), Poly.one(field))

    @classmethod
    def constant(cls, c: FieldElem) -> RationalFunction:
        return cls(Poly.constant(c), Poly.one(c.field))

    @property
    def field(self) -> FieldCtx:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def degree(self) -> int:
        """max(deg num, deg den): the degree as a map of the line."""
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: RationalFunction) -> RationalFunction:
        """Henrici's sum: with g = gcd(b, d), a/b + c/d is (a d + c b)/(b d)
        when g = 1; otherwise t = a (d/g) + c (b/g) shares with the
        denominator only factors of g, and one more gcd cancels them."""
        a, b, c, d = self.num, self.den, other.num, other.den
        g = b.gcd(d) if b.degree > 0 and d.degree > 0 else None
        if g is None or g.degree < 1:
            return RationalFunction._reduced(a * d + c * b, b * d)
        b, d = b // g, d // g
        t = a * d + c * b
        if t.coeffs:
            t, g = _cancel(t, g)
        return RationalFunction._reduced(t, b * d * g)

    def __neg__(self) -> RationalFunction:
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        """Henrici's product: (a/b)(c/d) with gcd(a, d) and gcd(c, b)
        cancelled crosswise is reduced, and its denominator is monic."""
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return RationalFunction._reduced(a * c, b * d)

    def __pow__(self, e: int) -> RationalFunction:
        """A power of a reduced fraction is reduced; no gcd is taken."""
        num, den = self.num, self.den
        if e < 0:
            if not num.coeffs:
                raise ZeroDivisionError("zero denominator")
            lead_inv = num.leading().inverse()
            num, den, e = den.scale(lead_inv), num.scale(lead_inv), -e
        return RationalFunction._reduced(num ** e, den ** e)

    def substitute(self, m: Mobius) -> RationalFunction:
        """x |-> (a x + b)/(c x + d); clears denominators to reduced form."""
        f = self.field
        a, b, c, d = m.m
        lin_num = Poly(f, (b, a))
        lin_den = Poly(f, (d, c))
        deg = max(self.num.degree, self.den.degree, 0)
        pow_num = [Poly.one(f)]
        pow_den = [Poly.one(f)]
        for _ in range(deg):
            pow_num.append(pow_num[-1] * lin_num)
            pow_den.append(pow_den[-1] * lin_den)

        def push(p: Poly) -> Poly:
            out = Poly.zero(f)
            for i, ci in enumerate(p.coeffs):
                if ci:
                    out = out + (pow_num[i] * pow_den[deg - i]).scale(f.element(ci))
            return out

        return RationalFunction(push(self.num), push(self.den))

    def local(self, pt: ProjPoint) -> tuple[int, int]:
        """(v, u) for a nonzero f: its valuation v at pt, and the encoding
        of the value there of pi^-v f, with pi = x - beta at finite beta
        and 1/x at infinity.  At finite beta it is two Horner passes,
        v = 0 and u = num(beta) / den(beta) when neither vanishes, as f is
        kept reduced; the one that vanishes is divided on from its first
        pass (divide_out), so a root of multiplicity m costs it m + 1."""
        if not self.num.coeffs:
            raise ValueError("valuation of the zero function")
        f = self.num.field
        if pt.finite is None:
            v = self.den.degree - self.num.degree
            a, b = self.num.coeffs[-1], self.den.coeffs[-1]
        else:
            x = pt.finite.enc
            num = f.horner(self.num.coeffs[::-1], x)
            den = f.horner(self.den.coeffs[::-1], x)
            v, a, b = 0, num[-1], den[-1]
            if not a:
                v, a = divide_out(f, num, x)
            elif not b:
                m, b = divide_out(f, den, x)
                v = -m
        return v, f.mul_table[a][f.inv_enc(b)]

    def valuation(self, pt: ProjPoint) -> int:
        return self.local(pt)[0]

    def eval_at(self, pt: ProjPoint, pole_budget: int = 0) -> FieldElem:
        """(pi^m f)(P) with pi = x - beta at finite beta and 1/x at infinity."""
        return FieldElem(self.field, self.eval_enc(pt, pole_budget))

    def eval_enc(self, pt: ProjPoint, pole_budget: int = 0) -> int:
        """eval_at(pt, pole_budget) as an encoding, read off local(pt): 0
        where v + pole_budget > 0, the unit value where it is 0.  A pole of
        order above pole_budget raises ValueError."""
        if not self.num.coeffs:
            return 0
        if pole_budget < 0:
            raise ValueError("pole budget must be >= 0")
        v, u = self.local(pt)
        if v + pole_budget < 0:
            raise pole_budget_error(-v, pt, pole_budget)
        return 0 if v + pole_budget else u

    def divisor_support(self) -> tuple[dict[ProjPoint, int], int]:
        """Valuations at every rational place, plus the degree residual
        carried by higher-degree places (so the principal divisor sums to 0)."""
        if self.is_zero():
            raise ValueError("divisor of the zero function")
        support: dict[ProjPoint, int] = {}
        for pt in all_points(self.field):
            v = self.local(pt)[0]
            if v:
                support[pt] = v
        return support, -sum(support.values())

    def to_obj(self) -> dict:
        return {"num": self.num.to_obj(), "den": self.den.to_obj()}

    def __repr__(self) -> str:
        return f"RationalFunction({list(self.num.coeffs)}/{list(self.den.coeffs)})"


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """(p/g, q/g) for g = gcd(p, q), which is monic, so q/g is monic
    when q is; a constant q takes no gcd."""
    if q.degree > 0 and p.coeffs:
        g = p.gcd(q)
        if g.degree > 0:
            return p // g, q // g
    return p, q


def pole_budget_error(order: int, pt: ProjPoint, pole_budget: int) -> ValueError:
    """The error for evaluating a function with a pole of this order at pt."""
    where = "infinity" if pt.is_infinity else pt.finite.enc
    return ValueError(f"pole of order {order} at {where} exceeds budget {pole_budget}")


# -- subgroup families -------------------------------------------------------


def _qplus1_power(field: FieldCtx, a: FieldElem, b: FieldElem, m: int) -> Mobius:
    """eta^((q+1)/m) for eta(x) = 1/(-b x - a), once its order q + 1, given
    by the primitive quadratic x^2 + a x + b, is re-verified by brute force."""
    eta = Mobius(field, 0, 1, field.neg_enc(b.enc), field.neg_enc(a.enc))
    if eta.order() != field.q + 1:
        raise AssertionError("primitive quadratic did not induce an order q+1 map")
    return eta.power((field.q + 1) // m)


def subgroup_cyclic_qplus1(
    field: FieldCtx, quad: tuple[FieldElem, FieldElem], d: int
) -> GroupTable:
    """The order-d subgroup of the cyclic group induced by a primitive quadratic.

    x^2 + a x + b primitive makes eta(x) = 1/(-b x - a) an element of order
    q + 1 acting in a single cycle on all rational places; the order is
    re-verified by brute force before powering.
    """
    a, b = quad
    if not primitive_quadratic_check(a, b):
        raise ValueError("quadratic is not primitive")
    q = field.q
    if d < 1 or (q + 1) % d:
        raise ValueError(f"{d} does not divide q + 1 = {q + 1}")
    table = GroupTable.from_generators(
        field, [_qplus1_power(field, a, b, d)],
        recipe={"kind": "cyclic_qplus1", "quad": [a.enc, b.enc], "d": d},
    )
    if table.order != d:
        raise AssertionError("cyclic subgroup has wrong order")
    return table


def subgroup_affine(
    field: FieldCtx, mult_part: Sequence[FieldElem], add_part: Sequence[FieldElem]
) -> GroupTable:
    """All maps x |-> a x + b with a in the multiplicative subgroup and b in
    the additive one; requires the additive part to be stable under the
    multiplicative part.  Fixes the infinite place."""
    h = {e.enc for e in mult_part}
    w = {e.enc for e in add_part}
    if 1 not in h or 0 in h:
        raise ValueError("multiplicative part must contain 1 and exclude 0")
    if 0 not in w:
        raise ValueError("additive part must contain 0")
    for x in h:
        for y in h:
            if field.mul_enc(x, y) not in h:
                raise ValueError("multiplicative part not closed")
        for y in w:
            if field.mul_enc(x, y) not in w:
                raise ValueError("additive part not stable under multipliers")
    for x in w:
        for y in w:
            if field.add_enc(x, y) not in w:
                raise ValueError("additive part not closed")
    elems = [Mobius(field, a, b, 0, 1) for a in sorted(h) for b in sorted(w)]
    return GroupTable(
        field, elems,
        recipe={"kind": "affine", "mult": sorted(h), "add": sorted(w)},
    )


def subgroup_dihedral(field: FieldCtx, u: int, variant: str) -> GroupTable:
    """Dihedral group of order 2u in even characteristic.

    q_plus (u | q+1) uses eta(x) = 1/(b x + a) from a primitive quadratic
    and tau(x) = 1/(b x); q_minus (u | q-1) uses x |-> c x with c of order
    u and tau(x) = 1/x.  The relation sigma tau sigma = tau is verified.
    """
    if field.p != 2:
        raise ValueError("dihedral construction requires even characteristic")
    q = field.q
    if variant == "q_plus":
        if u < 1 or (q + 1) % u:
            raise ValueError(f"{u} does not divide q + 1 = {q + 1}")
        a, b = primitive_quadratic_search(field)
        sigma = _qplus1_power(field, a, b, u)  # -1 = 1 here: eta(x) = 1/(b x + a)
        tau = Mobius(field, 0, 1, b.enc, 0)
    elif variant == "q_minus":
        if u < 1 or (q - 1) % u:
            raise ValueError(f"{u} does not divide q - 1 = {q - 1}")
        c = next(e for e in field.elements() if e.enc > 1 and e.multiplicative_order() == u) \
            if u > 1 else field.one
        sigma = Mobius(field, c.enc, 0, 0, 1)
        tau = Mobius(field, 0, 1, 1, 0)
    else:
        raise ValueError(f"unknown dihedral variant {variant!r}")
    if not sigma.compose(tau).compose(sigma) == tau:
        raise AssertionError("dihedral relation failed")
    table = GroupTable.from_generators(
        field, [sigma, tau], recipe={"kind": "dihedral", "u": u, "variant": variant}
    )
    if table.order != 2 * u:
        raise AssertionError(f"dihedral table has order {table.order}, wanted {2 * u}")
    return table


@_once_per_group
def cyclic_subgroup_of_order(group: GroupTable, m: int) -> GroupTable:
    """Subgroup generated by the first canonical element of order m."""
    for e in group.elements:
        if e.order() == m:
            return GroupTable.from_generators(group.field, [e])
    raise ValueError(f"group has no element of order {m}")


def build_group(field: FieldCtx, obj: dict) -> GroupTable:
    """Rebuild a subgroup from its serialized spec; raises ValueError,
    naming the key, for a malformed one.  The spec is validated on every
    read, and each (field, validated spec) gives one GroupTable, shared
    by every later read while among the 16 most recently read; a refused
    spec raises again on every read."""
    obj = as_object(obj, "spec")
    kind = obj["kind"]
    q = field.q
    if kind == "cyclic_qplus1":
        key = (kind, as_encs(obj["quad"], "quad", q, 2), as_int(obj["d"], "d"))
    elif kind == "affine":
        key = (kind, as_encs(obj["mult"], "mult", q), as_encs(obj["add"], "add", q))
    elif kind == "dihedral":
        key = (kind, as_int(obj["u"], "u"), obj["variant"])
        if not isinstance(key[2], str):
            # a list or object cannot key the cache; the builder refuses it
            return subgroup_dihedral(field, *key[1:])
    elif kind == "explicit":
        rows = as_list(obj["elements"], "elements")
        key = (kind, tuple(Mobius(field, *as_encs(row, "elements", q, 4)).m for row in rows))
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    return _shared_group(field, key)


@functools.lru_cache(maxsize=16)
def _shared_group(field: FieldCtx, key: tuple) -> GroupTable:
    """The group of a spec that build_group has validated into key."""
    kind = key[0]
    if kind == "cyclic_qplus1":
        quad, d = key[1:]
        return subgroup_cyclic_qplus1(field, tuple(map(field.element, quad)), d)
    if kind == "affine":
        mult, add = key[1:]
        return subgroup_affine(field, list(map(field.element, mult)), list(map(field.element, add)))
    if kind == "dihedral":
        return subgroup_dihedral(field, *key[1:])
    return GroupTable(field, [Mobius(field, *m) for m in key[1]])


# -- orbit structure ---------------------------------------------------------


@dataclass(frozen=True)
class SplitStructure:
    """Partition of the q+1 rational points into free orbits and the rest.

    Free orbits have size exactly |G| (the place below splits completely)
    and are ordered so that member j is element j of the canonical group
    enumeration applied to the minimal representative.
    """

    free_orbits: tuple[tuple[ProjPoint, ...], ...]
    ramified: tuple[ProjPoint, ...]


@_once_per_group
def split_structure(group: GroupTable) -> SplitStructure:
    field = group.field
    q = field.q
    line = projective_line(field)
    tables = [g.place_table() for g in group.elements]
    placed = bytearray(q + 1)
    free: list[tuple[ProjPoint, ...]] = []
    ramified: list[int] = []
    # the least unplaced index is the least point by sort_key, so each
    # orbit starts at its minimal point and the free orbits come sorted
    for i in range(q + 1):
        if placed[i]:
            continue
        images = [table[i] for table in tables]
        orbit = set(images)
        for j in orbit:
            placed[j] = 1
        if len(orbit) == group.order:
            free.append(tuple(line[j] for j in images))
        else:
            ramified.extend(orbit)
    if len(ramified) > max(2 * group.order - 2, 0):
        raise AssertionError(
            f"{len(ramified)} ramified points exceed the Hurwitz cap {2 * group.order - 2}"
        )
    return SplitStructure(tuple(free), tuple(line[j] for j in sorted(ramified)))


@_once_per_group
def fixed_field_generator(group: GroupTable) -> RationalFunction:
    """A degree-|H| rational function fixed by every element of the group.

    Candidates are tried in a fixed order — power sums of sigma(x) for
    exponents 1, 2, 3, then the orbit product — and the first one whose
    degree equals |H| wins, so regenerated constructions are identical.
    """
    field = group.field
    x = RationalFunction.x(field)
    images = [x.substitute(g) for g in group.elements]

    def candidates():
        # built one at a time, as the first one usually wins
        for power in (1, 2, 3):
            acc = RationalFunction.constant(field.zero)
            for img in images:
                acc = acc + img ** power
            yield acc
        prod = RationalFunction.constant(field.one)
        for img in images:
            prod = prod * img
        yield prod

    for z in candidates():
        if not z.is_zero() and z.degree == group.order:
            for g in group.elements:
                if z.substitute(g) != z:
                    raise AssertionError("candidate generator is not invariant")
            return z
    raise AssertionError("no fixed-field generator found among candidates")


@_once_per_group
def fixed_field_divisor(group: GroupTable) -> tuple[tuple[ProjPoint, int], ...]:
    """The (place, valuation) pairs of the rational places where the
    group's fixed-field generator has a zero or a pole."""
    return tuple(fixed_field_generator(group).divisor_support()[0].items())
