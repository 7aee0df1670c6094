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

A point of the line, or the place at it, is a plain int, its index: the
encoding of a finite point, and q for infinity.  The actions, function
evaluation and the orbit split take and return indices, and place_obj
writes one as labels and provenance do, "inf" for q.  Every scalar is a
plain int encoding too: a constant function, a value read at a place,
and a subgroup's parameters (the quadratic, the affine parts, the
dihedral rotation), which the constructors refuse outside [0, q)
(FieldCtx.scalar).  Both actions are
read off tables: each Mobius holds, from its first use, a table of the
index of the image of each point, filled one entry at a time on first
lookup by field arithmetic (_coord), so that no lookup costs O(q) in any
field and a table holds only the points asked for.  A Mobius map that
fixes three points is the identity, so the indices of the places it
sends 0, 1 and infinity to determine an element: element orders, the
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
from collections import Counter
from typing import Iterable, Optional, Sequence

from .field import FieldCtx, primitive_quadratic_check, primitive_quadratic_search
from .poly import Poly, divide_out
from .schema import as_encs, as_int, as_list, as_object


def place_obj(field: FieldCtx, i: int):
    """How labels and provenance write place i: its encoding, "inf" for
    infinity."""
    return "inf" if i == field.q else i


def _coord(field: FieldCtx, m: tuple[int, int, int, int], i: int) -> int:
    """beta |-> (a beta + b)/(c beta + d) by field arithmetic, on indices:
    how the action tables fill their entries."""
    a, b, c, d = m
    f, q = field, field.q
    if i == q:
        return q if c == 0 else f.mul_enc(a, f.inv_enc(c))
    den = f.add_enc(f.mul_enc(c, i), d)
    num = f.add_enc(f.mul_enc(a, i), b)
    return q if den == 0 else f.mul_enc(num, f.inv_enc(den))


class _Images(dict):
    """The action table of a matrix: entry i, the index of the image of
    point i (infinity at index q), is filled by _coord on its first
    lookup."""

    __slots__ = ("field", "m")

    def __init__(self, field: FieldCtx, m: tuple[int, int, int, int]):
        super().__init__()
        self.field, self.m = field, m

    def __missing__(self, i: int) -> int:
        v = self[i] = _coord(self.field, self.m, i)
        return v


class Mobius:
    """One element of PGL_2(q) in canonical (first-nonzero-is-1) form."""

    __slots__ = ("field", "m", "_point", "_place")

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
            self._point = _Images(self.field, self.m)
        return self._point

    def place_table(self) -> _Images:
        """The place action (the adjugate's coordinate action) as an
        index table, made on first use."""
        if self._place is None:
            a, b, c, d = self.m
            f = self.field
            self._place = _Images(f, (d, f.neg_enc(b), f.neg_enc(c), a))
        return self._place

    def point_action(self, i: int) -> int:
        """Coordinate action beta |-> (a beta + b)/(c beta + d)."""
        return self.point_table()[i]

    def place_action(self, i: int) -> int:
        """Image of place i; adjugate coordinate action."""
        return self.place_table()[i]

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


def _value_at(f, pt: int, pole_budget: int = 0) -> int:
    """(pi^pole_budget f)(pt) for a nonzero f, read off (v, u) = f.local(pt):
    0 where v + pole_budget > 0, u where it is 0, else ValueError."""
    if pole_budget < 0:
        raise ValueError("pole budget must be >= 0")
    v, u = f.local(pt)
    if v + pole_budget < 0:
        raise pole_budget_error(f.field, -v, pt, pole_budget)
    return 0 if v + pole_budget else u


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
                lead_inv = num.field.inv_enc(den.coeffs[-1])
                num, den = num.scale(lead_inv), den.scale(lead_inv)
        self.num = num
        self.den = den

    @classmethod
    def _from_coprime(cls, num: Poly, den: Poly) -> RationalFunction:
        """num/den as given, for coprime num and den with den monic; a
        zero num gets the denominator 1."""
        out = object.__new__(cls)
        out.num, out.den = num, den if num.coeffs else Poly.one(num.field)
        return out

    @classmethod
    def x(cls, field: FieldCtx) -> RationalFunction:
        return cls(Poly.x(field), Poly.one(field))

    @classmethod
    def constant(cls, field: FieldCtx, c: int) -> RationalFunction:
        return cls(Poly.constant(field, c), Poly.one(field))

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
            return RationalFunction._from_coprime(a * d + c * b, b * d)
        b, d = b // g, d // g
        t = a * d + c * b
        if t.coeffs:
            t, g = _cancel(t, g)
        return RationalFunction._from_coprime(t, b * d * g)

    def __neg__(self) -> RationalFunction:
        return RationalFunction._from_coprime(-self.num, self.den)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        """Henrici's product: (a/b)(c/d) with gcd(a, d) and gcd(c, b)
        cancelled crosswise is reduced, and its denominator is monic."""
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return RationalFunction._from_coprime(a * c, b * d)

    def __pow__(self, e: int) -> RationalFunction:
        """A power of a reduced fraction is reduced; no gcd is taken."""
        num, den = self.num, self.den
        if e < 0:
            if not num.coeffs:
                raise ZeroDivisionError("zero denominator")
            lead_inv = num.field.inv_enc(num.coeffs[-1])
            num, den, e = den.scale(lead_inv), num.scale(lead_inv), -e
        return RationalFunction._from_coprime(num ** e, den ** e)

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
                    out = out + (pow_num[i] * pow_den[deg - i]).scale(ci)
            return out

        return RationalFunction(push(self.num), push(self.den))

    def local(self, pt: int) -> tuple[int, int]:
        """(v, u) for a nonzero f: its valuation v at place pt, and the encoding
        of the value there of pi^-v f, with pi = x - beta at finite beta
        and 1/x at infinity.  At finite beta it is two Horner passes,
        v = 0 and u = num(beta) / den(beta) when neither vanishes, as f is
        kept reduced; the one that vanishes is divided on from its first
        pass (divide_out), so a root of multiplicity m costs it m + 1."""
        if not self.num.coeffs:
            raise ValueError("valuation of the zero function")
        f = self.num.field
        if pt == f.q:
            v = self.den.degree - self.num.degree
            a, b = self.num.coeffs[-1], self.den.coeffs[-1]
        else:
            num = f.horner(self.num.coeffs[::-1], pt)
            den = f.horner(self.den.coeffs[::-1], pt)
            v, a, b = 0, num[-1], den[-1]
            if not a:
                v, a = divide_out(f, num, pt)
            elif not b:
                m, b = divide_out(f, den, pt)
                v = -m
        return v, f.mul_table[a][f.inv_enc(b)]

    def eval_at(self, pt: int, pole_budget: int = 0) -> int:
        """The encoding of (pi^m f)(P), m = pole_budget, with pi = x - beta
        at finite beta and 1/x at infinity (_value_at)."""
        return _value_at(self, pt, pole_budget) if self.num.coeffs else 0

    def divisor_support(self) -> tuple[dict[int, int], int]:
        """Valuations at every rational place, by index, plus the degree
        residual carried by higher-degree places (so the principal divisor
        sums to 0)."""
        if self.is_zero():
            raise ValueError("divisor of the zero function")
        support: dict[int, int] = {}
        for pt in range(self.field.q + 1):
            v = self.local(pt)[0]
            if v:
                support[pt] = v
        return support, -sum(support.values())

    def to_obj(self) -> dict:
        return {"num": self.num.to_obj(), "den": self.den.to_obj()}

    def __repr__(self) -> str:
        return f"RationalFunction({list(self.num.coeffs)}/{list(self.den.coeffs)})"


class FactoredFunction:
    """prod (x - c) over roots c and prod (z - c) over parts c, repeats
    allowed, of a reduced RationalFunction z, kept as {c: multiplicity}
    and never multiplied out.  z's local is taken once per place into
    `shared`, which one build's functions share, and a part's read off
    it, or where z(P) = c != 0 taken for z - c once per c and place."""

    __slots__ = ("field", "roots", "deg", "z", "parts", "shared")

    def __init__(self, field: FieldCtx, roots: Sequence[int], z: Optional[RationalFunction] = None,
                 parts: Sequence[int] = (), shared: Optional[dict] = None):
        # kept negated, so that add_table[beta][c] is beta minus the root
        neg = field.neg_enc
        self.roots, self.parts = Counter(map(neg, roots)), Counter(map(neg, parts))
        self.field, self.deg, self.z = field, len(roots), z
        self.shared = {} if shared is None else shared

    def local(self, pt: int) -> tuple[int, int]:
        """(v, u) as RationalFunction.local gives them for the product."""
        f = self.field
        mul, add, power = f.mul_table, f.add_table, f.pow_enc
        v, u = -self.deg, 1  # a monic root part has unit value 1 at infinity
        if pt != f.q:
            v, row = 0, add[pt]
            for c, m in self.roots.items():
                d = row[c]
                if d:
                    u = mul[u][d if m == 1 else power(d, m)]
                else:
                    v += m
        if self.parts:
            z_local = self.shared.get(pt) or self.shared.setdefault(pt, self.z.local(pt))
            vz, uz = z_local
            row = add[0 if vz else uz]
            for c, e in self.parts.items():
                d = row[c]
                if vz < 0 or vz and not d:
                    pv, pu = z_local
                elif d:
                    pv, pu = 0, d
                else:
                    pv, pu = self.shared.get((c, pt)) or self.shared.setdefault(
                        (c, pt), (self.z + RationalFunction.constant(f, c)).local(pt))
                v += e * pv
                u = mul[u][pu if e == 1 else power(pu, e)]
        return v, u

    eval_at = _value_at


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """(p/g, q/g) for g = gcd(p, q), which is monic, so q/g is monic
    when q is; a constant q takes no gcd."""
    if q.degree > 0 and p.coeffs:
        g = p.gcd(q)
        if g.degree > 0:
            return p // g, q // g
    return p, q


def pole_budget_error(field: FieldCtx, order: int, pt: int, pole_budget: int) -> ValueError:
    """The error for evaluating a function with a pole of this order at
    place pt."""
    where = "infinity" if pt == field.q else pt
    return ValueError(f"pole of order {order} at {where} exceeds budget {pole_budget}")


# -- subgroup families -------------------------------------------------------


def _qplus1_power(field: FieldCtx, a: int, b: int, m: int) -> Mobius:
    """eta^((q+1)/m) for eta(x) = 1/(-b x - a), once its order q + 1, given
    by the primitive quadratic x^2 + a x + b, is re-verified by brute force."""
    eta = Mobius(field, 0, 1, field.neg_enc(b), field.neg_enc(a))
    if eta.order() != field.q + 1:
        raise AssertionError("primitive quadratic did not induce an order q+1 map")
    return eta.power((field.q + 1) // m)


def subgroup_cyclic_qplus1(
    field: FieldCtx, quad: tuple[int, int], d: int
) -> GroupTable:
    """The order-d subgroup of the cyclic group induced by a primitive
    quadratic, given by the encodings (a, b) of x^2 + a x + b.

    x^2 + a x + b primitive makes eta(x) = 1/(-b x - a) an element of order
    q + 1 acting in a single cycle on all rational places; the order is
    re-verified by brute force before powering.
    """
    a, b = quad
    if not primitive_quadratic_check(field, a, b):
        raise ValueError("quadratic is not primitive")
    q = field.q
    if d < 1 or (q + 1) % d:
        raise ValueError(f"{d} does not divide q + 1 = {q + 1}")
    table = GroupTable.from_generators(
        field, [_qplus1_power(field, a, b, d)],
        recipe={"kind": "cyclic_qplus1", "quad": [a, b], "d": d},
    )
    if table.order != d:
        raise AssertionError("cyclic subgroup has wrong order")
    return table


def subgroup_affine(
    field: FieldCtx, mult_part: Sequence[int], add_part: Sequence[int]
) -> GroupTable:
    """All maps x |-> a x + b with a in the multiplicative subgroup and b in
    the additive one, both given as encodings; requires the additive part
    to be stable under the multiplicative part.  Fixes the infinite place."""
    h = set(map(field.scalar, mult_part))
    w = set(map(field.scalar, add_part))
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
        tau = Mobius(field, 0, 1, b, 0)
    elif variant == "q_minus":
        if u < 1 or (q - 1) % u:
            raise ValueError(f"{u} does not divide q - 1 = {q - 1}")
        c = next(c for c in range(2, q) if field.order_enc(c) == u) if u > 1 else 1
        sigma = Mobius(field, c, 0, 0, 1)
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
        return subgroup_cyclic_qplus1(field, quad, d)
    if kind == "affine":
        return subgroup_affine(field, *key[1:])
    if kind == "dihedral":
        return subgroup_dihedral(field, *key[1:])
    return GroupTable(field, [Mobius(field, *m) for m in key[1]])


# -- orbit structure ---------------------------------------------------------


class SplitStructure:
    """Partition of the q+1 rational points into free orbits and the rest.

    Free orbits have size exactly |G| (the place below splits completely)
    and are ordered so that member j is element j of the canonical group
    enumeration applied to the minimal representative.
    """

    __slots__ = ("free_orbits", "ramified")

    def __init__(self, free_orbits: tuple[tuple[int, ...], ...], ramified: tuple[int, ...]):
        self.free_orbits = free_orbits
        self.ramified = ramified


@_once_per_group
def split_structure(group: GroupTable) -> SplitStructure:
    field = group.field
    q = field.q
    tables = [g.place_table() for g in group.elements]
    placed = bytearray(q + 1)
    free: list[tuple[int, ...]] = []
    ramified: list[int] = []
    # scanning indices in order starts each orbit at its least place and
    # lists the free orbits sorted
    for i in range(q + 1):
        if placed[i]:
            continue
        images = [table[i] for table in tables]
        orbit = set(images)
        for j in orbit:
            placed[j] = 1
        if len(orbit) == group.order:
            free.append(tuple(images))
        else:
            ramified.extend(orbit)
    if len(ramified) > max(2 * group.order - 2, 0):
        raise AssertionError(
            f"{len(ramified)} ramified points exceed the Hurwitz cap {2 * group.order - 2}"
        )
    return SplitStructure(tuple(free), tuple(sorted(ramified)))


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
            acc = RationalFunction.constant(field, 0)
            for img in images:
                acc = acc + img ** power
            yield acc
        prod = RationalFunction.constant(field, 1)
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
def fixed_field_divisor(group: GroupTable) -> tuple[tuple[int, int], ...]:
    """The (place index, valuation) pairs of the rational places where the
    group's fixed-field generator has a zero or a pole."""
    return tuple(fixed_field_generator(group).divisor_support()[0].items())
