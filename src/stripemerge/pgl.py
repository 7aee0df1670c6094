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
non-abelian subgroups.

Matrices are canonicalized by scaling the first nonzero entry to 1, so
each group element has one representation and enumeration order is
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .field import FieldCtx, FieldElem, primitive_quadratic_check, primitive_quadratic_search
from .poly import Poly
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


def all_points(field: FieldCtx) -> list[ProjPoint]:
    pts = [ProjPoint.of(e) for e in field.elements()]
    pts.append(ProjPoint.infinity())
    return pts


class Mobius:
    """One element of PGL_2(q) in canonical (first-nonzero-is-1) form."""

    __slots__ = ("field", "m")

    def __init__(self, field: FieldCtx, a: int, b: int, c: int, d: int):
        det = field.sub_enc(field.mul_enc(a, d), field.mul_enc(b, c))
        if det == 0:
            raise ValueError("singular matrix does not define a Moebius map")
        for e in (a, b, c, d):
            if e:
                inv = field.inv_enc(e)
                a, b, c, d = (field.mul_enc(inv, x) for x in (a, b, c, d))
                break
        self.field = field
        self.m = (a, b, c, d)

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
        k, cur = 1, self
        while not cur.is_identity():
            cur = cur.compose(self)
            k += 1
            if k > self.field.q ** 2:
                raise AssertionError("runaway order computation")
        return k

    def _coord(self, m: tuple[int, int, int, int], pt: ProjPoint) -> ProjPoint:
        a, b, c, d = m
        f = self.field
        if pt.is_infinity:
            if c == 0:
                return ProjPoint.infinity()
            return ProjPoint.of(f.element(f.mul_enc(a, f.inv_enc(c))))
        x = pt.finite.enc
        den = f.add_enc(f.mul_enc(c, x), d)
        num = f.add_enc(f.mul_enc(a, x), b)
        if den == 0:
            return ProjPoint.infinity()
        return ProjPoint.of(f.element(f.mul_enc(num, f.inv_enc(den))))

    def point_action(self, pt: ProjPoint) -> ProjPoint:
        """Coordinate action beta |-> (a beta + b)/(c beta + d)."""
        return self._coord(self.m, pt)

    def place_action(self, pt: ProjPoint) -> ProjPoint:
        """Image of the place at pt; adjugate coordinate action."""
        a, b, c, d = self.m
        f = self.field
        return self._coord((d, f.neg_enc(b), f.neg_enc(c), a), pt)

    def to_obj(self) -> list[int]:
        return list(self.m)

    def __repr__(self) -> str:
        a, b, c, d = self.m
        return f"Mobius([{a},{b};{c},{d}] over GF({self.field.q}))"


class GroupTable:
    """A finite subgroup of PGL_2(q), canonically enumerated, identity first."""

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
        self.recipe = recipe
        index = {e.m: i for i, e in enumerate(self.elements)}
        for g in self.elements:
            if g.inverse().m not in index:
                raise ValueError("group table not closed under inverse")
            for h in self.elements:
                if g.compose(h).m not in index:
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

    def left_coset_reps(self, sub: GroupTable) -> list[Mobius]:
        """Canonical transversal of self/sub: identity's coset first, then
        minimal representative per coset in canonical element order."""
        if not self.is_subgroup(sub):
            raise ValueError("not a subgroup")
        seen: set = set()
        reps: list[Mobius] = []
        for g in self.elements:
            coset = frozenset(g.compose(h).m for h in sub.elements)
            if coset not in seen:
                seen.add(coset)
                reps.append(g)
        # canonical enumeration already puts the identity first
        return reps

    def to_obj(self) -> dict:
        if self.recipe is not None:
            return dict(self.recipe)
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
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead_inv = den.leading().inverse()
            num, den = num.scale(lead_inv), den.scale(lead_inv)
        self.num = num
        self.den = den

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
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> RationalFunction:
        if e < 0:
            return (RationalFunction(self.den, self.num)) ** (-e)
        return RationalFunction(self.num ** e, self.den ** e)

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
        kept reduced; the one that vanishes has its root split off."""
        if not self.num.coeffs:
            raise ValueError("valuation of the zero function")
        f = self.num.field
        if pt.finite is None:
            v = self.den.degree - self.num.degree
            num, den = self.num.coeffs[-1], self.den.coeffs[-1]
        else:
            v, x = 0, pt.finite.enc
            num = f.horner(self.num.coeffs[::-1], x)[-1]
            den = f.horner(self.den.coeffs[::-1], x)[-1]
            if not num:
                v, val = self.num.split_root(pt.finite)
                num = val.enc
            elif not den:
                m, val = self.den.split_root(pt.finite)
                v, den = -m, val.enc
        return v, f.mul_enc(num, f.inv_enc(den))

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


def cyclic_subgroup_of_order(group: GroupTable, m: int) -> GroupTable:
    """Subgroup generated by the first canonical element of order m."""
    for e in group.elements:
        if e.order() == m:
            return GroupTable.from_generators(group.field, [e])
    raise ValueError(f"group has no element of order {m}")


def build_group(field: FieldCtx, obj: dict) -> GroupTable:
    """Rebuild a subgroup from its serialized spec; raises ValueError,
    naming the key, for a malformed one."""
    obj = as_object(obj, "spec")
    kind = obj["kind"]
    q = field.q
    if kind == "cyclic_qplus1":
        a, b = (field.element(e) for e in as_encs(obj["quad"], "quad", q, 2))
        return subgroup_cyclic_qplus1(field, (a, b), as_int(obj["d"], "d"))
    if kind == "affine":
        return subgroup_affine(
            field,
            [field.element(e) for e in as_encs(obj["mult"], "mult", q)],
            [field.element(e) for e in as_encs(obj["add"], "add", q)],
        )
    if kind == "dihedral":
        return subgroup_dihedral(field, as_int(obj["u"], "u"), obj["variant"])
    if kind == "explicit":
        rows = as_list(obj["elements"], "elements")
        return GroupTable(field, [Mobius(field, *as_encs(row, "elements", q, 4)) for row in rows])
    raise ValueError(f"unknown group kind {kind!r}")


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


def split_structure(group: GroupTable) -> SplitStructure:
    field = group.field
    remaining = {pt.sort_key(): pt for pt in all_points(field)}
    free: list[tuple[ProjPoint, ...]] = []
    ramified: list[ProjPoint] = []
    while remaining:
        rep = remaining.pop(min(remaining))
        images = [g.place_action(rep) for g in group.elements]
        orbit = {pt.sort_key(): pt for pt in images}
        for key in orbit:
            remaining.pop(key, None)
        if len(orbit) == group.order:
            free.append(tuple(images))
        else:
            ramified.extend(orbit.values())
    ramified.sort(key=ProjPoint.sort_key)
    if len(ramified) > max(2 * group.order - 2, 0):
        raise AssertionError(
            f"{len(ramified)} ramified points exceed the Hurwitz cap {2 * group.order - 2}"
        )
    free.sort(key=lambda orbit: orbit[0].sort_key())
    return SplitStructure(tuple(free), tuple(ramified))


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
