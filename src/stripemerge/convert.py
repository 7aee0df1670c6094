"""Construction and execution of merge conversions.

Three builders produce a ConvertibleCode: several MDS stripes into one
MDS stripe, several locally-repairable stripes into one, and MDS stripes
into a locally-repairable stripe.  Each returns the initial codes, the
final code, and a ConversionPlan: which initial symbols survive verbatim
(matched by coordinate label), which are read, and how each written
symbol is a linear combination of read symbols.

A ConversionPlan is plain data built over its field, and construction
folds the locality schedule's recipes into its terms, so it is the one
map every consumer reads: the storage coordinates read from each stripe,
a sparse linear map from them to the final word, and its static access
cost.  Its generator_rows carries every initial generator row through
the map term by term, one add_table and mul_table lookup per term, and
is the exact reference: it gives the builders the final generator,
blockdiag(G_i) * P; the verifier reads bijectivity, membership and the
unchanged contract off them; the simulator charges storage reads to nodes.
execute, the one fast path, runs one ColumnSums per conversion, whose
one table sum checks every input against its parity rows, gives every
written symbol, and, with those symbols fed back, tests the final word
against the final parity rows carried onto the input columns that the
unchanged symbols copy.  The evaluation builders also
evaluate each rational-function term directly at every final place,
from the valuation and unit value that RationalFunction.local, the one
place-local evaluator, gives for its stripe factor at the place and for
a basis function at the Moebius-moved place, read the written-symbol
coefficients from those values, and assert that the direct values equal
generator_rows.
Builders give each code its evaluation places, repeats included, so that
grs_certificate proves every component distance; a bundle read from JSON
has none and is walked.

A ConvertibleCode derives its kind from the locality certificates it
carries (none: MDS merge; both: LRC merge; the final's only: MDS to LRC),
its field from the final code, and its shape, the MergeParams that the
bounds and the access_optimal verdict read, from its codes and its final
certificate, an MDS final being the (r, delta) = (k, 2) case.  The
verifier checks each component by its own certificate, or as MDS without
one.  A bundle's stored kind and params must agree with the derived ones.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Optional, Sequence

from .bounds import BoundReport, MergeParams, mds_merge_lower, rdel_lower, total_lower
from .codes import (
    InfeasibleCheck,
    LinearCode,
    LocalityCertificate,
    is_mds,
    is_optimal_lrc,
    singleton_lrc_bound,
)
from .field import ColumnSums, FieldCtx, FieldElem
from .grs import grs_code, grs_dual_prescribed, GrsSpec
from .matrix import MatQ, vandermonde
from .pgl import (
    GroupTable,
    Mobius,
    ProjPoint,
    RationalFunction,
    fixed_field_divisor,
    fixed_field_generator,
    pole_budget_error,
    split_structure,
)
from .poly import Poly, poly_from_roots
from .schema import Record, as_int, as_ints, as_list, as_object, within


def _keyed(value, what: str, size: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A [coordinate, [[int x size], ...]] entry of terms or recon."""
    key, items = as_list(value, what, 2)
    return as_int(key, what), tuple(as_ints(x, what, size) for x in as_list(items, what))


class StripeSchedule:
    """Storage reads for one stripe plus recipes for the symbols it can
    rebuild locally: coord -> ((source coord, coefficient encoding), ...)."""

    __slots__ = ("storage", "recon")

    def __init__(self, storage: tuple[int, ...],
                 recon: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]):
        self.storage = storage
        self.recon = recon

    def to_obj(self) -> dict:
        return {
            "storage": list(self.storage),
            "recon": [[c, [list(p) for p in parts]] for c, parts in self.recon],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> StripeSchedule:
        obj = as_object(obj, "plan.schedule entry")
        return cls(
            as_ints(obj["storage"], "plan.schedule.storage"),
            tuple(
                _keyed(r, "plan.schedule.recon", 2)
                for r in as_list(obj["recon"], "plan.schedule.recon")
            ),
        )


class AccessReport(Record):
    __slots__ = _fields = ("read_cost", "write_cost", "per_symbol_read", "unchanged_counts")

    def __init__(self, read_cost: int, write_cost: int, per_symbol_read: int,
                 unchanged_counts: tuple[int, ...]):
        self.read_cost = read_cost
        self.write_cost = write_cost
        self.per_symbol_read = per_symbol_read
        self.unchanged_counts = unchanged_counts

    def to_obj(self) -> dict:
        return {
            "read_cost": self.read_cost,
            "write_cost": self.write_cost,
            "per_symbol_read": self.per_symbol_read,
            "unchanged_counts": list(self.unchanged_counts),
        }


class ConversionPlan:
    """One merge conversion as a sparse linear map from storage reads to
    the final word.

    unchanged[i] pairs (initial coordinate, final coordinate) copied
    verbatim; reads[i] lists the coordinates of stripe i whose values
    enter written symbols; terms maps each written final coordinate to
    (stripe, coordinate, coefficient encoding) triples with nonzero
    coefficients; a schedule says, per stripe, which coordinates come
    from storage and how each other read is rebuilt from them.

    Construction checks these against each other and the field, then
    folds the schedule into the terms: storage[i] lists the coordinates
    read from stripe i (reads[i] without a schedule), writes maps each
    written coordinate to (stripe, storage coordinate, coefficient
    encoding) triples with every recipe folded in, coefficients landing
    on one storage coordinate summed and zero sums dropped, and access is
    the plan's static access cost.  No coordinate may repeat in written,
    in the keys of terms, in one stripe's reads, or in its storage and
    recon targets together, nor a (stripe, coordinate) in one written
    symbol's terms, and each recon target must be one of its stripe's
    reads.  validate checks the plan against its codes.
    """

    __slots__ = ("field", "unchanged", "reads", "written", "terms", "schedule",
                 "n", "storage", "writes", "access")

    def __init__(
        self,
        field: FieldCtx,
        unchanged: tuple[tuple[tuple[int, int], ...], ...],
        reads: tuple[tuple[int, ...], ...],
        written: tuple[int, ...],
        terms: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...],
        schedule: Optional[tuple[StripeSchedule, ...]] = None,
    ):
        self.field = field
        self.unchanged = unchanged
        self.reads = reads
        self.written = written
        self.terms = terms
        self.schedule = schedule
        t, q = len(reads), field.q
        if self.schedule is None:
            storage = self.reads
            recipes: list[dict] = [{} for _ in range(t)]
        else:
            if len(self.schedule) != t:
                raise ValueError("schedule shape mismatch")
            storage = tuple(sched.storage for sched in self.schedule)
            recipes = [dict(sched.recon) for sched in self.schedule]
        lists = {"plan.written": self.written, "plan.terms": [w for w, _ in self.terms]}
        lists.update((f"plan.reads[{i}]", coords) for i, coords in enumerate(self.reads))
        if self.schedule is not None:
            lists.update((f"plan.schedule[{i}].storage", c) for i, c in enumerate(storage))
            lists.update((f"plan.schedule[{i}].recon", [c for c, _ in sched.recon])
                         for i, sched in enumerate(self.schedule))
        for what, coords in lists.items():
            if len(set(coords)) < len(coords):
                repeated = next(c for c in coords if coords.count(c) > 1)
                raise ValueError(f"{what} repeats coordinate {repeated}")
        known = [set(coords) for coords in storage]
        read_sets = [set(coords) for coords in self.reads]
        for i, recipe in enumerate(recipes):
            for c in self.reads[i]:
                if c not in known[i] and c not in recipe:
                    raise ValueError(f"read coordinate {c} of stripe {i} unreachable")
            for c, parts in recipe.items():
                if c in known[i]:
                    raise ValueError(f"plan.schedule[{i}].recon rebuilds storage coordinate {c}")
                if c not in read_sets[i]:
                    raise ValueError(
                        f"plan.schedule[{i}].recon rebuilds coordinate {c}, "
                        f"which stripe {i} does not read"
                    )
                for src, coeff in parts:
                    if src not in known[i]:
                        raise ValueError("recipe uses an unread source")
                    if not 0 <= coeff < q:
                        raise ValueError(
                            f"plan.schedule.recon coefficient {coeff} is not an element of GF({q})"
                        )
        writes = []
        for w, triples in self.terms:
            if len({(i, coord) for i, coord, _ in triples}) < len(triples):
                raise ValueError(f"plan.terms of written coordinate {w} repeats a read")
            folded: dict[tuple[int, int], int] = {}
            for i, coord, coeff in triples:
                if not 0 <= i < t:
                    raise ValueError("term reference out of range")
                if coord not in read_sets[i]:
                    raise ValueError("term uses a coordinate outside the read set")
                if not 0 < coeff < q:
                    raise ValueError(
                        f"plan.terms coefficient {coeff} is not a nonzero element of GF({q})"
                    )
                for src, e in ((coord, 1),) if coord in known[i] else recipes[i][coord]:
                    key = (i, src)
                    folded[key] = field.add_enc(folded.get(key, 0), field.mul_enc(coeff, e))
            writes.append((w, tuple((i, src, e) for (i, src), e in folded.items() if e)))
        self.n = len(self.written) + sum(map(len, self.unchanged))
        self.storage = storage
        self.writes = tuple(writes)
        self.access = AccessReport(
            read_cost=sum(map(len, storage)),
            write_cost=len(self.written),
            per_symbol_read=sum(len(tr) for _, tr in self.terms),
            unchanged_counts=tuple(map(len, self.unchanged)),
        )

    def validate(self, initials: Sequence[LinearCode], final: LinearCode) -> None:
        """Check the plan against the codes it converts."""
        t = len(initials)
        if not (len(self.unchanged) == len(self.reads) == t):
            raise ValueError("plan shape does not match the stripe count")
        final_targets: list[int] = []
        for i, pairs in enumerate(self.unchanged):
            for src, dst in pairs:
                if not 0 <= src < initials[i].n or not 0 <= dst < final.n:
                    raise ValueError("unchanged pair out of range")
                if initials[i].labels[src] != final.labels[dst]:
                    raise ValueError(
                        f"unchanged pair labels disagree: "
                        f"{initials[i].labels[src]} vs {final.labels[dst]}"
                    )
                final_targets.append(dst)
        if len(set(final_targets)) != len(final_targets):
            raise ValueError("unchanged targets overlap")
        if set(final_targets) | set(self.written) != set(range(final.n)) or (
            set(final_targets) & set(self.written)
        ):
            raise ValueError("unchanged targets and written set must partition the final code")
        if set(dict(self.terms)) != set(self.written):
            raise ValueError("every written symbol needs a term list")
        # terms lie inside reads, and recipes read only storage
        for i, (code, coords, stored) in enumerate(zip(initials, self.reads, self.storage)):
            if any(not 0 <= c < code.n for c in (*coords, *stored)):
                raise ValueError(f"stripe {i} reads a coordinate outside [0, {code.n})")

    def generator_rows(self, initials: Sequence[LinearCode]) -> list[list[int]]:
        """blockdiag(G_i) * P in encodings, the exact reference for execute.

        Each generator row of stripe i is carried through the map term by
        term: its unchanged symbols are copied, and each written symbol is
        the sum over the writes' triples on stripe i of coefficient times
        storage symbol, one add_table and one mul_table lookup per term.
        """
        add, mul = self.field.add_table, self.field.mul_table
        rows = []
        for i, code in enumerate(initials):
            own = [(dst, c, e) for dst, triples in self.writes for j, c, e in triples if j == i]
            for g in code.generator.data:
                row = [0] * self.n
                for src, dst in self.unchanged[i]:
                    row[dst] = g[src]
                for dst, c, e in own:
                    row[dst] = add[row[dst]][mul[e][g[c]]]
                rows.append(row)
        return rows

    def to_obj(self) -> dict:
        return {
            "unchanged": [[list(p) for p in pairs] for pairs in self.unchanged],
            "reads": [list(r) for r in self.reads],
            "written": list(self.written),
            "terms": [[w, [list(t) for t in triples]] for w, triples in self.terms],
            "schedule": [s.to_obj() for s in self.schedule] if self.schedule else None,
        }

    @classmethod
    def from_obj(cls, field: FieldCtx, obj: dict) -> ConversionPlan:
        obj = as_object(obj, "plan")
        return cls(
            field,
            tuple(
                tuple(as_ints(p, "plan.unchanged", 2) for p in as_list(pairs, "plan.unchanged"))
                for pairs in as_list(obj["unchanged"], "plan.unchanged")
            ),
            tuple(as_ints(r, "plan.reads") for r in as_list(obj["reads"], "plan.reads")),
            as_ints(obj["written"], "plan.written"),
            tuple(_keyed(t, "plan.terms", 3) for t in as_list(obj["terms"], "plan.terms")),
            None if obj.get("schedule") is None else tuple(
                StripeSchedule.from_obj(s) for s in as_list(obj["schedule"], "plan.schedule")
            ),
        )


# the kind a conversion's certificates give: (initial_cert given, final_cert given)
KINDS = {
    (False, False): "mds_merge",
    (True, True): "lrc_merge",
    (False, True): "mds_to_lrc",
}


class ConvertibleCode:
    """Initial codes, final code and the plan between them, with the
    certificates that give the kind; each certificate is validated
    against the codes it describes."""

    __slots__ = ("initials", "final", "plan", "initial_cert", "final_cert", "provenance",
                 "field", "kind", "params", "_run")

    def __init__(
        self,
        initials: tuple[LinearCode, ...],
        final: LinearCode,
        plan: ConversionPlan,
        initial_cert: Optional[LocalityCertificate] = None,
        final_cert: Optional[LocalityCertificate] = None,
        provenance: Optional[dict] = None,
    ):
        self.initials = initials
        self.final = final
        self.plan = plan
        self.initial_cert = initial_cert
        self.final_cert = final_cert
        self.provenance = {} if provenance is None else provenance
        # execute's stripe lengths, kernel, input-row ends and output gather
        self._run: Optional[tuple] = None
        certs = (initial_cert is not None, final_cert is not None)
        if certs not in KINDS:
            raise ValueError("an initial_cert needs a final_cert")
        self.kind = KINDS[certs]
        self.field = self.final.field
        for i, code in enumerate(self.initials):
            if code.field != self.field:
                raise ValueError(f"initials[{i}] is over {code.field}, the final over {self.field}")
        if self.plan.field != self.field:
            raise ValueError(f"plan is over {self.plan.field}, the final over {self.field}")
        if initial_cert is not None:
            for code in self.initials:
                initial_cert.validate(code.n)
        if final_cert is not None:
            final_cert.validate(self.final.n)
        # an MDS final is the (r, delta) = (k, 2) case of the LRC bound
        n_final, k_final = self.final.n, self.final.k
        r, delta = (self.final_cert.r, self.final_cert.delta) if self.final_cert else (k_final, 2)
        self.params = MergeParams(
            k_initial=tuple(c.k for c in self.initials),
            n_initial=tuple(c.n for c in self.initials),
            n_final=n_final,
            k_final=k_final,
            d_final=singleton_lrc_bound(n_final, k_final, r, delta),
            r=r,
            delta=delta,
        )
        self.plan.validate(self.initials, self.final)

    def _runner(self) -> tuple:
        """execute's one kernel, built on first use.  Its columns are the
        concatenated input word, then one fed-back column per written
        symbol; its unchecked rows are the plan's writes over the input,
        and its checked rows every initial's parity rows, shifted to the
        stripe's offset, then the final parity rows carried onto those
        columns.  source maps each final coordinate to the column that
        holds it, an unchanged symbol's input column or a written
        symbol's fed-back one, so that the carried rows test H_F y for the
        word that gather picks out of the input and the written values."""
        if self._run is None:
            ns = [code.n for code in self.initials]
            offsets = list(accumulate(ns, initial=0))
            inputs = [[(off + j, c) for j, c in enumerate(row)]
                      for code, off in zip(self.initials, offsets)
                      for row in code.parity.data]
            written = [[(offsets[i] + c, e) for i, c, e in triples]
                       for _, triples in self.plan.writes]
            source = {dst: off + src for off, pairs in zip(offsets, self.plan.unchanged)
                      for src, dst in pairs}
            source.update((dst, offsets[-1] + k) for k, (dst, _) in enumerate(self.plan.writes))
            order = [source[dst] for dst in range(self.final.n)]
            carried = [[(order[dst], c) for dst, c in enumerate(row)]
                       for row in self.final.parity.data]
            self._run = (
                ns,
                ColumnSums(self.field, inputs + carried + written, offsets[-1],
                           checked=len(inputs) + len(carried)),
                list(accumulate(code.parity.rows for code in self.initials)),
                # MergeParams makes n_F >= 2, so this gathers a tuple
                itemgetter(*order),
            )
        return self._run

    def static_access(self) -> AccessReport:
        """The access costs of the plan, computed once per plan."""
        return self.plan.access

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "field": self.field.to_obj(),
            "initials": [c.to_obj() for c in self.initials],
            "final": self.final.to_obj(),
            "plan": self.plan.to_obj(),
            "params": self.params.to_obj(),
            "initial_cert": self.initial_cert.to_obj() if self.initial_cert else None,
            "final_cert": self.final_cert.to_obj() if self.final_cert else None,
            "provenance": self.provenance,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> ConvertibleCode:
        """Read a bundle; its stored kind and params must equal the derived ones."""
        obj = as_object(obj, "bundle")
        field = within("field", FieldCtx.from_obj, obj["field"])
        stored = within("params", MergeParams.from_obj, obj["params"]).to_obj()
        kind = obj["kind"]
        cc = cls(
            initials=tuple(
                within(f"initials[{i}]", LinearCode.from_obj, field, c)
                for i, c in enumerate(as_list(obj["initials"], "initials"))
            ),
            final=within("final", LinearCode.from_obj, field, obj["final"]),
            plan=ConversionPlan.from_obj(field, obj["plan"]),
            provenance=obj.get("provenance", {}),
            **{
                key: within(key, LocalityCertificate.from_obj, obj[key]) if obj.get(key) else None
                for key in ("initial_cert", "final_cert")
            },
        )
        if kind != cc.kind:
            raise ValueError(f"kind is {kind!r}, the certificates give {cc.kind!r}")
        derived = cc.params.to_obj()
        for key, value in stored.items():
            if value != derived[key]:
                raise ValueError(f"params.{key} is {value}, the codes give {derived[key]}")
        return cc


# -- shared evaluation helpers ------------------------------------------------


def _encodings(points: Sequence[ProjPoint]) -> tuple[Optional[int], ...]:
    """Places as a LinearCode carries them: encodings, None for infinity."""
    return tuple(None if p.is_infinity else p.finite.enc for p in points)


def _consecutive_groups(r: int, delta: int, size: int, count: int) -> LocalityCertificate:
    """(r, delta) locality over `count` repair groups of `size` consecutive
    coordinates each."""
    return LocalityCertificate(
        r, delta, tuple(tuple(range(b * size, (b + 1) * size)) for b in range(count))
    )


def _term_coefficient(field: FieldCtx, wvals: Sequence[int], rvals: Sequence[int]) -> int:
    """c with wvals = c * rvals across a basis, read at the first nonzero
    read value; _merge_by_evaluation checks it on every basis function."""
    for wv, rv in zip(wvals, rvals):
        if rv:
            return field.mul_enc(wv, field.inv_enc(rv))
    raise AssertionError("all basis read values vanish")


def _derivative(move: Mobius, pt: ProjPoint, img: ProjPoint) -> int:
    """The value at pt of (pi_img o move) / pi_pt, the derivative of move
    in the uniformizers of pt and img = move(pt), as an encoding."""
    field = move.field
    mul = field.mul_enc
    a, b, c, d = move.m
    if pt.finite is None:
        # c = 0: pi_img o move = d / (a x + b); else (bc - ad) / (c (c x + d))
        if img.finite is None:
            return mul(d, field.inv_enc(a))
        return mul(field.sub_enc(mul(b, c), mul(a, d)), field.inv_enc(mul(c, c)))
    if img.finite is None:
        # c x + d = c (x - beta): pi_img o move = c (x - beta) / (a x + b)
        return mul(c, field.inv_enc(field.add_enc(mul(a, pt.finite.enc), b)))
    # move(x) - move(beta) = det (x - beta) / ((c x + d) (c beta + d))
    den = field.add_enc(mul(c, pt.finite.enc), d)
    return mul(field.sub_enc(mul(a, d), mul(b, c)), field.inv_enc(mul(den, den)))


def _stripe_rows(
    factor: RationalFunction,
    move: Mobius,
    basis: Sequence[RationalFunction],
    places: Sequence[ProjPoint],
    budgets: Sequence[int],
    cache: dict,
) -> list[list[int]]:
    """Row f, column P: (factor * (f o move)).eval_at(P, budget).enc.

    A Moebius move is unramified, so f o move has f's valuation v at
    P and its unit value at move(P) times c^v, c = _derivative(move, P,
    move(P)): the term has valuation v_factor + v and unit value
    u_factor * u * c^v, all read off RationalFunction.local.  Each f's
    local(move(P)) is kept in cache[f] by the encoding of move(P), None
    for infinity, to be shared by every stripe with that basis function.
    """
    field = factor.field
    mul = field.mul_enc
    tables = [cache.setdefault(f, {}) for f in basis]
    columns = []
    for pt, budget in zip(places, budgets):
        img = move.point_action(pt)
        key = None if img.finite is None else img.finite.enc
        v_factor, u_factor = factor.local(pt)
        times_u = field.mul_table[u_factor]
        deriv = None
        column = []
        for f, table in zip(basis, tables):
            local = table.get(key)
            if local is None:
                local = table[key] = f.local(img)
            v, u = local
            net = v_factor + v + budget
            if net < 0:
                raise pole_budget_error(-(v_factor + v), pt, budget)
            if net:
                column.append(0)
            elif v:
                if deriv is None:
                    deriv = _derivative(move, pt, img)
                column.append(times_u[mul(u, field.pow_enc(deriv, v))])
            else:
                column.append(times_u[u])
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def _merge_by_evaluation(
    field: FieldCtx,
    init_codes: Sequence[LinearCode],
    moves: Sequence[Mobius],
    factors: Sequence[RationalFunction],
    bases: Sequence[Sequence[RationalFunction]],
    kept: Sequence[Sequence[ProjPoint]],
    written: Sequence[ProjPoint],
    read_base: Sequence[int],
    pole_budget: int,
    labels: Sequence[str],
    schedule: Optional[tuple[StripeSchedule, ...]] = None,
) -> tuple[ConversionPlan, LinearCode]:
    """Plan and final code, on its places and with the given labels, of a
    merge of evaluation codes.

    Basis function f of stripe j (row f of its generator) becomes the
    term factors[j] * (f moved by moves[j]).  The final code keeps stripe
    j's symbols at the places kept[j], stripe after stripe, then writes
    one symbol per place of `written`, evaluated with pole_budget at
    infinity.  A term divided by its own stripe's factor must give back
    the stored symbols on its kept places and must vanish on every other
    stripe's.  The terms are never built: _stripe_rows composes each
    term's valuation and unit value at P, on one path for every place,
    from RationalFunction.local of factors[j] at P and of f at
    moves[j](P).  Written place P reads stripe j at read_base[j] plus
    the index of moves[j](P) in `written`, with the coefficient read off
    the first basis function whose read value is nonzero.  The final
    generator is the plan's generator_rows; it must equal the direct
    evaluation, which checks every coefficient on every basis function.
    """
    inv, mul = field.inv_enc, field.mul_table
    units = [inv(f.eval_enc(p)) for f, places in zip(factors, kept) for p in places]
    kept_places = [p for places in kept for p in places]
    places = kept_places + list(written)
    budgets = [0] * len(kept_places) + [pole_budget if p.is_infinity else 0 for p in written]
    cache: dict = {}
    direct = []  # per stripe, the terms evaluated at every final place
    for move, factor, basis in zip(moves, factors, bases):
        rows = _stripe_rows(factor, move, basis, places, budgets, cache)
        for row in rows:
            row[: len(units)] = [mul[u][e] for u, e in zip(units, row)]
        direct.append(rows)

    base = len(kept_places)
    index = {p.sort_key(): idx for idx, p in enumerate(written)}
    terms = []
    for w_idx, pt in enumerate(written):
        triples = []
        for j, (move, code) in enumerate(zip(moves, init_codes)):
            src = read_base[j] + index[move.point_action(pt).sort_key()]
            coeff = _term_coefficient(
                field,
                [row[base + w_idx] for row in direct[j]],
                [row[src] for row in code.generator.data],
            )
            if coeff:
                triples.append((j, src, coeff))
        terms.append((base + w_idx, tuple(triples)))

    offsets = [sum(len(places) for places in kept[:j]) for j in range(len(kept))]
    plan = ConversionPlan(
        field,
        unchanged=tuple(
            tuple((idx, off + idx) for idx in range(len(places)))
            for off, places in zip(offsets, kept)
        ),
        reads=tuple(tuple(range(rb, rb + len(written))) for rb in read_base),
        written=tuple(range(base, base + len(written))),
        terms=tuple(terms),
        schedule=schedule,
    )
    gen_rows = plan.generator_rows(init_codes)
    if gen_rows != [row for rows in direct for row in rows]:
        raise AssertionError("direct evaluation disagrees with the plan's generator_rows")
    return plan, LinearCode(field, generator=MatQ(field, gen_rows), labels=labels,
                            places=_encodings(kept_places + list(written)))


# -- MDS merge ----------------------------------------------------------------


def build_mds_merge(
    field: FieldCtx,
    group: GroupTable,
    k: int,
    t: int,
    lprime: int,
    evaluate_at_pole: bool = False,
    per_initial_dims: Optional[Sequence[int]] = None,
) -> ConvertibleCode:
    """Merge t MDS stripes into one, written block = one full group orbit.

    Evaluation points are the places of k+1 completely split orbits; the
    written block B is the orbit of the infinite place when the pole
    route is enabled (there it is evaluated through uniformizer powers),
    otherwise the first orbit that avoids infinity.
    """
    el = group.order
    q = field.q
    if t < 1 or t > el:
        raise ValueError(f"need 1 <= t <= {el}")
    dims = tuple(per_initial_dims) if per_initial_dims is not None else (k,) * t
    if len(dims) != t or any(not 1 <= d <= k for d in dims):
        raise ValueError("per-initial dimensions must lie in [1, k]")
    if el > min(dims) or lprime < el:
        raise ValueError("need group order <= every dimension and <= extra redundancy")
    if k + lprime > q + 1:
        raise ValueError("not enough rational places for the initial length")

    split = split_structure(group)
    inf = ProjPoint.infinity()
    inf_orbit = next((o for o in split.free_orbits if inf in o), None)
    plain = [o for o in split.free_orbits if inf not in o]
    if evaluate_at_pole and inf_orbit is not None:
        if len(plain) < k:
            raise ValueError(f"need {k} pole-free split orbits, have {len(plain)}")
        b_orbit, a_orbits = inf_orbit, plain[:k]
    else:
        if len(plain) < k + 1:
            raise ValueError(
                f"no free orbit available for the written block: need {k + 1} "
                f"orbits avoiding infinity, have {len(plain)}"
            )
        b_orbit, a_orbits = plain[0], plain[1 : k + 1]

    sigmas = group.elements  # canonical, identity first
    b_places = list(b_orbit)
    used = {p.sort_key() for o in a_orbits for p in o} | {p.sort_key() for p in b_places}
    bprime: list[ProjPoint] = []
    for e in field.elements():
        if len(bprime) == lprime - el:
            break
        pt = ProjPoint.of(e)
        if pt.sort_key() not in used:
            bprime.append(pt)
    if len(bprime) < lprime - el:
        raise ValueError("not enough spare finite places for the extra redundancy")

    # stripe j evaluates at rows [k - dims_j, k) of the split orbits
    total_k = sum(dims)
    a1_places = [[a_orbits[row][0] for row in range(k - d, k)] for d in dims]
    a_eff = [
        [a_orbits[row][j] for row in range(k - dims[j], k)] for j in range(t)
    ]

    one = Poly.one(field)
    factors: list[RationalFunction] = []
    for j in range(t):
        others = [p.finite for jj in range(t) if jj != j for p in a_eff[jj]]
        h =  poly_from_roots(field, others)
        img = sigmas[j].place_action(inf)
        g = one if img.is_infinity else Poly(field, (field.neg_enc(img.finite.enc), 1))
        factors.append(RationalFunction.from_poly(h * g ** (dims[j] - 1)))

    # initial codes: stripe j evaluates x^a, a < dims[j], on its A-row
    # places, B and B', lifted by 1/x^(dims[j] - 1) at infinity
    x = RationalFunction.x(field)
    monomials = [x ** row for row in range(k)]
    bases = [monomials[:d] for d in dims]
    init_codes: list[LinearCode] = []
    for j in range(t):
        pts = a1_places[j] + b_places + bprime
        gen = MatQ(
            field,
            [
                [f.eval_enc(pt, dims[j] - 1 if pt.is_infinity else 0) for pt in pts]
                for f in bases[j]
            ],
        )
        labels = [f"s{j + 1}:p{pt.label()}" for pt in pts]
        init_codes.append(LinearCode(field, generator=gen, labels=labels, places=_encodings(pts)))

    # final code: unchanged segments per stripe, then the written block
    final_labels = [
        f"s{j + 1}:p{a1_places[j][idx].label()}"
        for j in range(t)
        for idx in range(dims[j])
    ] + [f"w:p{pt.label()}" for pt in b_places]
    plan, final_code = _merge_by_evaluation(
        field,
        init_codes,
        moves=sigmas[:t],
        factors=factors,
        bases=bases,
        kept=a_eff,
        written=b_places,
        read_base=dims,
        pole_budget=total_k - 1,
        labels=final_labels,
    )

    provenance = {
        "group": group.to_obj(),
        "written_orbit": [p.to_obj() for p in b_places],
        "row_orbits": [[p.to_obj() for p in o] for o in a_orbits],
        "extra_places": [p.to_obj() for p in bprime],
        "evaluate_at_pole": bool(evaluate_at_pole and inf_orbit is not None),
        "dims": list(dims),
    }
    return ConvertibleCode(
        initials=tuple(init_codes),
        final=final_code,
        plan=plan,
        provenance=provenance,
    )


# -- LRC merge ----------------------------------------------------------------


def build_lrc_merge(
    field: FieldCtx,
    group: GroupTable,
    subgroup: GroupTable,
    k: int,
    t: int,
    lprime: int,
    delta: int = 2,
) -> ConvertibleCode:
    """Merge t locally repairable stripes into one.

    The subgroup fixes the repair-group size r + delta - 1 = |H|; its
    cosets index the blocks of each split orbit.  Written symbols form
    the whole orbit of the base block; the locality-aware schedule reads
    only r symbols per block and rebuilds the rest in place.
    """
    if not group.is_subgroup(subgroup):
        raise ValueError("second group is not a subgroup of the first")
    gs = subgroup.order
    if delta < 2 or gs - delta + 1 < 1:
        raise ValueError("need delta >= 2 and r = |H| - delta + 1 >= 1")
    r = gs - delta + 1
    el = group.order // gs
    if group.order % gs:
        raise AssertionError("subgroup order does not divide group order")
    if t < 1 or t > el:
        raise ValueError(f"need 1 <= t <= {el}")
    if el > min(k, lprime):
        raise ValueError("need the coset count <= k and <= extra redundancy blocks")

    reps = group.left_coset_reps(subgroup)
    taus = subgroup.elements
    split = split_structure(group)
    inf = ProjPoint.infinity()
    plain = [o for o in split.free_orbits if inf not in o]
    if len(plain) < k + 1:
        raise ValueError(
            f"need {k + 1} split orbits avoiding infinity, have {len(plain)}"
        )
    b_rep = plain[0][0]
    a_reps = [plain[i + 1][0] for i in range(k)]

    def block(rep: ProjPoint, j: int) -> list[ProjPoint]:
        return [reps[j].place_action(tau.place_action(rep)) for tau in taus]

    z = fixed_field_generator(subgroup)

    def block_zval(places: Sequence[ProjPoint]) -> FieldElem:
        vals = [z.eval_at(p, 0) for p in places]
        if any(v != vals[0] for v in vals):
            raise ValueError(
                "subgroup blocks are not level sets of the fixed-field generator; "
                "the coset representatives do not normalize the subgroup"
            )
        return vals[0]

    a_blocks = [[block(a_reps[i], j) for j in range(el)] for i in range(k)]
    b_blocks = [block(b_rep, j) for j in range(el)]
    a_zvals = [[block_zval(a_blocks[i][j]) for j in range(el)] for i in range(k)]
    for bl in b_blocks:
        block_zval(bl)

    # g functions and annihilator-in-z per stripe
    factors: list[RationalFunction] = []
    rf_z = z
    one_rf = RationalFunction.constant(field.one)
    for j in range(t):
        img = reps[j].place_action(inf)
        if img.is_infinity:
            g1 = one_rf
        else:
            g1 = RationalFunction.from_poly(
                Poly(field, (field.neg_enc(img.finite.enc), 1))
            )
        if z.valuation(img) < 0:
            g2 = one_rf  # rep stabilizes the pole locus of z
        else:
            g2 = rf_z - RationalFunction.constant(z.eval_at(img, 0))
            _check_pole_swap_divisor(subgroup, g2, reps[j])
        hz = one_rf
        for jj in range(t):
            if jj == j:
                continue
            for i in range(k):
                hz = hz * (rf_z - RationalFunction.constant(a_zvals[i][jj]))
        factors.append(g1 ** (r - 1) * g2 ** (k - 1) * hz)

    # initial evaluation blocks: A-column 1, the whole B orbit, spares
    init_blocks = [a_blocks[i][0] for i in range(k)] + b_blocks
    spare_needed = lprime - el
    spares: list[list[ProjPoint]] = []
    for j in range(1, el):
        for i in range(k):
            if len(spares) == spare_needed:
                break
            spares.append(a_blocks[i][j])
        if len(spares) == spare_needed:
            break
    if len(spares) < spare_needed:
        raise ValueError("not enough spare blocks for the extra redundancy")
    init_places = [p for bl in init_blocks + spares for p in bl]

    basis: list[RationalFunction] = []
    x_rf = RationalFunction.x(field)
    for zb in range(k):
        for xa in range(r):
            basis.append((x_rf ** xa) * (rf_z ** zb))
    k_init = k * r

    init_gen = MatQ(
        field, [[f.eval_enc(p) for p in init_places] for f in basis]
    )
    init_labels_template = [f"p{p.label()}" for p in init_places]
    init_codes = [
        LinearCode(
            field,
            generator=init_gen,
            labels=[f"s{j + 1}:{lab}" for lab in init_labels_template],
            places=_encodings(init_places),
        )
        for j in range(t)
    ]
    init_cert = _consecutive_groups(r, delta, gs, k + lprime)

    # locality-aware schedule: read r symbols per block, rebuild the rest
    b_segment = k * gs  # offset of the B orbit inside each initial stripe
    recon: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    storage: list[int] = []
    cols = [[init_gen.data[i][j] for i in range(init_gen.rows)] for j in range(init_gen.cols)]
    for blk in range(el):
        base = b_segment + blk * gs
        read_cols = list(range(base, base + r))
        storage.extend(read_cols)
        solver = MatQ(field, [[cols[c][i] for c in read_cols] for i in range(k_init)])
        for s in range(r, gs):
            target = base + s
            sol = solver.solve(cols[target])
            if sol is None:
                raise AssertionError("local block is not MDS; cannot schedule reads")
            recon.append(
                (target, tuple((read_cols[m], e) for m, e in enumerate(sol) if e))
            )
    sched = StripeSchedule(storage=tuple(storage), recon=tuple(recon))

    # final code: stripe blocks then the written orbit
    flat_b = [p for bl in b_blocks for p in bl]
    final_labels = [
        f"s{j + 1}:p{a_blocks[i][0][s].label()}"
        for j in range(t)
        for i in range(k)
        for s in range(gs)
    ] + [f"w:p{p.label()}" for p in flat_b]
    plan, final_code = _merge_by_evaluation(
        field,
        init_codes,
        moves=reps[:t],
        factors=factors,
        bases=[basis] * t,
        kept=[[p for i in range(k) for p in a_blocks[i][j]] for j in range(t)],
        written=flat_b,
        read_base=[b_segment] * t,
        pole_budget=0,
        labels=final_labels,
        schedule=tuple(sched for _ in range(t)),
    )
    final_cert = _consecutive_groups(r, delta, gs, t * k + el)

    provenance = {
        "group": group.to_obj(),
        "subgroup": subgroup.to_obj(),
        "fixed_field_generator": z.to_obj(),
        "written_orbit": [p.to_obj() for p in flat_b],
        "degenerate_locality": r == 1,
        "delta": delta,
    }
    return ConvertibleCode(
        initials=tuple(init_codes),
        final=final_code,
        plan=plan,
        initial_cert=init_cert,
        final_cert=final_cert,
        provenance=provenance,
    )


def _check_pole_swap_divisor(
    subgroup: GroupTable, g2: RationalFunction, rep: Mobius
) -> None:
    """div(g2) must be (image of the pole locus of z) - (pole locus of z),
    for z the subgroup's fixed-field generator."""
    g_support, _ = g2.divisor_support()
    expected: dict = {}
    for pt, v in fixed_field_divisor(subgroup):
        if v < 0:
            expected[rep.place_action(pt).sort_key()] = -v  # zeros of g2
            expected[pt.sort_key()] = expected.get(pt.sort_key(), 0) + v
    actual = {pt.sort_key(): v for pt, v in g_support.items()}
    expected = {kk: vv for kk, vv in expected.items() if vv}
    if actual != expected:
        raise AssertionError("pole-swap function has the wrong divisor")


# -- MDS to LRC ---------------------------------------------------------------


def build_mds_to_lrc(
    field: FieldCtx,
    s: int,
    a: int,
    tprime: int,
    delta: int,
    k_init: int,
    n_init: Sequence[int],
    elements: Optional[Sequence[int]] = None,
) -> ConvertibleCode:
    """Merge t = s*tprime MDS stripes into an optimal (r, delta)-LRC.

    The final parity stacks per-group Vandermonde rows over block
    locators (alpha for unchanged symbols, beta and shared gamma for
    written ones) on top of global high-power rows; initial stripes are
    GRS codes whose multipliers prescribe the plain Vandermonde parity on
    the unchanged coordinates, so written symbols follow from a syndrome
    transfer and one matrix inverse, fused per stripe into the plan.
    """
    t = s * tprime
    r = s * k_init + a
    d_final = a * tprime + delta
    if s < 2 or a < 1 or tprime < 1 or delta < 2:
        raise ValueError("need s >= 2, a >= 1, tprime >= 1, delta >= 2")
    if a * tprime > k_init - delta:
        raise ValueError("need a * tprime <= k_init - delta")
    n_init = tuple(n_init)
    if len(n_init) != t:
        raise ValueError(f"need one initial length per stripe, t = {t}")
    locator_count = t * k_init + a * tprime + delta - 1
    if locator_count > field.q:
        raise ValueError(f"need {locator_count} distinct field elements, q = {field.q}")
    lo = k_init + a * tprime + delta - 1
    if any(not lo <= n <= field.q for n in n_init):
        raise ValueError(f"initial lengths must lie in [{lo}, {field.q}]")

    if elements is None:
        elems = [field.element(e) for e in range(locator_count)]
    else:
        elems = [field.element(e) for e in elements]
        if len(elems) != locator_count:
            raise ValueError(f"need exactly {locator_count} evaluation elements")
        if len({e.enc for e in elems}) != locator_count:
            raise ValueError("evaluation elements must be distinct")
    alphas = [elems[i * k_init : (i + 1) * k_init] for i in range(t)]
    betas_flat = elems[t * k_init : t * k_init + a * tprime]
    betas = [betas_flat[i * a : (i + 1) * a] for i in range(tprime)]
    gammas = elems[t * k_init + a * tprime :]

    group_size = r + delta - 1
    n_final = tprime * group_size

    # group g holds the alphas of stripes g*s .. g*s + s - 1, then betas[g]
    # and the gammas
    locators: list[FieldElem] = []
    labels: list[str] = []
    for g in range(tprime):
        for i in range(g * s, (g + 1) * s):
            locators += alphas[i]
            labels += [f"s{i + 1}:a{jj + 1}" for jj in range(k_init)]
        locators += betas[g] + gammas
        labels += [f"w:b{g + 1}_{jj + 1}" for jj in range(a)]
        labels += [f"w:g{g + 1}_{jj + 1}" for jj in range(delta - 1)]
    # delta - 1 local rows per group, powers 0 .. delta - 2 of its own
    # locators, then a * tprime global rows, powers delta - 1 .. d_final - 2
    # of every locator; not vandermonde, since the gammas repeat
    powers = [[field.pow_enc(loc.enc, e) for e in range(d_final - 1)] for loc in locators]
    local = [
        [powers[c][e] if c // group_size == g else 0 for c in range(n_final)]
        for g in range(tprime)
        for e in range(delta - 1)
    ]
    parity = MatQ(field, local + [[p[e] for p in powers] for e in range(delta - 1, d_final - 1)])

    alpha_cols = [
        [i // s * group_size + i % s * k_init + jj for jj in range(k_init)] for i in range(t)
    ]
    w_cols = [g * group_size + c for g in range(tprime) for c in range(s * k_init, group_size)]
    hw_t_inv = parity.submatrix_cols(w_cols).transpose().invert()  # H_W is square

    # initial GRS stripes with prescribed parity on the unchanged part
    init_codes: list[LinearCode] = []
    terms_map: dict[int, list[tuple[int, int, int]]] = {w: [] for w in w_cols}
    for i in range(t):
        alpha_set = {al.enc for al in alphas[i]}
        xi = []
        for e in field.elements():
            if len(xi) == n_init[i] - k_init:
                break
            if e.enc not in alpha_set:
                xi.append(e)
        head = list(alphas[i]) + xi[: d_final - 1]
        w_i = grs_dual_prescribed(field, head, k_init)
        mults = list(w_i) + [field.one] * (n_init[i] - len(head))
        spec = GrsSpec(
            locators=tuple(list(alphas[i]) + xi), k=k_init, multipliers=tuple(mults)
        )
        code_labels = [f"s{i + 1}:a{jj + 1}" for jj in range(k_init)] + [
            f"s{i + 1}:x{jj + 1}" for jj in range(len(xi))
        ]
        init_codes.append(grs_code(field, spec, labels=code_labels))

        hbar = vandermonde(field, d_final - 1, head)
        hbar_r = hbar.submatrix_cols(list(range(k_init, k_init + d_final - 1)))
        # the parity rows stripe i enters: its group's local rows, then the global rows
        g = i // s
        rows = [*range(g * (delta - 1), (g + 1) * (delta - 1)),
                *range(tprime * (delta - 1), parity.rows)]
        transfer = hbar_r.transpose() @ MatQ(field, [hw_t_inv.data[row] for row in rows])
        for m, coeffs in enumerate(transfer.data):
            for w, coeff in zip(w_cols, coeffs):
                if coeff:
                    terms_map[w].append((i, k_init + m, coeff))

    plan = ConversionPlan(
        field,
        unchanged=tuple(tuple(enumerate(cols)) for cols in alpha_cols),
        reads=(tuple(range(k_init, k_init + d_final - 1)),) * t,
        written=tuple(w_cols),
        terms=tuple((w, tuple(tr)) for w, tr in terms_map.items()),
    )

    gen_rows = plan.generator_rows(init_codes)
    final_code = LinearCode(field, generator=MatQ(field, gen_rows), parity=parity,
                            labels=labels, places=tuple(loc.enc for loc in locators))
    final_cert = _consecutive_groups(r, delta, group_size, tprime)
    provenance = {
        "s": s,
        "a": a,
        "tprime": tprime,
        "delta": delta,
        "alphas": [[al.enc for al in row] for row in alphas],
        "betas": [[be.enc for be in row] for row in betas],
        "gammas": [ga.enc for ga in gammas],
    }
    return ConvertibleCode(
        initials=tuple(init_codes),
        final=final_code,
        plan=plan,
        final_cert=final_cert,
        provenance=provenance,
    )


# -- execution ----------------------------------------------------------------


def execute(
    cc: ConvertibleCode, words: Sequence[Sequence[FieldElem]]
) -> tuple[tuple[FieldElem, ...], AccessReport]:
    """Run the conversion on one codeword per initial stripe.

    The inputs' encodings are taken once, as one concatenated word, and
    one run of the conversion's kernel (ConvertibleCode._runner) checks
    the inputs, writes the symbols and tests the final word: it sums the
    input word, reduces the written symbols, adds one lookup per written
    symbol, and zero-tests every input's parity rows and the final
    parity rows at once, so that the final word, the unchanged symbols
    gathered with the written ones, is tested as H_F y = H_F[:, U] y_U +
    H_F[:, W] y_W.  Costs count coordinates touched, not values; the
    report is the plan's one access object.  Raises ValueError, naming
    the stripe, for an input of the wrong length or off its stripe's
    code (the inputs' rows come first, so a bad input is named before
    any final row), naming the coordinate too for a symbol of another
    field, and AssertionError when the converted word violates the final
    parity.
    """
    ns, kernel, row_ends, gather = cc._runner()
    if len(words) != len(ns):
        raise ValueError("need one codeword per initial stripe")
    field = cc.field
    encs = [w.enc for word in words for w in word if w.field is field]
    if len(encs) != kernel.cols or list(map(len, words)) != ns:
        for i, (word, n) in enumerate(zip(words, ns)):
            if len(word) != n:
                raise ValueError(f"input {i} has {len(word)} symbols, stripe {i} has n = {n}")
            try:
                field.encodings(word)
            except ValueError as exc:
                raise ValueError(f"input {i} {exc}") from exc
        # symbols of an equal field that is another object
        encs = [w.enc for word in words for w in word]
    bad, written = kernel.run(encs)
    if bad >= 0:
        i = bisect_right(row_ends, bad)
        if i == len(ns):
            raise AssertionError("converted word violates the final parity")
        row = bad - (row_ends[i - 1] if i else 0)
        raise ValueError(f"input {i} is not a codeword of stripe {i}: parity row {row} fails")
    encs += written
    return field.word(gather(encs)), cc.plan.access


# -- verification --------------------------------------------------------------


class VerifyReport:
    __slots__ = ("bijective", "unchanged_ok", "membership_ok", "components_ok", "measured",
                 "floors", "reference", "bounds_applicable", "access_optimal", "default_read",
                 "default_write")

    def __init__(
        self,
        bijective: bool,
        unchanged_ok: bool,
        membership_ok: bool,
        components_ok: Optional[bool],
        measured: AccessReport,
        floors: BoundReport,
        reference: Optional[BoundReport],
        bounds_applicable: bool,
        access_optimal: Optional[bool],
        default_read: int,
        default_write: int,
    ):
        self.bijective = bijective
        self.unchanged_ok = unchanged_ok
        self.membership_ok = membership_ok
        self.components_ok = components_ok
        self.measured = measured
        self.floors = floors
        self.reference = reference
        self.bounds_applicable = bounds_applicable
        self.access_optimal = access_optimal
        self.default_read = default_read
        self.default_write = default_write

    @property
    def ok(self) -> bool:
        return (
            self.bijective
            and self.unchanged_ok
            and self.membership_ok
            and self.components_ok in (True, None)
        )

    def to_obj(self) -> dict:
        return {
            "bijective": self.bijective,
            "unchanged_ok": self.unchanged_ok,
            "membership_ok": self.membership_ok,
            "components_ok": self.components_ok,
            "measured": self.measured.to_obj(),
            "floors": self.floors.to_obj(),
            "reference": self.reference.to_obj() if self.reference else None,
            "bounds_applicable": self.bounds_applicable,
            "access_optimal": self.access_optimal,
            "default_read": self.default_read,
            "default_write": self.default_write,
            "ok": self.ok,
        }


def verify_convertible(cc: ConvertibleCode, check_components: bool = True) -> VerifyReport:
    """Check bijectivity, the unchanged contract, component optimality and
    the measured access cost against the lower-bound floors.

    The first three verdicts are exact and read off the plan's
    generator_rows: full rank is bijectivity, the exact product rows *
    H_F^T = 0 is membership (all codewords follow by linearity), and each
    unchanged pair (src, dst) of stripe i needs column dst of the rows to
    be column src of G_i on stripe i's rows and 0 on every other's.  When
    membership holds, execute runs once, on the codewords of the all-ones
    messages (each initial generator's column sums), and its output must
    be the column sums of the rows, the word those messages predict; a
    mismatch raises AssertionError naming the first coordinate that
    differs.  A component that carries its
    places, as every builder's does, is proved by grs_certificate before
    any subset walk.
    """
    field = cc.field
    rows = cc.plan.generator_rows(cc.initials)
    generator = MatQ(field, rows)
    bijective = generator.rank() == cc.final.k
    membership_ok = (generator @ cc.final.parity.transpose()).is_zero()
    stripe_rows = [(i, g) for i, code in enumerate(cc.initials) for g in code.generator.data]
    unchanged_ok = all(
        row[dst] == (g[src] if j == i else 0)
        for row, (j, g) in zip(rows, stripe_rows)
        for i, pairs in enumerate(cc.plan.unchanged)
        for src, dst in pairs
    )
    if membership_ok:
        ones = [field.word((MatQ(field, [[1] * code.k]) @ code.generator).data[0])
                for code in cc.initials]
        word, _ = execute(cc, ones)
        predicted = (MatQ(field, [[1] * len(rows)]) @ generator).data[0]
        wrong = [j for j, (w, e) in enumerate(zip(word, predicted)) if w.enc != e]
        if wrong:
            j = wrong[0]
            raise AssertionError(f"execute wrote {word[j].enc} at coordinate {j} of the final "
                                 f"word, where the generator rows predict {predicted[j]}")

    components_ok: Optional[bool] = None
    if check_components:
        checks = [(c, cc.initial_cert) for c in cc.initials] + [(cc.final, cc.final_cert)]
        try:
            components_ok = all(
                is_optimal_lrc(code, cert) if cert else is_mds(code) for code, cert in checks
            )
        except InfeasibleCheck:
            components_ok = None

    measured = cc.plan.access
    floors = total_lower(cc.params)
    reference_bound = {"mds_merge": mds_merge_lower, "lrc_merge": rdel_lower}.get(cc.kind)
    reference = reference_bound(cc.params) if reference_bound else None
    # the floors hold for genuine merges only; a single-stripe conversion may
    # keep every symbol unchanged and is outside their derivation
    bounds_applicable = cc.params.t >= 2
    access_optimal: Optional[bool] = None
    if bounds_applicable:
        if measured.read_cost < floors.min_read or measured.write_cost < floors.min_write:
            raise AssertionError("measured cost beats the lower bound; accounting bug")
        access_optimal = (
            measured.read_cost == floors.min_read
            and measured.write_cost == floors.min_write
        )
    default_read = sum(cc.params.k_initial)
    default_write = cc.params.n_final - sum(len(p) for p in cc.plan.unchanged)
    return VerifyReport(
        bijective=bijective,
        unchanged_ok=unchanged_ok,
        membership_ok=membership_ok,
        components_ok=components_ok,
        measured=measured,
        floors=floors,
        reference=reference,
        bounds_applicable=bounds_applicable,
        access_optimal=access_optimal,
        default_read=default_read,
        default_write=default_write,
    )
