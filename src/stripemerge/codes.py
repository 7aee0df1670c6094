"""Linear block codes over GF(q) with exact verifiers.

A LinearCode carries a generator and/or parity-check matrix plus one
opaque label per coordinate.  Labels are first-class: stripe conversion
is about which physical symbol stays put, and positional indices alone
invite off-by-one corruption when coordinates are reordered or dropped.

Distance verification is exact or it refuses: the subset walk has a hard
work budget and raises InfeasibleCheck instead of guessing.  For a code
that carries its evaluation places, is_mds and is_optimal_lrc first try
grs_certificate, one kernel solve that can only prove a distance, on
distinct or repeated places.  A failed certificate proves nothing and
hands over to the budgeted subset walk of distance_at_least.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .field import ColumnSums, FieldCtx, FieldElem
from .matrix import MatQ, rank_of_rows
from .schema import as_int, as_ints, as_list, as_object, within

SUBSET_BUDGET = 5 * 10 ** 6


class InfeasibleCheck(Exception):
    """An exact verifier would exceed its work budget."""


@dataclass(frozen=True)
class LocalityCertificate:
    """Repair groups claimed to give (r, delta) locality."""

    r: int
    delta: int
    groups: tuple[tuple[int, ...], ...]

    def validate(self, n: int) -> None:
        if self.delta < 2 or self.r < 1:
            raise ValueError("need r >= 1 and delta >= 2")
        seen: set[int] = set()
        for g in self.groups:
            if len(g) > self.r + self.delta - 1:
                raise ValueError(f"group {g} larger than r + delta - 1")
            seen.update(g)
        if seen != set(range(n)):
            raise ValueError("groups do not cover all coordinates")

    def to_obj(self) -> dict:
        return {"r": self.r, "delta": self.delta, "groups": [list(g) for g in self.groups]}

    @classmethod
    def from_obj(cls, obj: dict) -> LocalityCertificate:
        obj = as_object(obj, "certificate")
        return cls(
            as_int(obj["r"], "r"),
            as_int(obj["delta"], "delta"),
            tuple(as_ints(g, "groups") for g in as_list(obj["groups"], "groups")),
        )


class LinearCode:
    """An [n, k] code over GF(q), defined by generator and/or parity matrix."""

    def __init__(
        self,
        field: FieldCtx,
        generator: Optional[MatQ] = None,
        parity: Optional[MatQ] = None,
        labels: Optional[Sequence[str]] = None,
        places: Optional[Sequence[Optional[int]]] = None,
    ):
        if generator is None and parity is None:
            raise ValueError("need a generator or a parity-check matrix")
        self.field = field
        self._generator = generator
        self._parity = parity
        # to_obj writes these, never a matrix derived later
        self._given = tuple(
            key for key, m in (("generator", generator), ("parity", parity)) if m is not None
        )
        n = generator.cols if generator is not None else parity.cols
        self.n = n
        if generator is not None:
            if generator.rank() != generator.rows:
                raise ValueError("generator rows are dependent")
            self.k = generator.rows
        else:
            if parity.rank() != parity.rows:
                raise ValueError("parity rows are dependent")
            self.k = n - parity.rows
        if parity is not None and generator is not None:
            if parity.cols != n:
                raise ValueError("generator/parity length mismatch")
            if parity.rank() != parity.rows or parity.rows != n - self.k:
                raise ValueError("parity rank inconsistent with dimension")
            if not (generator @ parity.transpose()).is_zero():
                raise ValueError("generator and parity are not orthogonal")
        self.labels = tuple(labels) if labels is not None else tuple(
            f"c{i}" for i in range(n)
        )
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise ValueError("labels must be distinct, one per coordinate")
        # evaluation places for grs_certificate, which re-checks them; never serialized
        self.places = tuple(places) if places is not None else None
        # column-table kernels of the parity matrix and of the transposed
        # generator, built on first use
        self._checks: Optional[ColumnSums] = None
        self._encoder: Optional[ColumnSums] = None

    @property
    def generator(self) -> MatQ:
        if self._generator is None:
            basis = self._parity.kernel()
            self._generator = MatQ(self.field, basis)
        return self._generator

    @property
    def parity(self) -> MatQ:
        if self._parity is None:
            basis = self._generator.kernel()
            self._parity = MatQ(self.field, basis)
        return self._parity

    @property
    def checks(self) -> ColumnSums:
        """H as a column-table kernel over the n coordinates: checks.vanishes
        on a word's encodings is the membership test."""
        if self._checks is None:
            self._checks = ColumnSums(self.field, [enumerate(row) for row in self.parity.data],
                                      self.n)
        return self._checks

    def encode(self, message: Sequence[FieldElem]) -> tuple[FieldElem, ...]:
        """message * G, by the column-table kernel of G's transpose: the
        message coordinates are its columns.  Raises ValueError, naming
        the coordinate and both fields, for a symbol of another field."""
        if len(message) != self.k:
            raise ValueError(f"message length {len(message)} != k = {self.k}")
        if self._encoder is None:
            g = self.generator.data
            self._encoder = ColumnSums(
                self.field, [[(i, row[j]) for i, row in enumerate(g)] for j in range(self.n)],
                self.k,
            )
        return self.field.word(self._encoder.values(self.field.encodings(message)))

    def contains(self, word: Sequence[FieldElem]) -> bool:
        """True iff H * word = 0.  Raises ValueError, naming the coordinate
        and both fields, for a symbol of another field.

        The test is one checks.vanishes on the word's encodings: a table
        lookup and an integer addition per coordinate, then one multiply
        that tests every digit slot for 0 mod p at once.
        """
        return len(word) == self.n and self.checks.vanishes(self.field.encodings(word))

    def to_obj(self) -> dict:
        obj = {"n": self.n, "k": self.k, "labels": list(self.labels)}
        for key in self._given:
            obj[key] = getattr(self, key).to_obj()
        return obj

    @classmethod
    def from_obj(cls, field: FieldCtx, obj: dict) -> LinearCode:
        obj = as_object(obj, "code")
        gen, par = (
            within(key, MatQ.from_obj, field, obj[key]) if key in obj else None
            for key in ("generator", "parity")
        )
        labels = obj.get("labels")
        if labels is not None and not all(isinstance(x, str) for x in as_list(labels, "labels")):
            raise ValueError(f"labels must be strings, got {labels!r}")
        code = cls(field, generator=gen, parity=par, labels=labels)
        for key, derived in (("n", code.n), ("k", code.k)):
            stored = as_int(obj[key], key)
            if stored != derived:
                raise ValueError(f"{key} is {stored}, the matrices give {derived}")
        return code

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.q}))"


# -- distance ----------------------------------------------------------------


def distance_at_least(code: LinearCode, d: int, budget: int = SUBSET_BUDGET) -> bool:
    """True iff no nonzero codeword has weight < d.

    A codeword of weight w < d exists exactly when some w parity columns
    are dependent, and then so is every (d-1)-column set containing them;
    so it checks that every (d-1)-column subset has full column rank.
    Raises InfeasibleCheck when d-1 <= n-k and C(n, d-1) exceeds budget.

    The subsets are walked depth first in lexicographic order.  Each
    chosen column is eliminated once from the residues of the later
    columns, modulo the span of the chosen prefix, so subsets sharing a
    prefix share its elimination; a zero residue refutes every subset
    through that prefix at once.  Each subset is settled by one
    rank_of_rows call on the residue of its last column, so the budget
    still counts rank checks.
    """
    if d <= 1:
        return True
    w = d - 1
    h = code.parity
    if w > h.rows:
        return False  # any rows+1 columns are dependent
    if comb(code.n, w) > budget:
        raise InfeasibleCheck(
            f"C({code.n},{w}) = {comb(code.n, w)} rank checks exceed budget {budget}"
        )
    f = code.field
    n = code.n

    def walk(residues: list[list[int]], start: int, left: int) -> bool:
        # residues[i] is column start + i modulo the span of the chosen prefix
        if left == 1:
            return all(rank_of_rows(f, [r]) == 1 for r in residues)
        for i in range(n - left + 1 - start):
            chosen = residues[i]
            p = next((row for row, e in enumerate(chosen) if e), None)
            if p is None:
                return False
            inv = f.inv_enc(chosen[p])
            chosen_logs = f.row_logs(chosen, p)
            later = []
            for r in residues[i + 1:]:
                if r[p]:
                    factor = f.mul_enc(r[p], inv)
                    r = list(r)
                    f.sub_scaled(r, factor, chosen_logs)
                later.append(r)
            if not walk(later, start + i + 1, left - 1):
                return False
        return True

    return walk([[h.data[i][j] for i in range(h.rows)] for j in range(n)], 0, w)


def min_distance(code: LinearCode) -> int:
    """Exact minimum Hamming weight of nonzero codewords: the first w for
    which distance_at_least(code, w + 1) fails, w = n - k + 1 at the latest
    (Singleton bound)."""
    if code.k == 0:
        raise ValueError("distance of the zero code is undefined")
    return next(w for w in range(1, code.n + 1) if not distance_at_least(code, w + 1))


def grs_certificate(code: LinearCode, d: int) -> bool:
    """True only if code.places prove d(C) >= d.

    code.places holds one field encoding per coordinate, None for the
    place at infinity; places may repeat.  With w = d - 1, fold the
    coordinates that share a place by summing them, and solve
    sum_P v_P a_P^m sum_{j at P} g_ij = 0 over generator rows i and m < w,
    one unknown per distinct place P, infinity's powers being (0, ..., 0, 1).
    Only a kernel basis vector v with no zero entry is accepted, and the
    parity columns at the coordinates R whose place repeats must have rank
    |R|.  Proof: a codeword of weight < d folds to a word of weight < d in
    the dual of the MDS code GRS_w(distinct places, v), of distance d, so
    the folded word is 0; the codeword therefore lives on R, and the rank
    condition makes it 0.  With distinct places R is empty.  False proves
    nothing: it is also the answer for missing or out-of-range places and
    for w > n - k.
    """
    f = code.field
    n, k, w = code.n, code.k, d - 1
    places = code.places
    if places is None or len(places) != n:
        return False
    if any(p is not None and not (isinstance(p, int) and 0 <= p < f.q) for p in places):
        return False
    if w < 1:
        return True
    if w > n - k:
        return False
    count = Counter(places)  # distinct places in first-appearance order
    slot = {p: s for s, p in enumerate(count)}
    folded = [[0] * len(slot) for _ in range(k)]
    for frow, grow in zip(folded, code.generator.data):
        for p, g in zip(places, grow):
            frow[slot[p]] = f.add_enc(frow[slot[p]], g)
    powers = []  # powers[m][s] = a_s^m; infinity's column is (0, ..., 0, 1)
    row = [1] * len(slot)
    for m in range(w):
        powers.append([int(m == w - 1) if p is None else e for p, e in zip(count, row)])
        row = [e if p is None else f.mul_enc(e, p) for p, e in zip(count, row)]
    system = MatQ(f, [
        [f.mul_enc(g, a) for g, a in zip(frow, prow)]
        for frow in folded
        for prow in powers
    ])
    if not any(all(v) for v in system.kernel()):
        return False
    repeated = [j for j, p in enumerate(places) if count[p] > 1]
    h = code.parity.data if repeated else ()
    return rank_of_rows(f, [[hrow[j] for hrow in h] for j in repeated]) == len(repeated)


def is_mds(code: LinearCode) -> bool:
    """d = n - k + 1, proved by grs_certificate when the code's places
    allow it, otherwise verified via (n-k)-column subset ranks."""
    d = code.n - code.k + 1
    return grs_certificate(code, d) or distance_at_least(code, d)


def singleton_lrc_bound(n: int, k: int, r: int, delta: int) -> int:
    """Largest distance an (n, k; (r, delta))-LRC may have."""
    if not (1 <= k <= n) or r < 1 or delta < 2:
        raise ValueError(f"bad LRC parameters n={n} k={k} r={r} delta={delta}")
    return n - k + 1 - (-(-k // r) - 1) * (delta - 1)


def check_locality(code: LinearCode, cert: LocalityCertificate) -> bool:
    """True iff every certified group restricts to distance >= delta."""
    cert.validate(code.n)
    for group in cert.groups:
        restricted = code.generator.submatrix_cols(list(group))
        kernel = restricted.kernel()
        if not kernel:
            return False  # full spread: restricted distance is 1
        local = LinearCode(code.field, parity=MatQ(code.field, kernel))
        if not distance_at_least(local, cert.delta):
            return False
    return True


def is_optimal_lrc(code: LinearCode, cert: LocalityCertificate) -> bool:
    """Locality holds and the distance meets the Singleton-type bound.

    With locality certified, the bound is an upper limit on the distance,
    so proving d >= bound, by grs_certificate or else via subset ranks,
    pins d = bound exactly.
    """
    bound = singleton_lrc_bound(code.n, code.k, cert.r, cert.delta)
    return check_locality(code, cert) and (
        grs_certificate(code, bound) or distance_at_least(code, bound)
    )
