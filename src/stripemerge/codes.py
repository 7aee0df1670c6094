"""Linear block codes over GF(q) with exact verifiers.

A LinearCode carries a generator and/or parity-check matrix plus one
opaque label per coordinate.  Labels are first-class: stripe conversion
is about which physical symbol stays put, and positional indices alone
invite off-by-one corruption when coordinates are reordered or dropped.

Distance verification is exact or it refuses: each strategy has a hard
work budget and raises InfeasibleCheck instead of guessing.  When the
caller knows the evaluation places of a code, is_mds and is_optimal_lrc
first try grs_certificate, one kernel solve that can only prove a
distance: a code inside the dual of GRS_{d-1} on distinct places has
distance at least d.  A failed certificate proves nothing and hands over
to the budgeted subset walk of distance_at_least.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import NoReturn, Optional, Sequence

from .field import FieldCtx, FieldElem
from .matrix import MatQ, rank_of_rows
from .schema import as_int, as_ints, as_list, as_object, within

ENUM_BUDGET = 10 ** 7
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
        # parity rows as packed-kernel rows, built by the first contains
        self._checks: Optional[tuple[tuple[tuple[int, int], ...], ...]] = None

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

    def encode(self, message: Sequence[FieldElem]) -> tuple[FieldElem, ...]:
        if len(message) != self.k:
            raise ValueError(f"message length {len(message)} != k = {self.k}")
        f = self.field
        g = self.generator.data
        out = [0] * self.n
        for i, m in enumerate(message):
            if m.enc == 0:
                continue
            row = g[i]
            for j in range(self.n):
                if row[j]:
                    out[j] = f.add_enc(out[j], f.mul_enc(m.enc, row[j]))
        return tuple(f.element(e) for e in out)

    def contains(self, word: Sequence[FieldElem]) -> bool:
        """True iff every parity row is orthogonal to word.  Raises
        ValueError, naming the coordinate and both fields, for a symbol of
        another field.

        Each parity row is kept as the (coordinate, log coefficient) pairs
        of its nonzeros, built once per code, and summed against the
        word's logs by the field's packed-digit kernel: one integer
        addition per term, and a row passes iff every digit slot of its
        sum is 0 mod p.
        """
        if len(word) != self.n:
            return False
        packed = self.field.packed()
        if self._checks is None:
            self._checks = tuple(packed.row(enumerate(row)) for row in self.parity.data)
        log, f = packed.log, self.field
        logs = [log[w.enc] if w.field is f or w.field == f else _foreign(word, f) for w in word]
        for row in self._checks:
            if packed.dot(row, logs):
                return False
        return True

    def dual(self) -> LinearCode:
        return LinearCode(self.field, generator=self.parity,
                          parity=self.generator, labels=self.labels)

    def restricted_dim(self, gamma: Sequence[int]) -> int:
        cols = sorted(set(gamma))
        return self.generator.submatrix_cols(cols).rank()

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


def _foreign(word: Sequence[FieldElem], field: FieldCtx) -> NoReturn:
    """Raise contains' error for the first symbol of word outside field
    (a function, so that the log comprehension can raise it)."""
    j, w = next((j, w) for j, w in enumerate(word) if w.field != field)
    raise ValueError(f"coordinate {j} is in {w.field}, not {field}")


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
            later = []
            for r in residues[i + 1:]:
                if r[p]:
                    factor = f.mul_enc(r[p], inv)
                    r = [f.sub_enc(e, f.mul_enc(factor, c)) if c else e
                         for e, c in zip(r, chosen)]
                later.append(r)
            if not walk(later, start + i + 1, left - 1):
                return False
        return True

    return walk([[h.data[i][j] for i in range(h.rows)] for j in range(n)], 0, w)


def min_distance(code: LinearCode, strategy: str = "parity_subsets") -> int:
    """Exact minimum Hamming weight of nonzero codewords."""
    if code.k == 0:
        raise ValueError("distance of the zero code is undefined")
    if strategy == "enumerate":
        q = code.field.q
        if q ** code.k > ENUM_BUDGET:
            raise InfeasibleCheck(f"q^k = {q ** code.k} exceeds budget {ENUM_BUDGET}")
        f = code.field
        g = code.generator.data
        best = code.n + 1
        for msg in itertools.product(range(q), repeat=code.k):
            if not any(msg):
                continue
            weight = 0
            for j in range(code.n):
                acc = 0
                for i in range(code.k):
                    if msg[i] and g[i][j]:
                        acc = f.add_enc(acc, f.mul_enc(msg[i], g[i][j]))
                if acc:
                    weight += 1
                    if weight >= best:
                        break
            best = min(best, weight)
            if best == 1:
                return 1
        return best
    if strategy == "parity_subsets":
        # w = n-k+1 always ends the search (Singleton bound)
        return next(w for w in range(1, code.n + 1) if not distance_at_least(code, w + 1))
    raise ValueError(f"unknown strategy {strategy!r}")


def grs_certificate(
    code: LinearCode, places: Optional[Sequence[Optional[int]]], d: int
) -> bool:
    """True only if the code lies in the dual of some GRS_{d-1}(places, v).

    places holds one pairwise-distinct field encoding per coordinate, None
    for the place at infinity.  With w = d - 1, the code lies in the dual
    of GRS_w(places, v) iff sum_j g_ij v_j a_j^m = 0 for every generator
    row i and m < w, where infinity's column of powers is (0, ..., 0, 1).
    That dual is an MDS [n, n-w, w+1] code, so a v with no zero entry
    proves d(C) >= d.  v is taken from the kernel basis of this k*w x n
    system, and only a basis vector with full support is accepted; no
    combination of basis vectors is searched.  False proves nothing: it
    is also the answer for missing, repeated or out-of-range places and
    for w > n - k, where no such v exists.
    """
    f = code.field
    n, k, w = code.n, code.k, d - 1
    if places is None or len(places) != n or len(set(places)) != n:
        return False
    if any(p is not None and not (isinstance(p, int) and 0 <= p < f.q) for p in places):
        return False
    if w < 1:
        return True
    if w > n - k:
        return False
    powers = []  # powers[m][j] = a_j^m; infinity's column is (0, ..., 0, 1)
    row = [1] * n
    for m in range(w):
        powers.append([int(m == w - 1) if p is None else e for p, e in zip(places, row)])
        row = [e if p is None else f.mul_enc(e, p) for p, e in zip(places, row)]
    system = MatQ(f, [
        [f.mul_enc(g, a) for g, a in zip(grow, prow)]
        for grow in code.generator.data
        for prow in powers
    ])
    return any(all(v) for v in system.kernel())


def is_mds(code: LinearCode, places: Optional[Sequence[Optional[int]]] = None) -> bool:
    """d = n - k + 1, proved by grs_certificate when places are given and
    it succeeds, otherwise verified via (n-k)-column subset ranks."""
    d = code.n - code.k + 1
    return grs_certificate(code, places, d) or distance_at_least(code, d)


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


def is_optimal_lrc(
    code: LinearCode,
    cert: LocalityCertificate,
    places: Optional[Sequence[Optional[int]]] = None,
) -> bool:
    """Locality holds and the distance meets the Singleton-type bound.

    With locality certified, the bound is an upper limit on the distance,
    so proving d >= bound, by grs_certificate or else via subset ranks,
    pins d = bound exactly.
    """
    bound = singleton_lrc_bound(code.n, code.k, cert.r, cert.delta)
    return check_locality(code, cert) and (
        grs_certificate(code, places, bound) or distance_at_least(code, bound)
    )
