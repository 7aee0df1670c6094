"""Linear block codes over GF(q) with exact verifiers.

A LinearCode carries a generator and/or parity-check matrix plus one
opaque label per coordinate.  Labels are first-class: stripe conversion
is about which physical symbol stays put, and positional indices alone
invite off-by-one corruption when coordinates are reordered or dropped.

Distance verification is exact or it refuses: each strategy has a hard
work budget and raises InfeasibleCheck instead of guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .field import FieldCtx, FieldElem
from .matrix import MatQ, rank_of_rows

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
        return cls(obj["r"], obj["delta"], tuple(tuple(g) for g in obj["groups"]))


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
        if len(word) != self.n:
            return False
        f = self.field
        for row in self.parity.data:
            acc = 0
            for j, w in enumerate(word):
                if row[j] and w.enc:
                    acc = f.add_enc(acc, f.mul_enc(row[j], w.enc))
            if acc != 0:
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
        if self._generator is not None:
            obj["generator"] = self._generator.to_obj()
        if self._parity is not None:
            obj["parity"] = self._parity.to_obj()
        return obj

    @classmethod
    def from_obj(cls, field: FieldCtx, obj: dict) -> LinearCode:
        gen = MatQ.from_obj(field, obj["generator"]) if "generator" in obj else None
        par = MatQ.from_obj(field, obj["parity"]) if "parity" in obj else None
        return cls(field, generator=gen, parity=par, labels=obj.get("labels"))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.q}))"


# -- distance ----------------------------------------------------------------


def distance_at_least(code: LinearCode, d: int, budget: int = SUBSET_BUDGET) -> bool:
    """True iff no nonzero codeword has weight < d.

    A codeword of weight w < d exists exactly when some w parity columns
    are dependent, and then so is every (d-1)-column set containing them;
    so it checks that every (d-1)-column subset has full column rank.
    Raises InfeasibleCheck when d-1 <= n-k and C(n, d-1) exceeds budget.
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
    cols = [[h.data[i][j] for i in range(h.rows)] for j in range(code.n)]
    return all(
        rank_of_rows(code.field, [cols[j] for j in combo]) == w
        for combo in itertools.combinations(range(code.n), w)
    )


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


def is_mds(code: LinearCode) -> bool:
    """d = n - k + 1, verified via (n-k)-column subset ranks."""
    return distance_at_least(code, code.n - code.k + 1)


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
    so verifying d >= bound via subset ranks pins d = bound exactly.
    """
    bound = singleton_lrc_bound(code.n, code.k, cert.r, cert.delta)
    return check_locality(code, cert) and distance_at_least(code, bound)
