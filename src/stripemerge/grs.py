"""Generalized Reed-Solomon codes and prescribed-parity duals.

grs_dual_prescribed realizes the multiplier vector v that makes the
plain power-basis Vandermonde matrix a parity check of GRS_k: v spans
the (one-dimensional) kernel of V_{n-1}(alpha), given with no solve by
dual_multipliers, the classical product formula v_j = prod_{i != j}
(alpha_j - alpha_i)^-1 (MacWilliams & Sloane, ch. 10).

Locators and multipliers are plain int encodings; each function that
takes them from its caller refuses one outside [0, q) (FieldCtx.scalar).
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Optional, Sequence

from .codes import LinearCode
from .field import FieldCtx
from .matrix import vandermonde
from .poly import Poly, poly_from_roots


class GrsSpec:
    __slots__ = ("locators", "k", "multipliers")

    def __init__(self, locators: tuple[int, ...], k: int,
                 multipliers: Optional[tuple[int, ...]] = None):
        self.locators = locators
        self.k = k
        self.multipliers = multipliers

    def validate(self) -> None:
        n = len(self.locators)
        if not 1 <= self.k < n:
            raise ValueError(f"need 1 <= k < n, got k={self.k} n={n}")


def grs_code(field: FieldCtx, spec: GrsSpec, labels: Optional[Sequence[str]] = None) -> LinearCode:
    spec.validate()
    gen = vandermonde(field, spec.k, spec.locators, spec.multipliers)
    return LinearCode(field, generator=gen, labels=labels, places=list(spec.locators))


def annihilator(field: FieldCtx, points: Iterable[int]) -> Poly:
    """Monic polynomial vanishing exactly on the given set of encodings."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("annihilator over a multiset")
    return poly_from_roots(field, pts)


def dual_multipliers(field: FieldCtx, locators: Sequence[int]) -> list[int]:
    """prod_{i != j} (a_j - a_i)^-1 for each encoding a_j of distinct
    locators: the multipliers of the GRS code whose dual is the plain
    evaluation code on them.  Repeated locators raise ValueError."""
    locators = [field.scalar(a) for a in locators]
    if len(set(locators)) != len(locators):
        raise ValueError("repeated locator")
    add, mul = field.add_table, field.mul_table
    minus = [field.neg_enc(b) for b in locators]  # add[a][-b] is a - b
    return [field.inv_enc(reduce(lambda acc, c: mul[acc][add[a][c]], minus[:j] + minus[j + 1:], 1))
            for j, a in enumerate(locators)]


def grs_dual_prescribed(field: FieldCtx, locators: Sequence[int], k: int) -> tuple[int, ...]:
    """Multipliers v such that GRS_k(locators; v) has parity check V_{n-k}(locators).

    The condition is sum_j v_j a_j^m = 0 for all m in [0, n-2], i.e. v spans
    the kernel of V_{n-1}(locators), scaled to a last entry of 1; the
    orthogonality is asserted because a failure here means a bug.
    """
    n = len(locators)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k} n={n}")
    v = dual_multipliers(field, locators)
    times = field.mul_table[field.inv_enc(v[-1])]  # v_{n-1} = 1, as MatQ.kernel has it
    vt = tuple(times[e] for e in v)
    gen = vandermonde(field, k, locators, vt)
    par = vandermonde(field, n - k, locators)
    if not (gen @ par.transpose()).is_zero():
        raise AssertionError("prescribed parity is not orthogonal to the code")
    return vt
