"""Generalized Reed-Solomon codes and prescribed-parity duals.

grs_dual_prescribed realizes the multiplier vector v that makes the
plain power-basis Vandermonde matrix a parity check of GRS_k: v spans
the (one-dimensional) kernel of V_{n-1}(alpha), found by a linear solve
rather than the classical product formula — the solve is easier to
verify and existence is all that is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .codes import LinearCode
from .field import FieldCtx, FieldElem
from .matrix import vandermonde
from .poly import Poly, poly_from_roots


@dataclass(frozen=True)
class GrsSpec:
    locators: tuple[FieldElem, ...]
    k: int
    multipliers: Optional[tuple[FieldElem, ...]] = None

    def validate(self) -> None:
        n = len(self.locators)
        if not 1 <= self.k < n:
            raise ValueError(f"need 1 <= k < n, got k={self.k} n={n}")


def grs_code(field: FieldCtx, spec: GrsSpec, labels: Optional[Sequence[str]] = None) -> LinearCode:
    spec.validate()
    gen = vandermonde(field, spec.k, spec.locators, spec.multipliers)
    return LinearCode(field, generator=gen, labels=labels, places=[a.enc for a in spec.locators])


def annihilator(field: FieldCtx, points: Iterable[FieldElem]) -> Poly:
    """Monic polynomial vanishing exactly on the given set."""
    pts = list(points)
    if len({a.enc for a in pts}) != len(pts):
        raise ValueError("annihilator over a multiset")
    return poly_from_roots(field, pts)


def grs_dual_prescribed(field: FieldCtx, locators: Sequence[FieldElem], k: int) -> tuple[FieldElem, ...]:
    """Multipliers v such that GRS_k(locators; v) has parity check V_{n-k}(locators).

    The condition is sum_j v_j a_j^m = 0 for all m in [0, n-2], i.e. v spans
    the kernel of V_{n-1}(locators).  Every v_j is nonzero; both facts are
    asserted because a failure here means a bug, not bad input.
    """
    n = len(locators)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k} n={n}")
    big = vandermonde(field, n - 1, locators)
    kernel = big.kernel()
    if len(kernel) != 1:
        raise AssertionError("Vandermonde kernel is not one-dimensional")
    v = kernel[0]
    if any(e == 0 for e in v):
        raise AssertionError("prescribed dual produced a zero multiplier")
    vt = tuple(field.element(e) for e in v)
    gen = vandermonde(field, k, locators, vt)
    par = vandermonde(field, n - k, locators)
    if not (gen @ par.transpose()).is_zero():
        raise AssertionError("prescribed parity is not orthogonal to the code")
    return vt
