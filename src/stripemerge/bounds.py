"""Access-cost lower bounds for merging t stripes into one.

All formulas are pure integer arithmetic over the merge parameters; the
one place a non-integer can appear (the specialized locality bound with
repair-group-aligned dimensions) uses exact fractions and refuses
non-integral inputs rather than rounding.

read_lower takes |U_i \\ R_i| as an input because the per-plan bound
depends on the plan; total_lower composes the plan-free variant.  Both
are kept so neither statement is conflated with the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from .codes import LinearCode, LocalityCertificate, singleton_lrc_bound
from .matrix import rank_of_rows
from .schema import as_int, as_ints, as_object


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _locality_term(k_final: int, k_i: int, r: int, delta: int) -> int:
    """(ceil((k_F - k_i)/r) - 1)(delta - 1), clamped to 0 for the degenerate
    single-stripe case k_i = k_F (the bounds assume at least two stripes)."""
    return (max(ceil_div(k_final - k_i, r), 1) - 1) * (delta - 1)


@dataclass(frozen=True)
class MergeParams:
    """Shapes of one merge conversion: t initial codes into one final code."""

    k_initial: tuple[int, ...]
    n_initial: tuple[int, ...]
    n_final: int
    k_final: int
    d_final: int
    r: int
    delta: int

    def __post_init__(self) -> None:
        if len(self.k_initial) != len(self.n_initial) or not self.k_initial:
            raise ValueError("need matching nonempty k/n sequences")
        if sum(self.k_initial) != self.k_final:
            raise ValueError("initial dimensions must sum to the final dimension")
        if any(k < 1 for k in self.k_initial) or any(
            n <= k for n, k in zip(self.n_initial, self.k_initial)
        ):
            raise ValueError("each initial code needs 1 <= k < n")
        if self.d_final < 1 or self.k_final < 1 or self.n_final <= self.k_final:
            raise ValueError("final code needs d >= 1 and k < n")
        if self.r < 1 or self.delta < 2:
            raise ValueError("locality needs r >= 1 and delta >= 2")

    @property
    def t(self) -> int:
        return len(self.k_initial)

    @property
    def l_final(self) -> int:
        return self.n_final - self.k_final

    def to_obj(self) -> dict:
        return {
            "k_initial": list(self.k_initial),
            "n_initial": list(self.n_initial),
            "n_final": self.n_final,
            "k_final": self.k_final,
            "d_final": self.d_final,
            "r": self.r,
            "delta": self.delta,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> MergeParams:
        obj = as_object(obj, "params")
        return cls(
            as_ints(obj["k_initial"], "k_initial"),
            as_ints(obj["n_initial"], "n_initial"),
            *(as_int(obj[key], key) for key in ("n_final", "k_final", "d_final", "r", "delta")),
        )


@dataclass(frozen=True)
class BoundReport:
    min_write: int
    min_read: int
    per_initial: tuple[dict, ...] = dc_field(default_factory=tuple)
    default_optimal: bool = False

    @property
    def min_total(self) -> int:
        return self.min_write + self.min_read

    def to_obj(self) -> dict:
        return {
            "min_write": self.min_write,
            "min_read": self.min_read,
            "min_total": self.min_total,
            "per_initial": list(self.per_initial),
            "default_optimal": self.default_optimal,
        }


def mds_merge_lower(params: MergeParams) -> BoundReport:
    """Floor for all-MDS merges: write l_F, read l_F or k_i per initial."""
    l_f = params.l_final
    read = 0
    detail = []
    for k_i, n_i in zip(params.k_initial, params.n_initial):
        l_i = n_i - k_i
        contribution = l_f if l_f <= min(k_i, l_i) else k_i
        read += contribution
        detail.append({"read_floor": contribution})
    return BoundReport(
        min_write=l_f,
        min_read=read,
        per_initial=tuple(detail),
        default_optimal=(read == params.k_final),
    )


def unchanged_upper(params: MergeParams, i: int) -> int:
    """Most symbols of initial i that can survive into the final stripe."""
    k_i = params.k_initial[i]
    return (
        k_i
        + params.n_final
        - params.k_final
        - params.d_final
        + 1
        - _locality_term(params.k_final, k_i, params.r, params.delta)
    )


def read_lower(params: MergeParams, i: int, unchanged_minus_read: int) -> int:
    """Fewest reads from initial i, given |U_i \\ R_i| of the plan in force."""
    k_i, n_i = params.k_initial[i], params.n_initial[i]
    if params.d_final > n_i - k_i + 1:
        return k_i
    gap = unchanged_minus_read - params.d_final + 1
    if gap <= 0:
        return k_i
    return k_i - gap + (params.delta - 1) * (gap // (params.r + params.delta - 1))


def total_lower(params: MergeParams) -> BoundReport:
    """Plan-free floors on total write and read cost: each initial keeps
    at most unchanged_upper symbols, so the rest of the final stripe is
    written, and read_lower holds with |U_i \\ R_i| at that ceiling."""
    ceilings = [unchanged_upper(params, i) for i in range(params.t)]
    min_write = params.n_final - sum(ceilings)
    detail = [
        {
            "delta_tilde": ceiling - params.d_final + 1,
            "read_floor": read_lower(params, i, ceiling),
            "unchanged_ceiling": ceiling,
        }
        for i, ceiling in enumerate(ceilings)
    ]
    min_read = sum(d["read_floor"] for d in detail)
    return BoundReport(
        min_write=min_write,
        min_read=min_read,
        per_initial=tuple(detail),
        default_optimal=(min_read == params.k_final),
    )


def rdel_lower(params: MergeParams) -> BoundReport:
    """Specialized floors when k_i = m_i * r and the final code is an
    optimal (r, delta)-LRC; exact-fraction arithmetic, integrality asserted."""
    r, delta = params.r, params.delta
    group = r + delta - 1
    if any(k_i % r for k_i in params.k_initial):
        raise ValueError("every initial dimension must be a multiple of r")
    m = [k_i // r for k_i in params.k_initial]
    expected_d = singleton_lrc_bound(params.n_final, params.k_final, r, delta)
    if params.d_final != expected_d:
        raise ValueError(
            f"final code is not an optimal LRC: d = {params.d_final}, bound = {expected_d}"
        )
    min_write = params.n_final - group * sum(m)
    nf_over_group = Fraction(params.n_final, group)
    min_read = Fraction(params.k_final)
    detail = []
    for i, (m_i, n_i, k_i) in enumerate(zip(m, params.n_initial, params.k_initial)):
        active = (-nf_over_group + m_i + Fraction(params.k_final, r) > 0) and (
            params.d_final <= n_i - k_i + 1
        )
        term = Fraction(0)
        if active:
            term = params.k_final + r * m_i - r * nf_over_group
            min_read -= term
        detail.append({"m": m_i, "subtracted": term})
    if min_read.denominator != 1:
        raise ValueError(
            "read floor is non-integral; the specialized bound needs "
            "(r + delta - 1) | n_F"
        )
    read_int = int(min_read)
    return BoundReport(
        min_write=min_write,
        min_read=read_int,
        per_initial=tuple(
            {"m": d["m"], "subtracted": str(d["subtracted"])} for d in detail
        ),
        default_optimal=(read_int == params.k_final),
    )


def rdel_lower_simplified(params: MergeParams) -> BoundReport:
    """Same floors via the closed form for n_F = (r+delta-1)(sum m_i + ell)."""
    r, delta = params.r, params.delta
    group = r + delta - 1
    if any(k_i % r for k_i in params.k_initial):
        raise ValueError("every initial dimension must be a multiple of r")
    m = [k_i // r for k_i in params.k_initial]
    if params.n_final % group:
        raise ValueError("n_F is not a multiple of r + delta - 1")
    ell = params.n_final // group - sum(m)
    if ell < 0:
        raise ValueError("n_F smaller than the unchanged payload")
    min_write = group * ell
    min_read = 0
    for m_i, n_i, k_i in zip(m, params.n_initial, params.k_initial):
        if m_i <= ell or params.d_final > n_i - k_i + 1:
            min_read += r * m_i
        else:
            min_read += r * ell
    return BoundReport(
        min_write=min_write,
        min_read=min_read,
        default_optimal=(min_read == params.k_final),
    )


# -- constructive generation-set builder --------------------------------------


def redundant_cover_sets(
    cert: LocalityCertificate,
    code: LinearCode,
    s_set: Sequence[int],
    delta_cap: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy (A, T) with A ⊆ S ∩ T, |A| = (δ-1)⌊Δ/(r+δ-1)⌋, |S ∩ T| ≤ Δ,
    and the restriction to T generated by the restriction to T \\ A.

    Tie-breaking is fixed: groups in certificate order, coordinates
    ascending within a group.  All three postconditions are re-checked
    before returning.
    """
    cert.validate(code.n)
    s = set(s_set)
    if not 1 <= delta_cap <= len(s):
        raise ValueError("need 1 <= Delta <= |S|")
    delta = cert.delta
    group = cert.r + delta - 1
    target_blocks = delta_cap // group

    groups = [tuple(sorted(g)) for g in cert.groups]
    s_parts = [tuple(c for c in g if c in s) for g in groups]
    q_parts: list[tuple[int, ...]] = []
    covered: set[int] = set()
    for part in s_parts:
        fresh = tuple(c for c in part if c not in covered)
        q_parts.append(fresh if len(fresh) < delta - 1 else fresh[: delta - 1])
        covered.update(part)
    full = [j for j, qp in enumerate(q_parts) if len(qp) == delta - 1]
    small = [j for j in range(len(groups)) if j not in full]

    a_set: set[int] = set()
    t_set: set[int] = set()
    if len(full) >= target_blocks:
        for j in full[:target_blocks]:
            a_set.update(q_parts[j])
            t_set.update(groups[j])
    else:
        for j in full:
            a_set.update(q_parts[j])
            t_set.update(groups[j])
        want = (delta - 1) * target_blocks
        for j in small:
            if len(a_set) >= want:
                break
            take = tuple(q_parts[j])[: want - len(a_set)]
            if len(take) == len(q_parts[j]):
                a_set.update(take)
                t_set.update(groups[j])
            else:
                a_set.update(take)
                t_set.update(set(groups[j]) - set(q_parts[j]))
                t_set.update(take)
    a = tuple(sorted(a_set))
    t = tuple(sorted(t_set))

    if len(a) != (delta - 1) * target_blocks:
        raise AssertionError("generated-set size mismatch")
    if not a_set <= (s & t_set):
        raise AssertionError("A not inside S and T")
    if len(s & t_set) > delta_cap:
        raise AssertionError("S-overlap exceeds Delta")
    gen = code.generator
    cols_t = [c for c in t]
    cols_ta = [c for c in t if c not in a_set]
    cols = [[gen.data[i][j] for i in range(gen.rows)] for j in range(code.n)]
    if rank_of_rows(code.field, [cols[j] for j in cols_ta]) != rank_of_rows(
        code.field, [cols[j] for j in cols_t]
    ):
        raise AssertionError("restriction to T is not generated without A")
    return a, t
