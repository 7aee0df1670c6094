"""Replay a conversion plan against a cluster layout.

The simulator is trace-driven from the conversion plan
(ConvertibleCode.plan), the same map execute applies: its storage reads
and written coordinates are charged to the nodes that hold them, so one
map is the single source of truth for access accounting.
Unchanged symbols are keyed by their coordinate label, which the final
stripe shares with the originating initial stripe; they generate no I/O
and stay on their node.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .convert import AccessReport, ConvertibleCode, execute
from .field import FieldElem
from .schema import as_list, as_object


class ClusterLayout:
    """Placement of every stored symbol, by coordinate label."""

    __slots__ = ("nodes", "placement")

    def __init__(self, nodes: tuple[str, ...], placement: dict):
        self.nodes = nodes
        self.placement = placement

    def node_of(self, label: str) -> str:
        try:
            return self.placement[label]
        except KeyError:
            raise ValueError(f"coordinate {label!r} is not placed on any node") from None

    def validate(self, cc: ConvertibleCode) -> None:
        for lab in _stored_labels(cc):
            node = self.node_of(lab)
            if node not in self.nodes:
                raise ValueError(f"{lab!r} placed on unknown node {node!r}")

    def to_obj(self) -> dict:
        return {"nodes": list(self.nodes), "placement": dict(self.placement)}

    @classmethod
    def from_obj(cls, obj: dict) -> ClusterLayout:
        obj = as_object(obj, "layout")
        nodes = tuple(as_list(obj["nodes"], "layout.nodes"))
        if not all(isinstance(n, str) for n in nodes):
            raise ValueError(f"layout.nodes must hold strings, got {list(nodes)!r}")
        return cls(nodes, dict(as_object(obj["placement"], "layout.placement")))


def _stored_labels(cc: ConvertibleCode) -> list[str]:
    """The labels a layout places: every initial symbol, then every
    written final symbol."""
    return [lab for code in cc.initials for lab in code.labels] + [
        cc.final.labels[w] for w in cc.plan.written
    ]


def layout_single_node(cc: ConvertibleCode) -> ClusterLayout:
    return ClusterLayout(("node0",), {lab: "node0" for lab in _stored_labels(cc)})


def layout_one_per_symbol(cc: ConvertibleCode) -> ClusterLayout:
    placement = {lab: f"n:{lab}" for lab in _stored_labels(cc)}
    return ClusterLayout(tuple(sorted(set(placement.values()))), placement)


class SimReport:
    __slots__ = ("per_node", "totals", "unchanged_in_place")

    def __init__(self, per_node: dict, totals: AccessReport, unchanged_in_place: bool):
        self.per_node = per_node
        self.totals = totals
        self.unchanged_in_place = unchanged_in_place

    def to_obj(self) -> dict:
        return {
            "per_node": {n: dict(io) for n, io in self.per_node.items()},
            "totals": self.totals.to_obj(),
            "unchanged_in_place": self.unchanged_in_place,
        }


def simulate(
    cc: ConvertibleCode,
    layout: ClusterLayout,
    words: Optional[Sequence[Sequence[FieldElem]]] = None,
) -> SimReport:
    """Replay one conversion; returns per-node read/write counts.

    When codewords are supplied the conversion actually runs (values are
    checked); the I/O trace itself is static, so words may be omitted.
    """
    layout.validate(cc)
    if words is not None:
        execute(cc, words)
    per_node: dict = {n: {"reads": 0, "writes": 0} for n in layout.nodes}
    for code, coords in zip(cc.initials, cc.plan.storage):
        for c in coords:
            per_node[layout.node_of(code.labels[c])]["reads"] += 1
    for w in cc.plan.written:
        per_node[layout.node_of(cc.final.labels[w])]["writes"] += 1
    totals = cc.plan.access
    if sum(io["reads"] for io in per_node.values()) != totals.read_cost:
        raise AssertionError("per-node reads do not sum to the read cost")
    if sum(io["writes"] for io in per_node.values()) != totals.write_cost:
        raise AssertionError("per-node writes do not sum to the write cost")
    in_place = True
    for i, pairs in enumerate(cc.plan.unchanged):
        for src, dst in pairs:
            if layout.node_of(cc.initials[i].labels[src]) != layout.node_of(
                cc.final.labels[dst]
            ):
                in_place = False
    return SimReport(per_node=per_node, totals=totals, unchanged_in_place=in_place)
