"""Edge weights, component classification, and core trees.

For a vertex x of an oriented tree T and an incident edge e, the weight
w_e(x) is the number of vertices of the component of T - x attached
through e.  Summing over the incident arcs directed into (out of) x gives
the inweight w-(x) (outweight w+(x)).  The Δ-core of T keeps exactly the
vertices all of whose incident edge weights are at most (1 - 1/Δ)·n; it is
a nonempty subtree with maximum degree ≤ Δ whose deleted components have
at most n/Δ vertices each.

All threshold comparisons are exact integer arithmetic; nothing here uses
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import DirectedTree, GraphDefectError, bit_list, bits


# ---------------------------------------------------------------------------
# Weight profile


@dataclass(frozen=True)
class WeightProfile:
    """All edge weights of a tree, with per-vertex in/out weights.

    ``side`` maps the ordered pair (x, y) over each edge {x, y} to w_e(x),
    the size of the component of T - x containing y.
    """

    n: int
    side: dict[tuple[int, int], int]
    in_weight: tuple[int, ...]
    out_weight: tuple[int, ...]

    def edge_weight(self, x: int, y: int) -> int:
        return self.side[(x, y)]


def weight_profile(T: DirectedTree) -> WeightProfile:
    """Compute every w_e(x) by two-pass subtree counting from vertex 0."""
    _, parent, size = T.rooted(0)
    side: dict[tuple[int, int], int] = {}
    for v in range(T.n):
        p = parent[v]
        if p >= 0:
            side[(p, v)] = size[v]
            side[(v, p)] = T.n - size[v]
    in_w = [0] * T.n
    out_w = [0] * T.n
    for u, v in T.arcs:
        # arc u -> v: for v the edge comes in; for u it goes out
        in_w[v] += side[(v, u)]
        out_w[u] += side[(u, v)]
    return WeightProfile(T.n, side, tuple(in_w), tuple(out_w))


# ---------------------------------------------------------------------------
# Components against a subtree


class Hanging(NamedTuple):
    """A component of T - C with its single attaching arc to C."""

    comp: int
    inner: int  # end of the attaching arc in C
    outer: int  # end of the attaching arc in the component
    direction: str  # "out" when the arc runs C -> component, else "in"


def _walk(T: DirectedTree, region: int, C: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Components of T[region] by smallest member, each with its edges into C.

    An edge is listed as (end in C, end in the component).  The walk meets
    every such edge exactly once, from its component end.
    """
    nbrs = T.nbrs
    found: list[tuple[int, list[tuple[int, int]]]] = []
    rest = region
    while rest:
        comp = rest & -rest
        stack = [comp.bit_length() - 1]
        links: list[tuple[int, int]] = []
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                b = 1 << y
                if region & b:
                    if not comp & b:
                        comp |= b
                        stack.append(y)
                elif C & b:
                    links.append((y, x))
        rest &= ~comp
        found.append((comp, links))
    return found


def tree_components(T: DirectedTree, region: int) -> list[int]:
    """Vertex masks of the components of T[region], by smallest member."""
    return [comp for comp, _ in _walk(T, region, 0)]


def hanging_components(T: DirectedTree, C: int) -> list[Hanging]:
    """Components of T - C with their attaching arcs to C.

    Listed by smallest member.  Each component must meet C by exactly one
    tree edge, which holds whenever C is connected; anything else raises
    :class:`GraphDefectError`.
    """
    out: list[Hanging] = []
    for comp, links in _walk(T, ((1 << T.n) - 1) & ~C, C):
        if len(links) != 1:
            raise GraphDefectError(
                f"component {bit_list(comp)} attaches to the subtree by {len(links)} edges"
            )
        ((inner, outer),) = links
        out.append(Hanging(comp, inner, outer, "out" if T.has_arc(inner, outer) else "in"))
    return out


def _check_connected(T: DirectedTree, subset: int) -> None:
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(tree_components(T, subset)) != 1:
        raise ValueError("subset does not induce a connected subtree")


# ---------------------------------------------------------------------------
# Core trees


@dataclass(frozen=True)
class CoreTree:
    """The Δ-core of a tree: vertex set and induced arcs."""

    delta: int
    vertices: int
    arcs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return self.vertices.bit_count()


def core_tree(T: DirectedTree, delta: int) -> CoreTree:
    """Vertices whose incident edge weights are all ≤ (1 - 1/Δ)·n.

    Exact comparison: x is kept iff Δ·w_e(x) ≤ (Δ-1)·n for every incident
    edge e.  The result is validated against its guarantees: nonempty
    connected subtree, maximum underlying degree ≤ Δ, every component of
    T - core of size ≤ n/Δ, and both end-weights of every core edge
    ≥ n/Δ.
    """
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    n = T.n
    prof = weight_profile(T)
    core = 0
    for x in range(n):
        if all(delta * prof.edge_weight(x, y) <= (delta - 1) * n for y in T.neighbours(x)):
            core |= 1 << x
    arcs = tuple((u, v) for u, v in T.arcs if (core >> u) & 1 and (core >> v) & 1)
    result = CoreTree(delta, core, arcs)
    _validate_core(T, prof, result)
    return result


def _validate_core(T: DirectedTree, prof: WeightProfile, core: CoreTree) -> None:
    n = T.n
    if core.vertices == 0:
        raise GraphDefectError("core tree is empty")
    _check_connected(T, core.vertices)
    for x in bits(core.vertices):
        deg = sum(1 for y in T.neighbours(x) if (core.vertices >> y) & 1)
        if deg > core.delta:
            raise GraphDefectError(f"core vertex {x} has degree {deg} > {core.delta}")
    for h in hanging_components(T, core.vertices):
        if core.delta * h.comp.bit_count() > n:
            raise GraphDefectError(
                f"component of size {h.comp.bit_count()} exceeds n/delta"
            )
    for u, v in core.arcs:
        if core.delta * prof.edge_weight(u, v) < n or core.delta * prof.edge_weight(v, u) < n:
            raise GraphDefectError(f"core edge ({u}, {v}) has an end-weight below n/delta")
