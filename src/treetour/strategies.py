"""The portfolio driver and the directed-path order it dispatches on.

* ``portfolio_embed`` — greedy, path and out-/in-branching
  specialisations, then complete search on hosts of at most
  ``EXHAUSTIVE_MAX_N`` vertices.  NotFound is only ever produced by a
  completed exhaustive search.
* ``directed_path_order`` — the source-to-sink order of a directed-path
  tree, kept on the tree beside its search plan.
"""

from __future__ import annotations

from .graphs import (
    DirectedTree,
    GraphDefectError,
    Tournament,
    is_valid_embedding,
)
from .search import (
    BUDGET_EXHAUSTED,
    DEFAULT_NODE_BUDGET,
    FOUND,
    NOT_FOUND,
    EmbedOutcome,
    embed_outbranching,
    exhaustive_embed,
    greedy_embed,
    redei_path,
)

__all__ = [
    "portfolio_embed",
    "directed_path_order",
]


# ---------------------------------------------------------------------------
# Portfolio driver

def directed_path_order(T: DirectedTree) -> list[int] | None:
    """The source-to-sink vertex order if T is a directed path, else None.

    It depends on the tree alone, so it is computed once per tree object
    and kept in ``T.path_order``, beside the tree's search plan.
    """
    if T.path_order is None:
        T.path_order = _path_order(T)
    return list(T.path_order) if T.path_order else None


def _path_order(T: DirectedTree) -> tuple[int, ...]:
    if max(map(len, T.out_nbrs)) > 1 or max(map(len, T.in_nbrs)) > 1:
        return ()
    sources = [v for v in range(T.n) if not T.in_nbrs[v]]
    if len(sources) != 1:
        return ()
    order = [sources[0]]
    while T.out_nbrs[order[-1]]:
        order.append(T.out_nbrs[order[-1]][0])
    return tuple(order) if len(order) == T.n else ()


EXHAUSTIVE_MAX_N = 26


def portfolio_embed(
    T: DirectedTree, G: Tournament, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> EmbedOutcome:
    """Dispatch driver over the embedding stages that campaigns reach.

    Stages, in order: pigeonhole size check; directed-path specialisation
    along a Rédei path; one greedy pass; outbranching embedder (on T or on
    the reversed pair when T is an in-branching, hosts of at least 2|T|-2
    vertices); complete search within ``node_budget`` nodes when the host
    has at most ``EXHAUSTIVE_MAX_N`` vertices.  The first embedding wins
    and the outcome's notes name the winning stage; NotFound is only
    produced by a completed exhaustive search (or an impossible size).

    Each embedding is validated once: the greedy, outbranching and
    exhaustive stages check their own maps and raise
    :class:`GraphDefectError` on an invalid one, and the Rédei-path map,
    built here, is checked here.  Campaigns check every embedding once
    more, with the same :func:`~treetour.graphs.is_valid_embedding`, so
    that re-check is not independent of these stages; a checker that
    shares no code with them is ROADMAP item 12.  A ``node_budget``
    below 1 is a ValueError.
    """
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")
    if T.n > G.n:
        return EmbedOutcome(
            NOT_FOUND, None, 0, "portfolio", ("host smaller than tree",)
        )

    path = directed_path_order(T)
    if path is not None:
        spine = redei_path(G)
        phi = {path[i]: spine[i] for i in range(T.n)}
        if not is_valid_embedding(T, G, phi):
            raise GraphDefectError("portfolio stage redei-path produced an invalid map")
        return EmbedOutcome(FOUND, phi, 0, "portfolio/redei-path", ("found by redei-path",))

    # Every stage builds a fresh map, so a win keeps it, uncopied.
    out = greedy_embed(T, G)
    nodes = out.nodes
    if out.found:
        return EmbedOutcome(FOUND, out.embedding, nodes, "portfolio/greedy", ("found by greedy",))
    notes = ["greedy: no admissible completion"]

    def won(phi: dict[int, int] | None, stage: str) -> EmbedOutcome:
        notes.append(f"found by {stage}")
        return EmbedOutcome(FOUND, phi, nodes, f"portfolio/{stage}", tuple(notes))

    if G.n >= 2 * T.n - 2:
        if T.is_outbranching():
            stage, ob = "outbranching", embed_outbranching(T, G)
        else:
            R = T.reverse()
            stage = "inbranching-by-reversal"
            ob = embed_outbranching(R, G.reverse()) if R.is_outbranching() else None
        if ob is not None:
            nodes += ob.nodes
            if ob.found:
                return won(ob.embedding, stage)
            notes.append(f"{stage}: failed")

    if G.n <= EXHAUSTIVE_MAX_N:
        full = exhaustive_embed(T, G, node_budget=node_budget)
        nodes += full.nodes
        if full.found:
            return won(full.embedding, "exhaustive")
        if full.verdict == NOT_FOUND:
            notes.append("exhaustive search completed: no embedding exists")
            return EmbedOutcome(NOT_FOUND, None, nodes, "portfolio", tuple(notes))
        notes.append("exhaustive: node budget exhausted")
    else:
        notes.append(f"exhaustive: host exceeds cap {EXHAUSTIVE_MAX_N}")
    return EmbedOutcome(BUDGET_EXHAUSTED, None, nodes, "portfolio", tuple(notes))
