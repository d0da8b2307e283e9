"""Base embedding procedures.

- :func:`exhaustive_embed`: complete backtracking search inside a host
  region, within a node budget; its NotFound is a non-existence
  certificate (used to certify sharpness constructions).
- :func:`redei_path`: Hamiltonian directed path by first-beat insertion;
  a vertex that beats no placed vertex (one mask test) is appended
  without a scan.
- :func:`median_order`: orderings maximizing forward arcs, exact (subset
  DP, n ≤ 20) or local search: first-improvement single-vertex moves on
  a column-major sign matrix, each move's target read off the prefix sums
  of one row; after a move only the earlier vertices it can have given a
  move are re-checked, never the whole order from position 0.
- :func:`embed_outbranching`: median-order-guided greedy embedding of
  outbranchings into hosts with ≥ 2|T|-2 vertices; a miss is
  BudgetExhausted, with no search behind it.
- :func:`greedy_embed`: fast incomplete first attempt inside a host
  region, used by the structured strategies before the complete search;
  a candidate's residual in-degree is read off its out-degree (ro + ri
  is the same for every candidate), so a candidate costs one AND and one
  popcount, and the scan stops at the first candidate scoring the most
  any can.

The two searches take one constraint, ``region``: a host bitmask that
holds every image (default: all of G).  The strategies place each tree
component inside such a region.

All searches are deterministic: tree vertices are processed in BFS order
from the tree's 2-core vertex (the centroid), candidate images ascending.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate

from .graphs import (
    DirectedTree,
    GraphDefectError,
    Tournament,
    bits,
    full_mask,
    is_valid_embedding,
)
from .weights import core_tree

DEFAULT_NODE_BUDGET = 10_000_000

FOUND = "found"
NOT_FOUND = "not_found"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class EmbedOutcome:
    """Result of an embedding attempt.

    ``verdict`` is one of ``"found"``, ``"not_found"``,
    ``"budget_exhausted"``.  A Found outcome carries a valid embedding;
    NotFound is only ever produced by a completed exhaustive search.
    """

    verdict: str
    embedding: dict[int, int] | None
    nodes: int
    strategy: str
    notes: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.verdict == FOUND


def _region_mask(G: Tournament, region: int | None) -> int:
    """The host region as a mask; None means all of G."""
    everything = full_mask(G.n)
    if region is None:
        return everything
    if region < 0 or region & ~everything:
        raise ValueError(f"region {region:#x} is not a set of {G.n} host vertices")
    return region


def _search_plan(
    T: DirectedTree,
) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...], tuple[int, ...], tuple[int, ...]]:
    """BFS order from the smallest-id 2-core vertex (a centroid), with per
    position (parent position, direction), plus future out/in needs.

    direction "out" means the tree arc runs parent -> vertex.  The plan
    depends on the tree alone, so it is built once per tree object, kept
    in ``T.plan`` and shared by every host; its parts are tuples.
    """
    if T.plan is not None:
        return T.plan
    root = next(bits(core_tree(T, 2).vertices))
    order, parent, _ = T.rooted(root)
    pos = [0] * T.n
    for i, v in enumerate(order):
        pos[v] = i
    parents: list[tuple[int, str]] = [(-1, "")]
    for v in order[1:]:
        w = parent[v]
        parents.append((pos[w], "out" if T.has_arc(w, v) else "in"))
    out_need = [0] * T.n
    in_need = [0] * T.n
    for v in order:
        out_need[v] = sum(1 for w in T.out_nbrs[v] if pos[w] > pos[v])
        in_need[v] = sum(1 for w in T.in_nbrs[v] if pos[w] > pos[v])
    T.plan = (tuple(order), tuple(parents), tuple(out_need), tuple(in_need))
    return T.plan


def _candidate_mask(
    G: Tournament,
    region: int,
    used: int,
    parent_dir: str,
    parent_image: int,
) -> int:
    m = region & ~used
    if parent_dir == "out":
        m &= G.out_rows[parent_image]
    elif parent_dir == "in":
        m &= G.in_rows[parent_image]
    return m


def exhaustive_embed(
    T: DirectedTree,
    G: Tournament,
    *,
    region: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> EmbedOutcome:
    """Complete backtracking search for an embedding of T into G[region].

    ``region`` is a host bitmask (default: all of G) holding every image;
    the degree look-ahead still counts unused vertices of the whole host.
    Found outcomes are valid and inside the region; NotFound means no
    embedding into the region exists; BudgetExhausted means the search
    took more than ``node_budget`` nodes.  A region with host ids outside
    ``0 .. G.n-1`` raises ValueError.
    """
    region = _region_mask(G, region)
    order, parents, out_need, in_need = _search_plan(T)
    if T.n > region.bit_count():
        return EmbedOutcome(NOT_FOUND, None, 0, "exhaustive", ("too few available vertices",))

    n_t = T.n
    nodes = 0
    images = [0] * n_t
    used = 0
    cand: list[int] = [0] * n_t
    out_rows, in_rows = G.out_rows, G.in_rows

    level = 0
    cand[0] = region
    while True:
        if cand[level]:
            low = cand[level] & -cand[level]
            cand[level] ^= low
            g = low.bit_length() - 1
            nodes += 1
            if nodes > node_budget:
                return EmbedOutcome(BUDGET_EXHAUSTED, None, nodes, "exhaustive")
            free = ~(used | low)
            u = order[level]
            if (out_rows[g] & free).bit_count() < out_need[u]:
                continue
            if (in_rows[g] & free).bit_count() < in_need[u]:
                continue
            images[level] = g
            if level + 1 == n_t:
                mapping = {order[i]: images[i] for i in range(n_t)}
                if not is_valid_embedding(T, G, mapping):  # pragma: no cover
                    raise GraphDefectError("search produced an invalid embedding")
                return EmbedOutcome(FOUND, mapping, nodes, "exhaustive")
            used |= low
            level += 1
            ppos, pdir = parents[level]
            cand[level] = _candidate_mask(G, region, used, pdir, images[ppos])
        else:
            if level == 0:
                return EmbedOutcome(NOT_FOUND, None, nodes, "exhaustive")
            level -= 1
            used &= ~(1 << images[level])
    raise AssertionError("unreachable")  # pragma: no cover


def greedy_embed(T: DirectedTree, G: Tournament, *, region: int | None = None) -> EmbedOutcome:
    """One greedy pass into G[region], no backtracking; incomplete by design.

    ``region`` is a host bitmask (default: all of G) holding every image.
    Each tree vertex takes the admissible image maximizing the smaller of
    its residual out/in neighbourhood sizes over the whole host (ties to
    the smallest id).  An unused candidate g has every other unused vertex
    as exactly one of an out- or in-neighbour, so its residual sizes
    satisfy ro + ri = rest, the number of unused vertices besides g, which
    is the same for every candidate at a level.  A candidate therefore
    costs one AND and one popcount (ro), and no candidate scores more than
    rest // 2: the scan stops at the first one that does, since a later
    one could only tie.  Returns Found or BudgetExhausted, never NotFound.
    A region with host ids outside ``0 .. G.n-1`` raises ValueError.
    """
    region = _region_mask(G, region)
    order, parents, out_need, in_need = _search_plan(T)
    if T.n > region.bit_count():
        return EmbedOutcome(BUDGET_EXHAUSTED, None, 0, "greedy", ("too few available vertices",))
    out_rows = G.out_rows
    images: list[int] = []
    used = 0
    rest = G.n - 1
    nodes = 0
    for level, u in enumerate(order):
        ppos, pdir = parents[level]
        m = _candidate_mask(G, region, used, pdir, images[ppos] if level else 0)
        free = ~used
        min_ro = out_need[u]
        max_ro = rest - in_need[u]
        top = rest // 2
        best_g = -1
        best_score = -1
        while m:
            low = m & -m
            m ^= low
            g = low.bit_length() - 1
            ro = (out_rows[g] & free).bit_count()
            if ro < min_ro or ro > max_ro:
                continue
            score = ro if ro + ro <= rest else rest - ro
            if score > best_score:
                best_score = score
                best_g = g
                if score == top:
                    break
        nodes += 1
        if best_g < 0:
            return EmbedOutcome(BUDGET_EXHAUSTED, None, nodes, "greedy", ("dead end",))
        images.append(best_g)
        used |= 1 << best_g
        rest -= 1
    mapping = {order[i]: images[i] for i in range(T.n)}
    if not is_valid_embedding(T, G, mapping):  # pragma: no cover
        raise GraphDefectError("greedy produced an invalid embedding")
    return EmbedOutcome(FOUND, mapping, nodes, "greedy")


# ---------------------------------------------------------------------------
# Redei paths and median orders


def redei_path(G: Tournament) -> list[int]:
    """A Hamiltonian directed path by first-beat insertion (Rédei's theorem).

    Vertices are inserted in id order: v goes before the first path vertex
    it beats, else at the end, so order[i] -> order[i+1] for all i.  The
    placed vertices are 0..v-1, so one mask test tells whether v beats any
    of them; if not, v is appended without a scan.  Transitive hosts take
    no scan at all; other hosts scan the path up to the first vertex v
    beats, which is O(n²) comparisons in the worst case.
    """
    order: list[int] = []
    for v, row in enumerate(G.out_rows):
        if row & ((1 << v) - 1):
            for i, w in enumerate(order):
                if (row >> w) & 1:
                    order.insert(i, v)
                    break
        else:
            order.append(v)
    for a, b in zip(order, order[1:]):
        if not G.has_arc(a, b):  # pragma: no cover
            raise GraphDefectError("insertion produced a non-path")
    return order


def forward_arc_count(G: Tournament, order: list[int]) -> int:
    """Number of arcs order[i] -> order[j] with i < j."""
    if sorted(order) != list(range(G.n)):
        raise ValueError(f"order must be a permutation of the {G.n} vertices")
    later = full_mask(G.n)
    count = 0
    for v in order:
        later &= ~(1 << v)
        count += (G.out_rows[v] & later).bit_count()
    return count


MEDIAN_EXACT_MAX_N = 20


def _median_exact(G: Tournament) -> tuple[list[int], int]:
    n = G.n
    if n > MEDIAN_EXACT_MAX_N:
        raise ValueError(f"exact median order capped at n <= {MEDIAN_EXACT_MAX_N}, got {n}")
    rows = G.out_rows
    # best[mask] = max forward arcs achievable ordering the set `mask` as a
    # suffix; the first suffix element contributes its out-degree in the
    # rest of the mask.
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        top = -1
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            val = (rows[v] & (mask ^ low)).bit_count() + best[mask ^ low]
            if val > top:
                top = val
        best[mask] = top
    order = []
    mask = (1 << n) - 1
    while mask:
        for v in bits(mask):  # ascending id => deterministic tie-break
            low = 1 << v
            if (rows[v] & (mask ^ low)).bit_count() + best[mask ^ low] == best[mask]:
                order.append(v)
                mask ^= low
                break
    return order, best[(1 << n) - 1]


# Column q of a sign matrix, from the bits of in_rows[order[q]] in id order.
_SIGN = bytes.maketrans(b"01", b"\xff\x01")


def _sign_columns(G: Tournament, order: list[int]) -> array:
    """The sign matrix of ``order``, column-major in one ``array('b')``.

    Entry ``q*n + u`` is +1 if u beats ``order[q]``, -1 if ``order[q]``
    beats u, and 0 if u is ``order[q]``.  Column q is the in-row of
    ``order[q]`` as signs, and the row of u laid out in order is the slice
    ``[u::n]``.  It takes n² bytes.
    """
    n = G.n
    signs = array("b")
    for w in order:
        column = bytearray(format(G.in_rows[w], f"0{n}b").encode().translate(_SIGN)[::-1])
        column[w] = 0
        signs.frombytes(column)
    return signs


def _local_search(order: list[int], signs: array) -> None:
    """First-improvement single-vertex moves until no vertex has one.

    ``signs`` is the :func:`_sign_columns` matrix of ``order``; a move
    moves one column, and both are updated in place.  For v at position i
    with row s in order and P = accumulate(s, initial=0), moving v before
    position j < i gains P[i] - P[j] and moving it after position j > i
    gains P[i] - P[j+1], while P[i+1] = P[i].  So v has an improving move
    iff min(P) < P[i], and its first improving target is the first m with
    P[m] < P[i] (m - 1 when m > i).  Each move is the first improving
    (position, target) pair in position order, the one a rescan from
    position 0 would find, without the rescan: vertices before ``ptr`` are
    known to have no move.  A move between positions lo < hi changes, for
    a vertex u at p < lo, only its row sums over [p, m) with lo < m <= hi.
    Each new sum is an old one (>= 0) minus or plus u's sign against v, so
    it can turn negative only if u beats v (a move right) or v beats u (a
    move left).  Just those vertices are re-checked over [p, hi), and the
    scan goes on from the first one that gained a move, else from lo.
    """
    n = len(order)
    ptr = 0
    while True:
        while ptr < n:
            v = order[ptr]
            prefix = list(accumulate(signs[v::n], initial=0))
            level = prefix[ptr]
            if min(prefix) < level:
                break
            ptr += 1
        else:
            return
        i = ptr
        # P moves in steps of ±1 apart from the 0 at v, and P[0] = 0, so
        # the first m with P[m] < level is 0 or the first m at level - 1.
        m = 0 if level > 0 else prefix.index(level - 1)
        j = m if m < i else m - 1
        order.insert(j, order.pop(i))
        column = signs[i * n : (i + 1) * n]
        del signs[i * n : (i + 1) * n]
        signs[j * n : j * n] = column
        # v's own row marks the earlier vertices to re-check: -1 where
        # u beats v (a move right), +1 where v beats u (a move left).
        lo, hi, mark = (i, j, b"\xff") if j > i else (j, i, b"\x01")
        ptr = lo
        row = signs[v::n].tobytes()
        p = row.find(mark, 0, lo)
        while p >= 0:
            if min(accumulate(signs[p * n + order[p] : hi * n : n])) < 0:
                ptr = p
                break
            p = row.find(mark, p + 1, lo)


def median_order(G: Tournament, mode: str = "local") -> tuple[list[int], int]:
    """An ordering with many forward arcs, with its forward-arc count.

    ``exact`` maximizes over all orderings by subset dynamic programming
    (n ≤ 20).  ``local`` runs first-improvement single-vertex moves
    (:func:`_local_search`) to a fixed point, restarted from the 5
    rotations of the Redei path by ⌊kn/5⌋; the best count wins, ties to
    the earliest restart.  A fixed point has the feedback property: for
    i < j, order[i] beats at least half of order[i+1..j] and order[j] is
    beaten by at least half of order[i..j-1].  The sign matrix is built
    once per call and rotated per restart.
    """
    if mode == "exact":
        return _median_exact(G)
    if mode != "local":
        raise ValueError(f"mode must be 'exact' or 'local', got {mode!r}")
    base = redei_path(G)
    n = G.n
    signs = _sign_columns(G, base)
    best_order: list[int] | None = None
    best_count = -1
    for k in range(5):
        r = k * n // 5
        order = base[r:] + base[:r]
        _local_search(order, signs[r * n :] + signs[: r * n])
        count = forward_arc_count(G, order)
        if count > best_count:
            best_count = count
            best_order = order
    assert best_order is not None
    return best_order, best_count


# ---------------------------------------------------------------------------
# Outbranchings

def embed_outbranching(T: DirectedTree, G: Tournament) -> EmbedOutcome:
    """Embed an outbranching into a host with at least 2|T|-2 vertices.

    Greedy, no search: the root goes to the first vertex of a local median
    order and every child to the earliest unused order position dominated
    by its parent's image.  A greedy miss returns BudgetExhausted at every
    host size; no miss has been seen on hosts of 2|T|-2 vertices, but
    whether this is the median-order construction that never misses is
    not settled.  A complete map that is not a valid embedding raises
    GraphDefectError.
    """
    if not T.is_outbranching():
        raise ValueError("tree is not an outbranching")
    if T.n >= 2 and G.n < 2 * T.n - 2:
        raise ValueError(f"host must have >= 2|T|-2 = {2 * T.n - 2} vertices, got {G.n}")
    order, _ = median_order(G, "local")
    root = T.root_of_outbranching()
    mapping = {root: order[0]}
    used_positions = {0}
    nodes = 1
    for v in T.bfs_order(root):
        for child in T.out_nbrs[v]:
            img = mapping[v]
            for j in range(G.n):
                if j not in used_positions and G.has_arc(img, order[j]):
                    mapping[child] = order[j]
                    used_positions.add(j)
                    nodes += 1
                    break
            else:
                return EmbedOutcome(
                    BUDGET_EXHAUSTED, None, nodes, "outbranching_greedy", ("greedy failed",)
                )
    if not is_valid_embedding(T, G, mapping):
        raise GraphDefectError("outbranching greedy produced an invalid embedding")
    return EmbedOutcome(FOUND, mapping, nodes, "outbranching_greedy")
