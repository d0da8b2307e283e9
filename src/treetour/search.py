"""Base embedding procedures.

- :func:`exhaustive_embed`: complete backtracking search within a node
  budget; its NotFound is a non-existence certificate (used to certify
  sharpness constructions).
- :func:`redei_path`: Hamiltonian directed path by first-beat insertion;
  a vertex that beats no placed vertex (one mask test) is appended
  without a scan.
- :func:`median_order`: orderings maximizing forward arcs, exact (subset
  DP, n ≤ 20) or local search: first-improvement single-vertex moves,
  with every vertex's prefix sums packed into the fields of one Python
  int per position.  From ``MEDIAN_PAIR_MIN_N`` vertices one pass of
  ⌈(n+1)/2⌉ big-int subtractions and ANDs over the fieldwise minima of
  column pairs finds every vertex that has an improving move (n + 1 over
  the columns on smaller hosts).
- :func:`embed_outbranching`: median-order-guided greedy embedding of
  outbranchings into hosts with ≥ 2|T|-2 vertices; a miss is
  BudgetExhausted, with no search behind it.
- :func:`greedy_embed`: fast incomplete first attempt, tried by the
  portfolio before the complete search;
  a candidate's residual in-degree is read off its out-degree (ro + ri
  is the same for every candidate).  Below ``GREEDY_COUNTER_MIN_N`` host
  vertices the candidates are scanned, one AND and one popcount each,
  up to the first scoring the most any can; larger hosts keep every
  vertex's ro in bit-sliced counters (about log2(n) host-wide ints), so
  a level tries the scores from the top with a few mask ANDs each.

All searches are deterministic: tree vertices are processed in BFS order
from the tree's smallest centroid (``DirectedTree.centroids``, one walk
down the subtree sizes from vertex 0), candidate images ascending.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import add, and_, indexOf, lshift, rshift, sub
from typing import NamedTuple

from .graphs import (
    DirectedTree,
    GraphDefectError,
    Tournament,
    bits,
    full_mask,
    is_valid_embedding,
)

DEFAULT_NODE_BUDGET = 10_000_000

FOUND = "found"
NOT_FOUND = "not_found"
BUDGET_EXHAUSTED = "budget_exhausted"


class EmbedOutcome(NamedTuple):
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


def _search_plan(
    T: DirectedTree,
) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...], tuple[int, ...], tuple[int, ...]]:
    """BFS order from the tree's smallest centroid (``T.centroids()[0]``,
    the smallest-id vertex of its 2-core), with per position (parent
    position, direction), plus future out/in needs.

    direction "out" means the tree arc runs parent -> vertex.  Every
    neighbour of a vertex but its BFS parent comes later in the order, so
    its needs are its out- and in-degree less the parent arc.  The plan
    depends on the tree alone, so it is built once per tree object, kept
    in ``T.plan`` and shared by every host; its parts are tuples.
    """
    if T.plan is not None:
        return T.plan
    order, parent, _ = T.rooted(T.centroids()[0])
    pos = [0] * T.n
    for i, v in enumerate(order):
        pos[v] = i
    out_need = [len(x) for x in T.out_nbrs]
    in_need = [len(x) for x in T.in_nbrs]
    parents: list[tuple[int, str]] = [(-1, "")]
    for v in order[1:]:
        w = parent[v]
        if w in T.in_nbrs[v]:
            parents.append((pos[w], "out"))
            in_need[v] -= 1
        else:
            parents.append((pos[w], "in"))
            out_need[v] -= 1
    T.plan = (tuple(order), tuple(parents), tuple(out_need), tuple(in_need))
    return T.plan


def exhaustive_embed(
    T: DirectedTree,
    G: Tournament,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> EmbedOutcome:
    """Complete backtracking search for an embedding of T into G.

    Found outcomes are valid; NotFound means no embedding exists;
    BudgetExhausted means the search took more than ``node_budget`` nodes.
    A ``node_budget`` below 1 is a ValueError.
    """
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")
    order, parents, out_need, in_need = _search_plan(T)
    if T.n > G.n:
        return EmbedOutcome(NOT_FOUND, None, 0, "exhaustive", ("too few available vertices",))

    n_t = T.n
    nodes = 0
    images = [0] * n_t
    # The unused host vertices, kept as a mask: placing an image clears
    # its bit, backtracking sets it again.
    unused = full_mask(G.n)
    cand: list[int] = [0] * n_t
    out_rows, in_rows = G.out_rows, G.in_rows

    level = 0
    cand[0] = unused
    while True:
        if cand[level]:
            low = cand[level] & -cand[level]
            cand[level] ^= low
            g = low.bit_length() - 1
            nodes += 1
            if nodes > node_budget:
                return EmbedOutcome(BUDGET_EXHAUSTED, None, nodes, "exhaustive")
            free = unused ^ low
            u = order[level]
            if (out_rows[g] & free).bit_count() < out_need[u]:
                continue
            if (in_rows[g] & free).bit_count() < in_need[u]:
                continue
            images[level] = g
            if level + 1 == n_t:
                mapping = dict(zip(order, images))
                if not is_valid_embedding(T, G, mapping):  # pragma: no cover
                    raise GraphDefectError("search produced an invalid embedding")
                return EmbedOutcome(FOUND, mapping, nodes, "exhaustive")
            unused = free
            level += 1
            ppos, pdir = parents[level]
            cand[level] = unused & (out_rows if pdir == "out" else in_rows)[images[ppos]]
        else:
            if level == 0:
                return EmbedOutcome(NOT_FOUND, None, nodes, "exhaustive")
            level -= 1
            low = 1 << images[level]
            unused |= low
    raise AssertionError("unreachable")  # pragma: no cover


# Hosts with at least this many vertices choose greedy images from
# bit-sliced residual out-degree counters instead of scanning candidates:
# the smallest host size at which the counters took less time than the
# scan, summed over random and relabelled rotational hosts (the counters
# win from 64 vertices on random hosts, from about 160 on rotational ones,
# whose scan mostly stops at its first candidate; BENCH_11.json).
GREEDY_COUNTER_MIN_N = 88


# _BIT_DIGITS[k] maps a byte to the ASCII digit of its bit k.
_BIT_DIGITS = tuple(bytes(b"01"[d >> k & 1] for d in range(256)) for k in range(8))


def _out_degree_planes(G: Tournament) -> list[int]:
    """Bit-sliced out-degrees: bit v of ``planes[k]`` is bit k of out_deg(v).

    The degrees, vertex n - 1 first, go into one byte string per 8 bits;
    translating it to the digits of bit k gives plane k as a binary
    numeral, so a plane costs two C-level passes over the n vertices.
    """
    degrees = list(map(int.bit_count, reversed(G.out_rows)))
    planes = []
    for k in range((G.n - 1).bit_length()):
        if not k % 8:
            digits = bytes(map(and_, map(rshift, degrees, repeat(k)), repeat(255)))
        planes.append(int(digits.translate(_BIT_DIGITS[k % 8]), 2))
    return planes


def _take_one(planes: list[int], row: int) -> None:
    """Subtract 1 from the counter of every vertex in ``row``, in place.

    The borrow is the set of vertices still owing one; it passes a plane
    where the vertex's bit was 0 and dies out where it was 1.  Every
    counter in ``row`` is at least 1, so no borrow runs off the top.
    """
    for k, plane in enumerate(planes):
        if not row:
            break
        planes[k] = plane ^ row
        row ^= row & plane  # row & ~plane, without a big-int ~


def _counter_pick(planes: list[int], m: int, rest: int, min_ro: int, max_ro: int) -> int:
    """The smallest vertex of ``m`` whose counter ro lies in [min_ro,
    max_ro] and maximizes min(ro, rest - ro); -1 if there is none.

    Score s is reached exactly at ro = s and ro = rest - s, so the scores
    are tried from rest // 2 down, each as one or two equality masks: m
    ANDed with each plane or its complement, from the bottom plane, until
    it is empty.  No score below min(min_ro, rest - max_ro) is admissible.
    """
    if not m:
        return -1
    for s in range(rest // 2, min(min_ro, rest - max_ro) - 1, -1):
        hits = 0
        for value in (s, rest - s) if s + s != rest else (s,):
            if min_ro <= value <= max_ro:
                e = m
                for plane in planes:
                    e = e & plane if value & 1 else e ^ (e & plane)
                    if not e:
                        break
                    value >>= 1
                hits |= e
        if hits:
            return (hits & -hits).bit_length() - 1
    return -1


def greedy_embed(T: DirectedTree, G: Tournament) -> EmbedOutcome:
    """One greedy pass into G, no backtracking; incomplete by design.

    Each tree vertex takes the admissible image maximizing the smaller of
    its residual out/in neighbourhood sizes (ties to the smallest id).  An
    unused candidate g has every other unused vertex as exactly one of an
    out- or in-neighbour, so its residual sizes satisfy ro + ri = rest,
    the number of unused vertices besides g, which is the same for every
    candidate at a level, and no candidate scores more than rest // 2.

    Below ``GREEDY_COUNTER_MIN_N`` host vertices the candidates are
    scanned in id order, each costing one AND and one popcount (ro), and
    the scan stops at the first one scoring rest // 2, since a later one
    could only tie.  On larger hosts every vertex's ro is kept as
    bit-sliced counters, about log2(n) host-wide ints built once per call
    (:func:`_out_degree_planes`); a level tries the scores from the top
    with a few mask ANDs each (:func:`_counter_pick`) and placing g
    subtracts the row ``in_rows[g]`` (:func:`_take_one`), so a level costs
    O(log n) big-int operations instead of one popcount per candidate.
    Both paths return the same outcome.  Returns Found or BudgetExhausted,
    never NotFound.
    """
    order, parents, out_need, in_need = _search_plan(T)
    if T.n > G.n:
        return EmbedOutcome(BUDGET_EXHAUSTED, None, 0, "greedy", ("too few available vertices",))
    out_rows, in_rows = G.out_rows, G.in_rows
    planes = _out_degree_planes(G) if G.n >= GREEDY_COUNTER_MIN_N else None
    images: list[int] = []
    unused = full_mask(G.n)
    rest = G.n - 1
    nodes = 0
    for level, u in enumerate(order):
        m = unused
        if level:
            ppos, pdir = parents[level]
            m &= (out_rows if pdir == "out" else in_rows)[images[ppos]]
        min_ro = out_need[u]
        max_ro = rest - in_need[u]
        nodes += 1
        if planes is not None:
            best_g = _counter_pick(planes, m, rest, min_ro, max_ro)
        else:
            top = rest // 2
            best_g = -1
            best_score = -1
            while m:
                low = m & -m
                m ^= low
                g = low.bit_length() - 1
                ro = (out_rows[g] & unused).bit_count()
                if ro < min_ro or ro > max_ro:
                    continue
                score = ro if ro + ro <= rest else rest - ro
                if score > best_score:
                    best_score = score
                    best_g = g
                    if score == top:
                        break
        if best_g < 0:
            return EmbedOutcome(BUDGET_EXHAUSTED, None, nodes, "greedy", ("dead end",))
        images.append(best_g)
        low = 1 << best_g
        unused ^= low
        rest -= 1
        if planes is not None:
            _take_one(planes, in_rows[best_g])
    mapping = dict(zip(order, images))
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
    rows = G.out_rows
    for a, b in zip(order, order[1:]):
        if not (rows[a] >> b) & 1:  # pragma: no cover
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


# From this many host vertices the local search flags moves over pair
# minima of its columns; below it, over the columns themselves.  Measured
# crossover of the per-call time on random hosts (BENCH_17.json): the pair
# minima cost a rebuild per move that outweighs the halved flag pass on
# smaller hosts.
MEDIAN_PAIR_MIN_N = 18


@lru_cache(maxsize=32)
def _byte_spread(width: int) -> tuple[int, ...]:
    """Entry b moves bit k of the byte b to bit ``width * k``."""
    return tuple(sum(1 << width * k for k in range(8) if b >> k & 1) for b in range(256))


def _local_search(G: Tournament) -> tuple[list[int], int]:
    """First-improvement single-vertex moves to a fixed point, restarted
    from the 5 rotations of the Redei path; the best order and its count.

    Let s_u(w) be +1 if u beats w, -1 if w beats u, 0 if w is u, and P_u[q]
    the sum of s_u over positions < q.  For v at position i, moving it
    before position j < i gains P_v[i] - P_v[j] and moving it after j > i
    gains P_v[i] - P_v[j+1], while P_v[i+1] = P_v[i]; so v's first
    improving target is the first q with P_v[q] < P_v[i] (q - 1 when q > i).

    Vertex u owns field u, ``width`` bits wide, of each Python int below:
    room for P_u + n - 1 (0 .. 2n - 2) and a guard bit on top.  ``ins[w]``
    spreads in_rows[w] (bit u to the bottom of field u), a byte at a time
    through :func:`_byte_spread`, and ``outs[w] = units ^ unit[w] ^
    ins[w]`` spreads out_rows[w].  Column q of ``P`` holds every P_u[q] +
    n - 1 with the guard set, built per restart as P[q+1] = P[q] +
    ins[order[q]] - outs[order[q]].  ``L`` holds every level P_u[pos u] +
    n - 1.  No field borrows from the next in P[q] - L, and its guard
    survives iff P_u[q] >= P_u[pos u].

    P_u steps by at most one per column, and from column 2h to 2h + 1 it
    steps down exactly on the fields of outs[order[2h]], so M[h] = P[2h] -
    outs[order[2h]] is the fieldwise minimum of the pair (column n alone
    when n is even).  From ``MEDIAN_PAIR_MIN_N`` vertices ``M`` holds these
    ⌈(n+1)/2⌉ pair minima; below it ``M`` is ``P``.  ``guards & ~AND_h
    (M[h] - L)`` flags every vertex with an improving move in one pass.
    Each move is the one a rescan from position 0 would make: the flagged
    vertex v with the lowest position, to its first improving target,
    which lies in the first entry of ``M`` whose difference with ``L`` has
    lost v's guard (column 2h, else 2h + 1, within a pair).  A move between
    positions lo < hi shifts the columns between them by one place and by
    ±(ins[v] - outs[v]), so L changes only on the fields of the vertices v
    passes (by their sign against v) and on v's own, and only pairs
    lo // 2 .. hi // 2 are rebuilt.  ``upos`` and ``opos`` hold the unit
    and the out-spread of the vertex at each position, beside ``order``.
    """
    base = redei_path(G)
    n = G.n
    width = (2 * n - 2).bit_length() + 1
    unit = [1 << (width * u) for u in range(n)]
    ones = (1 << width) - 1
    field = [e * ones for e in unit]
    shifts = [width * u for u in range(n)]
    units = sum(unit)
    g = width - 1
    guards = units << g
    spread = _byte_spread(width).__getitem__
    nbytes = (n + 7) // 8
    steps = [8 * width * b for b in range(nbytes)]
    ins = [sum(map(lshift, map(spread, row.to_bytes(nbytes, "little")), steps)) for row in G.in_rows]
    diff = [2 * i - units + e for i, e in zip(ins, unit)]
    upos0 = list(map(unit.__getitem__, base))
    paired = n >= MEDIAN_PAIR_MIN_N
    if paired:
        opos0 = [units ^ unit[w] ^ ins[w] for w in base]
    best_order: list[int] = []
    best_count = -1
    for k in range(5):
        r = k * n // 5
        order = base[r:] + base[:r]
        upos = upos0[r:] + upos0[:r]
        P = list(accumulate(map(diff.__getitem__, order), initial=guards + (n - 1) * units))
        L = sum(map(and_, P, map(field.__getitem__, order))) - guards
        M = P
        if paired:
            opos = opos0[r:] + opos0[:r] + [0]  # column n is unpaired when n is even
            M = list(map(sub, P[::2], opos[::2]))
        while flags := guards & ~reduce(and_, R := list(map(sub, M, repeat(L)))):
            flags >>= g
            for i, e in enumerate(upos):  # the lowest flagged position
                if flags & e:
                    break
            q = indexOf(map((e << g).__and__, R), 0)  # the first to lose v's guard
            v = order[i]
            fv = field[v]
            level = P[i] & fv
            if paired:  # column 2h if it is below the level, else 2h + 1
                q *= 2
                if P[q] & fv >= level:
                    q += 1
                    # A stale or wrong pair minimum would make a move that
                    # gains nothing, and the search might never stop.
                    if P[q] & fv >= level:  # pragma: no cover
                        raise GraphDefectError("a pair minimum lies below both its columns")
            if q < i:
                j = lo = q
                hi = i
                order.insert(j, order.pop(i))
                upos.insert(j, upos.pop(i))
                P[j + 1 : i + 1] = map(add, P[j:i], repeat(diff[v]))
                passed = sum(upos[j + 1 : i + 1])
                L += 2 * (ins[v] & passed) - passed
            else:
                j = hi = q - 1
                lo = i
                order.insert(j, order.pop(i))
                upos.insert(j, upos.pop(i))
                P[i + 1 : j + 1] = map(sub, P[i + 2 : j + 2], repeat(diff[v]))
                passed = sum(upos[i:j])
                L -= 2 * (ins[v] & passed) - passed
            L += (P[j] & fv) - level
            if paired:
                opos.insert(j, opos.pop(i))
                M[lo // 2 : hi // 2 + 1] = map(sub, P[lo & ~1 : hi + 1 : 2], opos[lo & ~1 : hi + 1 : 2])
        # The levels P_u[pos u] sum the signs of all pairs, +1 per backward
        # and -1 per forward arc, so they total n(n-1)/2 - 2 * forward arcs.
        levels = sum(map(and_, map(rshift, repeat(L), shifts), repeat(ones))) - n * (n - 1)
        count = (n * (n - 1) // 2 - levels) // 2
        if count > best_count:
            best_count = count
            best_order = order
    return best_order, best_count


def median_order(G: Tournament, mode: str = "local") -> tuple[list[int], int]:
    """An ordering with many forward arcs, with its forward-arc count.

    ``exact`` maximizes over all orderings by subset dynamic programming
    (n ≤ 20).  ``local`` runs first-improvement single-vertex moves
    (:func:`_local_search`) to a fixed point, restarted from the 5
    rotations of the Redei path by ⌊kn/5⌋; the best count wins, ties to
    the earliest restart.  Each move takes the lowest-position vertex
    that has an improving move to its first improving target, the move a
    rescan from position 0 would make.  A fixed point has the feedback
    property: for i < j, order[i] beats at least half of order[i+1..j]
    and order[j] is beaten by at least half of order[i..j-1].

    Vertex u owns a field of about log2(n) + 2 bits in one Python int per
    position q, holding u's prefix sum of signs against the vertices
    before q, with a guard bit on top.  A prefix sum steps by at most one
    per position, so one subtraction gives the fieldwise minimum of two
    adjacent columns.  From ``MEDIAN_PAIR_MIN_N`` vertices a move costs
    one pass of ⌈(n+1)/2⌉ big-int subtractions and ANDs over these pair
    minima, which flags every vertex that has an improving move, then an
    update of the columns, fields and pair minima between the move's two
    ends; on smaller hosts the pass runs over the n + 1 columns, which is
    cheaper there.  Both make the same moves.  Memory is O(n) ints of
    O(n log n) bits.
    """
    if mode == "exact":
        return _median_exact(G)
    if mode != "local":
        raise ValueError(f"mode must be 'exact' or 'local', got {mode!r}")
    return _local_search(G)


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
