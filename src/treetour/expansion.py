"""Robust out-expansion: verdicts and splits.

A tournament on ``n`` vertices is a robust (μ,ν)-outexpander when every
vertex set ``S`` with ``ν·n ≤ |S| ≤ (1−ν)·n`` has a robust
out-neighbourhood of size at least ``|S| + ⌈μ·n⌉``, where the robust
out-neighbourhood collects the vertices with at least ``⌈μ·n⌉``
in-neighbours inside ``S``.  This module provides:

* :func:`robust_out_neighbourhood` and :func:`is_robust_outexpander`
  (exact up to ``n = 20``, structured-plus-random sampling above, with
  every negative verdict carrying a re-validated witness).
  The exact sweep is bit-parallel: the subsets of the low 12 vertices are
  the bit lanes of one 4096-bit int, so it loops over the 2^(n−12) subsets
  of the other vertices and decides 4096 subsets per step with big-int
  and/xor.  The lanes holding at least s of a vertex's low in-neighbours
  are built from two half-tables cached per block width, one for the
  bottom 6 low vertices and one for the rest, with one big-int product
  per entry at ⌈μn⌉ = 1.  Per step, only the short vertices (fewer than
  ⌈μn⌉ in-neighbours in the step's high subset) enter a bit-sliced
  counter, which starts at 2^P minus each lane's target, so one plane
  tells the lanes below target.  Its worst case, a full sweep
  of an expander at ``n = 20`` (no early exit), measured 0.9–2.2 ms at
  μ = 1/20 (ν ∈ {1/20, 1/10, 1/5}) and 3.1–6.6 ms at μ = 1/10, ν = 1/5,
  where about three times as many vertices are short, on the expanders
  among ``random_tournament(20, s)``, s = 0..9 (Python 3.11, one core of
  a shared 2-vCPU Xeon); a walk of one subset at a time took about 1.2 s.
  At ⌈μn⌉ = 1 the size window picks a route on which an expander needs
  no sweep at all.  Over the full window 1 ≤ |S| ≤ n − 1, which every
  exact piece of a decomposition at μ = ν = 1/20 has, S fails iff
  |N⁺(S)| ≤ |S|: Hall's condition with surplus one in the bipartite
  graph with x–v iff x beats v.  It holds iff that graph has a perfect
  matching M and the digraph with x → x′ iff x beats M(x′) is strongly
  connected, which augmenting paths and two reaches from vertex 0 decide
  in O(n²) row operations: 9–11 / 11–12 / 18 µs per random expander at
  ``n = 8 / 12 / 20``, where the sweep below 16 vertices and the search
  above it took 27–30 / 42–43 / 140–146 µs (BENCH_19).  Over a partial
  window at ``n ≥ 16`` a search for a failing set runs instead: there S
  fails iff |S| + |U(S)| ≥ n, where U(S) holds the vertices with no
  in-neighbour in S, and a depth-first search over S that filters its
  candidates and U(S) to a fixpoint took at most 331 nodes on random,
  planted and near-transitive hosts of 16–20 vertices.  Per random
  expander at μ = ν = 1/20 it took 0.12 ms at ``n = 16`` and 0.19 ms at
  ``n = 20``, where the full sweep took 0.20 and 1.07 ms (same host).  A
  non-expander pays the route and then the sweep, which names the
  Gray-first witness; the witness's lane inside its block is found in
  k halvings of the block's steps, not a walk of up to 2^k steps;
* :func:`non_expander_split` — partition a non-expander into two sets
  with few forward arcs, choosing among the repaired witness, its
  repaired complement and the out-degree-order prefixes, and verifying
  the ``4μn²`` bound on the forward arc count before returning;
* :func:`tournament_split` — iteratively peel low-semidegree vertices
  and split non-expander pieces until every piece is small or a robust
  outexpander, tracking bad (backward) arcs and deleting vertices that
  touch too many of them.

All threshold comparisons are exact: an integer count is compared with
the floor or ceiling of a Fraction threshold, computed once per call
(``x > γn`` iff ``x > ⌊γn⌋``).  Randomised components draw from the
package's seeded streams, so every result is a pure function of its
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import or_
from typing import Callable

from .generate import stream
from .graphs import (
    GraphDefectError,
    Tournament,
    as_fraction,
    bit_list,
    bits,
    directed_edge_count,
    full_mask,
    mask_of,
)

__all__ = [
    "EXPANDER",
    "NOT_EXPANDER",
    "UNKNOWN",
    "EXACT_EXPANDER_MAX_N",
    "ExpanderVerdict",
    "SplitSearchExhausted",
    "SplitRegimeError",
    "SplitResult",
    "robust_out_neighbourhood",
    "is_robust_outexpander",
    "non_expander_split",
    "tournament_split",
    "make_expander_checker",
]

EXPANDER = "expander"
NOT_EXPANDER = "not_expander"
UNKNOWN = "unknown"
SMALL = "small"

EXACT_EXPANDER_MAX_N = 20


def _ceil(x: Fraction) -> int:
    return -(-x.numerator // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _check_unit_interval(name: str, x, *, closed_top: bool) -> Fraction:
    f = as_fraction(x)
    top_ok = f <= 1 if closed_top else f < 1
    if not (0 < f and top_ok):
        rng = "(0,1]" if closed_top else "(0,1)"
        raise ValueError(f"{name} must lie in {rng}, got {f}")
    return f


def robust_out_neighbourhood(G: Tournament, S: int, mu) -> int:
    """Vertices with at least ``⌈μ·n⌉`` in-neighbours inside ``S``."""
    mu_f = _check_unit_interval("mu", mu, closed_top=True)
    if S & ~full_mask(G.n):
        raise ValueError("S contains out-of-range vertices")
    t = _ceil(mu_f * G.n)
    out = 0
    for v in range(G.n):
        if (G.in_rows[v] & S).bit_count() >= t:
            out |= 1 << v
    return out


@dataclass(frozen=True)
class ExpanderVerdict:
    """Outcome of a robust-outexpander check.

    ``status`` is ``"expander"``, ``"not_expander"`` (with ``witness`` a
    vertex mask whose robust out-neighbourhood is too small) or
    ``"unknown"`` (sampling found nothing; only the sampled mode may say
    this).  ``samples`` counts the candidate sets examined.
    """

    status: str
    mode: str
    mu: Fraction
    nu: Fraction
    witness: int | None = None
    samples: int = 0

    @property
    def is_expander(self) -> bool:
        return self.status == EXPANDER


def _size_window(n: int, nu: Fraction) -> tuple[int, int]:
    """Admissible |S| range: ν·n ≤ |S| ≤ (1−ν)·n, in integer arithmetic."""
    p, q = nu.numerator, nu.denominator
    return -(-p * n // q), (q - p) * n // q


def _witness_fails(G: Tournament, S: int, mu: Fraction, nu: Fraction) -> bool:
    """Exact re-check that S is inside the window and expands too little."""
    n = G.n
    lo, hi = _size_window(n, nu)
    size = S.bit_count()
    if not (lo <= size <= hi):
        return False
    t = _ceil(as_fraction(mu) * n)
    rn = robust_out_neighbourhood(G, S, mu)
    return rn.bit_count() < size + t


# The exact sweep packs every subset of the low _LANE_BITS vertices into
# the bit lanes of one Python int: lane m stands for the low subset whose
# vertex mask is m.  The bottom 6 bits of m index a lane inside a 64-lane
# block and the rest index the block, so each half-table has 64 rows.
_LANE_BITS = 12


@lru_cache(maxsize=_LANE_BITS)
def _lane_tables(k: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """Every lane of a k-bit block and its two half-tables, which depend on
    k alone.  With b = min(k, 6), bottom[x][c] holds the lanes below 2^b
    whose subset meets the bottom mask x in fewer than c vertices, and
    top[y][a] holds bit 2^b·m of each block m whose subset meets the top
    mask y in exactly a vertices.  The sweep uses k = 1 .. ``_LANE_BITS``,
    so every k it meets stays cached."""
    b = min(k, 6)

    def exactly(width: int, mask: int, shift: int) -> list[int]:
        out = [0] * (mask.bit_count() + 1)
        for m in range(1 << width):
            out[(m & mask).bit_count()] |= 1 << (m << shift)
        return out

    bottom = [
        list(accumulate(exactly(b, x, 0) + [0] * k, or_, initial=0))
        for x in range(1 << b)
    ]
    top = [exactly(k - b, y, b) for y in range(1 << (k - b))]
    return full_mask(1 << k), bottom, top


def _need_table(k: int, members: int, top: int) -> list[int]:
    """Entry s, 0 ≤ s ≤ min(top, |members|): the lanes whose subset holds
    at least s of ``members``.  The lanes holding fewer are the sum over
    a < s of top[y][a] · bottom[x][s − a], for the bottom and top parts
    x, y of ``members``; each top entry has one bit per 64-lane block, so
    no product carries into the next block."""
    every, bottom, tops = _lane_tables(k)
    bx, ty = bottom[members & 63], tops[members >> 6]
    table = [every]
    for s in range(1, min(top, members.bit_count()) + 1):
        fewer = 0
        for a in range(min(s, len(ty))):
            fewer += ty[a] * bx[s - a]
        table.append(every ^ fewer)
    return table


@lru_cache(maxsize=_LANE_BITS)
def _size_lanes(k: int) -> tuple[int, ...]:
    """Entry s, 0 ≤ s ≤ k: the lanes whose subset has exactly s vertices."""
    at_least = _need_table(k, full_mask(k), k) + [0]
    return tuple(at_least[s] ^ at_least[s + 1] for s in range(k + 1))


@lru_cache(maxsize=256)
def _offset_planes(k: int, base: int, top: int) -> tuple[int, ...]:
    """Bit planes 0..top of 2^top − max(0, |S_low| + base), lane by lane.

    A counter started here reaches 2^top, so sets plane ``top``, exactly
    on the lanes where at least max(0, |S_low| + base) indicators were
    added, as long as the target is at most 2^top and the indicator count
    below 2^top."""
    size_lanes = _size_lanes(k)
    planes = [0] * (top + 1)
    for s in range(k + 1):
        for j in bits((1 << top) - max(0, s + base)):
            planes[j] |= size_lanes[s]
    return tuple(planes)


# _LANE_RUNS[j]: the lanes 0 .. 2^j − 1, an aligned run of 2^j lanes.
_LANE_RUNS = tuple(full_mask(1 << j) for j in range(_LANE_BITS))


def _gray_first(k: int, flip: int, window: int, below: int) -> tuple[int, int]:
    """The lane of ``below`` (non-empty, inside ``window``) that a block
    visiting lane gray(l) ^ flip at step l = 0 .. 2^k − 1 meets first, and
    the number of ``window`` lanes visited up to and including it.

    Steps [P, P + 2^j), P a multiple of 2^j, visit one aligned run of 2^j
    lanes, the one whose index >> j is gray(P >> j) ^ (flip >> j).  So k
    halvings find the step: keep the first half of the steps when its run
    meets ``below``, else count the window lanes of that run and go on to
    the second half.  Each level costs a few mask operations, where a walk
    of the steps costs up to 2^k."""
    step = seen = 0
    for j in range(k - 1, -1, -1):
        run_index = (step >> j) ^ (step >> (j + 1)) ^ (flip >> j)
        run = _LANE_RUNS[j] << (run_index << j)
        if not below & run:
            seen += (window & run).bit_count()
            step |= 1 << j
    return step ^ (step >> 1) ^ flip, seen + 1


def _gray_sweep(G: Tournament, mu: Fraction, nu: Fraction) -> ExpanderVerdict:
    """Every subset in the order of the Gray code i ^ (i >> 1), i = 1..2^n−1.

    Subset i splits into a high part (vertices k..n−1) and a low part
    (vertices 0..k−1), k = min(n, _LANE_BITS).  The walk goes over the
    2^(n−k) high parts in Gray order, keeping a_v = |in(v) ∩ S_high| and
    the mask of the short vertices, those with a_v < ⌈μn⌉.  Every other
    vertex is in the robust out-neighbourhood of every lane of the block,
    so it only lowers the target; a short v is in it on the lanes where
    |in(v) ∩ S_low| ≥ ⌈μn⌉ − a_v, a table per vertex that stops at ⌈μn⌉
    and is built from the cached half-tables (:func:`_need_table`).  Each
    block starts a bit-sliced counter at 2^top minus the target
    max(0, |S_low| + |S_high| + ⌈μn⌉ − #non-short), top =
    (n + ⌈μn⌉).bit_length(), adds the indicators of the short vertices,
    and reads the lanes below target as the in-window lanes where plane
    ``top`` is clear.  Block b visits lane gray(l) ^ ((b & 1) << (k−1))
    at step l, so the violating lane of smallest step, which
    :func:`_gray_first` finds in k halvings, is the subset the
    one-subset-at-a-time Gray walk would stop at, and ``samples`` counts
    the same in-window subsets it would.
    """
    n = G.n
    lo, hi = _size_window(n, nu)
    t = _ceil(mu * n)
    # An empty host (G.induced(0)) has only the empty subset, which the
    # walk from i = 1 never examines; for n ≥ 1 it is below ν·n.
    if lo > hi or n == 0:
        return ExpanderVerdict(EXPANDER, "exact", mu, nu, samples=0)
    k = min(n, _LANE_BITS)
    size_lanes, low_vertices = _size_lanes(k), full_mask(k)
    # need_tables[v][need] for 1 ≤ need ≤ min(t, |in(v) ∩ low|).
    need_tables = [_need_table(k, row & low_vertices, t) for row in G.in_rows]
    windows = []
    for h in range(n - k + 1):
        lanes = 0
        for s in range(max(0, lo - h), min(k, hi - h) + 1):
            lanes |= size_lanes[s]
        windows.append(lanes)
    # Targets reach at most n + t and counts at most n, both below 2^top.
    top = (n + t).bit_length()
    high_out = [bit_list(G.out_rows[u]) for u in range(k, n)]
    a = [0] * n
    short = full_mask(n)
    high = 0
    checked = 0
    for b in range(1 << (n - k)):
        if b:
            j = (b & -b).bit_length() - 1
            high ^= 1 << j
            if high >> j & 1:
                for v in high_out[j]:
                    a[v] += 1
                    if a[v] == t:
                        short ^= 1 << v
            else:
                for v in high_out[j]:
                    if a[v] == t:
                        short |= 1 << v
                    a[v] -= 1
        h = high.bit_count()
        window = windows[h]
        if not window:
            continue
        counter = list(_offset_planes(k, h + t - n + short.bit_count(), top))
        rest = short
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            need = t - a[v]
            table = need_tables[v]
            if need < len(table):  # else no lane reaches need
                x = table[need]
                for p in range(top + 1):
                    carry = counter[p] & x
                    counter[p] ^= x
                    x = carry
                    if not x:
                        break
        below = window ^ (window & counter[top])
        if below:
            m, seen = _gray_first(k, (b & 1) << (k - 1), window, below)
            S = m | high << k
            if not _witness_fails(G, S, mu, nu):
                raise GraphDefectError(
                    "incremental expander counters disagree with the "
                    "direct recount"
                )
            return ExpanderVerdict(
                NOT_EXPANDER, "exact", mu, nu, witness=S, samples=checked + seen
            )
        checked += window.bit_count()
    return ExpanderVerdict(EXPANDER, "exact", mu, nu, samples=checked)


# From this many vertices on, a ⌈μn⌉ = 1 check over a partial size window
# searches for a failing set before it sweeps: below it a full sweep is as
# cheap as the search.
_SEARCH_MIN_N = 16


def _failing_set_search(G: Tournament, lo: int, hi: int) -> int | None:
    """At ⌈μn⌉ = 1, some S with lo ≤ |S| ≤ hi that fails expansion, or None.

    There S fails iff |S| + |U(S)| ≥ n, where U(S), the intersection of
    in(x) ∪ {x} over x ∈ S, holds the vertices with no in-neighbour in S.
    A depth-first include/exclude search keeps S, the undecided candidates
    C and the dominators W ⊇ U(S′) of every failing S′ with S ⊆ S′ ⊆ S ∪ C,
    and filters both to a fixpoint: x ∈ S′ ∖ S needs U(S′) ⊆ in(x) ∪ {x},
    so |(in(x) ∪ {x}) ∩ W| ≥ n − |S| − |C|; w ∈ U(S′) needs S′ ∖ S ⊆
    out(w) ∪ {w}, so |(out(w) ∪ {w}) ∩ C| ≥ n − |S| − |W|.  A branch with
    |S| + |C| + |W| < n holds no failing set.
    """
    n = G.n
    in_self = [row | 1 << v for v, row in enumerate(G.in_rows)]
    out_self = [row | 1 << v for v, row in enumerate(G.out_rows)]

    def search(S: int, size: int, C: int, W: int) -> int | None:
        while True:
            need = n - size - C.bit_count()
            kept_c = rest = C
            if need > 0:
                while rest:
                    x = rest & -rest
                    rest ^= x
                    if (in_self[x.bit_length() - 1] & W).bit_count() < need:
                        kept_c ^= x
            need = n - size - W.bit_count()
            kept_w = rest = W
            if need > 0:
                while rest:
                    w = rest & -rest
                    rest ^= w
                    if (out_self[w.bit_length() - 1] & kept_c).bit_count() < need:
                        kept_w ^= w
            if kept_c == C and kept_w == W:
                break
            C, W = kept_c, kept_w
        undecided = C.bit_count()
        if size + undecided + W.bit_count() < n or size + undecided < lo:
            return None
        # W ⊆ U(S) always, and W ⊇ U(S) when S itself fails.
        if lo <= size and size + W.bit_count() >= n:
            return S
        if not undecided or size == hi:
            return None
        v = C.bit_length() - 1
        x = 1 << v
        return search(S | x, size + 1, C ^ x, W & in_self[v]) or search(
            S, size, C ^ x, W
        )

    return search(0, 0, full_mask(n), full_mask(n))


def _matching_failing_set(G: Tournament) -> int | None:
    """At ⌈μn⌉ = 1 over the full window 1 ≤ |S| ≤ n − 1 (n ≥ 2), some S
    that fails expansion, or None when the host is an expander.

    There S fails iff |N⁺(S)| ≤ |S|: Hall's condition with surplus one in
    the bipartite graph B with x–v iff x beats v.  That surplus holds iff
    B − x − y has a perfect matching for all x, y, which holds iff B has a
    perfect matching M and the digraph with x → x′ iff x beats M(x′) is
    strongly connected (an augmenting path of B − x − y is a path from
    M⁻¹(y) to x).  M grows by augmenting paths over the bitmask rows; a
    vertex u with none gives the Hall violator L it reaches, |N⁺(L)| =
    |L| − 1, which is all of V only when a source leaves |N⁺(V)| = n − 1,
    and then V − u fails.  Otherwise the set that 0 reaches, or the set
    that cannot reach 0, is closed under x → x′, so it fails unless it is
    V or empty.  O(n²) row operations in all.
    """
    n = G.n
    every = full_mask(n)
    out_rows, in_rows = G.out_rows, G.in_rows
    owner = [-1] * n  # owner[v]: the x matched to v, so M(owner[v]) = v
    partner = [-1] * n  # partner[x] = M(x)
    free = every
    for u in range(n):
        hit = out_rows[u] & free
        if hit:
            v = (hit & -hit).bit_length() - 1
            owner[v], partner[u] = u, v
            free ^= 1 << v
            continue
        # Breadth-first over alternating paths from u; via[v] is the x
        # that reached v.
        via = {}
        seen, frontier = 0, [u]
        while frontier and not hit:
            later = []
            for x in frontier:
                new = out_rows[x] & ~seen
                seen |= new
                hit = new & free
                for v in bit_list(new):
                    via[v] = x
                    later.append(owner[v])
                if hit:
                    break
            frontier = later
        if not hit:
            # Every vertex of N⁺(reached) = seen is matched into reached.
            reached = 1 << u | mask_of(owner[v] for v in bits(seen))
            return reached if reached != every else every ^ 1 << u
        v = (hit & -hit).bit_length() - 1
        free ^= 1 << v
        x = -1
        while x != u:
            x = via[v]
            owner[v], partner[x], v = x, v, partner[x]
    # The vertices that 0 reaches, as their image under M: from M(x) the
    # reach steps to every v that x beats.
    image = _closure([out_rows[x] for x in owner], 1 << partner[0])
    if image != every:
        return mask_of(owner[v] for v in bits(image))
    # The vertices that reach 0: x′ is reached from every x that beats M(x′).
    back = _closure([in_rows[v] for v in partner], 1)
    return None if back == every else every ^ back


def _closure(rows: list[int], start: int) -> int:
    """The vertices reachable from ``start`` where v steps to ``rows[v]``."""
    reach = new = start
    while new:
        step = 0
        for v in bit_list(new):
            step |= rows[v]
        new = step & ~reach
        reach |= new
    return reach


def _exact_expander_sweep(
    G: Tournament, mu: Fraction, nu: Fraction
) -> ExpanderVerdict:
    """The exact verdict of :func:`_gray_sweep`, found faster where it can.

    At ⌈μn⌉ = 1 the window picks the route.  Over the full window
    1 ≤ |S| ≤ n − 1 a perfect matching and two reaches decide expansion
    (:func:`_matching_failing_set`); over a partial window at n ≥
    ``_SEARCH_MIN_N``, :func:`_failing_set_search` looks for a failing set.
    If the route finds none, the host is an expander and ``samples`` is
    the count of in-window subsets the sweep would have examined.  If it
    finds one, the set is recounted and the sweep names the Gray-first
    witness and its sample count; a recount or a sweep that disagrees with
    the route raises :class:`GraphDefectError`.  A partial window below 16
    vertices is swept, which costs about what the search does on an
    expander and less on a non-expander; at ⌈μn⌉ ≥ 2 neither route's test
    decides expansion."""
    n = G.n
    lo, hi = _size_window(n, nu)
    # ⌈μn⌉ without building a Fraction, as _size_window does.
    if -(-mu.numerator * n // mu.denominator) != 1 or lo > hi:
        return _gray_sweep(G, mu, nu)
    if lo == 1 and hi == n - 1:
        route, S = "matching", _matching_failing_set(G)
    elif n >= _SEARCH_MIN_N:
        route, S = "failing-set search", _failing_set_search(G, lo, hi)
    else:
        return _gray_sweep(G, mu, nu)
    if S is None:
        samples = sum(math.comb(n, s) for s in range(lo, hi + 1))
        return ExpanderVerdict(EXPANDER, "exact", mu, nu, samples=samples)
    if not _witness_fails(G, S, mu, nu):
        raise GraphDefectError(f"the {route} named a set that expands")
    verdict = _gray_sweep(G, mu, nu)
    if verdict.status != NOT_EXPANDER:
        raise GraphDefectError(
            f"the {route} found a failing set the sweep missed"
        )
    return verdict


def _sampled_candidates(G: Tournament, lo: int, hi: int, seed: int):
    """Deterministic candidate sets: degree prefixes/suffixes,
    neighbourhoods and their complements, then seeded random sets."""
    n = G.n
    order = sorted(range(n), key=lambda v: (G.out_deg(v), v))
    for k in range(lo, hi + 1):
        yield mask_of(order[:k])
        yield mask_of(order[n - k :])
    every = full_mask(n)
    for v in range(n):
        for cand in (G.out_rows[v], G.in_rows[v]):
            yield cand
            yield every & ~cand
    rng = stream(seed, "expansion:sample")
    while True:
        k = lo + rng.next_below(hi - lo + 1)
        pool = list(range(n))
        chosen = 0
        for i in range(k):
            j = i + rng.next_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            chosen |= 1 << pool[i]
        yield chosen


def _check_sample_budget(sample_budget: int) -> None:
    if sample_budget < 0:
        raise ValueError(f"sample budget must be at least 0, got {sample_budget}")


def _sampled_expander_check(
    G: Tournament, mu: Fraction, nu: Fraction, sample_budget: int, seed: int
) -> ExpanderVerdict:
    n = G.n
    lo, hi = _size_window(n, nu)
    if lo > hi:
        return ExpanderVerdict(EXPANDER, "sampled", mu, nu, samples=0)
    t = _ceil(mu * n)
    in_rows = G.in_rows
    # Candidates repeat and repeats do not count, so the budget is capped by
    # the window's subset count: a small window ends once all are tried.
    limit = 0
    for k in range(lo, hi + 1):
        limit = min(limit + math.comb(n, k), sample_budget)
        if limit == sample_budget:
            break
    seen: set[int] = set()
    checked = 0
    for S in _sampled_candidates(G, lo, hi, seed):
        if checked >= limit:
            break
        size = S.bit_count()
        if S in seen or not (lo <= size <= hi):
            continue
        seen.add(S)
        checked += 1
        # |robust out-neighbourhood of S|, counted inline: calling
        # robust_out_neighbourhood would re-validate μ for every sample.
        if sum((row & S).bit_count() >= t for row in in_rows) < size + t:
            if not _witness_fails(G, S, mu, nu):
                raise GraphDefectError("sampled expander witness failed recheck")
            return ExpanderVerdict(
                NOT_EXPANDER, "sampled", mu, nu, witness=S, samples=checked
            )
    return ExpanderVerdict(UNKNOWN, "sampled", mu, nu, samples=checked)


def is_robust_outexpander(
    G: Tournament,
    mu,
    nu,
    mode: str = "exact",
    sample_budget: int = 1000,
    *,
    seed: int = 0,
) -> ExpanderVerdict:
    """Decide (exact) or probe (sampled) the robust-outexpander property.

    Exact mode decides all ``2^n`` subsets and is capped at ``n = 20``; it
    never returns Unknown.  At ⌈μn⌉ = 1 it first looks for a failing set:
    over the full window 1 ≤ |S| ≤ n − 1 by a perfect matching and strong
    connectivity (:func:`_matching_failing_set`, polynomial), over a
    partial window at ``n ≥ 16`` by a search
    (:func:`_failing_set_search`).  If there is none the verdict is
    Expander, with the in-window subset count as ``samples``, and
    otherwise the sweep below names the witness.  The sweep holds the
    subsets of the low ``k = min(n, 12)`` vertices as the bit lanes of one
    ``2^k``-bit int and walks the ``2^(n−k)`` subsets of the other
    vertices in Gray order, so each step decides ``2^k`` subsets with
    bit-sliced counters.  It returns
    the first failing subset, and the in-window subset count up to it, of
    the Gray order ``i ^ (i >> 1)``.  Each step counts only the short
    vertices, those with fewer than ``⌈μn⌉`` in-neighbours in the high
    part, in a counter offset by the target, and reads the failing lanes
    off one bit plane.  A vertex's lanes come from two half-tables over
    the bottom 6 and the top ``k − 6`` low vertices, cached per ``k``.  A
    full sweep at ``n = 20`` (an expander, so no early exit) measured
    0.9–2.2 ms on random hosts at μ = 1/20 and 3.1–6.6 ms at μ = 1/10,
    where one subset at a time took about 1.2 s.  The matching instead
    settles a random 20-vertex host at μ = ν = 1/20 in about 18 µs, and
    the search a random 20-vertex expander at ν = 1/5 in about 0.2 ms;
    each adds that much to the sweep of a non-expander.
    Sampled mode tries degree-order prefixes/suffixes, vertex
    neighbourhoods and their complements, then seeded random sets,
    counting each robust out-neighbourhood against ``⌈μn⌉`` computed
    once; failure to falsify is Unknown, never a certificate.  It
    examines at most ``sample_budget`` distinct in-window sets, or every
    in-window set when the window holds fewer; a negative budget is a
    ValueError.  Negative verdicts always carry a witness that has been
    re-validated by direct recount.
    """
    mu_f = _check_unit_interval("mu", mu, closed_top=True)
    nu_f = _check_unit_interval("nu", nu, closed_top=True)
    if mode == "exact":
        if G.n > EXACT_EXPANDER_MAX_N:
            raise ValueError(
                f"exact expander check sweeps 2^n subsets; n = {G.n} exceeds "
                f"the cap of {EXACT_EXPANDER_MAX_N}"
            )
        return _exact_expander_sweep(G, mu_f, nu_f)
    if mode == "sampled":
        _check_sample_budget(sample_budget)
        return _sampled_expander_check(G, mu_f, nu_f, sample_budget, seed)
    raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")


class SplitSearchExhausted(RuntimeError):
    """No qualifying partition or falsifying sample was found in budget.

    This marks a search giving up, not a mathematical certificate: the
    object may exist beyond the examined candidates.
    """


class SplitRegimeError(RuntimeError):
    """The parameters are outside the regime where the decomposition works.

    The paper's parameter hierarchy is asymptotic: at small ``n`` the
    deletion threshold ``⌈√η·n⌉`` is reached after a few splits, so the
    pieces may cover too few vertices, or the split loop may not shrink;
    and where that threshold rounds above ``⌊γ·n⌋`` (``n`` ≤ 4, 8 and 9 at
    the CLI defaults), a kept vertex may have more back arcs than the
    ordering allows.  ``postcondition`` names which: ``"coverage"``,
    ``"iteration_cap"`` or ``"back_arcs"``.
    This is an outcome for the given parameters and scale, not a defect;
    every other postcondition of :func:`tournament_split` failing is a
    :class:`GraphDefectError`.
    """

    def __init__(self, postcondition: str, message: str):
        super().__init__(message)
        self.postcondition = postcondition


def _strict_window(n: int, nu: Fraction) -> tuple[int, int]:
    """Strict range ν·n < |S| < (1−ν)·n as integer bounds."""
    return _floor(nu * n) + 1, _ceil((1 - nu) * n) - 1


def non_expander_split(
    G: Tournament,
    mu,
    nu,
    witness: int | None = None,
) -> tuple[int, int]:
    """Partition a non-expander into (S, S′) with few arcs S → S′.

    Requires ``ν·n < |S|, |S′| < (1−ν)·n`` and ``e(S→S′) ≤ 4μn²``.  The
    candidates for S are three families: the non-expansion witness and
    its complement, each moved into the size window one vertex at a time
    by greedy repair, and every prefix of the out-degree order (ascending,
    ties by index) whose length lies in the window.  The candidate with
    the least ``(e(S→S′), S)`` is returned once its count is verified
    against ``4μn²``.  The repaired sets are counted directly; the prefix
    counts are kept incrementally (adding w gains ``|out(w) ∖ S|`` and
    loses ``|in(w) ∩ S|``), so all prefixes together cost O(n) row
    popcounts.  If it exceeds the bound, raises
    :class:`SplitSearchExhausted` — the partition is guaranteed to exist
    asymptotically, but the search is not exhaustive.
    """
    mu_f = _check_unit_interval("mu", mu, closed_top=True)
    nu_f = _check_unit_interval("nu", nu, closed_top=True)
    n = G.n
    if witness is None:
        verdict = make_expander_checker()(G, mu_f, nu_f)
        if verdict.status == EXPANDER:
            raise ValueError(
                "precondition failed: the tournament is a robust "
                f"({mu_f},{nu_f})-outexpander"
            )
        if verdict.status == UNKNOWN:
            raise ValueError(
                "precondition not established: sampling produced no "
                "non-expander witness; supply one explicitly"
            )
        witness = verdict.witness
    else:
        if not _witness_fails(G, witness, mu_f, nu_f):
            raise ValueError(
                "supplied witness does not certify the non-expander "
                "precondition"
            )
    assert witness is not None
    lo, hi = _strict_window(n, nu_f)
    if lo > hi:
        raise SplitSearchExhausted(
            f"no integer size satisfies {nu_f}·{n} < |S| < {1 - nu_f}·{n}"
        )
    every = full_mask(n)
    bound = 4 * mu_f * n * n

    def cost(S: int) -> int:
        return directed_edge_count(G, S, every & ~S)

    def repair(S: int) -> int:
        """Move single vertices to restore the strict size window."""
        while S.bit_count() < lo:
            comp = every & ~S
            # adding the vertex with fewest out-arcs into the complement
            # keeps the forward count low
            best = min(
                bits(comp),
                key=lambda v: ((G.out_rows[v] & comp).bit_count(), v),
            )
            S |= 1 << best
        while S.bit_count() > hi:
            best = min(
                bits(S), key=lambda v: ((G.in_rows[v] & S).bit_count(), v)
            )
            S &= ~(1 << best)
        return S

    # repair() moves the witness and its complement into the strict
    # window; the degree-order prefixes lie in it by their length.
    best_cost, best = min(
        (cost(S), S) for S in (repair(witness), repair(every & ~witness))
    )
    # Prefix costs incrementally: adding w to S gains the arcs from w to
    # the rest and loses the arcs from S into w.
    deg_order = sorted(range(n), key=lambda v: (G.out_deg(v), v))
    S = forward = 0
    for k, w in enumerate(deg_order[:hi], 1):
        forward += (G.out_rows[w] & ~S).bit_count() - (G.in_rows[w] & S).bit_count()
        S |= 1 << w
        if k >= lo and (forward, S) < (best_cost, best):
            best_cost, best = forward, S
    if best_cost <= bound:
        return best, every & ~best
    raise SplitSearchExhausted(
        f"best partition found has e(S→S′) = {best_cost} > 4μn² = {bound}"
    )


@dataclass(frozen=True)
class SplitResult:
    """Ordered decomposition produced by :func:`tournament_split`.

    ``pieces`` are disjoint vertex masks; ``classification[i]`` is
    ``"expander"``, ``"small"`` or ``"unknown"`` (checker could not
    decide); ``verdicts[i]`` carries the checker record for expander
    pieces.  ``bad_edges`` is the accumulated set of backward arcs and
    ``deleted`` the vertices removed for touching more than ``√η·n`` of
    them.
    """

    pieces: tuple[int, ...]
    classification: tuple[str, ...]
    verdicts: tuple[ExpanderVerdict | None, ...]
    bad_edges: frozenset[tuple[int, int]]
    deleted: int
    mu: Fraction
    nu: Fraction
    eta: Fraction
    gamma: Fraction

    @property
    def covered(self) -> int:
        out = 0
        for p in self.pieces:
            out |= p
        return out


ExpanderChecker = Callable[[Tournament, Fraction, Fraction], ExpanderVerdict]


def make_expander_checker(
    exact_limit: int = EXACT_EXPANDER_MAX_N,
    sample_budget: int = 1000,
    seed: int = 0,
) -> ExpanderChecker:
    """A checker that is exact up to ``exact_limit`` vertices, sampled above.

    An ``exact_limit`` above the exact cap or a negative ``sample_budget``
    is a ValueError.
    """
    if exact_limit > EXACT_EXPANDER_MAX_N:
        raise ValueError(
            f"exact_limit cannot exceed {EXACT_EXPANDER_MAX_N}"
        )
    _check_sample_budget(sample_budget)

    def check(H: Tournament, mu: Fraction, nu: Fraction) -> ExpanderVerdict:
        if H.n <= exact_limit:
            return is_robust_outexpander(H, mu, nu, "exact")
        return is_robust_outexpander(
            H, mu, nu, "sampled", sample_budget, seed=seed
        )

    return check


def _deletion_threshold(n: int, eta: Fraction) -> int:
    """Integerized deletion threshold ⌈√η·n⌉: the smallest integer t with
    t²·denominator ≥ n²·numerator, so every test against it stays exact."""
    tau = math.isqrt(n * n * eta.numerator // eta.denominator)
    while tau * tau * eta.denominator < n * n * eta.numerator:
        tau += 1
    return tau


def _min_semidegree(H: Tournament) -> int:
    return min(map(int.bit_count, H.out_rows + H.in_rows))


def tournament_split(
    G: Tournament,
    mu,
    nu,
    eta,
    gamma,
    expander_checker: ExpanderChecker | None = None,
) -> SplitResult:
    """Split G into ordered pieces, each small or a robust outexpander.

    Maintains an ordered family of disjoint pieces and a set of bad
    (backward) arcs.  Repeatedly, the largest piece that is not a robust
    (μ,ν)-outexpander with minimum semidegree ≥ η·n — ties to the
    earliest position — is split: a vertex of in-piece out-degree < η·n
    moves to a new singleton piece just after the remainder (its forward
    arcs become bad); symmetrically for in-degree, the singleton going
    just before; otherwise the piece is partitioned around its
    non-expander witness with the sparse arc direction backward.  After
    every split, any vertex lying in more than ``⌈√η·n⌉`` bad arcs is
    deleted (the ceiling is the usual integerization of a fractional
    count threshold).  The loop ends when every splittable piece is an expander,
    undecided (checker Unknown or split search exhausted — classified
    ``"unknown"``), or smaller than γ·n.

    Each distinct piece mask is computed once per call: a dict keyed by
    the mask holds its induced subtournament, the ids of its vertices and
    its minimum semidegree, and the loop's failure test, the split step
    and the final classification all read from it (checker verdicts are
    kept per mask the same way).

    Verified before returning, independently of that cache: the pieces
    cover ≥ (1−γ)·n vertices; no vertex has more than γ·n in-neighbours
    in later pieces or γ·n out-neighbours in earlier pieces;
    expander-classified pieces re-certify (exactly up to 20 vertices,
    sampled above) on a subtournament and a semidegree recount that the
    re-check builds itself.  Too little coverage, a loop that hits its
    iteration cap, or too many back arcs at a vertex where ``⌈√η·n⌉``
    exceeds ``⌊γ·n⌋``, raises :class:`SplitRegimeError`; any other failed
    check raises :class:`GraphDefectError`.
    """
    mu_f = _check_unit_interval("mu", mu, closed_top=False)
    nu_f = _check_unit_interval("nu", nu, closed_top=False)
    eta_f = _check_unit_interval("eta", eta, closed_top=False)
    gamma_f = _check_unit_interval("gamma", gamma, closed_top=False)
    checker = expander_checker or make_expander_checker()
    n = G.n
    # An integer is below η·n iff it is below ⌈η·n⌉; likewise for γ·n.
    eta_deg = _ceil(eta_f * n)
    small_below = _ceil(gamma_f * n)
    tau = _deletion_threshold(n, eta_f)

    pieces: list[int] = [full_mask(n)] if n else []
    bad: set[tuple[int, int]] = set()
    deleted = 0
    # mask -> (induced subtournament, its vertices' ids in G, min semidegree)
    piece_cache: dict[int, tuple[Tournament, list[int], int]] = {}
    verdict_cache: dict[int, ExpanderVerdict] = {}
    frozen: set[int] = set()

    def piece(mask: int) -> tuple[Tournament, list[int], int]:
        if mask not in piece_cache:
            H, ids = G.induced(mask)
            piece_cache[mask] = H, ids, _min_semidegree(H)
        return piece_cache[mask]

    def piece_verdict(mask: int) -> ExpanderVerdict:
        if mask not in verdict_cache:
            verdict_cache[mask] = checker(piece(mask)[0], mu_f, nu_f)
        return verdict_cache[mask]

    def fails(mask: int) -> bool:
        """True when the piece needs splitting (and can be split)."""
        size = mask.bit_count()
        if size < 2 or mask in frozen:
            return False
        if piece(mask)[2] < eta_deg:
            return True
        return piece_verdict(mask).status == NOT_EXPANDER

    for _ in range(4 * n + 4):
        failing = [i for i, p in enumerate(pieces) if fails(p)]
        if not failing:
            break
        ell = max(failing, key=lambda i: (pieces[i].bit_count(), -i))
        S = pieces[ell]
        if S.bit_count() < small_below:
            break
        H, ids, least = piece(S)
        # A piece of minimum semidegree ≥ ⌈η·n⌉ has no low vertex to find.
        scan = range(H.n) if least < eta_deg else ()
        low_out = next((v for v in scan if H.out_deg(v) < eta_deg), None)
        low_in = next((v for v in scan if H.in_deg(v) < eta_deg), None)
        if low_out is not None:
            v = ids[low_out]
            rest = S & ~(1 << v)
            pieces[ell : ell + 1] = [rest, 1 << v]
            bad.update((v, u) for u in bits(G.out_rows[v] & rest))
        elif low_in is not None:
            v = ids[low_in]
            rest = S & ~(1 << v)
            pieces[ell : ell + 1] = [1 << v, rest]
            bad.update((u, v) for u in bits(G.in_rows[v] & rest))
        else:
            verdict = piece_verdict(S)
            try:
                loc_a, loc_b = non_expander_split(
                    H, mu_f, nu_f, witness=verdict.witness
                )
            except SplitSearchExhausted:
                frozen.add(S)
                continue
            glob_a = mask_of(ids[i] for i in bits(loc_a))
            glob_b = mask_of(ids[i] for i in bits(loc_b))
            # sparse direction a -> b goes backward: b comes first
            pieces[ell : ell + 1] = [glob_b, glob_a]
            for u in bits(glob_a):
                bad.update((u, w) for w in bits(G.out_rows[u] & glob_b))
        bad_deg = [0] * n
        for u, w in bad:
            bad_deg[u] += 1
            bad_deg[w] += 1
        overloaded = mask_of(v for v in range(n) if bad_deg[v] > tau)
        newly = 0
        for i, p in enumerate(pieces):
            newly |= p & overloaded
            pieces[i] = p & ~overloaded
        deleted |= newly
    else:
        raise SplitRegimeError(
            "iteration_cap",
            "split loop exceeded its iteration cap; the parameters are "
            "probably outside the regime where the decomposition shrinks",
        )

    pieces = [p for p in pieces if p]
    classification: list[str] = []
    verdicts: list[ExpanderVerdict | None] = []
    for p in pieces:
        if p.bit_count() < small_below:
            classification.append(SMALL)
            verdicts.append(None)
            continue
        verdict = piece_verdict(p)
        if verdict.status == EXPANDER and piece(p)[2] >= eta_deg:
            classification.append(EXPANDER)
            verdicts.append(verdict)
        else:
            classification.append(UNKNOWN)
            verdicts.append(verdict)

    result = SplitResult(
        pieces=tuple(pieces),
        classification=tuple(classification),
        verdicts=tuple(verdicts),
        bad_edges=frozenset(bad),
        deleted=deleted,
        mu=mu_f,
        nu=nu_f,
        eta=eta_f,
        gamma=gamma_f,
    )
    _verify_split(G, result)
    return result


def _verify_split(G: Tournament, result: SplitResult) -> None:
    n = G.n
    # Integer counts against the Fraction thresholds, each as one integer:
    # x > γ·n iff x > ⌊γ·n⌋, and x < c·n iff x < ⌈c·n⌉.
    gamma_deg = _floor(result.gamma * n)
    small_below = _ceil(result.gamma * n)
    eta_deg = _ceil(result.eta * n)
    covered = result.covered
    if covered & result.deleted:
        raise GraphDefectError("a deleted vertex remained in a piece")
    if covered.bit_count() < _ceil((1 - result.gamma) * n):
        raise SplitRegimeError(
            "coverage",
            f"pieces cover only {covered.bit_count()} of {n} vertices, below "
            f"(1−γ)·n = {(1 - result.gamma) * n}; too many step-(5) deletions "
            "for these parameters at this scale",
        )
    tau = _deletion_threshold(n, result.eta)

    def back_arc_error(message: str) -> Exception:
        # A vertex keeps up to ⌈√η·n⌉ bad arcs, so where that exceeds
        # ⌊γ·n⌋ (n ≤ 4, 8 and 9 at η = 1/50, γ = 1/5) too many back arcs
        # are an outcome of the rounding, not a defect.
        if tau <= gamma_deg:
            return GraphDefectError(message)
        return SplitRegimeError(
            "back_arcs",
            f"{message}; a vertex may keep ⌈√η·n⌉ = {tau} bad arcs, above "
            f"⌊γ·n⌋ = {gamma_deg} at this scale",
        )

    later = covered
    for p in result.pieces:
        later &= ~p
        for v in bits(p):
            if (G.in_rows[v] & later).bit_count() > gamma_deg:
                raise back_arc_error(
                    f"vertex {v} has more than γ·n in-neighbours in later pieces"
                )
    earlier = 0
    for p in result.pieces:
        for v in bits(p):
            if (G.out_rows[v] & earlier).bit_count() > gamma_deg:
                raise back_arc_error(
                    f"vertex {v} has more than γ·n out-neighbours in earlier pieces"
                )
        earlier |= p
    for p, label in zip(result.pieces, result.classification):
        if label == SMALL:
            if not p.bit_count() < small_below:
                raise GraphDefectError("a piece classified small is not small")
            continue
        if label != EXPANDER:
            continue
        H, _ = G.induced(p)
        if _min_semidegree(H) < eta_deg:
            raise GraphDefectError(
                "an expander-classified piece has minimum semidegree below η·n"
            )
        if H.n <= EXACT_EXPANDER_MAX_N:
            verdict = is_robust_outexpander(H, result.mu, result.nu, "exact")
            if verdict.status != EXPANDER:
                raise GraphDefectError(
                    "an expander-classified piece failed the exact recheck"
                )
        else:
            verdict = is_robust_outexpander(
                H, result.mu, result.nu, "sampled", 200
            )
            if verdict.status == NOT_EXPANDER:
                raise GraphDefectError(
                    "an expander-classified piece was falsified by sampling"
                )
