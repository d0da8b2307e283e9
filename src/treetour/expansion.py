"""Robust out-expansion: verdicts and splits.

A tournament on ``n`` vertices is a robust (μ,ν)-outexpander when every
vertex set ``S`` with ``ν·n ≤ |S| ≤ (1−ν)·n`` has a robust
out-neighbourhood of size at least ``|S| + ⌈μ·n⌉``, where the robust
out-neighbourhood collects the vertices with at least ``⌈μ·n⌉``
in-neighbours inside ``S``.  This module provides:

* :func:`robust_out_neighbourhood` and :func:`is_robust_outexpander`
  (exact subset sweep up to ``n = 20``, structured-plus-random sampling
  above, with every negative verdict carrying a re-validated witness).
  The exact sweep is bit-parallel: the subsets of the low 12 vertices are
  the bit lanes of one 4096-bit int, so it loops over the 2^(n−12) subsets
  of the other vertices and decides 4096 subsets per step with big-int
  and/xor.  Per step, only the short vertices (fewer than ⌈μn⌉
  in-neighbours in the step's high subset) enter a bit-sliced counter,
  which starts at 2^P minus each lane's target, so one plane tells the
  lanes below target.  Its worst case, a full sweep
  of an expander at ``n = 20`` (no early exit), measured 0.9–2.2 ms at
  μ = 1/20 (ν ∈ {1/20, 1/10, 1/5}) and 3.1–6.6 ms at μ = 1/10, ν = 1/5,
  where about three times as many vertices are short, on the expanders
  among ``random_tournament(20, s)``, s = 0..9 (Python 3.11, one core of
  a shared 2-vCPU Xeon); a walk of one subset at a time took about 1.2 s;
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
from typing import Callable, Sequence

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
    """Admissible |S| range: ν·n ≤ |S| ≤ (1−ν)·n."""
    return _ceil(nu * n), _floor((1 - nu) * n)


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
# vertex mask is m.
_LANE_BITS = 12


def _lane_patterns(k: int) -> list[int]:
    """For each low vertex u < k, the lanes whose subset contains u."""
    width = 1 << k
    patterns = []
    for u in range(k):
        run = 1 << u
        pattern, period = ((1 << run) - 1) << run, 2 * run
        while period < width:
            pattern |= pattern << period
            period *= 2
        patterns.append(pattern)
    return patterns


def _lanes_at_least(
    members: int, patterns: Sequence[int], every: int, top: int
) -> list[int]:
    """Entry s, 0 ≤ s ≤ top: the lanes whose subset holds at least s of
    ``members``.  Entry s depends only on entries s and s − 1, so the
    table stops growing at ``top``."""
    at_least = [every]
    for u in bits(members):
        if len(at_least) <= top:
            at_least.append(0)
        for s in range(len(at_least) - 1, 0, -1):
            at_least[s] |= at_least[s - 1] & patterns[u]
    return at_least


@lru_cache(maxsize=_LANE_BITS)
def _lane_tables(k: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The lane tables of a k-bit block, which depend on k alone: every
    lane, the lane pattern of each low vertex, and entry s the lanes whose
    subset has exactly s vertices.  The sweep uses k = 1 .. ``_LANE_BITS``,
    so every k it meets stays cached."""
    every = full_mask(1 << k)
    patterns = tuple(_lane_patterns(k))
    size_at_least = _lanes_at_least(full_mask(k), patterns, every, k) + [0]
    size_lanes = tuple(size_at_least[s] ^ size_at_least[s + 1] for s in range(k + 1))
    return every, patterns, size_lanes


@lru_cache(maxsize=256)
def _offset_planes(k: int, base: int, top: int) -> tuple[int, ...]:
    """Bit planes 0..top of 2^top − max(0, |S_low| + base), lane by lane.

    A counter started here reaches 2^top, so sets plane ``top``, exactly
    on the lanes where at least max(0, |S_low| + base) indicators were
    added, as long as the target is at most 2^top and the indicator count
    below 2^top."""
    size_lanes = _lane_tables(k)[2]
    planes = [0] * (top + 1)
    for s in range(k + 1):
        for j in bits((1 << top) - max(0, s + base)):
            planes[j] |= size_lanes[s]
    return tuple(planes)


def _exact_expander_sweep(
    G: Tournament, mu: Fraction, nu: Fraction
) -> ExpanderVerdict:
    """Every subset in the order of the Gray code i ^ (i >> 1), i = 1..2^n−1.

    Subset i splits into a high part (vertices k..n−1) and a low part
    (vertices 0..k−1), k = min(n, _LANE_BITS).  The walk goes over the
    2^(n−k) high parts in Gray order, keeping a_v = |in(v) ∩ S_high| and
    the mask of the short vertices, those with a_v < ⌈μn⌉.  Every other
    vertex is in the robust out-neighbourhood of every lane of the block,
    so it only lowers the target; a short v is in it on the lanes where
    |in(v) ∩ S_low| ≥ ⌈μn⌉ − a_v, a precomputed table that stops at
    ⌈μn⌉.  Each block starts a bit-sliced counter at 2^top minus the
    target max(0, |S_low| + |S_high| + ⌈μn⌉ − #non-short), top =
    (n + ⌈μn⌉).bit_length(), adds the indicators of the short vertices,
    and reads the lanes below target as the in-window lanes where plane
    ``top`` is clear.  Block b visits lane gray(l) ^ ((b & 1) << (k−1))
    at step l, so the violating lane of smallest step is the subset the
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
    every, patterns, size_lanes = _lane_tables(k)
    # need_tables[v][need] for 1 ≤ need ≤ min(t, |in(v) ∩ low|).
    need_tables = [
        _lanes_at_least(G.in_rows[v] & full_mask(k), patterns, every, t)
        for v in range(n)
    ]
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
            flip = (b & 1) << (k - 1)
            in_window = format(window, f"0{1 << k}b")[::-1]
            violating = format(below, f"0{1 << k}b")[::-1]
            for l in range(1 << k):
                m = l ^ (l >> 1) ^ flip
                if in_window[m] == "1":
                    checked += 1
                    if violating[m] == "1":
                        break
            S = m | high << k
            if not _witness_fails(G, S, mu, nu):
                raise GraphDefectError(
                    "incremental expander counters disagree with the "
                    "direct recount"
                )
            return ExpanderVerdict(
                NOT_EXPANDER, "exact", mu, nu, witness=S, samples=checked
            )
        checked += window.bit_count()
    return ExpanderVerdict(EXPANDER, "exact", mu, nu, samples=checked)


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


def _sampled_expander_check(
    G: Tournament, mu: Fraction, nu: Fraction, sample_budget: int, seed: int
) -> ExpanderVerdict:
    n = G.n
    lo, hi = _size_window(n, nu)
    if lo > hi:
        return ExpanderVerdict(EXPANDER, "sampled", mu, nu, samples=0)
    t = _ceil(mu * n)
    in_rows = G.in_rows
    seen: set[int] = set()
    checked = 0
    for S in _sampled_candidates(G, lo, hi, seed):
        if checked >= sample_budget:
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
    never returns Unknown.  It holds the subsets of the low
    ``k = min(n, 12)`` vertices as the bit lanes of one ``2^k``-bit int and
    walks the ``2^(n−k)`` subsets of the other vertices in Gray order, so
    each step decides ``2^k`` subsets with bit-sliced counters.  It returns
    the first failing subset, and the in-window subset count up to it, of
    the Gray order ``i ^ (i >> 1)``.  Each step counts only the short
    vertices, those with fewer than ``⌈μn⌉`` in-neighbours in the high
    part, in a counter offset by the target, and reads the failing lanes
    off one bit plane.  A full sweep at ``n = 20`` (an expander, so no
    early exit) measured 0.9–2.2 ms on random hosts at μ = 1/20 and
    3.1–6.6 ms at μ = 1/10, where one subset at a time took about 1.2 s.
    Sampled mode tries degree-order prefixes/suffixes, vertex
    neighbourhoods and their complements, then seeded random sets,
    counting each robust out-neighbourhood against ``⌈μn⌉`` computed
    once; failure to falsify is Unknown, never a certificate.  Negative
    verdicts always carry a witness that has been re-validated by direct
    recount.
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
    pieces may cover too few vertices, or the split loop may not shrink.
    ``postcondition`` names which: ``"coverage"`` or ``"iteration_cap"``.
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
    """A checker that is exact up to ``exact_limit`` vertices, sampled above."""
    if exact_limit > EXACT_EXPANDER_MAX_N:
        raise ValueError(
            f"exact_limit cannot exceed {EXACT_EXPANDER_MAX_N}"
        )

    def check(H: Tournament, mu: Fraction, nu: Fraction) -> ExpanderVerdict:
        if H.n <= exact_limit:
            return is_robust_outexpander(H, mu, nu, "exact")
        return is_robust_outexpander(
            H, mu, nu, "sampled", sample_budget, seed=seed
        )

    return check


def _min_semidegree(H: Tournament) -> int:
    return min(min(H.out_deg(v), H.in_deg(v)) for v in range(H.n))


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
    re-check builds itself.  Too little
    coverage, or a loop that hits its iteration cap, raises
    :class:`SplitRegimeError`; any other failed check raises
    :class:`GraphDefectError`.
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
    # Integerized deletion threshold ⌈√η·n⌉: smallest integer t with
    # t²·denominator ≥ n²·numerator, so the test below stays exact.
    tau = math.isqrt(n * n * eta_f.numerator // eta_f.denominator) if n else 0
    while tau * tau * eta_f.denominator < n * n * eta_f.numerator:
        tau += 1

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
        H, ids, _ = piece(S)
        low_out = next((v for v in range(H.n) if H.out_deg(v) < eta_deg), None)
        low_in = next((v for v in range(H.n) if H.in_deg(v) < eta_deg), None)
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
    later = covered
    for p in result.pieces:
        later &= ~p
        for v in bits(p):
            if (G.in_rows[v] & later).bit_count() > gamma_deg:
                raise GraphDefectError(
                    f"vertex {v} has more than γ·n in-neighbours in later pieces"
                )
    earlier = 0
    for p in result.pieces:
        for v in bits(p):
            if (G.out_rows[v] & earlier).bit_count() > gamma_deg:
                raise GraphDefectError(
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
