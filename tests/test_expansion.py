"""Robust out-expansion, expander splits, and tournament decomposition.

Witnesses are recounted from scratch here: a non-expansion witness set S
must really have a small robust out-neighbourhood, and a split must
really have few backward arcs.
"""

import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest

import treetour.expansion as expansion
import treetour.search as search
from treetour import (
    GraphDefectError,
    SplitRegimeError,
    SplitSearchExhausted,
    Tournament,
    directed_edge_count,
    is_robust_outexpander,
    make_expander_checker,
    non_expander_split,
    robust_out_neighbourhood,
    tournament_split,
)
from treetour.expansion import (
    EXPANDER,
    NOT_EXPANDER,
    UNKNOWN,
    ExpanderVerdict,
)
from treetour.generate import (
    enumerate_tournaments,
    random_tournament,
    rotational_regular_tournament,
    transitive_tournament,
)
from treetour.graphs import bit_list, bits, full_mask, mask_of

CYCLE3 = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def two_block_tournament():
    """Two rotational 11-blocks A, B with every cross arc B -> A."""
    r11 = rotational_regular_tournament(11)
    arcs = []
    for u in range(11):
        for w in range(11):
            if r11.has_arc(u, w):
                arcs.append((u, w))
                arcs.append((11 + u, 11 + w))
    arcs += [(11 + u, w) for u in range(11) for w in range(11)]
    return Tournament.from_arcs(22, arcs)


# ---------------------------------------------------------------------------
# Robust out-neighbourhoods


def test_robust_out_neighbourhood_on_cycle():
    assert robust_out_neighbourhood(CYCLE3, 0b001, Fraction(1, 3)) == 0b010


def test_robust_out_neighbourhood_thresholds_by_in_degree():
    G = transitive_tournament(10)
    # with S = V and threshold 1, every vertex with an in-arc qualifies
    assert robust_out_neighbourhood(G, full_mask(10), Fraction(1, 100)) == (
        full_mask(10) & ~1
    )
    # the sink dominates nobody
    assert robust_out_neighbourhood(G, 1 << 9, Fraction(1, 100)) == 0


def test_robust_out_neighbourhood_grows_with_seed_set():
    G = random_tournament(14, seed=5)
    mu = Fraction(1, 14)
    small = robust_out_neighbourhood(G, mask_of([0, 1]), mu)
    large = robust_out_neighbourhood(G, mask_of([0, 1, 2, 3]), mu)
    assert small & ~large == 0


# ---------------------------------------------------------------------------
# Expansion verdicts


def test_transitive_tournaments_are_not_expanders():
    v = is_robust_outexpander(
        transitive_tournament(10), Fraction(1, 10), Fraction(1, 10), "exact"
    )
    assert v.status == NOT_EXPANDER
    assert v.witness is not None
    # recount the witness: its robust out-neighbourhood must be too small
    S = v.witness
    G = transitive_tournament(10)
    rn = robust_out_neighbourhood(G, S, Fraction(1, 10))
    assert rn.bit_count() < S.bit_count() + Fraction(1, 10) * 10
    assert S.bit_count() >= Fraction(1, 10) * 10
    assert S.bit_count() <= (1 - Fraction(1, 10)) * 10


def test_rotational_tournaments_are_exact_expanders():
    v = is_robust_outexpander(
        rotational_regular_tournament(15), Fraction(1, 15), Fraction(1, 5), "exact"
    )
    assert v.status == EXPANDER
    assert v.witness is None


def test_sampled_mode_finds_transitive_witnesses_but_never_certifies():
    G = transitive_tournament(200)
    v = is_robust_outexpander(G, Fraction(1, 10), Fraction(1, 10), "sampled", 1000)
    assert v.status == NOT_EXPANDER
    S = v.witness
    rn = robust_out_neighbourhood(G, S, Fraction(1, 10))
    assert rn.bit_count() < S.bit_count() + Fraction(1, 10) * 200


def test_sampled_mode_returns_unknown_when_no_witness_surfaces():
    G = rotational_regular_tournament(51)
    v = is_robust_outexpander(G, Fraction(1, 51), Fraction(1, 5), "sampled", 50)
    assert v.status in (UNKNOWN, NOT_EXPANDER)
    if v.status == NOT_EXPANDER:
        rn = robust_out_neighbourhood(G, v.witness, Fraction(1, 51))
        assert rn.bit_count() < v.witness.bit_count() + Fraction(1, 5) * 51


def test_sampled_mode_stops_when_the_window_is_exhausted():
    # 126 subsets lie in the window [1, 6] of 7 vertices and none fails;
    # repeats are not counted, so a budget of 1000 used to spin forever.
    G = rotational_regular_tournament(7)
    mu = nu = Fraction(1, 20)
    assert is_robust_outexpander(G, mu, nu, "exact").status == EXPANDER
    v = is_robust_outexpander(G, mu, nu, "sampled", 1000)
    assert (v.status, v.witness, v.samples) == (UNKNOWN, None, 126)
    assert is_robust_outexpander(G, mu, nu, "sampled", 50).samples == 50


def test_sampled_mode_still_finds_a_planted_witness_in_a_small_window():
    # Two cyclic triangles, every cross arc from the first to the second:
    # the second triangle, and each of its vertices, expands too little.
    # The window [1, 5] holds 62 subsets, fewer than the budget.
    triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    G = Tournament.from_arcs(6, triangles + [(u, w) for u in range(3) for w in range(3, 6)])
    mu = nu = Fraction(1, 20)
    v = is_robust_outexpander(G, mu, nu, "sampled", 1000)
    assert v.status == NOT_EXPANDER
    assert robust_out_neighbourhood(G, v.witness, mu).bit_count() < v.witness.bit_count() + 1


@pytest.mark.parametrize(
    "check",
    [
        lambda: is_robust_outexpander(CYCLE3, Fraction(1, 3), Fraction(1, 3), "sampled", -1),
        lambda: make_expander_checker(sample_budget=-1),
    ],
    ids=["is_robust_outexpander", "make_expander_checker"],
)
def test_negative_sample_budgets_are_rejected(check):
    with pytest.raises(ValueError, match="sample budget must be at least 0, got -1"):
        check()


# Reference: the one-subset-at-a-time Gray walk that the bit-parallel sweep
# replaced.  Every split and digest depends on the exact verdict, witness
# and sample count, so the sweep must reproduce all three.


def _reference_exact_sweep(G, mu, nu):
    n = G.n
    lo, hi = expansion._size_window(n, nu)
    t = expansion._ceil(mu * n)
    if lo > hi:
        return ExpanderVerdict(EXPANDER, "exact", mu, nu, samples=0)
    out_lists = [bit_list(G.out_rows[v]) for v in range(n)]
    counts = [0] * n
    rn_size = 0
    size = 0
    S = 0
    checked = 0
    # Gray-code walk: subset i ^ (i >> 1) differs from its predecessor in
    # exactly bit ctz(i), so membership counters update incrementally.
    for i in range(1, 1 << n):
        u = (i & -i).bit_length() - 1
        bit = 1 << u
        if S & bit:
            S ^= bit
            size -= 1
            for v in out_lists[u]:
                c = counts[v] - 1
                counts[v] = c
                if c == t - 1:
                    rn_size -= 1
        else:
            S |= bit
            size += 1
            for v in out_lists[u]:
                c = counts[v] + 1
                counts[v] = c
                if c == t:
                    rn_size += 1
        if lo <= size <= hi:
            checked += 1
            if rn_size < size + t:
                if not expansion._witness_fails(G, S, mu, nu):
                    raise GraphDefectError(
                        "incremental expander counters disagree with the "
                        "direct recount"
                    )
                return ExpanderVerdict(
                    NOT_EXPANDER, "exact", mu, nu, witness=S, samples=checked
                )
    return ExpanderVerdict(EXPANDER, "exact", mu, nu, samples=checked)


def _transitive_blow_up(n, blocks, seed):
    """Vertices dealt to near-equal blocks by a seeded shuffle; arcs between
    blocks point from the earlier block, arcs inside are coin flips."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    block = [0] * n
    for pos, v in enumerate(perm):
        block[v] = pos * blocks // n
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            forward = block[u] < block[v] if block[u] != block[v] else rng.random() < 0.5
            arcs.append((u, v) if forward else (v, u))
    return Tournament.from_arcs(n, arcs)


SWEEP_PARAMETERS = [
    (Fraction(1, 20), Fraction(1, 20)),
    (Fraction(1, 20), Fraction(1, 5)),
    (Fraction(1, 10), Fraction(1, 5)),
    (Fraction(1, 4), Fraction(1, 10)),
    (Fraction(1, 3), Fraction(1, 3)),
]


def _sweep_hosts():
    for n in range(1, 21):
        for seed in range(3 if n <= 14 else 1):
            yield random_tournament(n, seed=seed)
    for n in (1, 2, 5, 12, 13, 17, 20):
        yield transitive_tournament(n)
    for n in (1, 3, 7, 11, 13, 15, 19):
        yield rotational_regular_tournament(n)
    for n, blocks in ((12, 2), (14, 2), (16, 3), (18, 2), (19, 2), (20, 3)):
        for seed in range(2):
            G = _transitive_blow_up(n, blocks, seed)
            yield G
            yield G.reverse()


def _spy_on_routes(monkeypatch):
    """Patch both ⌈μn⌉ = 1 routes to record their name in the list
    returned; a check that only sweeps leaves it empty."""
    taken = []
    for name, route in (("matching", "_matching_failing_set"),
                        ("search", "_failing_set_search")):
        def spy(*args, name=name, found=getattr(expansion, route)):
            taken.append(name)
            return found(*args)
        monkeypatch.setattr(expansion, route, spy)
    return taken


def test_exact_sweep_matches_the_reference_walk(monkeypatch):
    tally = {"small": 0, "expander": 0, "refuted": 0, "later block": 0, "empty": 0}
    # (route, n, status) of the verdicts that a ⌈μn⌉ = 1 route decides
    routed = set()
    taken = _spy_on_routes(monkeypatch)
    for G in _sweep_hosts():
        n = G.n
        for mu, nu in SWEEP_PARAMETERS:
            taken.clear()
            got = is_robust_outexpander(G, mu, nu, "exact")
            assert got == _reference_exact_sweep(G, mu, nu), (n, mu, nu)
            tally["small" if n <= 12 else "expander" if got.is_expander else "refuted"] += 1
            if taken:
                routed.add((*taken, n, got.status))
            if got.is_expander:
                # every in-window subset was examined: a closed-form recount
                lo = math.ceil(nu * n)
                hi = math.floor((1 - nu) * n)
                assert got.samples == sum(math.comb(n, s) for s in range(lo, hi + 1))
                tally["empty"] += lo > hi
            elif n > 12 and got.witness >> 12:
                tally["later block"] += 1
    # both lane layouts, both verdicts, empty size windows, and witnesses
    # past the first block
    assert tally["small"] and tally["expander"] and tally["refuted"] and tally["empty"]
    assert tally["later block"] >= 5, tally
    # Both verdicts on both routes: after the search at every size it runs
    # at, after the matching at every size from 2 on, on either lane layout.
    both = {EXPANDER, NOT_EXPANDER}
    assert {r for r in routed if r[0] == "search"} == {
        ("search", n, status) for n in range(16, 21) for status in both
    }
    matched = {(n, status) for route, n, status in routed if route == "matching"}
    assert {n for n, _ in matched} == set(range(2, 21))
    assert {status for n, status in matched if n <= 12} == both
    assert {status for n, status in matched if n > 12} == both


def _visited_block_shapes(G, mu, nu, verdict):
    """Recount, for each block the sweep visits with a non-empty size
    window, what it has to handle: no short vertex (a_v < ⌈μn⌉ for none),
    in-window lanes whose target max(0, |S_low| + base) is 0, and a short
    vertex whose need table is read past entry 1.  Blocks go in the Gray
    order of the high parts, up to the witness's block."""
    n = G.n
    k = min(n, 12)
    lo, hi = math.ceil(nu * n), math.floor((1 - nu) * n)
    t = math.ceil(mu * n)
    last = None if verdict.is_expander else verdict.witness >> k
    shapes = set()
    for b in range(1 << (n - k)):
        high = b ^ (b >> 1)
        h = high.bit_count()
        if max(0, lo - h) <= min(k, hi - h):
            high_set = high << k
            a = [(G.in_rows[v] & high_set).bit_count() for v in range(n)]
            short = [v for v in range(n) if a[v] < t]
            base = h + t - (n - len(short))
            if not short:
                shapes.add("no short vertex")
            if max(0, lo - h) + base <= 0:
                shapes.add("zero target")
            if any(1 < t - a[v] <= (G.in_rows[v] & full_mask(k)).bit_count() for v in short):
                shapes.add("need past 1")
        if high == last:
            break
    return shapes


def test_exact_sweep_matches_the_reference_at_larger_thresholds():
    """⌈μn⌉ = 2 and 3 read the shortened need tables past entry 1.  At
    ⌈μn⌉ = 1 a random expander host has high parts that reach every
    vertex, which leaves a block with no short vertex, and high parts
    that reach more vertices than |S_high| + 1, which gives lanes whose
    target is 0."""
    seen = {"no short vertex": 0, "zero target": 0, "need past 1": 0}
    verdicts = set()
    cases = []
    for n in range(13, 21):
        G = random_tournament(n, seed=100 + n)
        for t in (2, 3):
            cases.append((G, Fraction(t, n), Fraction(1, 5)))
    for n in (13, 15, 17, 19):
        for t in (1, 2, 3):
            cases.append((rotational_regular_tournament(n), Fraction(t, n), Fraction(1, 20)))
    for n, seed in ((16, 2), (17, 1), (18, 0)):
        cases.append((random_tournament(n, seed=seed), Fraction(1, 40), Fraction(1, 20)))
    for n in (13, 16, 20):
        cases.append((transitive_tournament(n), Fraction(1, 40), Fraction(1, 20)))
    for n, blocks in ((14, 2), (17, 3)):
        G = _transitive_blow_up(n, blocks, 5)
        for H in (G, G.reverse()):
            cases.append((H, Fraction(1, 40), Fraction(1, 20)))
            cases.append((H, Fraction(2, n), Fraction(1, 10)))
    for G, mu, nu in cases:
        got = is_robust_outexpander(G, mu, nu, "exact")
        assert got == _reference_exact_sweep(G, mu, nu), (G.n, mu, nu)
        verdicts.add(got.status)
        for shape in _visited_block_shapes(G, mu, nu, got):
            seen[shape] += 1
    assert verdicts == {EXPANDER, NOT_EXPANDER}
    assert all(seen.values()), seen


def _search_refutes(G, mu, nu):
    """The failing-set search's answer, with any set it names recounted."""
    lo, hi = expansion._size_window(G.n, nu)
    S = expansion._failing_set_search(G, lo, hi)
    assert S is None or expansion._witness_fails(G, S, mu, nu), (G.n, nu)
    return S is not None


def _search_hosts():
    for n in range(1, 7):
        yield from enumerate_tournaments(n)
    for n in range(7, 21):
        yield random_tournament(n, seed=200 + n)
        if n <= 14:
            yield random_tournament(n, seed=300 + n)
        yield _transitive_blow_up(n, 2 + n % 2, n)


def test_failing_set_search_agrees_with_the_reference_walk():
    """At ⌈μn⌉ = 1 the search finds a failing set exactly when the walk
    refutes: on every labelled tournament with at most 6 vertices, and on
    seeded random and planted hosts of 7 to 20 vertices."""
    mu = Fraction(1, 20)
    seen = set()
    for G in _search_hosts():
        for nu in (Fraction(1, 20), Fraction(1, 5), Fraction(1, 3)):
            refuted = _reference_exact_sweep(G, mu, nu).status == NOT_EXPANDER
            assert _search_refutes(G, mu, nu) == refuted, (G.out_rows, nu)
            seen.add((G.n > 6, refuted))
    # both answers among the enumerated and among the larger hosts
    assert len(seen) == 4


@pytest.mark.parametrize(
    "lie, message",
    [("search", "named a set that expands"), ("search and recount", "the sweep missed")],
)
def test_failing_set_search_is_checked_by_the_sweep(monkeypatch, lie, message):
    """rotational_regular_tournament(17) is an expander: a search that
    names a failing set is caught by the recount, and one whose set also
    passes the recount is caught by the sweep.  ν = 1/5 gives the partial
    window 4 ≤ |S| ≤ 13, where the search runs."""
    G = rotational_regular_tournament(17)
    mu, nu = Fraction(1, 20), Fraction(1, 5)
    assert is_robust_outexpander(G, mu, nu, "exact").is_expander
    monkeypatch.setattr(expansion, "_failing_set_search", lambda G, lo, hi: 0b1111)
    if lie == "search and recount":
        monkeypatch.setattr(expansion, "_witness_fails", lambda G, S, mu, nu: True)
    with pytest.raises(GraphDefectError, match=f"^the failing-set search .*{message}"):
        is_robust_outexpander(G, mu, nu, "exact")


@pytest.mark.parametrize(
    "lie, message",
    [("matching", "named a set that expands"), ("matching and recount", "the sweep missed")],
)
@pytest.mark.parametrize("n", [5, 17])
def test_matching_route_is_checked_by_the_sweep(monkeypatch, n, lie, message):
    """The same two lies over the full window 1 ≤ |S| ≤ n − 1 of the
    rotational expanders on 5 and 17 vertices, where the matching runs."""
    G = rotational_regular_tournament(n)
    mu, nu = Fraction(1, 20), Fraction(1, 20)
    assert is_robust_outexpander(G, mu, nu, "exact").is_expander
    monkeypatch.setattr(expansion, "_matching_failing_set", lambda G: 0b111)
    if lie == "matching and recount":
        monkeypatch.setattr(expansion, "_witness_fails", lambda G, S, mu, nu: True)
    with pytest.raises(GraphDefectError, match=f"^the matching .*{message}"):
        is_robust_outexpander(G, mu, nu, "exact")


def _flipped_transitive(n, share, seed):
    """transitive_tournament(n) with each arc reversed by a seeded coin
    that comes up with probability ``share``."""
    rng = random.Random(seed)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((v, u) if rng.random() < share else (u, v))
    return Tournament.from_arcs(n, arcs)


def _matching_hosts():
    """Seeded hosts of 7 to 20 vertices: random, rotational, transitive,
    planted in both orientations and arc-flipped transitive."""
    for n in range(7, 21):
        for seed in range(3):
            yield random_tournament(n, seed=400 + 10 * n + seed)
        yield transitive_tournament(n)
        if n % 2:
            yield rotational_regular_tournament(n)
        G = _transitive_blow_up(n, 2 + n % 2, 500 + n)
        yield G
        yield G.reverse()
        for share in (0.1, 0.25, 0.4):
            yield _flipped_transitive(n, share, int(600 + 100 * share + n))


def test_matching_route_agrees_with_the_reference_walk():
    """Over the full window at ⌈μn⌉ = 1 the matching names a failing set,
    which the recount confirms, exactly when the walk refutes: on every
    labelled tournament on 2 to 6 vertices and on the seeded hosts of 7 to
    20 vertices.  Past 14 vertices the walk of an expander takes about a
    second, so the sweep, which the walk pins above, stands in for it."""
    mu = nu = Fraction(1, 20)
    seen = set()
    enumerated = (G for n in range(2, 7) for G in enumerate_tournaments(n))
    for hosts, large in ((enumerated, False), (_matching_hosts(), True)):
        for G in hosts:
            walk = _reference_exact_sweep if G.n <= 14 else expansion._gray_sweep
            refuted = walk(G, mu, nu).status == NOT_EXPANDER
            S = expansion._matching_failing_set(G)
            assert (S is not None) == refuted, G.out_rows
            assert S is None or expansion._witness_fails(G, S, mu, nu), G.out_rows
            seen.add((large, refuted))
    # both answers among the enumerated and among the larger hosts
    assert len(seen) == 4


def _parent_exact_expander_sweep(G, mu, nu):
    """The exact check before the matching route, verbatim but for the
    module-qualified names: the failing-set search at ⌈μn⌉ = 1 and
    n ≥ 16, the sweep everywhere else."""
    n = G.n
    lo, hi = expansion._size_window(n, nu)
    if expansion._ceil(mu * n) != 1 or n < expansion._SEARCH_MIN_N or lo > hi:
        return expansion._gray_sweep(G, mu, nu)
    S = expansion._failing_set_search(G, lo, hi)
    if S is None:
        samples = sum(math.comb(n, s) for s in range(lo, hi + 1))
        return ExpanderVerdict(EXPANDER, "exact", mu, nu, samples=samples)
    if not expansion._witness_fails(G, S, mu, nu):
        raise GraphDefectError("the failing-set search named a set that expands")
    verdict = expansion._gray_sweep(G, mu, nu)
    if verdict.status != NOT_EXPANDER:
        raise GraphDefectError(
            "the failing-set search found a failing set the sweep missed"
        )
    return verdict


def test_exact_verdicts_equal_those_of_the_parent_routes():
    """Status, witness and sample count, over a μ/ν grid that takes every
    route: the matching (full windows at ⌈μn⌉ = 1), the search (partial
    windows from 16 vertices), and the sweep."""
    grid = [(Fraction(1, m), Fraction(1, v)) for m in (40, 20, 10) for v in (20, 10, 5, 3)]
    hosts = [random_tournament(n, seed=700 + n) for n in range(2, 7)]
    hosts += _matching_hosts()
    statuses = set()
    for G in hosts:
        for mu, nu in grid:
            got = is_robust_outexpander(G, mu, nu, "exact")
            assert got == _parent_exact_expander_sweep(G, mu, nu), (G.out_rows, mu, nu)
            statuses.add(got.status)
    assert statuses == {EXPANDER, NOT_EXPANDER}


def _gray_first_walk(k, flip, window, below):
    """The step-by-step walk that located the Gray-first lane, verbatim."""
    in_window = format(window, f"0{1 << k}b")[::-1]
    violating = format(below, f"0{1 << k}b")[::-1]
    checked = 0
    for l in range(1 << k):
        m = l ^ (l >> 1) ^ flip
        if in_window[m] == "1":
            checked += 1
            if violating[m] == "1":
                break
    return m, checked


def test_gray_first_lane_matches_the_step_walk():
    """Random block widths, flips and windows; ``below`` holds one lane,
    a sparse set or a dense one, and the window is full or random."""
    rng = random.Random(19)
    cases = 0
    while cases < 1500:
        k = rng.randint(1, 12)
        flip = rng.randrange(2) << (k - 1)
        every = full_mask(1 << k)
        window = every if rng.random() < 0.3 else rng.getrandbits(1 << k)
        below = window & rng.getrandbits(1 << k)
        for _ in range(rng.randrange(4)):
            below &= rng.getrandbits(1 << k)
        if rng.random() < 0.4:
            below &= -below
        if below:
            assert expansion._gray_first(k, flip, window, below) == _gray_first_walk(
                k, flip, window, below
            ), (k, flip)
            cases += 1


def test_offset_planes_reach_the_top_plane_exactly_at_the_target():
    """Start at the planes of 2^P − max(0, s + base) for a lane of size s,
    add indicator lanes with carries, and the lane reads 2^P − target +
    count; plane P is set exactly where the count reaches the target."""
    rng = random.Random(16)
    for k, base, top in ((1, 0, 2), (3, -5, 3), (3, 2, 3), (5, -2, 4), (6, 7, 4), (12, -3, 5), (12, 9, 6)):
        planes = expansion._offset_planes(k, base, top)
        assert len(planes) == top + 1
        width = 1 << k
        # k + base is the largest target, so k + base + adds < 2^(top+1)
        adds = rng.randrange(1, (1 << top) - max(0, k + base) + 1)
        counter = list(planes)
        counts = [0] * width
        for _ in range(adds):
            x = rng.getrandbits(width)
            for lane in range(width):
                counts[lane] += x >> lane & 1
            for p in range(top + 1):
                x, counter[p] = counter[p] & x, counter[p] ^ x
        for lane in range(width):
            target = max(0, lane.bit_count() + base)
            start = sum((planes[p] >> lane & 1) << p for p in range(top + 1))
            assert start == (1 << top) - target, (k, base, lane)
            value = sum((counter[p] >> lane & 1) << p for p in range(top + 1))
            assert value == (1 << top) - target + counts[lane], (k, base, lane)
            assert (counter[top] >> lane & 1) == (counts[lane] >= target), (k, base, lane)


# Reference: the lane tables before they were built from two half-tables,
# kept verbatim.  Every need table and size lane set of the sweep must be
# what these give.


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


def _lanes_at_least(members, patterns, every, top):
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


def test_need_tables_match_the_verbatim_reference():
    """Every member mask for k ≤ 8 and 300 seeded masks for k = 9..12,
    each with every table height from 0 to k + 1: the k < 6 blocks have
    no top half, and the k > 6 blocks split their members across both."""
    rng = random.Random(24)
    for k in range(1, 13):
        patterns, every = _lane_patterns(k), full_mask(1 << k)
        masks = range(1 << k) if k <= 8 else [rng.getrandbits(k) for _ in range(300)]
        for members in masks:
            for top in range(k + 2):
                assert expansion._need_table(k, members, top) == _lanes_at_least(
                    members, patterns, every, top
                ), (k, members, top)


def test_size_lanes_match_the_verbatim_reference():
    for k in range(1, 13):
        every = full_mask(1 << k)
        at_least = _lanes_at_least(full_mask(k), _lane_patterns(k), every, k) + [0]
        expected = tuple(at_least[s] ^ at_least[s + 1] for s in range(k + 1))
        assert expansion._size_lanes(k) == expected, k
        # each lane lies in exactly the size class of its subset
        for lane in range(1 << k):
            assert [s for s in range(k + 1) if expected[s] >> lane & 1] == [lane.bit_count()]


def test_min_semidegree_matches_a_per_vertex_recount():
    for n in range(1, 61):
        hosts = [random_tournament(n, seed=n), transitive_tournament(n)]
        if n % 2:
            hosts.append(rotational_regular_tournament(n))
        for G in hosts:
            recount = min(min(G.out_deg(v), G.in_deg(v)) for v in range(n))
            assert expansion._min_semidegree(G) == recount, n


# Reference: the sampled check before it counted robust out-neighbourhoods
# inline, kept verbatim.  Its candidate stream, verdict, witness and sample
# count are what the current check must reproduce.


def _reference_sampled_check(G, mu, nu, sample_budget, seed):
    n = G.n
    lo, hi = expansion._size_window(n, nu)
    if lo > hi:
        return ExpanderVerdict(EXPANDER, "sampled", mu, nu, samples=0)
    t = expansion._ceil(mu * n)
    seen: set[int] = set()
    checked = 0
    for S in expansion._sampled_candidates(G, lo, hi, seed):
        if checked >= sample_budget:
            break
        if S in seen or not (lo <= S.bit_count() <= hi):
            continue
        seen.add(S)
        checked += 1
        rn = robust_out_neighbourhood(G, S, mu)
        if rn.bit_count() < S.bit_count() + t:
            if not expansion._witness_fails(G, S, mu, nu):
                raise GraphDefectError("sampled expander witness failed recheck")
            return ExpanderVerdict(
                NOT_EXPANDER, "sampled", mu, nu, witness=S, samples=checked
            )
    return ExpanderVerdict(UNKNOWN, "sampled", mu, nu, samples=checked)


def test_sampled_check_matches_the_reference():
    statuses = set()
    for n in range(21, 61, 3):
        hosts = [
            random_tournament(n, seed=n),
            rotational_regular_tournament(n | 1),
            _transitive_blow_up(n, 3, n),
        ]
        for G in hosts:
            for mu, nu in (
                (Fraction(1, 20), Fraction(1, 20)),
                (Fraction(1, 10), Fraction(1, 5)),
                (Fraction(1, 3), Fraction(1, 4)),
            ):
                for budget, seed in ((1, 0), (40, 3), (300, 11)):
                    got = is_robust_outexpander(G, mu, nu, "sampled", budget, seed=seed)
                    assert got == _reference_sampled_check(G, mu, nu, budget, seed), (
                        G.n, mu, nu, budget, seed,
                    )
                    statuses.add(got.status)
    assert statuses == {NOT_EXPANDER, UNKNOWN}


def test_verdicts_are_deterministic():
    G = transitive_tournament(200)
    a = is_robust_outexpander(G, Fraction(1, 10), Fraction(1, 10), "sampled", 300)
    b = is_robust_outexpander(G, Fraction(1, 10), Fraction(1, 10), "sampled", 300)
    assert a == b


# ---------------------------------------------------------------------------
# Splitting at a non-expansion witness


def _least_candidate(G, mu, nu):
    """Recount the split rule: the least (forward arcs, mask) among the
    witness and its complement, each repaired into the strict size window,
    and the out-degree-order prefixes whose length lies in that window.
    None when no size lies in the window."""
    n = G.n
    every = full_mask(n)
    mode = "exact" if n <= 20 else "sampled"
    witness = is_robust_outexpander(G, mu, nu, mode, 1000, seed=0).witness
    sizes = [k for k in range(1, n) if nu * n < k < (1 - nu) * n]
    if not sizes:
        return None

    def forward(S):
        return sum((G.out_rows[u] & ~S).bit_count() for u in bits(S))

    def repaired(S):
        while S.bit_count() < sizes[0]:
            rest = every & ~S
            S |= 1 << min(bits(rest), key=lambda v: ((G.out_rows[v] & rest).bit_count(), v))
        while S.bit_count() > sizes[-1]:
            S &= ~(1 << min(bits(S), key=lambda v: ((G.in_rows[v] & S).bit_count(), v)))
        return S

    order = sorted(range(n), key=lambda v: (bin(G.out_rows[v]).count("1"), v))
    candidates = [repaired(witness), repaired(every & ~witness)]
    candidates += [mask_of(order[:k]) for k in sizes]
    return min((forward(S), S) for S in candidates)


def test_split_of_transitive_has_few_backward_arcs():
    G = transitive_tournament(20)
    S, Sp = non_expander_split(G, Fraction(1, 20), Fraction(1, 5))
    assert S | Sp == full_mask(20) and S & Sp == 0
    assert directed_edge_count(G, S, Sp) <= 4 * Fraction(1, 20) * 400
    assert S == _least_candidate(G, Fraction(1, 20), Fraction(1, 5))[1]


def test_split_recovers_planted_blocks():
    G = two_block_tournament()
    S, Sp = non_expander_split(G, Fraction(1, 25), Fraction(3, 10))
    assert directed_edge_count(G, S, Sp) <= 4 * Fraction(1, 25) * 484
    assert S == mask_of(range(11))  # the dominated block
    assert S == _least_candidate(G, Fraction(1, 25), Fraction(3, 10))[1]


def _split_hosts():
    for n in range(10, 41):
        for seed in range(4):
            yield random_tournament(n, seed=seed)
    for n, blocks in ((12, 2), (16, 3), (20, 2), (24, 3), (30, 2), (30, 3), (40, 2), (40, 3)):
        for seed in range(3):
            yield _transitive_blow_up(n, blocks, 7 * n + seed)
    for n in range(4, 41, 4):
        yield transitive_tournament(n)


def test_split_matches_the_recounted_least_candidate():
    # The CLI parameters, a wider window, and a window with no integer
    # size (ν = 1/2); then tiny random hosts at μ = 1/100, where the least
    # candidate can exceed 4μn².
    runs = [(G, mu, nu) for G in _split_hosts()
            for mu, nu in ((Fraction(1, 20), Fraction(1, 20)),
                           (Fraction(1, 10), Fraction(1, 5)),
                           (Fraction(1, 4), Fraction(1, 2)))]
    runs += [(random_tournament(n, seed=seed), Fraction(1, 100), Fraction(1, 3))
             for n in range(6, 10) for seed in range(5)]
    tally = {"split": 0, "no size": 0, "over bound": 0}
    for G, mu, nu in runs:
        mode = "exact" if G.n <= 20 else "sampled"
        if is_robust_outexpander(G, mu, nu, mode, 1000, seed=0).status != NOT_EXPANDER:
            continue
        least = _least_candidate(G, mu, nu)
        if least is not None and least[0] <= 4 * mu * G.n ** 2:
            S, Sp = non_expander_split(G, mu, nu)
            assert S == least[1], (G.n, mu, nu)
            assert Sp == full_mask(G.n) & ~S
            tally["split"] += 1
        else:
            with pytest.raises(SplitSearchExhausted):
                non_expander_split(G, mu, nu)
            tally["no size" if least is None else "over bound"] += 1
    assert tally["split"] >= 200 and tally["no size"] and tally["over bound"], tally


def test_split_refuses_certified_expanders():
    G = rotational_regular_tournament(15)
    with pytest.raises((ValueError, SplitSearchExhausted)):
        non_expander_split(G, Fraction(1, 15), Fraction(1, 5))


# ---------------------------------------------------------------------------
# Full decomposition


def test_transitive_decomposition_covers_everything_without_bad_arcs():
    res = tournament_split(
        transitive_tournament(12),
        Fraction(1, 20),
        Fraction(1, 20),
        Fraction(1, 20),
        Fraction(35, 100),
    )
    assert res.deleted == 0
    assert res.bad_edges == frozenset()
    union = 0
    for p in res.pieces:
        assert p & union == 0
        union |= p
    assert union == full_mask(12)


def test_expander_input_is_a_single_piece():
    res = tournament_split(
        rotational_regular_tournament(15),
        Fraction(1, 15),
        Fraction(1, 5),
        Fraction(1, 20),
        Fraction(35, 100),
    )
    assert len(res.pieces) == 1
    assert res.classification == (EXPANDER,)


def test_two_block_decomposition_orders_dominator_first():
    G = two_block_tournament()
    res = tournament_split(
        G,
        Fraction(1, 25),
        Fraction(1, 5),
        Fraction(1, 20),
        Fraction(3, 10),
        make_expander_checker(exact_limit=11),
    )
    A, B = mask_of(range(11)), mask_of(range(11, 22))
    assert res.pieces == (B, A)  # every kept arc respects piece order
    assert all(c == EXPANDER for c in res.classification)
    assert res.bad_edges == frozenset()


def test_random_decompositions_satisfy_postconditions():
    checker = make_expander_checker(exact_limit=14, sample_budget=0)
    for seed in range(15):
        n = 10 + (seed * 7) % 51
        G = random_tournament(n, seed)
        res = tournament_split(
            G, Fraction(1, 20), Fraction(1, 20), Fraction(1, 50), Fraction(1, 5),
            checker,
        )
        covered = 0
        for p in res.pieces:
            assert p & covered == 0
            covered |= p
        assert covered & res.deleted == 0
        assert covered.bit_count() >= (1 - Fraction(1, 5)) * n
        # recorded backward arcs = every arc against the piece order
        recount = set()
        for i, p in enumerate(res.pieces):
            for q in res.pieces[i + 1:]:
                for u in bits(q):
                    row = G.out_rows[u] & p
                    recount.update((u, v) for v in bits(row))
        assert set(res.bad_edges) == recount


CLI_SPLIT_PARAMETERS = (Fraction(1, 20), Fraction(1, 20), Fraction(1, 50), Fraction(1, 5))


def _planted_blow_ups():
    for n, blocks in ((30, 2), (30, 3), (40, 2), (40, 3), (60, 2), (60, 3), (60, 4)):
        for seed in range(3):
            yield _transitive_blow_up(n, blocks, 100 * n + seed)


def test_planted_blow_ups_split_and_satisfy_postconditions():
    # Beside the split-postconditions suite, not in it: these hosts have
    # planted non-expanders, and the checker is the CLI's (exact up to 20
    # vertices, 1000 samples above), so pieces really split, and with two
    # 30-vertex blocks bad arcs and deletions appear.
    mu, nu, eta, gamma = CLI_SPLIT_PARAMETERS
    checker = make_expander_checker(20, 1000, 0)
    cases = split = 0
    deleted = bad = 0
    for G in _planted_blow_ups():
        n = G.n
        res = tournament_split(G, mu, nu, eta, gamma, checker)
        cases += 1
        split += len(res.pieces) >= 2
        deleted += res.deleted != 0
        bad += bool(res.bad_edges)
        covered = 0
        for p in res.pieces:
            assert p and p & covered == 0
            covered |= p
        assert covered & res.deleted == 0
        assert covered | res.deleted == full_mask(n)
        assert covered.bit_count() >= (1 - gamma) * n
        recount = set()
        later = covered
        for i, p in enumerate(res.pieces):
            later &= ~p
            for u in bits(later):
                recount.update((u, v) for v in bits(G.out_rows[u] & p))
            for v in bits(p):
                assert (G.in_rows[v] & later).bit_count() <= gamma * n
                assert (G.out_rows[v] & (covered & ~later & ~p)).bit_count() <= gamma * n
        assert recount <= set(res.bad_edges)
        for p, label in zip(res.pieces, res.classification):
            if label == "small":
                assert p.bit_count() < gamma * n
            elif label == EXPANDER and p.bit_count() <= 15:
                H, _ = G.induced(p)
                assert _reference_exact_sweep(H, mu, nu).status == EXPANDER
    assert split >= 0.8 * cases
    assert deleted and bad


# sha256 of every split below, recorded before each piece's subtournament
# was cached: pieces, classification, each verdict's status, witness and
# samples, bad arcs and deletions, or the regime postcondition raised.
SPLIT_DIGEST = "c26314ced1dc452b65053b0eac06fd6a5169c18f2af93636529069ba210e9fcb"


def test_split_builds_each_piece_once_and_keeps_its_results(monkeypatch):
    hosts = list(_planted_blow_ups())
    hosts += [random_tournament(n, s) for n in range(20, 29) for s in range(3)]
    built = []  # the masks of one split, outside the final re-check
    rechecked = []
    induced = Tournament.induced
    verify = expansion._verify_split

    def counting_induced(G, subset):
        built.append(subset)
        return induced(G, subset)

    def uncounted_verify(G, result):
        start = len(built)
        try:
            return verify(G, result)
        finally:
            rechecked.extend(built[start:])
            del built[start:]

    monkeypatch.setattr(Tournament, "induced", counting_induced)
    monkeypatch.setattr(expansion, "_verify_split", uncounted_verify)
    digest = hashlib.sha256()
    regimes = 0
    for G in hosts:
        built.clear()
        try:
            res = tournament_split(G, *CLI_SPLIT_PARAMETERS, make_expander_checker(20, 1000, 0))
        except SplitRegimeError as error:
            record = ["regime", error.postcondition]
            regimes += 1
        else:
            record = [
                list(res.pieces),
                list(res.classification),
                [v and [v.status, v.witness, v.samples] for v in res.verdicts],
                sorted(res.bad_edges),
                res.deleted,
            ]
        assert built and len(built) == len(set(built)), G.n
        digest.update(json.dumps(record).encode())
    # The re-check still builds its own subtournaments.
    assert rechecked
    assert 0 < regimes < len(hosts)
    assert digest.hexdigest() == SPLIT_DIGEST


def test_splits_of_planted_hosts_compute_no_median_order():
    # The split candidates are read off the witness and the out-degree
    # order; no median order is computed.  The profile hook matches code
    # objects, so it counts calls made through any module binding.
    targets = {search.median_order.__code__: "median_order",
               expansion.non_expander_split.__code__: "non_expander_split"}
    calls = {"median_order": 0, "non_expander_split": 0}

    def count(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            calls[targets[frame.f_code]] += 1

    cli_params = (Fraction(1, 20), Fraction(1, 20), Fraction(1, 50), Fraction(1, 5),
                  make_expander_checker(20, 1000, 0))
    runs = [(two_block_tournament(), (Fraction(1, 25), Fraction(1, 5), Fraction(1, 20),
                                      Fraction(3, 10), make_expander_checker(exact_limit=11)))]
    runs += [(_transitive_blow_up(n, blocks, 100 * n), cli_params)
             for n, blocks in ((30, 2), (40, 3), (60, 4))]
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for G, params in runs:
            tournament_split(G, *params)
    finally:
        sys.setprofile(previous)
    assert calls["non_expander_split"] >= len(runs)
    assert calls["median_order"] == 0


def test_regime_failures_are_typed_and_not_defects():
    assert not issubclass(SplitRegimeError, GraphDefectError)
    with pytest.raises(SplitRegimeError, match="cover only 18 of 30") as info:
        tournament_split(
            random_tournament(30, 0),
            Fraction(1, 20), Fraction(1, 20), Fraction(1, 50), Fraction(1, 5),
        )
    assert info.value.postcondition == "coverage"


def test_small_hosts_at_the_cli_defaults_end_in_a_split_or_a_regime():
    """A vertex is deleted only above ⌈√η·n⌉ bad arcs, which at the CLI
    defaults exceeds the ⌊γ·n⌋ back arcs the ordering allows for n = 1..4,
    8 and 9: there too many back arcs are a regime, never a defect."""
    back_arcs = []
    for n in range(1, 13):
        for s in range(10):
            try:
                tournament_split(random_tournament(n, s), *CLI_SPLIT_PARAMETERS)
            except SplitRegimeError as error:
                if error.postcondition == "back_arcs":
                    back_arcs.append(n)
    assert back_arcs == [3] * 4 + [4] * 4 + [8] * 3


@pytest.mark.parametrize(
    "n, order, raised, message",
    [
        (3, [[1], [0], [2]], SplitRegimeError, "in-neighbours in later"),
        (8, [[1], [2], [0], range(3, 8)], SplitRegimeError, "out-neighbours in earlier"),
        (10, [[v] for v in range(9, -1, -1)], GraphDefectError, "in-neighbours in later"),
        (10, [[1], [2], [3], [0], range(4, 10)], GraphDefectError, "out-neighbours in earlier"),
    ],
)
def test_too_many_back_arcs_are_a_defect_unless_rounding_allows_them(n, order, raised, message):
    """Hand-built orderings of transitive_tournament(n) with a vertex past
    ⌊γ·n⌋ back arcs: a regime where ⌈√η·n⌉ > ⌊γ·n⌋ (n = 3 and 8), a
    defect where it is not (n = 10, ⌈√η·n⌉ = ⌊γ·n⌋ = 2)."""
    pieces = tuple(mask_of(p) for p in order)
    result = expansion.SplitResult(
        pieces=pieces,
        classification=(UNKNOWN,) * len(pieces),
        verdicts=(None,) * len(pieces),
        bad_edges=frozenset(),
        deleted=0,
        mu=Fraction(1, 20),
        nu=Fraction(1, 20),
        eta=Fraction(1, 50),
        gamma=Fraction(1, 5),
    )
    with pytest.raises(raised, match=message) as info:
        expansion._verify_split(transitive_tournament(n), result)
    if raised is SplitRegimeError:
        assert info.value.postcondition == "back_arcs"


def test_a_false_expander_classification_is_still_a_defect():
    # A checker that calls every piece an expander: the exact re-check of
    # the rotational 15-vertex host (not a (1/3,1/3)-expander) catches it.
    def lying(H, mu, nu):
        return ExpanderVerdict(EXPANDER, "exact", mu, nu)

    with pytest.raises(GraphDefectError, match="failed the exact recheck"):
        tournament_split(
            rotational_regular_tournament(15),
            Fraction(1, 3), Fraction(1, 3), Fraction(1, 20), Fraction(1, 5),
            lying,
        )
