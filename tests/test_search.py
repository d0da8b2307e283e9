"""Exact and heuristic embedding search, Hamiltonian paths, median orders.

The exhaustive searcher is cross-checked against a from-scratch
permutation oracle on small instances; median orders are checked against
full factorial brute force.  Heuristic searchers may give up but must
never claim impossibility.
"""

import itertools
import pickle
import random
import time
from pathlib import Path

import pytest

from treetour import (
    DirectedTree,
    EmbedOutcome,
    GraphDefectError,
    Tournament,
    core_tree,
    embed_outbranching,
    exhaustive_embed,
    forward_arc_count,
    greedy_embed,
    is_valid_embedding,
    median_order,
    redei_path,
)
from treetour.generate import (
    directed_path,
    enumerate_oriented_trees,
    inward_star,
    outward_star,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    transitive_tournament,
)
from treetour import search
from treetour.formats import parse_tournament
from treetour.graphs import bits, full_mask
from treetour.search import GREEDY_COUNTER_MIN_N, MEDIAN_EXACT_MAX_N

CYCLE3 = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def brute_force_embeds(T: DirectedTree, G: Tournament) -> bool:
    """Independent oracle: try every injection tree -> host."""
    for image in itertools.permutations(range(G.n), T.n):
        if all(G.has_arc(image[u], image[v]) for u, v in T.arcs):
            return True
    return False


# ---------------------------------------------------------------------------
# Exhaustive search


def test_inward_star_does_not_fit_in_three_cycle():
    out = exhaustive_embed(inward_star(3), CYCLE3)
    assert out.verdict == "not_found"
    assert out.embedding is None


def test_inward_star_fits_in_transitive_four():
    T = inward_star(3)
    G = transitive_tournament(4)
    out = exhaustive_embed(T, G)
    assert out.verdict == "found"
    assert is_valid_embedding(T, G, out.embedding)
    assert G.in_deg(out.embedding[0]) >= 2  # centre image needs 2 in-arcs


def test_inward_star_centre_goes_to_the_sink_of_a_three_cycle():
    # the three-cycle plus a sink: only the sink has two in-neighbours
    G = Tournament.from_arcs(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    out = exhaustive_embed(inward_star(3), G)
    assert out.verdict == "found"
    assert out.embedding[0] == 3


def test_exhaustive_verdicts_match_permutation_oracle():
    for seed in range(40):
        T = random_oriented_tree(2 + seed % 3, seed=seed)
        G = random_tournament(T.n + 1 + seed % 2, seed=1000 + seed)
        out = exhaustive_embed(T, G)
        assert out.verdict in ("found", "not_found")
        expected = brute_force_embeds(T, G)
        assert (out.verdict == "found") == expected
        if out.embedding is not None:
            assert is_valid_embedding(T, G, out.embedding)


def test_tree_larger_than_host_is_not_found():
    assert exhaustive_embed(directed_path(4), CYCLE3).verdict == "not_found"


def test_node_budget_exhaustion_is_reported_distinctly():
    T = random_oriented_tree(8, seed=2)
    G = random_tournament(16, seed=3)
    out = exhaustive_embed(T, G, node_budget=1)
    assert out.verdict == "budget_exhausted"
    assert out.embedding is None


# ---------------------------------------------------------------------------
# Greedy search


def test_greedy_is_incomplete_but_never_claims_impossibility():
    out = greedy_embed(inward_star(3), CYCLE3)
    assert out.verdict == "budget_exhausted"  # not "not_found"


def test_greedy_finds_easy_embeddings_and_validates():
    arc = DirectedTree(2, [(0, 1)])
    out = greedy_embed(arc, CYCLE3)
    assert out.verdict == "found"
    assert is_valid_embedding(arc, CYCLE3, out.embedding)
    T = random_oriented_tree(20, seed=11)
    G = random_tournament(60, seed=11)
    out = greedy_embed(T, G)
    assert out.verdict == "found"
    assert is_valid_embedding(T, G, out.embedding)


def test_greedy_found_implies_exhaustive_found():
    for seed in range(30):
        T = random_oriented_tree(2 + seed % 4, seed=seed)
        G = random_tournament(T.n + 2, seed=500 + seed)
        g = greedy_embed(T, G)
        if g.verdict == "found":
            assert exhaustive_embed(T, G).verdict == "found"


def test_cached_plan_matches_a_fresh_tree_across_hosts():
    hosts = [random_tournament(5 + s % 4, seed=700 + s) for s in range(24)]
    hosts += [transitive_tournament(8), rotational_regular_tournament(7)]
    for seed in range(6):
        T = random_oriented_tree(5, seed=seed)
        for tree in (T, T.reverse()):
            for G in hosts:
                fresh = DirectedTree(tree.n, tree.arcs)
                assert greedy_embed(tree, G) == greedy_embed(fresh, G)
                assert exhaustive_embed(tree, G) == exhaustive_embed(fresh, G)
            plan = tree.plan
            assert type(plan) is tuple and all(type(part) is tuple for part in plan)
            greedy_embed(tree, hosts[0])
            assert tree.plan is plan
        assert T.reverse().plan is None
        assert T == DirectedTree(T.n, T.arcs) and hash(T) == hash(DirectedTree(T.n, T.arcs))


# Reference: the search plan before it was rooted at
# ``DirectedTree.centroids`` and read its needs off the BFS parents, kept
# verbatim.  It validated the whole 2-core to read its smallest vertex and
# counted each vertex's later neighbours one by one.  Plans fix the search
# order of every digested embedding, so the two must agree exactly.


def _reference_search_plan(
    T: DirectedTree,
) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...], tuple[int, ...], tuple[int, ...]]:
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


def _plan_corpus():
    """Every oriented tree on up to 8 vertices under three seeded
    relabellings, both two-vertex orientations, and 300 random trees on
    up to 400 vertices."""
    rng = random.Random(19)
    for n in range(1, 9):
        for T in enumerate_oriented_trees(n):
            for _ in range(3):
                sigma = list(range(n))
                rng.shuffle(sigma)
                yield DirectedTree(n, [(sigma[u], sigma[v]) for u, v in T.arcs])
    yield DirectedTree(2, [(0, 1)])
    yield DirectedTree(2, [(1, 0)])
    for s in range(300):
        yield random_oriented_tree(rng.randint(1, 400), seed=1900 + s)


def test_search_plan_matches_the_two_core_reference():
    trees = 0
    for T in _plan_corpus():
        # Each side builds on its own fresh copy: a plan kept on the tree
        # would be returned unchanged by the other.
        plan = search._search_plan(DirectedTree(T.n, T.arcs))
        assert plan == _reference_search_plan(DirectedTree(T.n, T.arcs)), T
        assert plan[0][0] == T.centroids()[0]
        trees += 1
    assert trees == 3 * (1 + 1 + 3 + 8 + 27 + 91 + 350 + 1376) + 2 + 300


# Reference: the greedy loop that counts both residual neighbourhoods of
# every candidate.  The fast version reads the in-count off the out-count:
# below GREEDY_COUNTER_MIN_N host vertices it stops at the first candidate
# with the largest possible score, above it reads bit-sliced counters.  It
# must return the same outcomes, because every embedding built on it is
# digested.


def _reference_candidate_mask(G, region, used, parent_dir, parent_image):
    # Verbatim copy of the library's former ``search._candidate_mask``:
    # the search now keeps the unused host vertices as a mask instead.
    m = region & ~used
    if parent_dir == "out":
        m &= G.out_rows[parent_image]
    elif parent_dir == "in":
        m &= G.in_rows[parent_image]
    return m


def _reference_greedy_embed(T, G):
    region = full_mask(G.n)
    order, parents, out_need, in_need = search._search_plan(T)
    if T.n > region.bit_count():
        return EmbedOutcome("budget_exhausted", None, 0, "greedy", ("too few available vertices",))
    images = []
    used = 0
    nodes = 0
    for level, u in enumerate(order):
        ppos, pdir = parents[level]
        m = _reference_candidate_mask(G, region, used, pdir, images[ppos] if level else 0)
        best_g = -1
        best_score = -1
        for g in bits(m):
            free = ~(used | (1 << g))
            ro = (G.out_rows[g] & free).bit_count()
            ri = (G.in_rows[g] & free).bit_count()
            if ro < out_need[u] or ri < in_need[u]:
                continue
            score = min(ro, ri)
            if score > best_score:
                best_score = score
                best_g = g
        nodes += 1
        if best_g < 0:
            return EmbedOutcome("budget_exhausted", None, nodes, "greedy", ("dead end",))
        images.append(best_g)
        used |= 1 << best_g
    mapping = {order[i]: images[i] for i in range(T.n)}
    assert is_valid_embedding(T, G, mapping)
    return EmbedOutcome("found", mapping, nodes, "greedy")


def _relabelled(G, rng):
    sigma = list(range(G.n))
    rng.shuffle(sigma)
    return Tournament.from_arcs(G.n, [(sigma[u], sigma[v]) for u, v in G.arcs()])


_GREEDY_OUTCOMES = {
    ("found", ()),
    ("budget_exhausted", ("dead end",)),
    ("budget_exhausted", ("too few available vertices",)),
}


def test_greedy_matches_the_two_popcount_reference():
    rng = random.Random(2026)
    pairs = []
    for seed in range(1100):
        n = 1 + seed % 12
        T = random_oriented_tree(n, seed=seed)
        G = random_tournament(rng.randint(max(1, n - 1), 2 * n + 1), seed=3000 + seed)
        pairs.append((T, G))
    for n, seed in ((100, 1), (150, 2), (200, 3)):
        T = random_oriented_tree(n, seed=seed)
        hosts = [
            random_tournament(2 * n - 2, seed=seed),
            _relabelled(rotational_regular_tournament(2 * n - 1), rng),
            transitive_tournament(2 * n - 2),
            # as many host vertices as tree vertices, and one fewer
            random_tournament(n, seed=seed),
            random_tournament(n - 1, seed=seed),
        ]
        pairs += [(T, G) for G in hosts]
    seen = {False: set(), True: set()}
    for T, G in pairs:
        out = greedy_embed(T, G)
        assert out == _reference_greedy_embed(T, G)
        seen[G.n >= GREEDY_COUNTER_MIN_N].add((out.verdict, out.notes))
    assert seen == {False: _GREEDY_OUTCOMES, True: _GREEDY_OUTCOMES}


def test_greedy_counters_match_the_reference_around_the_cutoff_and_at_scale(monkeypatch):
    counter_calls = []
    planes = search._out_degree_planes
    monkeypatch.setattr(
        search, "_out_degree_planes", lambda G: counter_calls.append(G.n) or planes(G)
    )
    rng = random.Random(17)
    cases = []
    cutoff = GREEDY_COUNTER_MIN_N
    for hn in (cutoff - 1, cutoff, cutoff + 1, 100, 250, 400):
        hosts = [
            random_tournament(hn, seed=hn),
            _relabelled(rotational_regular_tournament(hn | 1), rng),
            transitive_tournament(hn),
            transitive_tournament(hn).reverse(),
        ]
        for G in hosts:
            # trees of about half the host, of the whole host (which leave
            # the greedy pass without admissible images) and one larger
            for n in (G.n // 2 + 1, G.n, G.n + 1):
                cases.append((random_oriented_tree(n, seed=G.n + len(cases)), G))
    seen = {False: set(), True: set()}
    for T, G in cases:
        before = len(counter_calls)
        out = greedy_embed(T, G)
        assert out == _reference_greedy_embed(T, G), (T.n, G.n)
        if out.notes != ("too few available vertices",):
            assert len(counter_calls) - before == (G.n >= cutoff)
        seen[G.n >= cutoff].add((out.verdict, out.notes))
    assert seen == {False: _GREEDY_OUTCOMES, True: _GREEDY_OUTCOMES}


def _counter(planes, v):
    return sum(((plane >> v) & 1) << k for k, plane in enumerate(planes))


@pytest.mark.parametrize("n", [1, 2, 7, GREEDY_COUNTER_MIN_N, 255, 256, 257, 300])
def test_counter_planes_read_the_residual_out_degrees(n):
    rng = random.Random(n)
    hosts = [random_tournament(n, seed=n), transitive_tournament(n)]
    hosts.append(transitive_tournament(n).reverse())
    hosts.append(_relabelled(rotational_regular_tournament(n | 1), rng))
    for G in hosts:
        planes = search._out_degree_planes(G)
        assert len(planes) == (G.n - 1).bit_length()
        used = 0
        placed = rng.sample(range(G.n), rng.randint(0, G.n))
        for step in range(len(placed) + 1):
            assert all(
                _counter(planes, v) == (G.out_rows[v] & ~used).bit_count() for v in range(G.n)
            )
            if step < len(placed):
                g = placed[step]
                search._take_one(planes, G.in_rows[g])
                used |= 1 << g
        assert all(plane >> G.n == 0 for plane in planes)


_TIE_TREE = random_oriented_tree(2, seed=12)
_TIE_HOST = random_tournament(4, seed=112)


@pytest.mark.parametrize(
    "T, G", [(_TIE_TREE, _TIE_HOST), (_TIE_TREE.reverse(), _TIE_HOST.reverse())], ids=["G0", "G1"]
)
def test_greedy_breaks_a_score_tie_to_the_smallest_id(T, G):
    # Tree vertex 0 goes to host vertex 0.  Host vertices 1 and 3 can both
    # take tree vertex 1, and each has all or none of the other rest = 2
    # unused vertices as out-neighbours: both score 0, below the best
    # possible score of rest // 2 = 1, and vertex 1 wins.  The second pair
    # mirrors the first: reversal swaps out- and in-neighbours.
    unused = full_mask(G.n) & ~1
    assert [g for g in bits(unused) if G.has_arc(g, 0) == T.has_arc(1, 0)] == [1, 3]
    assert [(G.out_rows[g] & unused).bit_count() for g in (1, 3)] in ([0, 2], [2, 0])
    out = greedy_embed(T, G)
    assert out.embedding == {0: 0, 1: 1}
    assert out == _reference_greedy_embed(T, G)


# ---------------------------------------------------------------------------
# Hamiltonian directed paths


def test_every_tournament_has_a_spanning_directed_path():
    for seed in range(25):
        G = random_tournament(2 + seed % 30, seed=seed)
        path = redei_path(G)
        assert sorted(path) == list(range(G.n))
        assert all(G.has_arc(path[i], path[i + 1]) for i in range(G.n - 1))


def test_redei_path_of_transitive_is_the_transitive_order():
    assert redei_path(transitive_tournament(6)) == [0, 1, 2, 3, 4, 5]


def test_redei_path_on_cycle_is_consistent():
    path = redei_path(CYCLE3)
    assert sorted(path) == [0, 1, 2]
    assert CYCLE3.has_arc(path[0], path[1]) and CYCLE3.has_arc(path[1], path[2])


def test_redei_path_is_fast_at_two_thousand_vertices():
    G = random_tournament(2000, seed=3)
    start = time.perf_counter()
    path = redei_path(G)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert sorted(path) == list(range(2000))
    assert all(G.has_arc(path[i], path[i + 1]) for i in range(1999))


# ---------------------------------------------------------------------------
# Median orders


def test_median_order_of_transitive_is_the_full_order():
    order, count = median_order(transitive_tournament(5), mode="exact")
    assert order == [0, 1, 2, 3, 4]
    assert count == 10


def test_median_order_of_cycle_keeps_two_arcs():
    _, count = median_order(CYCLE3, mode="exact")
    assert count == 2


def test_exact_median_matches_factorial_brute_force():
    G = rotational_regular_tournament(7)
    order, count = median_order(G, mode="exact")
    assert forward_arc_count(G, order) == count
    best = max(
        forward_arc_count(G, list(p)) for p in itertools.permutations(range(7))
    )
    assert count == best


def test_exact_median_matches_brute_force_on_random_tournaments():
    for seed in range(5):
        G = random_tournament(6, seed=seed)
        _, count = median_order(G, mode="exact")
        best = max(
            forward_arc_count(G, list(p)) for p in itertools.permutations(range(6))
        )
        assert count == best


def test_local_median_is_a_permutation_with_consistent_count():
    for seed in range(10):
        G = random_tournament(24, seed=seed)
        order, count = median_order(G)  # local mode is the default
        assert sorted(order) == list(range(24))
        assert forward_arc_count(G, order) == count
        # sanity: no worse than a batch of random orders
        import random

        rng = random.Random(seed)
        for _ in range(20):
            perm = list(range(24))
            rng.shuffle(perm)
            assert count >= forward_arc_count(G, perm)


def test_local_median_count_is_the_forward_arc_count():
    # the count comes from the local search's levels; its fields grow a
    # bit at n = 2, 3, 5, 9, 17, 33 and 65
    rng = random.Random(5)
    for n in range(1, 71):
        hosts = [random_tournament(n, seed=n)]
        if n % 10 == 0 or n in (63, 64, 65):
            hosts += [random_tournament(n, seed=1000 + n), transitive_tournament(n).reverse()]
            hosts.append(_relabelled(rotational_regular_tournament(n | 1), rng))
        for G in hosts:
            order, count = median_order(G)
            assert count == forward_arc_count(G, order), (n, G.n)


def test_exact_median_size_cap():
    with pytest.raises(ValueError):
        median_order(random_tournament(MEDIAN_EXACT_MAX_N + 1, seed=0), mode="exact")
    with pytest.raises(ValueError):
        median_order(CYCLE3, mode="fancy")


# Reference: the plain first-beat insertion and a local search that
# rescans from position 0 after every move.  The fast versions must return
# the same orders, counts and paths, because every embedding and split
# built on them is digested.


def _reference_redei_path(G):
    order = []
    for v in range(G.n):
        row = G.out_rows[v]
        for i, w in enumerate(order):
            if (row >> w) & 1:
                order.insert(i, v)
                break
        else:
            order.append(v)
    return order


def _reference_improve_pass(G, order):
    n = len(order)
    for i in range(n):
        v = order[i]
        row_out, row_in = G.out_rows[v], G.in_rows[v]
        delta = [0] * n
        gain = 0
        for j in range(i - 1, -1, -1):  # move v before position j
            w = order[j]
            gain += 1 if (row_out >> w) & 1 else -1
            delta[j] = gain
        gain = 0
        for j in range(i + 1, n):  # move v after position j
            w = order[j]
            gain += 1 if (row_in >> w) & 1 else -1
            delta[j] = gain
        for j in range(n):
            if j != i and delta[j] > 0:
                order.pop(i)
                order.insert(j, v)
                return True
    return False


def _reference_median_order(G):
    base = _reference_redei_path(G)
    n = G.n
    best_order = None
    best_count = -1
    for k in range(5):
        r = k * n // 5
        order = base[r:] + base[:r]
        while _reference_improve_pass(G, order):
            pass
        count = forward_arc_count(G, order)
        if count > best_count:
            best_count = count
            best_order = order
    return best_order, best_count


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


def _oracle_hosts():
    for n in range(1, 41):
        for seed in range(3):
            yield f"random n={n} seed={seed}", random_tournament(n, seed=seed)
    for n in (50, 62, 66):
        yield f"random n={n}", random_tournament(n, seed=n)
    # the local search's fields grow from 8 to 9 bits between n = 64 and 65
    for n in (63, 64, 65):
        for seed in range(2):
            yield f"random n={n} seed={seed}", random_tournament(n, seed=seed)
    for n in (1, 2, 3, 7, 16, 33, 60):
        yield f"transitive n={n}", transitive_tournament(n)
        yield f"reversed transitive n={n}", transitive_tournament(n).reverse()
    for n in (*range(1, 42, 2), 63, 65):
        yield f"rotational n={n}", rotational_regular_tournament(n)
    for n, blocks in ((30, 2), (40, 3), (60, 4)):
        for seed in range(2):
            yield f"blow-up n={n} seed={seed}", _transitive_blow_up(n, blocks, seed)
    corpus = Path(__file__).parent / "data" / "greedy_misses"
    for path in sorted(corpus.glob("*/*.trn")):
        yield path.stem, parse_tournament(path.read_text())


def test_local_median_order_and_redei_path_match_the_reference():
    hosts = 0
    for name, G in _oracle_hosts():
        assert redei_path(G) == _reference_redei_path(G), name
        assert median_order(G) == _reference_median_order(G), name
        hosts += 1
    assert hosts == 120 + 3 + 6 + 14 + 21 + 2 + 6 + 29


# Reference: the local search before pair minima, verbatim: one flag pass
# over all n + 1 columns per move.  Flagging over pair minima (and, below
# MEDIAN_PAIR_MIN_N, over the columns with the target read off the stored
# differences) must make the same moves, so it returns the same order and
# count.


def _reference_column_local_search(G):
    from functools import reduce
    from itertools import accumulate, repeat
    from operator import add, and_, indexOf, rshift, sub

    base = redei_path(G)
    n = G.n
    width = (2 * n - 2).bit_length() + 1
    unit = [1 << (width * u) for u in range(n)]
    ones = (1 << width) - 1
    field = [e * ones for e in unit]
    shifts = [width * u for u in range(n)]
    units = sum(unit)
    guards = units << (width - 1)
    spread = {ord("0"): "0" * width, ord("1"): "1".rjust(width, "0")}
    ins = [int(format(row, f"0{n}b").translate(spread), 2) for row in G.in_rows]
    diff = [2 * i - units + e for i, e in zip(ins, unit)]
    best_order: list[int] = []
    best_count = -1
    for k in range(5):
        r = k * n // 5
        order = base[r:] + base[:r]
        P = list(accumulate(map(diff.__getitem__, order), initial=guards + (n - 1) * units))
        L = sum(map(and_, P, map(field.__getitem__, order))) - guards
        while flags := guards & ~reduce(and_, map(sub, P, repeat(L))):
            for i, v in enumerate(order):  # the lowest flagged position
                if flags & field[v]:
                    break
            fv = field[v]
            level = P[i] & fv
            # P_v moves in steps of ±1 apart from the 0 at v, from P_v[0] = 0,
            # so the first q with P_v[q] < level is 0 or the first at level - 1.
            q = 0 if P[0] & fv < level else indexOf(map(fv.__and__, P), level - unit[v])
            if q < i:
                j = q
                order.insert(j, order.pop(i))
                P[j + 1 : i + 1] = map(add, P[j:i], repeat(diff[v]))
                passed = sum(map(unit.__getitem__, order[j + 1 : i + 1]))
                L += 2 * (ins[v] & passed) - passed
            else:
                j = q - 1
                order.insert(j, order.pop(i))
                P[i + 1 : j + 1] = map(sub, P[i + 2 : j + 2], repeat(diff[v]))
                passed = sum(map(unit.__getitem__, order[i:j]))
                L -= 2 * (ins[v] & passed) - passed
            L += (P[j] & fv) - level
        # The levels P_u[pos u] sum the signs of all pairs, +1 per backward
        # and -1 per forward arc, so they total n(n-1)/2 - 2 * forward arcs.
        levels = sum(map(and_, map(rshift, repeat(L), shifts), repeat(ones))) - n * (n - 1)
        count = (n * (n - 1) // 2 - levels) // 2
        if count > best_count:
            best_count = count
            best_order = order
    return best_order, best_count


def _column_search_hosts():
    yield from _oracle_hosts()
    # both parities of n + 1 (an unpaired last column when n is even), and
    # the fields' growth from 8 to 9 bits between n = 64 and 65
    for n in range(1, 71):
        for seed in (7, 8):
            yield f"random n={n} seed={seed}", random_tournament(n, seed=seed)
    rng = random.Random(11)
    for n in range(1, 72, 2):
        yield f"rotational n={n}", rotational_regular_tournament(n)
        yield f"relabelled rotational n={n}", _relabelled(rotational_regular_tournament(n), rng)
    for n in (*range(1, 21), 31, 32, 64, 65, 70):
        yield f"reversed transitive n={n}", transitive_tournament(n).reverse()


@pytest.mark.parametrize("pair_min_n", [1, 10**9], ids=["pairs", "columns"])
def test_local_search_makes_the_moves_of_the_column_search(monkeypatch, pair_min_n):
    monkeypatch.setattr(search, "MEDIAN_PAIR_MIN_N", pair_min_n)
    hosts = 0
    for name, G in _column_search_hosts():
        assert search._local_search(G) == _reference_column_local_search(G), name
        hosts += 1
    assert hosts == 201 + 140 + 72 + 25


def test_redei_path_of_large_transitive_host_needs_no_scan():
    assert redei_path(transitive_tournament(8000)) == list(range(8000))


def feedback_property_violation(G, order):
    """Recount: for i < j, order[i] beats at least half of order[i+1..j]
    and order[j] is beaten by at least half of order[i..j-1].  Returns the
    first violating pair, or None."""
    n = len(order)
    for i in range(n):
        wins = 0
        for j in range(i + 1, n):
            wins += G.has_arc(order[i], order[j])
            if 2 * wins < j - i:
                return ("forward", i, j)
    for j in range(n):
        beaten = 0
        for i in range(j - 1, -1, -1):
            beaten += G.has_arc(order[i], order[j])
            if 2 * beaten < j - i:
                return ("backward", i, j)
    return None


def test_local_median_order_has_the_feedback_property():
    hosts = [random_tournament(n, seed=100 + n) for n in (*range(1, 45), 63, 64, 65)]
    hosts += [rotational_regular_tournament(n) for n in (5, 9, 21)]
    hosts += [transitive_tournament(20).reverse(), _transitive_blow_up(40, 3, 7)]
    for G in hosts:
        order, _ = median_order(G)
        assert feedback_property_violation(G, order) is None, G.n
    # the recount does catch an order that is not a fixed point
    assert feedback_property_violation(CYCLE3, [0, 2, 1]) is not None


# ---------------------------------------------------------------------------
# Outbranching embedding


def test_outward_star_embeds_with_root_at_source():
    T = outward_star(4)
    G = transitive_tournament(6)
    out = embed_outbranching(T, G)
    assert out.verdict == "found"
    assert is_valid_embedding(T, G, out.embedding)
    assert out.embedding[0] == 0  # the source dominates everything


def test_directed_path_is_an_outbranching_and_embeds():
    for seed in range(10):
        G = random_tournament(4, seed=seed)
        out = embed_outbranching(directed_path(3), G)
        assert out.verdict == "found"
        assert is_valid_embedding(directed_path(3), G, out.embedding)


def test_every_outbranching_on_four_embeds_in_double_size_hosts():
    outbranchings = [
        DirectedTree(4, [(0, 1), (1, 2), (2, 3)]),
        DirectedTree(4, [(0, 1), (0, 2), (0, 3)]),
        DirectedTree(4, [(0, 1), (0, 2), (1, 3)]),
        DirectedTree(4, [(0, 1), (1, 2), (1, 3)]),
    ]
    for T in outbranchings:
        assert T.is_outbranching()
        for seed in range(10):
            G = random_tournament(6, seed=2000 + seed)
            out = embed_outbranching(T, G)
            assert out.verdict == "found"
            assert is_valid_embedding(T, G, out.embedding)


def test_non_outbranchings_are_rejected():
    with pytest.raises(ValueError):
        embed_outbranching(inward_star(3), transitive_tournament(6))


def test_undersized_hosts_are_rejected():
    with pytest.raises(ValueError):
        embed_outbranching(directed_path(5), transitive_tournament(7))


def test_outbranching_greedy_map_failing_the_recheck_is_a_defect(monkeypatch):
    # A complete greedy map is valid by construction; one that fails the
    # re-check is a bug and must not be reported as a miss.
    monkeypatch.setattr(search, "is_valid_embedding", lambda T, G, phi: False)
    with pytest.raises(GraphDefectError, match="outbranching greedy produced"):
        embed_outbranching(outward_star(4), transitive_tournament(6))


def test_outcome_found_property():
    found = EmbedOutcome(verdict="found", embedding={0: 0}, nodes=1, strategy="x")
    assert found.found
    missing = EmbedOutcome(verdict="not_found", embedding=None, nodes=1, strategy="x")
    assert not missing.found


def test_outcome_is_an_immutable_picklable_record():
    outcome = EmbedOutcome(verdict="found", embedding={0: 1, 1: 0}, nodes=2, strategy="x")
    assert outcome.notes == () and outcome.found
    with pytest.raises(AttributeError):
        outcome.verdict = "not_found"
    with pytest.raises(AttributeError):
        outcome.extra = 1
    copy = pickle.loads(pickle.dumps(outcome))
    assert type(copy) is EmbedOutcome and copy == outcome
    greedy = greedy_embed(random_oriented_tree(6, 3), random_tournament(10, 3))
    refuted = exhaustive_embed(inward_star(3), rotational_regular_tournament(3))
    assert greedy.found and refuted.verdict == "not_found"
    for outcome in (greedy, refuted):
        copy = pickle.loads(pickle.dumps(outcome))
        assert type(copy) is EmbedOutcome and copy == outcome
