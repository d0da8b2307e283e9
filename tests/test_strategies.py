"""The portfolio driver.

Each verdict is rechecked independently: embeddings by validation,
NotFound against complete search, and reversal invariance on mirrored
pairs.
"""

import random
from pathlib import Path

import pytest

from treetour import (
    DirectedTree,
    GraphDefectError,
    core_tree,
    exhaustive_embed,
    greedy_embed,
    is_valid_embedding,
    parse_tournament,
    parse_tree,
    portfolio_embed,
)
from treetour.generate import (
    directed_path,
    enumerate_oriented_trees,
    enumerate_tournaments,
    inward_star,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    transitive_tournament,
)
from treetour import search, strategies
from treetour.strategies import directed_path_order


# ---------------------------------------------------------------------------
# Portfolio dispatch


def test_portfolio_embeds_spanning_paths_via_hamiltonian_path():
    for s in range(5):
        G = random_tournament(7, seed=100 + s)
        out = portfolio_embed(directed_path(7), G)
        assert out.found
        assert out.strategy == "portfolio/redei-path"
        assert is_valid_embedding(directed_path(7), G, out.embedding)


def test_directed_path_order_is_computed_once_per_tree(monkeypatch):
    calls = []
    real = strategies._path_order
    monkeypatch.setattr(
        strategies, "_path_order", lambda T: calls.append(T) or real(T)
    )
    P = DirectedTree(5, [(3, 1), (1, 4), (4, 0), (0, 2)])
    T = random_oriented_tree(6, seed=1)
    assert T.path_order is None and P.path_order is None
    for s in range(4):
        G = random_tournament(10, seed=300 + s)
        for tree in (P, T):
            out = portfolio_embed(tree, G)
            fresh = DirectedTree(tree.n, tree.arcs)
            assert out == portfolio_embed(fresh, G)
    assert P.path_order == (3, 1, 4, 0, 2) and T.path_order == ()
    assert directed_path_order(P) == [3, 1, 4, 0, 2]
    assert directed_path_order(T) is None
    # one computation per tree object: P, T and each of their 8 fresh copies
    assert sum(c is P for c in calls) == 1 and sum(c is T for c in calls) == 1
    assert len(calls) == 2 + 8


# Reference: the directed-path test before it rejected branching vertices
# by the largest out- and in-degree, kept verbatim.


def _reference_path_order(T: DirectedTree) -> tuple[int, ...]:
    if any(len(T.out_nbrs[v]) > 1 or len(T.in_nbrs[v]) > 1 for v in range(T.n)):
        return ()
    sources = [v for v in range(T.n) if not T.in_nbrs[v]]
    if len(sources) != 1:
        return ()
    order = [sources[0]]
    while T.out_nbrs[order[-1]]:
        order.append(T.out_nbrs[order[-1]][0])
    return tuple(order) if len(order) == T.n else ()


def _path_order_corpus():
    """Every oriented tree on up to 8 vertices under three seeded
    relabellings, 300 random trees on up to 400 vertices, and relabelled
    directed paths on up to 1,600 vertices, each also with one arc
    reversed and with one leaf hung off its middle."""
    rng = random.Random(19)

    def relabelled(n, arcs):
        sigma = list(range(n))
        rng.shuffle(sigma)
        return DirectedTree(n, [(sigma[u], sigma[v]) for u, v in arcs])

    for n in range(1, 9):
        for T in enumerate_oriented_trees(n):
            for _ in range(3):
                yield relabelled(n, T.arcs)
    yield DirectedTree(2, [(0, 1)])
    yield DirectedTree(2, [(1, 0)])
    for s in range(300):
        yield random_oriented_tree(rng.randint(1, 400), seed=1900 + s)
    for n in (*range(1, 30), 399, 1400, 1500, 1600):
        arcs = [(i, i + 1) for i in range(n - 1)]
        yield relabelled(n, arcs)
        if n > 1:
            k = rng.randrange(n - 1)
            yield relabelled(n, arcs[:k] + [(k + 1, k)] + arcs[k + 1:])
        yield relabelled(n + 1, arcs + [(n // 2, n)])


def test_path_order_matches_the_reference():
    paths = 0
    for T in _path_order_corpus():
        order = strategies._path_order(T)
        assert order == _reference_path_order(T), T
        paths += bool(order)
    # The directed paths: one class per n = 1..8 under three relabellings,
    # both two-vertex orientations, the random trees on 1 and 2 vertices,
    # the 33 corpus paths, the two-vertex one with its arc reversed, and
    # the one- and two-vertex ones with a leaf hung off their end.
    assert paths == 24 + 2 + 2 + 33 + 1 + 2


def test_portfolio_validates_each_embedding_once(monkeypatch):
    # Greedy checks its own map, and the Redei-path map is checked where
    # it is built: the driver adds no second check to either.
    calls = []
    real = strategies.is_valid_embedding

    def counting(T, G, phi):
        calls.append(T)
        return real(T, G, phi)

    monkeypatch.setattr(strategies, "is_valid_embedding", counting)
    monkeypatch.setattr(search, "is_valid_embedding", counting)
    T, G = inward_star(4), transitive_tournament(6)
    out = portfolio_embed(T, G)
    assert out.strategy == "portfolio/greedy" and out.notes == ("found by greedy",)
    assert len(calls) == 1
    calls.clear()
    P, H = directed_path(7), random_tournament(7, seed=100)
    out = portfolio_embed(P, H)
    assert out.strategy == "portfolio/redei-path"
    assert calls == [P]


def test_redei_path_stage_rejects_a_wrong_path_order(monkeypatch):
    real = strategies.directed_path_order
    monkeypatch.setattr(
        strategies,
        "directed_path_order",
        lambda T: None if real(T) is None else real(T)[::-1],
    )
    with pytest.raises(GraphDefectError, match="redei-path"):
        portfolio_embed(directed_path(5), random_tournament(5, seed=1))


def test_portfolio_embeds_single_vertex_core_trees_above_the_exhaustive_cap():
    # Trees whose 2-core is one vertex, in hosts too large for complete
    # search: the stages before it must find every one.
    for n in range(15, 21):
        trees = (random_oriented_tree(n, seed=s) for s in range(100))
        trees = [T for T in trees if core_tree(T, 2).size == 1][:5]
        assert len(trees) == 5
        for i, T in enumerate(trees):
            for G in (
                random_tournament(2 * n - 2, seed=10 * n + i),
                transitive_tournament(2 * n - 2),
                rotational_regular_tournament(2 * n - 1),
            ):
                assert G.n > strategies.EXHAUSTIVE_MAX_N
                out = portfolio_embed(T, G)
                assert out.found, (n, i, G.n, out.notes)
                phi = out.embedding
                assert sorted(phi) == list(range(n)) and len(set(phi.values())) == n
                assert all((G.out_rows[phi[u]] >> phi[v]) & 1 for u, v in T.arcs)


def test_portfolio_certifies_star_sharpness():
    out = portfolio_embed(inward_star(4), rotational_regular_tournament(5))
    assert out.verdict == "not_found"


def test_portfolio_rejects_oversized_trees_with_a_certificate():
    out = portfolio_embed(inward_star(5), rotational_regular_tournament(3))
    assert out.verdict == "not_found"


def test_portfolio_verdict_is_reversal_invariant():
    for s in range(10):
        T = random_oriented_tree(6, seed=s)
        G = random_tournament(10, seed=1000 + s)
        assert (
            portfolio_embed(T, G).verdict
            == portfolio_embed(T.reverse(), G.reverse()).verdict
        )


def test_portfolio_sweep_all_three_vertex_trees_all_four_vertex_hosts():
    for T in enumerate_oriented_trees(3):
        for G in enumerate_tournaments(4):
            out = portfolio_embed(T, G)
            assert out.found
            assert is_valid_embedding(T, G, out.embedding)


def test_portfolio_found_agrees_with_exhaustive_on_tight_hosts():
    for s in range(15):
        T = random_oriented_tree(4, seed=s)
        G = random_tournament(5, seed=3000 + s)
        mine = portfolio_embed(T, G).verdict
        oracle = exhaustive_embed(T, G).verdict
        assert mine == oracle


# Hosts on 2n-2 vertices that defeat greedy_embed, found by a seeded
# arc-flip hill-climb (seeds and steps in CHANGES.md).  Each sits in the
# directory of the stage that rescues it; the file stem names the tree
# size, tree family and climb seed.
GREEDY_MISSES = Path(__file__).parent / "data" / "greedy_misses"


def greedy_miss(path):
    return parse_tree(path.read_text()), parse_tournament(path.with_suffix(".trn").read_text())


def test_portfolio_rescues_each_greedy_miss_at_its_stage():
    stages = set()
    for path in sorted(GREEDY_MISSES.glob("*/*.tree")):
        stage = path.parent.name
        T, G = greedy_miss(path)
        assert G.n == 2 * T.n - 2
        assert not greedy_embed(T, G).found, path.stem
        out = portfolio_embed(T, G)
        assert out.strategy == f"portfolio/{stage}", (stage, path.stem)
        assert is_valid_embedding(T, G, out.embedding)
        stages.add(stage)
    assert stages == {"redei-path", "outbranching", "inbranching-by-reversal", "exhaustive"}


def test_portfolio_config_budget_is_honoured():
    T, G = greedy_miss(GREEDY_MISSES / "exhaustive" / "n8-random-s0.tree")
    assert portfolio_embed(T, G).strategy == "portfolio/exhaustive"
    out = portfolio_embed(T, G, node_budget=1)
    assert out.verdict == "budget_exhausted"
    assert out.embedding is None
    assert "exhaustive: node budget exhausted" in out.notes


@pytest.mark.parametrize("embed", [exhaustive_embed, portfolio_embed])
@pytest.mark.parametrize("budget", [0, -5])
def test_node_budgets_below_one_are_rejected(embed, budget):
    # The portfolio would settle this pair on a Redei path, before any node.
    message = f"node budget must be at least 1, got {budget}"
    with pytest.raises(ValueError, match=message):
        embed(directed_path(3), transitive_tournament(4), node_budget=budget)
