"""Structured embedding procedures with validated hypotheses.

Each procedure checks its own preconditions (raising HypothesisViolation
with the violated clause named) and verifies its own output; the tests
here recheck outputs independently and confirm the stated extras: the
X-occupancy cap, landing counts in a designated subset, image-side
guarantees, and the reversal dualities.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from treetour import (
    DirectedTree,
    GraphDefectError,
    HypothesisViolation,
    OneByOneInstance,
    RoundTheBackInstance,
    Tournament,
    TwoSetInstance,
    component_by_component,
    core_tree,
    dual_component_by_component,
    exhaustive_embed,
    extend_one_by_one,
    greedy_embed,
    is_valid_embedding,
    parse_tournament,
    parse_tree,
    portfolio_embed,
    round_the_back,
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
from treetour.graphs import full_mask, mask_of
from treetour.instances import (
    random_one_by_one_instance,
    random_round_the_back_instance,
    random_two_set_instance,
)
from treetour import search, strategies
from treetour.strategies import directed_path_order


def build_tournament(n, arc_fn):
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            arcs.append((i, j) if arc_fn(i, j) else (j, i))
    return Tournament.from_arcs(n, arcs)


# ---------------------------------------------------------------------------
# Embedding around the back of a dominated set


def test_round_the_back_single_vertex_tree():
    G = random_tournament(6, seed=1)
    inst = RoundTheBackInstance(
        T=DirectedTree(1, []), t=0, G=G, v=2, N=0, X=full_mask(6) & ~(1 << 2)
    )
    assert round_the_back(inst) == {0: 2}


def rtb_fixture():
    """Root with one branch of size 2 (d=2); |N| = 6, |X| = 24, capacities met."""
    T = DirectedTree(3, [(0, 1), (1, 2)])
    n_set = list(range(1, 7))
    x_set = list(range(7, 31))

    def arc_fn(i, j):
        if i == 0:
            return j in n_set  # v -> N, X -> v
        if (i in n_set) == (j in n_set):
            return True  # transitive inside N and inside X
        return j >= 19  # N beats the last 12 X vertices, loses to the first 12

    G = build_tournament(31, arc_fn)
    return T, G, mask_of(n_set), mask_of(x_set), set(x_set)


def test_round_the_back_respects_occupancy_cap():
    T, G, N, X, x_set = rtb_fixture()
    phi = round_the_back(RoundTheBackInstance(T=T, t=0, G=G, v=0, N=N, X=X))
    assert is_valid_embedding(T, G, phi)
    assert phi[0] == 0
    assert sum(1 for h in phi.values() if h in x_set) <= 4 * 2


def test_round_the_back_names_the_violated_hypothesis():
    T, G, N, X, _ = rtb_fixture()
    with pytest.raises(HypothesisViolation) as err:
        round_the_back(
            RoundTheBackInstance(T=T, t=0, G=G, v=0, N=mask_of([1]), X=X | N & ~2)
        )
    assert "(N-size)" in str(err.value)


def test_round_the_back_rejects_root_with_in_arcs():
    G = random_tournament(8, seed=4)
    bad_root = DirectedTree(2, [(1, 0)])  # arc into the root
    with pytest.raises(HypothesisViolation):
        round_the_back(
            RoundTheBackInstance(
                T=bad_root, t=0, G=G, v=0, N=mask_of([1, 2, 3]), X=mask_of([4, 5, 6, 7])
            )
        )


# ---------------------------------------------------------------------------
# One-at-a-time extension


def test_extension_with_nothing_left_returns_the_seed():
    T = DirectedTree(2, [(0, 1)])
    G = random_tournament(5, seed=2)
    seed = next(
        {0: a, 1: b}
        for a in range(5)
        for b in range(5)
        if a != b and G.has_arc(a, b)
    )
    inst = OneByOneInstance(
        T=T,
        T_c=0b11,
        seed=seed,
        G=G,
        S=mask_of(seed.values()),
        N=full_mask(5) & ~mask_of(seed.values()),
        variant="a",
    )
    assert extend_one_by_one(inst) == seed


def test_single_arc_extension_lands_in_out_neighbourhood():
    T = DirectedTree(2, [(0, 1)])
    G = build_tournament(6, lambda i, j: i == 0)  # vertex 0 beats everyone
    phi = extend_one_by_one(
        OneByOneInstance(
            T=T, T_c=0b01, seed={0: 0}, G=G, S=0b000001, N=0b111110, variant="c"
        )
    )
    assert is_valid_embedding(T, G, phi)
    assert phi[1] in range(1, 6)


def test_variant_b_guarantees_landings_in_designated_subset():
    T = DirectedTree(3, [(0, 1), (0, 2)])

    def arc_fn(i, j):
        if i == 0:
            return j in (1, 2, 3, 4, 9, 10)
        return True

    G = build_tournament(13, arc_fn)
    n_prime = mask_of(range(1, 9))
    phi = extend_one_by_one(
        OneByOneInstance(
            T=T,
            T_c=0b001,
            seed={0: 0},
            G=G,
            S=1,
            N=full_mask(13) & ~1,
            variant="b",
            N_prime=n_prime,
            r=2,
        )
    )
    assert is_valid_embedding(T, G, phi)
    landed = mask_of(phi[k] for k in (1, 2))
    assert (landed & n_prime).bit_count() >= 2


def test_variant_c_extends_through_in_arcs_without_out_degree_checks():
    T = DirectedTree(3, [(1, 0), (2, 0)])
    G = build_tournament(9, lambda i, j: i != 0)  # everyone beats vertex 0
    phi = extend_one_by_one(
        OneByOneInstance(
            T=T, T_c=0b001, seed={0: 0}, G=G, S=1, N=full_mask(9) & ~1, variant="c"
        )
    )
    assert is_valid_embedding(T, G, phi)


def test_variant_c_rejects_mixed_direction_attachments():
    # arcs both into and out of the seeded subtree: 1 -> 0 and 0 -> 2
    T = DirectedTree(3, [(1, 0), (0, 2)])
    G = rotational_regular_tournament(9)
    with pytest.raises(HypothesisViolation) as err:
        extend_one_by_one(
            OneByOneInstance(
                T=T, T_c=0b001, seed={0: 0}, G=G, S=1, N=full_mask(9) & ~1, variant="c"
            )
        )
    assert "(direction)" in str(err.value)


# ---------------------------------------------------------------------------
# Two-set embedding, component by component


def two_set_fixture():
    T = DirectedTree(3, [(0, 1), (1, 2)])
    yset, zset = list(range(5)), list(range(5, 10))
    G = build_tournament(10, lambda i, j: not (i in yset and j in zset))
    return T, G, mask_of(yset), mask_of(zset), zset


def test_two_set_path_splits_across_the_sets():
    T, G, Y, Z, zset = two_set_fixture()
    inst = TwoSetInstance(
        T=T, F_minus=0b001, F_plus=0b110, G=G, Y=Y, Z=Z, gamma=0, alpha=1,
        seed={1: 0, 2: 1},
    )
    phi = component_by_component(inst)
    assert is_valid_embedding(T, G, phi)
    assert phi[0] in zset


def test_two_set_with_empty_minus_forest_returns_the_seed():
    T, G, Y, Z, _ = two_set_fixture()
    inst = TwoSetInstance(
        T=T, F_minus=0, F_plus=0b111, G=G, Y=Y, Z=Z, gamma=0,
        alpha=Fraction(1, 3), seed={0: 0, 1: 1, 2: 2},
    )
    assert G.has_arc(0, 1) and G.has_arc(1, 2)
    assert component_by_component(inst) == {0: 0, 1: 1, 2: 2}


def test_two_set_dual_is_the_primal_on_the_mirrored_instance():
    T, G, Y, Z, _ = two_set_fixture()
    inst = TwoSetInstance(
        T=T, F_minus=0b001, F_plus=0b110, G=G, Y=Y, Z=Z, gamma=0, alpha=1,
        seed={1: 0, 2: 1},
    )
    phi = component_by_component(inst)
    mirror = TwoSetInstance(
        T=T.reverse(), F_minus=0b110, F_plus=0b001, G=G.reverse(), Y=Z, Z=Y,
        gamma=0, alpha=1, seed={1: 0, 2: 1},
    )
    assert dual_component_by_component(mirror) == phi


def test_two_set_names_violated_hypotheses():
    T, G, Y, Z, _ = two_set_fixture()
    with pytest.raises(HypothesisViolation) as err:
        component_by_component(
            TwoSetInstance(
                T=T, F_minus=0b010, F_plus=0b101, G=G, Y=Y, Z=Z, gamma=0,
                alpha=1, seed={0: 0},
            )
        )
    # F- = {1} on the path 0->1->2 leaves cross arcs in both directions
    assert "(cross-direction)" in str(err.value)


@pytest.mark.parametrize(
    "run, where",
    [
        (lambda: round_the_back(random_round_the_back_instance(1)), "round-the-back: X-side"),
        (lambda: extend_one_by_one(random_one_by_one_instance(0, "a")), "one-by-one:"),
        (lambda: component_by_component(random_two_set_instance(0)), "two-set:"),
    ],
)
def test_failed_placement_on_a_validated_instance_is_a_defect(monkeypatch, run, where):
    # a validated instance always leaves room, so a component that neither
    # greedy nor the complete search can place is a bug, named by procedure
    def budget_exhausted(T, G, **_):
        return search.EmbedOutcome(search.BUDGET_EXHAUSTED, None, 0, "greedy")

    def not_found(T, G, **_):
        return search.EmbedOutcome(search.NOT_FOUND, None, 0, "exhaustive")

    monkeypatch.setattr(strategies, "greedy_embed", budget_exhausted)
    monkeypatch.setattr(strategies, "exhaustive_embed", not_found)
    with pytest.raises(GraphDefectError, match="placement failed on a validated instance") as err:
        run()
    assert str(err.value).startswith(where)


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
