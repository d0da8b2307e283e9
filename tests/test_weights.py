"""Tree weights, component classification, and core trees.

Small fixed cases are hand-computed; randomized cases check exact
identities (weights summing to n−1, complements summing to n) or
recompute the property from scratch inside the test.
"""

from collections import deque
from fractions import Fraction

import pytest

from treetour import DirectedTree, core_tree, weight_profile
from treetour.generate import directed_path, inward_star, outward_star, random_oriented_tree
from treetour.graphs import GraphDefectError, bit_list, bits, mask_of
from treetour.weights import hanging_components


# ---------------------------------------------------------------------------
# Edge weights


def test_edge_weight_on_path_counts_far_side():
    prof = weight_profile(directed_path(5))  # underlying path 0-1-2-3-4
    assert prof.edge_weight(1, 2) == 3  # component {2,3,4}
    assert prof.edge_weight(2, 1) == 2  # component {0,1}
    assert prof.edge_weight(0, 1) == 4


def test_edge_weight_on_star():
    prof = weight_profile(inward_star(5))  # centre 0
    for leaf in range(1, 5):
        assert prof.edge_weight(0, leaf) == 1
        assert prof.edge_weight(leaf, 0) == 4


def test_edge_weight_accepts_either_endpoint_order():
    # the edge 1-2 is the arc (1, 2); from either end it weighs the far side
    prof = weight_profile(directed_path(4))
    assert (prof.edge_weight(1, 2), prof.edge_weight(2, 1)) == (2, 2)
    assert (prof.edge_weight(0, 1), prof.edge_weight(1, 0)) == (3, 1)


def test_incident_edge_weights_sum_to_n_minus_one():
    for seed in range(15):
        T = random_oriented_tree(4 + seed, seed=seed)
        prof = weight_profile(T)
        for x in range(T.n):
            assert sum(prof.edge_weight(x, y) for y in T.neighbours(x)) == T.n - 1


# ---------------------------------------------------------------------------
# Weight profiles


def test_weight_profile_of_directed_path():
    P = directed_path(4)
    prof = weight_profile(P)
    assert prof.in_weight == (0, 1, 2, 3)
    assert prof.out_weight == (3, 2, 1, 0)


def test_weight_profile_identities_hold_exactly():
    for seed in range(20):
        T = random_oriented_tree(3 + seed % 40, seed=seed)
        prof = weight_profile(T)
        for x in range(T.n):
            assert prof.in_weight[x] + prof.out_weight[x] == T.n - 1
        for u, v in T.arcs:
            assert prof.edge_weight(u, v) + prof.edge_weight(v, u) == T.n


# ---------------------------------------------------------------------------
# Components against a subtree


def test_components_against_middle_of_path():
    P = directed_path(3)
    comps = hanging_components(P, mask_of([1]))
    assert [(bit_list(h.comp), h.direction) for h in comps] == [
        ([0], "in"),
        ([2], "out"),
    ]


def test_components_against_centre_of_inward_star():
    S = inward_star(5)
    comps = hanging_components(S, mask_of([0]))
    assert len(comps) == 4
    assert all(h.direction == "in" for h in comps)
    assert sum(h.comp.bit_count() for h in comps) == 4


def test_components_against_partition_and_direction_recount():
    for seed in range(10):
        T = random_oriented_tree(20, seed=seed)
        C = core_tree(T, 3).vertices
        union = 0
        for h in hanging_components(T, C):
            m = h.comp
            assert m & C == 0
            assert m & union == 0
            union |= m
            # exactly one connecting arc; its direction defines the label
            connecting = [
                (u, v)
                for u, v in T.arcs
                if ((C >> u) & 1 and (m >> v) & 1) or ((m >> u) & 1 and (C >> v) & 1)
            ]
            assert len(connecting) == 1
            u, v = connecting[0]
            assert h.direction == ("in" if (C >> v) & 1 else "out")
        assert union | C == (1 << T.n) - 1


def test_hanging_components_reject_other_than_one_attaching_edge():
    P = directed_path(5)
    with pytest.raises(GraphDefectError, match="by 2 edges"):
        hanging_components(P, mask_of([0, 4]))


# ---------------------------------------------------------------------------
# Core trees


def test_core_of_path_five_is_the_middle():
    assert core_tree(directed_path(5), 2).vertices == mask_of([2])


def test_core_of_star_is_the_centre():
    for star in (inward_star(5), outward_star(5)):
        core = core_tree(star, 2)
        assert core.vertices == mask_of([0])
        assert core.size == 1


def test_core_of_path_six_excludes_endpoints():
    assert core_tree(directed_path(6), 3).vertices == mask_of([1, 2, 3, 4])


def test_core_threshold_is_inclusive_exact_arithmetic():
    # path on 4, delta=2: threshold (1-1/2)*4 = 2 exactly; the two middle
    # vertices have side weights (1,2) and (2,1), both within threshold.
    assert core_tree(directed_path(4), 2).vertices == mask_of([1, 2])


def _components_without(T, removed):
    """Components of T minus the vertex set ``removed``, by plain BFS.

    Written here from the arc list alone, so the core checks below share
    no code with the weight profile or the component finder they check.
    """
    adjacent = {v: [] for v in range(T.n)}
    for u, v in T.arcs:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = set(removed)
    comps = []
    for start in range(T.n):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = {start}, deque([start])
        while queue:
            for y in adjacent[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    queue.append(y)
        comps.append(comp)
    return comps


def _side_sizes(T, x):
    """{neighbour y of x: size of the component of T - x holding y}."""
    ends = {v for u, v in T.arcs if u == x} | {u for u, v in T.arcs if v == x}
    return {y: len(c) for c in _components_without(T, {x}) for y in c & ends}


def test_core_definition_recomputed_from_edge_weights():
    for seed in range(10):
        T = random_oriented_tree(30, seed=seed)
        for delta in (2, 3, 5):
            expected = 0
            for x in range(T.n):
                if all(
                    Fraction(size) <= Fraction((delta - 1) * T.n, delta)
                    for size in _side_sizes(T, x).values()
                ):
                    expected |= 1 << x
            assert core_tree(T, delta).vertices == expected


def test_core_structural_guarantees():
    for seed in range(10):
        T = random_oriented_tree(25 + seed, seed=100 + seed)
        core = core_tree(T, 3)
        members = sorted(bits(core.vertices))
        assert members, "core may not be empty"
        # degree bound inside the core
        for x in members:
            deg = sum(1 for u, v in core.arcs if x in (u, v))
            assert deg <= 3
        # every outside component small
        for comp in _components_without(T, members):
            assert len(comp) * 3 <= T.n
        # both end weights of every core arc at least n/delta
        for u, v in core.arcs:
            assert _side_sizes(T, u)[v] * 3 >= T.n
            assert _side_sizes(T, v)[u] * 3 >= T.n


def test_core_grows_with_delta():
    for seed in range(10):
        T = random_oriented_tree(40, seed=200 + seed)
        prev = 0
        for delta in (2, 3, 4, 6, 10):
            cur = core_tree(T, delta).vertices
            assert prev & ~cur == 0
            prev = cur


def test_core_survives_leaf_deletion_almost_entirely():
    for seed in range(10):
        T = random_oriented_tree(20, seed=300 + seed)
        leaf = next(
            x for x in range(T.n) if sum(1 for e in T.arcs if x in e) == 1
        )
        keep = [v for v in range(T.n) if v != leaf]
        relabel = {v: i for i, v in enumerate(keep)}
        smaller = DirectedTree(
            T.n - 1,
            [(relabel[u], relabel[v]) for u, v in T.arcs if leaf not in (u, v)],
        )
        before = core_tree(T, 3).size
        after = core_tree(smaller, 3).size
        assert after >= before - 1


def test_core_rejects_delta_below_two():
    with pytest.raises(ValueError):
        core_tree(directed_path(4), 1)
