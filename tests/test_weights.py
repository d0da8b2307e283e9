"""Tree weights, component classification, and core trees.

Small fixed cases are hand-computed; randomized cases check exact
identities (weights summing to n−1, complements summing to n) or
recompute the property from scratch inside the test.
"""

from fractions import Fraction

import pytest

from treetour import (
    DirectedTree,
    components_against,
    core_tree,
    edge_weight,
    weight_profile,
)
from treetour.generate import directed_path, inward_star, outward_star, random_oriented_tree
from treetour.graphs import GraphDefectError, bits, mask_of
from treetour.weights import hanging_components


# ---------------------------------------------------------------------------
# Edge weights


def test_edge_weight_on_path_counts_far_side():
    P = directed_path(5)  # underlying path 0-1-2-3-4
    assert edge_weight(P, 1, (1, 2)) == 3  # component {2,3,4}
    assert edge_weight(P, 2, (1, 2)) == 2  # component {0,1}
    assert edge_weight(P, 0, (0, 1)) == 4


def test_edge_weight_on_star():
    S = inward_star(5)  # centre 0
    for leaf in range(1, 5):
        assert edge_weight(S, 0, (leaf, 0)) == 1
        assert edge_weight(S, leaf, (leaf, 0)) == 4


def test_edge_weight_accepts_either_endpoint_order():
    P = directed_path(4)
    assert edge_weight(P, 1, (1, 2)) == edge_weight(P, 1, (2, 1))


def test_edge_weight_rejects_non_incident_edge():
    P = directed_path(5)
    with pytest.raises(ValueError):
        edge_weight(P, 0, (1, 2))
    with pytest.raises(ValueError):
        edge_weight(P, 0, (0, 2))  # not an edge of the tree


def test_incident_edge_weights_sum_to_n_minus_one():
    for seed in range(15):
        T = random_oriented_tree(4 + seed, seed=seed)
        for x in range(T.n):
            incident = [e for e in T.arcs if x in e]
            assert sum(edge_weight(T, x, e) for e in incident) == T.n - 1


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


def test_weight_profile_matches_edge_weight_function():
    T = random_oriented_tree(12, seed=7)
    prof = weight_profile(T)
    for u, v in T.arcs:
        assert prof.edge_weight(u, v) == edge_weight(T, u, (u, v))


# ---------------------------------------------------------------------------
# Components against a subtree


def test_components_against_middle_of_path():
    P = directed_path(3)
    comps = components_against(P, mask_of([1]))
    assert sorted((sorted(bits(m)), side) for m, side in comps) == [
        ([0], "in"),
        ([2], "out"),
    ]


def test_components_against_centre_of_inward_star():
    S = inward_star(5)
    comps = components_against(S, mask_of([0]))
    assert len(comps) == 4
    assert all(side == "in" for _, side in comps)
    assert sum(m.bit_count() for m, _ in comps) == 4


def test_components_against_partition_and_direction_recount():
    for seed in range(10):
        T = random_oriented_tree(20, seed=seed)
        C = core_tree(T, 3).vertices
        comps = components_against(T, C)
        hanging = hanging_components(T, C)
        assert [(h.comp, h.direction) for h in hanging] == comps
        union = 0
        for (m, side), h in zip(comps, hanging):
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
            assert side == ("in" if (C >> v) & 1 else "out")
            # the finder reports that same arc, C end first
            assert (h.inner, h.outer) == ((u, v) if (C >> u) & 1 else (v, u))
        assert union | C == (1 << T.n) - 1


def test_hanging_components_reject_other_than_one_attaching_edge():
    P = directed_path(5)
    with pytest.raises(GraphDefectError, match="by 2 edges"):
        hanging_components(P, mask_of([0, 4]))
    with pytest.raises(GraphDefectError, match="by 0 edges"):
        hanging_components(P, mask_of([0]), mask_of([3, 4]))


def test_components_against_rejects_disconnected_set():
    P = directed_path(5)
    with pytest.raises(ValueError):
        components_against(P, mask_of([0, 4]))


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


def test_core_definition_recomputed_from_edge_weights():
    for seed in range(10):
        T = random_oriented_tree(30, seed=seed)
        for delta in (2, 3, 5):
            expected = 0
            for x in range(T.n):
                incident = [e for e in T.arcs if x in e]
                if all(
                    Fraction(edge_weight(T, x, e)) <= Fraction((delta - 1) * T.n, delta)
                    for e in incident
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
        for m, _ in components_against(T, core.vertices):
            assert m.bit_count() * 3 <= T.n
        # both end weights of every core arc at least n/delta
        for u, v in core.arcs:
            assert edge_weight(T, u, (u, v)) * 3 >= T.n
            assert edge_weight(T, v, (u, v)) * 3 >= T.n


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
