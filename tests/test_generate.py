"""Graph generators, exhaustive enumerators, and the seeded PRNG streams.

Enumeration counts are frozen against the published integer sequences for
tournaments (labelled: 2^C(n,2); isomorphism classes: 1,1,2,4,12,56,...)
and oriented trees (1,1,3,8,27,91,...).  Generators are checked for the
structural properties that define them.
"""

import hashlib
import itertools

import pytest

from treetour import (
    DirectedTree,
    Tournament,
    canonical_form,
    degrees,
    enumerate_oriented_trees,
    enumerate_tournaments,
    inward_star,
    near_extremal_pair,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    stream,
    transitive_tournament,
)
from treetour.formats import parse_tree, write_tree
from treetour.generate import directed_path, outward_star, oriented_tree_key


# ---------------------------------------------------------------------------
# Fixed-shape generators


def test_transitive_tournament_orders_all_pairs():
    G = transitive_tournament(5)
    for i in range(5):
        for j in range(i + 1, 5):
            assert G.has_arc(i, j)


def test_rotational_tournament_is_regular():
    for n in (3, 5, 7, 9, 11):
        G = rotational_regular_tournament(n)
        half = (n - 1) // 2
        assert degrees(G) == [(half, half)] * n
        # vertex v beats exactly v+1 .. v+half (mod n)
        assert all(G.has_arc(0, j) for j in range(1, half + 1))
        assert all(G.has_arc(j, 0) for j in range(half + 1, n))


def test_rotational_tournament_requires_odd_order():
    with pytest.raises(ValueError):
        rotational_regular_tournament(6)


def test_star_and_path_shapes():
    assert inward_star(4).arcs == ((1, 0), (2, 0), (3, 0))
    assert outward_star(4).arcs == ((0, 1), (0, 2), (0, 3))
    assert directed_path(4).arcs == ((0, 1), (1, 2), (2, 3))
    assert inward_star(4).reverse() == outward_star(4)


@pytest.mark.parametrize(
    "generate",
    [
        transitive_tournament,
        directed_path,
        inward_star,
        outward_star,
        lambda n: list(enumerate_oriented_trees(n)),
    ],
    ids=["transitive", "path", "in-star", "out-star", "enumerate-trees"],
)
@pytest.mark.parametrize("n", [0, -1])
def test_fixed_generators_need_a_positive_order(generate, n):
    with pytest.raises(ValueError) as err:
        generate(n)
    assert str(err.value) == "n must be positive"


def test_trusted_generator_trees_equal_validated_rebuilds():
    """Every tree a generator builds without the constructor's checks is
    rebuilt through them: same tree, same neighbour tuples."""
    trees = [random_oriented_tree(n, s) for n in range(1, 61) for s in (0, 1, 2, 2**64 - 1)]
    trees += [f(n) for n in range(1, 41) for f in (directed_path, inward_star, outward_star)]
    trees += [near_extremal_pair(n, ell)[0] for n, ell in ((4, 2), (8, 2), (12, 4), (40, 6))]
    trees += [T for n in range(1, 7) for T in enumerate_oriented_trees(n)]
    for T in trees:
        rebuilt = DirectedTree(T.n, T.arcs)
        assert rebuilt == T
        assert (rebuilt.out_nbrs, rebuilt.in_nbrs, rebuilt.nbrs) == (T.out_nbrs, T.in_nbrs, T.nbrs)


def test_reversed_trees_equal_validated_rebuilds():
    """``reverse`` skips the tree checks, since turning every arc round
    keeps a tree: from generator trees and parsed trees alike, it equals
    the validated construction of the turned arcs."""
    trees = [random_oriented_tree(n, s) for n in range(1, 61) for s in (0, 1)]
    trees += [f(n) for n in range(1, 21) for f in (directed_path, inward_star, outward_star)]
    trees += [near_extremal_pair(n, ell)[0] for n, ell in ((4, 2), (12, 4), (40, 6))]
    trees += [T for n in range(1, 6) for T in enumerate_oriented_trees(n)]
    trees += [parse_tree(write_tree(T)) for T in trees]
    for T in trees:
        R = T.reverse()
        rebuilt = DirectedTree(T.n, [(v, u) for u, v in T.arcs])
        assert R == rebuilt and R.arcs == rebuilt.arcs
        assert (R.out_nbrs, R.in_nbrs, R.nbrs) == (rebuilt.out_nbrs, rebuilt.in_nbrs, rebuilt.nbrs)
        assert R.reverse() == T


# Host sizes on both sides of the 512-vertex band cutoff of
# `transpose_rows`, and the seeds of the pinned generator outputs.
PINNED_NS = list(range(1, 12)) + [20, 24, 62, 65, 200, 398, 1433, 1600]
PINNED_SEEDS = (0, 1, 2**64 - 1)
PINNED_DIGEST = "9053574cc130c5932cfa20144c4894df89e3550dfb942ce27d1fddbda1f0a683"


def test_generator_outputs_match_their_pinned_digest():
    """Seeded streams and fixed families are byte-identical to the
    outputs the digest was taken from, before the generators built rows
    by rotation and packed words and trusted their own trees."""
    h = hashlib.sha256()
    for n in PINNED_NS:
        for seed in PINNED_SEEDS:
            h.update(repr(random_tournament(n, seed).out_rows).encode())
            h.update(repr(random_oriented_tree(n, seed).arcs).encode())
    for m in range(1, 402, 2):
        h.update(repr(rotational_regular_tournament(m).out_rows).encode())
    for n in list(range(1, 41)) + [1500]:
        for T in (directed_path(n), inward_star(n), outward_star(n)):
            h.update(repr((T.arcs, T.out_nbrs, T.in_nbrs, T.nbrs)).encode())
    for n, ell in ((6, 2), (10, 4), (12, 6), (40, 6)):
        T, G = near_extremal_pair(n, ell)
        h.update(repr((T.arcs, T.out_nbrs, T.in_nbrs, T.nbrs, G.out_rows)).encode())
    assert h.hexdigest() == PINNED_DIGEST


# ---------------------------------------------------------------------------
# Random generators


def test_random_tournament_is_deterministic_per_seed():
    assert random_tournament(12, seed=5) == random_tournament(12, seed=5)
    assert random_tournament(12, seed=5) != random_tournament(12, seed=6)


def test_random_tournament_is_well_formed():
    G = random_tournament(15, seed=9)
    assert G.n == 15
    for u in range(15):
        for v in range(u + 1, 15):
            assert G.has_arc(u, v) != G.has_arc(v, u)


def test_random_oriented_tree_is_deterministic_and_well_formed():
    assert random_oriented_tree(14, seed=2) == random_oriented_tree(14, seed=2)
    assert random_oriented_tree(14, seed=2) != random_oriented_tree(14, seed=3)
    T = random_oriented_tree(14, seed=2)
    assert len(T.arcs) == 13  # DirectedTree construction validates shape


def test_random_trees_vary_in_shape():
    keys = {oriented_tree_key(random_oriented_tree(7, seed=s)) for s in range(30)}
    assert len(keys) > 5


# ---------------------------------------------------------------------------
# Near-extremal tree/host pairs


@pytest.mark.parametrize("n, path_len", [(6, 2), (7, 3), (8, 2)])
def test_near_extremal_pair_sizes(n, path_len):
    T, G = near_extremal_pair(n, path_len)
    assert T.n == n
    assert G.n == 2 * n - path_len - 3


def test_near_extremal_tree_is_a_spined_double_star():
    T, _ = near_extremal_pair(8, 2)  # spine 0->1, three out-leaves, three in-leaves
    assert T.has_arc(0, 1)
    assert sorted(T.out_nbrs[1]) == [2, 3, 4]
    assert sorted(T.in_nbrs[0]) == [5, 6, 7]


def test_near_extremal_host_has_one_way_blocks():
    T, G = near_extremal_pair(6, 2)  # y=2, blocks of 3, |X| = 1
    assert G.n == 7
    y_ids, z_ids, x_ids = [0, 1, 2], [3, 4, 5], [6]
    assert all(G.has_arc(z, x) for z in z_ids for x in x_ids)
    assert all(G.has_arc(x, y) for x in x_ids for y in y_ids)
    assert all(G.has_arc(z, y) for z in z_ids for y in y_ids)


def _reference_near_extremal_host(n, path_len):
    """The host as it was built before its rows were written whole: every
    arc listed, then the validated ``Tournament.from_arcs``."""
    y = (n - path_len) // 2
    block = 2 * y - 1
    y_ids = list(range(block))
    z_ids = list(range(block, 2 * block))
    x_ids = list(range(2 * block, 2 * block + path_len - 1))
    rot = rotational_regular_tournament(block)
    g_arcs = []
    for ids in (y_ids, z_ids):
        g_arcs += [(ids[u], ids[v]) for u, v in rot.arcs()]
    g_arcs += [(u, v) for u, v in itertools.combinations(x_ids, 2)]
    g_arcs += [(z, x) for z in z_ids for x in x_ids]
    g_arcs += [(x, yv) for x in x_ids for yv in y_ids]
    g_arcs += [(z, yv) for z in z_ids for yv in y_ids]
    return Tournament.from_arcs(2 * block + path_len - 1, g_arcs)


def test_near_extremal_host_rows_equal_the_arc_list_build():
    cases = 0
    for ell in range(1, 9):
        for n in range(ell + 2, 61, 2):
            _, G = near_extremal_pair(n, ell)
            ref = _reference_near_extremal_host(n, ell)
            assert (G.n, G.out_rows, G.in_rows) == (ref.n, ref.out_rows, ref.in_rows), (n, ell)
            cases += 1
    assert cases == 220


def test_near_extremal_rejects_odd_or_nonpositive_remainder():
    with pytest.raises(ValueError):
        near_extremal_pair(9, 4)  # n - path_len odd
    with pytest.raises(ValueError):
        near_extremal_pair(4, 4)  # nothing left around the path


def test_near_extremal_pair_is_deterministic():
    a = near_extremal_pair(7, 3)
    b = near_extremal_pair(7, 3)
    assert a == b


# ---------------------------------------------------------------------------
# Enumeration


def test_labelled_tournament_counts():
    for n, count in [(1, 1), (2, 2), (3, 8), (4, 64)]:
        assert sum(1 for _ in enumerate_tournaments(n)) == count


def test_tournament_class_counts():
    for n, count in [(1, 1), (2, 1), (3, 2), (4, 4), (5, 12), (6, 56)]:
        assert sum(1 for _ in enumerate_tournaments(n, up_to_iso=True)) == count


def test_class_representatives_are_pairwise_non_isomorphic():
    reps = list(enumerate_tournaments(5, up_to_iso=True))
    keys = {canonical_form(G) for G in reps}
    assert len(keys) == len(reps) == 12


def test_oriented_tree_counts():
    for n, count in [(1, 1), (2, 1), (3, 3), (4, 8), (5, 27), (6, 91)]:
        assert sum(1 for _ in enumerate_oriented_trees(n)) == count


def test_oriented_trees_are_pairwise_distinct():
    trees = list(enumerate_oriented_trees(5))
    keys = {oriented_tree_key(T) for T in trees}
    assert len(keys) == len(trees) == 27


def test_enumerated_trees_are_valid_and_cover_both_star_orientations():
    trees = list(enumerate_oriented_trees(4))
    keys = {oriented_tree_key(T) for T in trees}
    assert oriented_tree_key(inward_star(4)) in keys
    assert oriented_tree_key(outward_star(4)) in keys
    assert oriented_tree_key(directed_path(4)) in keys
    for T in trees:
        assert isinstance(T, DirectedTree) and T.n == 4


def test_enumeration_is_deterministic():
    first = [canonical_form(G) for G in enumerate_tournaments(4, up_to_iso=True)]
    second = [canonical_form(G) for G in enumerate_tournaments(4, up_to_iso=True)]
    assert first == second


# ---------------------------------------------------------------------------
# PRNG streams


def test_streams_are_deterministic_per_seed_and_label():
    a = stream(7, "alpha")
    b = stream(7, "alpha")
    assert [a.next64() for _ in range(6)] == [b.next64() for _ in range(6)]


def test_streams_with_different_labels_diverge():
    a = stream(7, "alpha")
    b = stream(7, "beta")
    assert [a.next64() for _ in range(6)] != [b.next64() for _ in range(6)]


def test_streams_with_different_seeds_diverge():
    a = stream(7, "alpha")
    b = stream(8, "alpha")
    assert [a.next64() for _ in range(6)] != [b.next64() for _ in range(6)]


def test_next_below_respects_bound_and_covers_range():
    rng = stream(3, "bounds")
    draws = [rng.next_below(10) for _ in range(500)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))
