"""Core graph types: tournaments, oriented trees, and elementary queries.

Expected values come from hand computation on tiny fixed graphs or from
independent recounts (e.g. degree sums, permutation brute force) inside
the test, never from the functions under test.
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from treetour import (
    DirectedTree,
    GraphDefectError,
    PartialMapError,
    Tournament,
    canonical_form,
    degrees,
    directed_edge_count,
    forward_arc_count,
    greedy_embed,
    is_valid_embedding,
)
from treetour.generate import (
    directed_path,
    enumerate_oriented_trees,
    inward_star,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    transitive_tournament,
)
from treetour.graphs import (
    CANONICAL_MAX_N,
    Rooted,
    bit_list,
    bits,
    full_mask,
    mask_of,
    transpose_rows,
)

CYCLE3 = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def relabelled(G: Tournament, perm: list[int]) -> Tournament:
    """Independent relabelling helper: vertex v becomes perm[v]."""
    return Tournament.from_arcs(
        G.n, [(perm[u], perm[v]) for u, v in G.arcs()]
    )


# ---------------------------------------------------------------------------
# Construction and validation


def test_from_arcs_requires_exactly_one_arc_per_pair():
    with pytest.raises(ValueError):
        Tournament.from_arcs(3, [(0, 1), (1, 2)])  # pair {0,2} undecided
    with pytest.raises(ValueError):
        Tournament.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        Tournament.from_arcs(2, [(0, 0), (0, 1)])  # self-loop


# Sizes around the byte and power-of-two boundaries of the block transpose.
CORE_SIZES = list(range(1, 10)) + [63, 64, 65, 127, 128, 129, 500]
# Sizes around the 512-vertex cutoff above which it works in 256-row bands,
# and around the band and tile boundaries above it.
BAND_SIZES = [511, 512, 513, 700, 1030]


def naive_transpose(n, rows):
    return tuple(sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n))


@pytest.mark.parametrize("n", CORE_SIZES + BAND_SIZES)
def test_transpose_rows_matches_naive_transpose(n):
    rng = random.Random(n)
    rows = tuple(rng.getrandbits(n) for _ in range(n))
    assert transpose_rows(n, rows) == naive_transpose(n, rows)


@pytest.mark.parametrize("n", CORE_SIZES)
def test_from_pair_bits_matches_per_pair_decode(n):
    m = n * (n - 1) // 2
    pair_bits = random.Random(n).getrandbits(m)
    digits = bin(pair_bits)[2:].zfill(m)[::-1]  # digits[k] is bit k
    rows = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if digits[k] == "1":
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
            k += 1
    G = Tournament.from_pair_bits(n, pair_bits)
    assert G.out_rows == tuple(rows)
    assert G.in_rows == naive_transpose(n, rows)
    assert Tournament.from_pair_bits(n, pair_bits | (1 << m)) == G  # bits past m ignored


@pytest.mark.parametrize("n", [5, 128, 200])
def test_untrusted_rows_name_their_defect(n):
    good = list(random_tournament(n, seed=n).out_rows)
    assert Tournament(n, good).in_rows == naive_transpose(n, good)
    u = next(v for v in range(n) if good[v])
    w = next(bits(good[u]))
    a, b = min(u, w), max(u, w)
    cases = [
        (3, good[3] | 1 << 3, "vertex 3 has a self-arc"),
        (w, good[w] | 1 << u, f"both arcs {a}->{b} and {b}->{a} present"),
        (u, good[u] & ~(1 << w), f"pair {{{a}, {b}}} has no arc"),
        (4, good[4] | 1 << n, f"row 4 has bits outside 0..{n - 1}"),
        (4, -1, f"row 4 has bits outside 0..{n - 1}"),
    ]
    for v, row, message in cases:
        rows = good[:]
        rows[v] = row
        with pytest.raises(ValueError) as err:
            Tournament(n, rows)
        assert str(err.value) == message


def test_library_imports_and_runs_without_numpy():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import treetour\n"
        "_, summary = treetour.verify_sumner(3)\n"
        "assert summary.all_ok and summary.total == 3 * 64\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_arc_queries_are_antisymmetric():
    G = random_tournament(9, seed=4)
    for u in range(9):
        assert not G.has_arc(u, u)
        for v in range(u + 1, 9):
            assert G.has_arc(u, v) != G.has_arc(v, u)


def test_directed_tree_requires_connected_acyclic_shape():
    DirectedTree(3, [(0, 1), (2, 1)])  # fine: underlying path
    with pytest.raises(ValueError):
        DirectedTree(3, [(0, 1)])  # too few arcs
    with pytest.raises(ValueError):
        DirectedTree(3, [(0, 1), (0, 1)])  # repeated edge
    with pytest.raises(ValueError):
        DirectedTree(4, [(0, 1), (2, 3), (1, 0)])  # disconnected + cycle


def test_outbranching_recognition():
    assert directed_path(4).is_outbranching()
    assert directed_path(4).root_of_outbranching() == 0
    assert not inward_star(3).is_outbranching()
    assert inward_star(3).reverse().is_outbranching()


def _oracle_centroids(T: DirectedTree) -> list[int]:
    """Independent recount: delete each vertex and measure every component
    left by a breadth-first search over the arc list."""
    adj = {v: set() for v in range(T.n)}
    for u, v in T.arcs:
        adj[u].add(v)
        adj[v].add(u)
    found = []
    for x in range(T.n):
        seen = {x}
        largest = 0
        for start in adj[x]:
            queue = [start]
            seen.add(start)
            for y in queue:
                for z in adj[y] - seen:
                    seen.add(z)
                    queue.append(z)
            largest = max(largest, len(queue))
        if 2 * largest <= T.n:
            found.append(x)
    return found


def test_centroids_match_the_vertex_deletion_oracle():
    rng = random.Random(19)
    trees = [DirectedTree(2, [(1, 0)]), directed_path(2), inward_star(9), directed_path(10)]
    for n in range(1, 9):
        for T in enumerate_oriented_trees(n):
            sigma = list(range(n))
            rng.shuffle(sigma)
            trees.append(DirectedTree(n, [(sigma[u], sigma[v]) for u, v in T.arcs]))
    trees += [random_oriented_tree(rng.randint(1, 400), seed=1900 + s) for s in range(100)]
    sizes = Counter()
    for T in trees:
        cents = T.centroids()
        assert list(cents) == _oracle_centroids(T), T
        sizes[len(cents)] += 1
    assert set(sizes) == {1, 2} and sum(sizes.values()) == 4 + 1857 + 100


def test_centroids_check_the_defining_inequality(monkeypatch):
    T = directed_path(5)
    rooted = DirectedTree.rooted

    def shrunk(self, root):
        order, parent, size = rooted(self, root)
        return Rooted(order, parent, [1] * self.n)

    monkeypatch.setattr(DirectedTree, "rooted", shrunk)
    with pytest.raises(GraphDefectError, match="centroid 0 leaves a component of 4 > 5/2"):
        T.centroids()


# ---------------------------------------------------------------------------
# Degrees


def test_degrees_on_three_cycle():
    assert degrees(CYCLE3) == [(1, 1), (1, 1), (1, 1)]


def test_degrees_on_transitive_source():
    assert degrees(transitive_tournament(4))[0] == (3, 0)


def test_degrees_on_rotational_are_regular():
    assert degrees(rotational_regular_tournament(7)) == [(3, 3)] * 7


def test_degree_sums_match_pair_count():
    for seed in range(10):
        G = random_tournament(11, seed=seed)
        ds = degrees(G)
        assert all(o + i == 10 for o, i in ds)
        assert sum(o for o, _ in ds) == 11 * 10 // 2


# ---------------------------------------------------------------------------
# Induced subtournaments and reversal


def test_induced_on_transitive_is_transitive():
    G = transitive_tournament(5)
    H, ids = G.induced(mask_of([1, 3, 4]))
    assert ids == [1, 3, 4]
    assert H.n == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert H.has_arc(i, j)  # order-preserving relabelling


def test_induced_preserves_arc_directions():
    H, ids = CYCLE3.induced(mask_of([0, 2]))
    assert ids == [0, 2]
    assert H.has_arc(1, 0)  # original arc 2->0


def _reference_induced(G, subset):
    """The per-bit induced subtournament that the string compress replaced,
    kept verbatim as the reference."""
    keep = bit_list(subset)
    index = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for w in bits(G.out_rows[v] & subset):
            row |= 1 << index[w]
        rows.append(row)
    return Tournament(len(keep), rows, _trusted=True), keep


def test_induced_matches_the_per_bit_reference():
    rng = random.Random(14)
    cases = 0
    for n in range(1, 81):
        for seed in range(2):
            G = random_tournament(n, seed=1000 * n + seed)
            subsets = [0, full_mask(n), 1 << rng.randrange(n)]
            subsets += [rng.getrandbits(n) for _ in range(3)]
            for subset in subsets:
                H, ids = G.induced(subset)
                ref, ref_ids = _reference_induced(G, subset)
                assert ids == ref_ids, (n, subset)
                assert H.n == ref.n == subset.bit_count()
                assert H.out_rows == ref.out_rows, (n, subset)
                assert H.in_rows == ref.in_rows, (n, subset)
                cases += 1
    assert cases == 80 * 2 * 6


def test_reverse_is_an_involution_and_flips_arcs():
    R = CYCLE3.reverse()
    assert R.has_arc(1, 0) and R.has_arc(2, 1) and R.has_arc(0, 2)
    for seed in range(5):
        G = random_tournament(8, seed=seed)
        assert G.reverse().reverse() == G
    T = random_oriented_tree(9, seed=1)
    assert T.reverse().reverse() == T
    assert sorted(T.reverse().arcs) == sorted((v, u) for u, v in T.arcs)


# ---------------------------------------------------------------------------
# Embedding validation


def test_valid_embedding_accepts_direction_preserving_injection():
    P2 = DirectedTree(2, [(0, 1)])
    assert is_valid_embedding(P2, CYCLE3, {0: 0, 1: 1})
    assert is_valid_embedding(P2, CYCLE3, {0: 2, 1: 0})


def test_valid_embedding_rejects_flipped_arc():
    P2 = DirectedTree(2, [(0, 1)])
    assert not is_valid_embedding(P2, CYCLE3, {0: 1, 1: 0})


def test_valid_embedding_rejects_non_injective_map():
    P2 = DirectedTree(2, [(0, 1)])
    assert not is_valid_embedding(P2, CYCLE3, {0: 0, 1: 0})


def test_valid_embedding_requires_total_map_on_tree_vertices():
    P2 = DirectedTree(2, [(0, 1)])
    with pytest.raises(PartialMapError):
        is_valid_embedding(P2, CYCLE3, {0: 0})
    with pytest.raises(PartialMapError):
        is_valid_embedding(P2, CYCLE3, {0: 0, 7: 1})
    with pytest.raises(ValueError):
        is_valid_embedding(P2, CYCLE3, {0: 0, 1: 5})


def test_valid_embedding_input_errors_come_before_verdicts():
    P2 = DirectedTree(2, [(0, 1)])
    assert P2.vertex_set is None
    assert is_valid_embedding(P2, CYCLE3, {0: 0, 1: 1})
    # The key set is kept on the tree, which compares as before.
    assert P2.vertex_set == {0, 1} and P2 == DirectedTree(2, [(0, 1)])
    # A key beyond the tree is as much an input error as a missing one.
    with pytest.raises(PartialMapError):
        is_valid_embedding(P2, CYCLE3, {0: 0, 1: 1, 2: 2})
    # A negative image would index the host rows from the end.
    with pytest.raises(ValueError, match="out of range"):
        is_valid_embedding(P2, CYCLE3, {0: -1, 1: 0})
    # The range check precedes the injectivity check: a repeated image that
    # is out of range is an error, not a False verdict.
    with pytest.raises(ValueError, match="out of range"):
        is_valid_embedding(P2, CYCLE3, {0: 5, 1: 5})


def test_valid_embedding_spanning_path_in_transitive():
    P = directed_path(4)
    G = transitive_tournament(4)
    assert is_valid_embedding(P, G, {i: i for i in range(4)})
    assert not is_valid_embedding(P, G, {0: 1, 1: 0, 2: 2, 3: 3})


def _reference_is_valid_embedding(T, G, mapping):
    """Verbatim copy of ``is_valid_embedding`` before it read host rows
    directly: one ``G.has_arc`` call per tree arc."""
    if set(mapping.keys()) != set(range(T.n)):
        raise PartialMapError(
            f"map must be total on the {T.n} tree vertices, got keys {sorted(mapping.keys())}"
        )
    images = list(mapping.values())
    for g in images:
        if not (0 <= g < G.n):
            raise ValueError(f"image {g} out of range for host on {G.n} vertices")
    if len(set(images)) != len(images):
        return False
    return all(G.has_arc(mapping[u], mapping[v]) for u, v in T.arcs)


def _embedding_verdict(check, T, G, mapping):
    """The bool a check returns, or the type and message of what it raises."""
    try:
        return check(T, G, mapping)
    except ValueError as exc:
        return type(exc), str(exc)


def _map_variants(rng, T, G, base):
    """Maps around ``base``: itself, shuffled key order, a random injective
    map, a collision, a swapped arc, out-of-range images, missing and
    extra keys, and mixes whose checks must run in the stated order."""
    n = T.n
    maps = [base, dict(rng.sample(list(base.items()), n))]
    maps.append(dict(zip(range(n), rng.sample(range(G.n), n))))
    outside = rng.choice([-1 - rng.randrange(3), G.n + rng.randrange(3)])
    bad = dict(base)
    bad[rng.randrange(n)] = outside
    maps.append(bad)
    missing = dict(base)
    del missing[rng.randrange(n)]
    maps.append(missing)
    maps.append({**base, rng.choice([n, n + 5, -1]): rng.randrange(G.n)})
    maps.append({**bad, n: 0})  # an extra key outranks the bad image
    if n >= 2:
        a, b = rng.sample(range(n), 2)
        maps.append({**base, a: base[b]})  # not injective
        maps.append({**base, a: outside, b: outside})  # range before injectivity
        u, v = T.arcs[rng.randrange(n - 1)]
        maps.append({**base, u: base[v], v: base[u]})  # the arc u -> v reversed
    return maps


def test_valid_embedding_matches_the_has_arc_reference():
    rng = random.Random(18)
    outcomes = Counter()
    for n in range(1, 41):
        for seed in range(2):
            T = random_oriented_tree(n, seed=100 * n + seed)
            m = rng.randint(n, max(n, 2 * n - 2))
            hosts = (
                random_tournament(m, seed=100 * n + seed),
                transitive_tournament(m),
                rotational_regular_tournament(m | 1),
            )
            for G in hosts:
                found = greedy_embed(T, G).embedding
                base = found or dict(zip(range(n), rng.sample(range(G.n), n)))
                for mapping in _map_variants(rng, T, G, base):
                    expected = _embedding_verdict(_reference_is_valid_embedding, T, G, mapping)
                    assert _embedding_verdict(is_valid_embedding, T, G, mapping) == expected, (
                        n, G.n, mapping
                    )
                    outcomes[expected if isinstance(expected, bool) else expected[0]] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 300
    assert outcomes[PartialMapError] >= 300 and outcomes[ValueError] >= 300


# ---------------------------------------------------------------------------
# Directed edge counts


def test_edge_count_on_transitive_halves():
    G = transitive_tournament(4)
    U, V = mask_of([0, 1]), mask_of([2, 3])
    assert directed_edge_count(G, U, V) == 4


def test_edge_count_on_cycle():
    U, V = mask_of([0]), mask_of([1, 2])
    assert directed_edge_count(CYCLE3, U, V) == 1


def test_edge_count_complement_identity():
    for seed in range(8):
        G = random_tournament(10, seed=seed)
        U = mask_of([0, 2, 4, 6])
        V = mask_of([1, 3, 5, 7, 9])
        assert (
            directed_edge_count(G, U, V) + directed_edge_count(G, V, U)
            == U.bit_count() * V.bit_count()
        )


def test_edge_count_matches_naive_recount_with_overlap():
    G = random_tournament(9, seed=3)
    U = mask_of([0, 1, 2, 3, 4])
    V = mask_of([3, 4, 5, 6])
    naive = sum(
        1
        for u in bits(U)
        for v in bits(V)
        if u != v and G.has_arc(u, v)
    )
    assert directed_edge_count(G, U, V) == naive


# ---------------------------------------------------------------------------
# Canonical forms


def test_canonical_form_identifies_cycle_with_its_reverse():
    assert canonical_form(CYCLE3) == canonical_form(CYCLE3.reverse())


def test_canonical_form_separates_cycle_from_transitive():
    assert canonical_form(CYCLE3) != canonical_form(transitive_tournament(3))


def test_canonical_form_invariant_under_relabelling():
    G = random_tournament(7, seed=12)
    base = canonical_form(G)
    for perm in ([6, 5, 4, 3, 2, 1, 0], [1, 2, 3, 4, 5, 6, 0], [3, 0, 6, 2, 5, 1, 4]):
        assert canonical_form(relabelled(G, perm)) == base


def test_exactly_four_tournament_classes_on_four_vertices():
    keys = set()
    for bits_ in range(64):
        arcs = []
        k = 0
        for i in range(4):
            for j in range(i + 1, 4):
                arcs.append((i, j) if (bits_ >> k) & 1 else (j, i))
                k += 1
        keys.add(canonical_form(Tournament.from_arcs(4, arcs)))
    assert len(keys) == 4


def test_canonical_form_enforces_size_cap():
    with pytest.raises(ValueError):
        canonical_form(random_tournament(CANONICAL_MAX_N + 1, seed=0))


# ---------------------------------------------------------------------------
# Forward arc counts


def test_forward_arc_count_on_transitive_identity_order():
    G = transitive_tournament(5)
    assert forward_arc_count(G, [0, 1, 2, 3, 4]) == 10
    assert forward_arc_count(G, [4, 3, 2, 1, 0]) == 0


def test_forward_arc_count_matches_naive_recount():
    G = random_tournament(7, seed=9)
    best_naive = 0
    for order in itertools.permutations(range(7)):
        naive = sum(
            1
            for i in range(7)
            for j in range(i + 1, 7)
            if G.has_arc(order[i], order[j])
        )
        assert forward_arc_count(G, list(order)) == naive
        best_naive = max(best_naive, naive)
    assert best_naive >= 7 * 6 // 4  # every tournament has a median order


def test_forward_arc_count_rejects_non_permutations():
    with pytest.raises(ValueError):
        forward_arc_count(CYCLE3, [0, 1])
    with pytest.raises(ValueError):
        forward_arc_count(CYCLE3, [0, 1, 1])


# ---------------------------------------------------------------------------
# Bit helpers


def test_mask_helpers_round_trip():
    assert full_mask(5) == 0b11111
    assert mask_of([0, 3]) == 0b1001
    assert list(bits(0b10110)) == [1, 2, 4]
