"""Deterministic generators and exhaustive enumeration.

Randomness contract (bit-exact, platform-independent):

- The generator is xoshiro256** (64-bit shift/rotate core).  Its 256-bit
  state is seeded from a 64-bit value by four successive outputs of the
  splitmix64 mixer.
- Every seeded generator call uses its own named stream: the splitmix64
  input is ``seed XOR fnv1a64(label)`` where ``label`` is the ASCII stream
  name given below per generator.
- ``random_tournament``: pairs are ordered (0,1), (0,2), .., (0,n-1),
  (1,2), .., (n-2,n-1); pair k consumes bit ``k mod 64`` (LSB first) of
  64-bit output ``k // 64``; a 1 bit orients the pair low -> high.
  Stream label: ``"random_tournament"``.
- ``random_oriented_tree``: first n-2 uniform draws below n (unbiased
  rejection sampling on whole 64-bit outputs) form a Prüfer sequence; the
  decoded edges, in decode order, are then oriented by the lowest bit of
  one further 64-bit output each (1 orients the edge as produced, from the
  removed leaf toward its neighbour).  Stream label:
  ``"random_oriented_tree"``.

Equal seeds therefore give byte-identical objects on every platform.

Cost.  The fixed and random generators build their output in whole-row
passes and, as it is valid by construction, skip the constructors'
checks on it (the private ``_trusted`` flag) once they have checked
their own size argument:

- ``random_tournament`` packs its 64-bit words with one ``array("Q")``
  (byte-swapped on big-endian hosts) and decodes them with
  ``Tournament.from_pair_bits``, whose one transposition is banded above
  512 vertices.  n = 1500: 25.6 -> 17.5 ms per call, of which about 12 ms
  are the xoshiro256** outputs themselves.
- ``rotational_regular_tournament`` rotates one base row: m = 399,
  6.9 -> 0.11 ms (the O(m^2) loop it replaces).
- ``directed_path`` and the random trees skip the tree validation and
  its BFS: ``directed_path(1500)`` 2.5 -> 1.4 ms,
  ``random_oriented_tree(200)`` 0.61 -> 0.49 ms.
- ``stream`` hashes each label once (a bounded cache).
- ``near_extremal_pair`` writes its host's rows whole instead of listing
  every arc for ``Tournament.from_arcs``: (200, 20) 20.5 -> 0.26 ms,
  (40, 6) 0.68 -> 0.06 ms (``BENCH_17.json``).

(Python 3.11, one core of a shared 2-vCPU x86 host, best of 5, before
and after the whole-row passes; ``BENCH_16.json`` unless named.)
"""

from __future__ import annotations

import itertools
import sys
from array import array
from functools import lru_cache
from typing import Iterator

from .graphs import DirectedTree, Tournament, canonical_form

_MASK64 = (1 << 64) - 1

# ---------------------------------------------------------------------------
# PRNG


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash (stream-name separation only, not cryptographic)."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding; outputs 64-bit integers."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int):
        sm = seed & _MASK64
        sm, self.s0 = _splitmix64(sm)
        sm, self.s1 = _splitmix64(sm)
        sm, self.s2 = _splitmix64(sm)
        sm, self.s3 = _splitmix64(sm)
        if not (self.s0 | self.s1 | self.s2 | self.s3):  # pragma: no cover
            self.s0 = 1  # the all-zero state is the one forbidden state

    def next64(self) -> int:
        s1 = self.s1
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 = self.s2 ^ self.s0
        s3 = self.s3 ^ s1
        self.s1 = s1 ^ s2
        self.s0 = self.s0 ^ s3
        self.s2 = s2 ^ t
        self.s3 = _rotl(s3, 45)
        return result

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) via unbiased rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next64()
            if z < limit:
                return z % n


@lru_cache(maxsize=256)
def _label_hash(label: str) -> int:
    return fnv1a64(label.encode("ascii"))


def stream(seed: int, label: str) -> Xoshiro256StarStar:
    """The named PRNG stream for ``(seed, label)``; see the module docstring."""
    return Xoshiro256StarStar(seed ^ _label_hash(label))


# ---------------------------------------------------------------------------
# Fixed constructions


def directed_path(n: int) -> DirectedTree:
    """The directed path 0 -> 1 -> .. -> n-1."""
    if n < 1:
        raise ValueError("n must be positive")
    return DirectedTree(n, [(i, i + 1) for i in range(n - 1)], _trusted=True)


def inward_star(n: int) -> DirectedTree:
    """All arcs into the centre (vertex 0)."""
    if n < 1:
        raise ValueError("n must be positive")
    return DirectedTree(n, [(i, 0) for i in range(1, n)], _trusted=True)


def outward_star(n: int) -> DirectedTree:
    """All arcs out of the centre (vertex 0)."""
    if n < 1:
        raise ValueError("n must be positive")
    return DirectedTree(n, [(0, i) for i in range(1, n)], _trusted=True)


def transitive_tournament(n: int) -> Tournament:
    """i -> j iff i < j."""
    if n < 1:
        raise ValueError("n must be positive")
    rows = [((1 << n) - 1) ^ ((1 << (i + 1)) - 1) for i in range(n)]
    return Tournament(n, rows, _trusted=True)


def rotational_regular_tournament(m: int) -> Tournament:
    """i -> j iff (j - i) mod m lies in {1, .., (m-1)/2}; m must be odd.

    Every vertex has out- and in-degree (m-1)/2.  Row i is the row of
    vertex 0, ``((1 << (m-1)/2) - 1) << 1``, rotated left by i within m
    bits: O(m) big-int operations in all.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"rotational tournament needs odd m >= 1, got {m}")
    everything = (1 << m) - 1
    base = ((1 << ((m - 1) // 2)) - 1) << 1
    rows = [((base << i) | (base >> (m - i))) & everything for i in range(m)]
    return Tournament(m, rows, _trusted=True)


def near_extremal_pair(n: int, path_len: int) -> tuple[DirectedTree, Tournament]:
    """A tree/tournament pair witnessing sharpness just below 2n-2.

    Tree T on ``n`` vertices: a directed path on ``path_len`` vertices
    (ids 0 .. path_len-1, arcs i -> i+1), y = (n - path_len)/2 out-leaves
    at the terminal path vertex (ids path_len .. path_len+y-1), and y
    in-leaves at the initial path vertex (ids path_len+y .. n-1).

    Tournament G on ``2n - path_len - 3`` vertices: rotational blocks
    Y (ids 0 .. 2y-2) and Z (ids 2y-1 .. 4y-3) on 2y-1 vertices each and a
    block X on path_len-1 vertices (ids 4y-2 ..), transitive in id order;
    all arcs Z -> X, X -> Y, and Z -> Y.

    G contains no copy of T; certification is by complete search.  Its
    rows are written whole: a Y row is a rotational row, a Z row adds all
    of X and Y, and an X row holds the later X vertices and all of Y.
    """
    if path_len < 1:
        raise ValueError("path_len must be >= 1")
    if n <= path_len or (n - path_len) % 2:
        raise ValueError("n - path_len must be a positive even number")
    y = (n - path_len) // 2
    arcs = [(i, i + 1) for i in range(path_len - 1)]
    arcs += [(path_len - 1, path_len + i) for i in range(y)]
    arcs += [(path_len + y + i, 0) for i in range(y)]
    T = DirectedTree(n, arcs, _trusted=True)

    block = 2 * y - 1
    size = 2 * block + path_len - 1
    y_all = (1 << block) - 1
    x_all = (1 << size) - (1 << (2 * block))
    rot = rotational_regular_tournament(block).out_rows
    rows = [*rot]
    rows += [(row << block) | x_all | y_all for row in rot]
    rows += [(x_all >> (x + 1) << (x + 1)) | y_all for x in range(2 * block, size)]
    return T, Tournament(size, rows, _trusted=True)


# ---------------------------------------------------------------------------
# Random generators


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniformly random labelled tournament; see the module docstring."""
    if n < 1:
        raise ValueError("n must be positive")
    m = n * (n - 1) // 2
    rng = stream(seed, "random_tournament")
    words = array("Q", [rng.next64() for _ in range((m + 63) // 64)])
    if sys.byteorder == "big":
        words.byteswap()
    return Tournament.from_pair_bits(n, int.from_bytes(words.tobytes(), "little"))


def _decode_pruefer(n: int, seq: list[int]) -> list[tuple[int, int]]:
    """Labelled tree edges from a Prüfer sequence, in decode order.

    Each edge is (removed leaf, its neighbour); the last edge joins the
    final leaf to vertex n-1.
    """
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    # `ptr` scans for the smallest leaf; `leaf` tracks the current cascade.
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
    if leaf < 0:
        while degree[ptr] != 1:
            ptr += 1
        leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def random_oriented_tree(n: int, seed: int) -> DirectedTree:
    """Uniform labelled tree (Prüfer) with uniform edge orientations."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return DirectedTree(1, [], _trusted=True)
    rng = stream(seed, "random_oriented_tree")
    seq = [rng.next_below(n) for _ in range(n - 2)]
    arcs = []
    for a, b in _decode_pruefer(n, seq):
        arcs.append((a, b) if rng.next64() & 1 else (b, a))
    return DirectedTree(n, arcs, _trusted=True)


# ---------------------------------------------------------------------------
# Oriented-tree canonical key


def _tree_encode(
    T: DirectedTree, root: int, directed: bool
) -> str:
    """AHU-style canonical encoding of the tree rooted at ``root``.

    Children encodings are sorted; with ``directed`` each child is tagged
    with the direction of its parent edge ('+' parent->child, '-' child->
    parent), so the encoding determines the oriented tree up to rooted
    isomorphism.
    """

    def enc(v: int, parent: int) -> str:
        parts = []
        for c in T.neighbours(v):
            if c == parent:
                continue
            tag = ""
            if directed:
                tag = "+" if T.has_arc(v, c) else "-"
            parts.append(tag + enc(c, v))
        parts.sort()
        return "(" + "".join(parts) + ")"

    return enc(root, -1)


def oriented_tree_key(T: DirectedTree) -> str:
    """A string equal for two oriented trees iff they are isomorphic."""
    return min(_tree_encode(T, c, directed=True) for c in T.centroids())


def _underlying_tree_key(T: DirectedTree) -> str:
    return min(_tree_encode(T, c, directed=False) for c in T.centroids())


# ---------------------------------------------------------------------------
# Exhaustive enumeration

ENUMERATE_LABELLED_MAX_N = 10
ENUMERATE_ISO_MAX_N = 8
ENUMERATE_TREES_MAX_N = 8

_iso_cache: dict[int, list[Tournament]] = {}
_tree_cache: dict[int, list[DirectedTree]] = {}


def tournament_from_canonical_key(key: bytes) -> Tournament:
    """Rebuild the canonical representative encoded by a canonical-form key."""
    n = key[0]
    value = int.from_bytes(key[1:], "big")
    total = n * (n - 1) // 2
    rows = [0] * n
    pos = total
    for k in range(1, n):
        for j in range(k):
            pos -= 1
            if (value >> pos) & 1:
                rows[k] |= 1 << j
            else:
                rows[j] |= 1 << k
    return Tournament(n, rows, _trusted=True)


def _iso_representatives(n: int) -> list[Tournament]:
    if n in _iso_cache:
        return _iso_cache[n]
    if n == 1:
        reps = [Tournament(1, [0], _trusted=True)]
    else:
        smaller = _iso_representatives(n - 1)
        keys = set()
        for G in smaller:
            base = G.out_rows
            for pattern in range(1 << (n - 1)):
                rows = list(base) + [pattern]
                for v in range(n - 1):
                    if not (pattern >> v) & 1:
                        rows[v] |= 1 << (n - 1)
                keys.add(canonical_form(Tournament(n, rows, _trusted=True)))
        reps = [tournament_from_canonical_key(k) for k in sorted(keys)]
    _iso_cache[n] = reps
    return reps


def enumerate_tournaments(n: int, *, up_to_iso: bool = False) -> Iterator[Tournament]:
    """Stream tournaments on ``n`` vertices.

    Labelled mode streams all 2^(n(n-1)/2) tournaments in pair-bits counter
    order (cap n <= 10).  Isomorphism mode streams one canonical
    representative per class, in canonical-key order (cap n <= 8); class
    counts for n = 1..8 are 1, 1, 2, 4, 12, 56, 456, 6880.
    """
    if up_to_iso:
        if n > ENUMERATE_ISO_MAX_N:
            raise ValueError(f"isomorphism-class enumeration capped at n <= {ENUMERATE_ISO_MAX_N}")
        yield from _iso_representatives(n)
        return
    if n > ENUMERATE_LABELLED_MAX_N:
        raise ValueError(f"labelled enumeration capped at n <= {ENUMERATE_LABELLED_MAX_N}")
    for pair_bits in range(1 << (n * (n - 1) // 2)):
        yield Tournament.from_pair_bits(n, pair_bits)


def enumerate_oriented_trees(n: int) -> Iterator[DirectedTree]:
    """Stream one representative per isomorphism class of oriented trees.

    Representatives are found by enumerating labelled trees through Prüfer
    sequences, deduplicating the underlying trees, orienting each
    underlying representative's edges in all 2^(n-1) ways, and
    deduplicating by oriented canonical key.  Deterministic key order;
    class counts for n = 1..8 are 1, 1, 3, 8, 27, 91, 350, 1376.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUMERATE_TREES_MAX_N:
        raise ValueError(f"oriented-tree enumeration capped at n <= {ENUMERATE_TREES_MAX_N}")
    if n in _tree_cache:
        yield from _tree_cache[n]
        return
    if n == 1:
        reps = [DirectedTree(1, [], _trusted=True)]
    else:
        underlying: dict[str, list[tuple[int, int]]] = {}
        for seq in itertools.product(range(n), repeat=max(0, n - 2)):
            edges = _decode_pruefer(n, list(seq))
            t = DirectedTree(n, edges, _trusted=True)
            underlying.setdefault(_underlying_tree_key(t), edges)
        oriented: dict[str, DirectedTree] = {}
        for edges in underlying.values():
            for pattern in range(1 << (n - 1)):
                arcs = [
                    (a, b) if (pattern >> i) & 1 else (b, a)
                    for i, (a, b) in enumerate(edges)
                ]
                t = DirectedTree(n, arcs, _trusted=True)
                oriented.setdefault(oriented_tree_key(t), t)
        reps = [oriented[k] for k in sorted(oriented)]
    _tree_cache[n] = reps
    yield from reps
