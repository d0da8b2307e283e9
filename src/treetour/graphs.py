"""Core types: tournaments, oriented trees, vertex sets, embeddings.

Vertices are the dense 0-based integers ``0 .. n-1``.  Vertex sets are plain
Python ints used as bitmasks (bit ``v`` set iff vertex ``v`` is in the set);
adjacency is stored one bit per ordered pair, as one int per vertex.  Both
graph types are immutable after construction and hashable, so they are safe
to share across threads and to send to worker processes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple

# ---------------------------------------------------------------------------
# Errors


class ParseError(ValueError):
    """A text-format violation, with 1-based line/column coordinates."""

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


class PartialMapError(ValueError):
    """An embedding check was handed a map that is not total on the tree."""


class GraphDefectError(RuntimeError):
    """An internal guarantee was violated; indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# Vertex-set (bitmask) helpers


def full_mask(n: int) -> int:
    """The set {0, .., n-1} as a bitmask."""
    return (1 << n) - 1


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the vertices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def as_fraction(x: int | float | str | Fraction) -> Fraction:
    """Exact Fraction from a threshold parameter.

    Ints, strings ("1/3", "0.25") and Fractions convert exactly; a float
    converts to its exact binary value.  Every threshold comparison in
    this package goes through Fractions, never float arithmetic.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact fraction")


def bit_list(mask: int) -> list[int]:
    """The vertices of a bitmask as an ascending list."""
    return list(bits(mask))


# ---------------------------------------------------------------------------
# Bit-matrix transpose (validates untrusted rows and tournament text;
# builds from_pair_bits)


TRANSPOSE_SQUARE_MAX_N = 512
"""Largest n that :func:`transpose_rows` swaps as one square tile."""
_BAND_ROWS = 256  # tile side, and rows per band, above that


@lru_cache(maxsize=16)
def _swap_masks(size: int, tiles: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per level j = size/2, .., 1 of a band transpose.

    The band is ``size`` rows of ``tiles`` size-by-size tiles side by side.
    The mask holds the cells (r, c) with bit j clear in r and set in c;
    each swaps with the cell ``shift`` = j(width - 1) positions up, for a
    band ``width`` = size * tiles bits wide.  A level is the same for
    every tile, so one delta swap transposes all tiles of the band.
    Building the masks costs about as much as one band's swaps, so they
    are cached: a 512 square holds 9 masks of 32 KiB, and a band of 7
    tiles 8 masks of 56 KiB.
    """
    width = size * tiles
    masks = []
    j = size // 2
    while j:
        if j >= 8:
            row = (bytes(j // 8) + b"\xff" * (j // 8)) * (size // (2 * j))
        else:
            row = bytes([{4: 0xF0, 2: 0xCC, 1: 0xAA}[j]]) * (size // 8)
        row *= tiles
        block = row * j + bytes(width // 8 * j)  # j rows with the pattern, j without
        masks.append((j * (width - 1), int.from_bytes(block * (size // (2 * j)), "little")))
        j //= 2
    return tuple(masks)


def _delta_swaps(m: int, masks: tuple[tuple[int, int], ...]) -> int:
    for shift, mask in masks:
        t = (m ^ (m >> shift)) & mask
        m ^= t ^ (t << shift)
    return m


def transpose_rows(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose an n-by-n bit matrix given as one int per row.

    Block transpose (Warren, *Hacker's Delight* §7-3) on square tiles of
    a power-of-two side ``size``: for j = size/2, .., 1 one masked delta
    swap exchanges bit j of every row index with bit j of its column
    index.  Up to ``TRANSPOSE_SQUARE_MAX_N`` = 512 vertices the matrix is
    one tile, padded to the next power of two (at least 8).  Above, it is
    cut into bands of 256 rows, each packed into one int and swapped as a
    row of 256-by-256 tiles; tile t of band b, transposed, is bits
    256b .. 256b + 255 of output rows 256t .. 256t + 255.  So a large
    matrix is padded to the next multiple of 256, not of a power of two.
    Per call (Python 3.11, one core of a shared 2-vCPU x86 host, best of
    5; ``BENCH_16.json``), one padded square with cached masks takes
    0.37 / 0.46 / 0.99 / 2.1 / 6.0 ms at n = 399 / 512 / 513 / 1024 /
    1500 and the bands 0.50 / 0.55 / 0.93 / 1.9 / 3.7 ms, which sets the
    crossover at 512; the square that rebuilt its masks above 256
    vertices took 0.64 / 0.71 / 2.4 / 3.3 / 11.2 ms.  Every row must lie
    in 0 .. 2**n - 1.
    """
    if n <= 8:  # one byte per row, so the matrix is one 64-bit word
        m = _delta_swaps(int.from_bytes(bytes(rows), "little"), _swap_masks(8, 1))
        return tuple(m.to_bytes(8, "little")[:n])
    size = _BAND_ROWS if n > TRANSPOSE_SQUARE_MAX_N else 1 << (n - 1).bit_length()
    tiles = -(-n // size)
    width = size // 8  # bytes per tile row
    masks = _swap_masks(size, tiles)
    bands = []
    for top in range(0, n, size):
        m = int.from_bytes(
            b"".join(r.to_bytes(width * tiles, "little") for r in rows[top : top + size]),
            "little",
        )
        bands.append(_delta_swaps(m, masks).to_bytes(width * tiles * size, "little"))
    if tiles == 1:
        data = bands[0]
        return tuple(
            int.from_bytes(data[i : i + width], "little") for i in range(0, n * width, width)
        )
    # Row c of tile t is chunk c * tiles + t of its band.
    chunked = [[data[i : i + width] for i in range(0, len(data), width)] for data in bands]
    return tuple(
        int.from_bytes(b"".join(parts), "little")
        for t in range(tiles)
        for parts in zip(*(c[t : tiles * min(size, n - t * size) : tiles] for c in chunked))
    )


# ---------------------------------------------------------------------------
# Tournament


class Tournament:
    """An orientation of the complete graph on ``n`` vertices.

    ``out_rows[u]`` has bit ``v`` set iff the arc u -> v is present.  For
    every unordered pair exactly one direction is present, and the diagonal
    is empty; construction validates this.
    """

    __slots__ = ("n", "out_rows", "in_rows")

    def __init__(self, n: int, out_rows: Iterable[int], *, _trusted: bool = False):
        rows = tuple(out_rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        self.n = n
        self.out_rows = rows
        if _trusted:
            # In a tournament every other vertex is exactly one of in/out.
            everything = full_mask(n)
            self.in_rows = tuple(everything ^ (1 << v) ^ row for v, row in enumerate(rows))
        else:
            self.in_rows = self._validate()

    def _validate(self) -> tuple[int, ...]:
        """Check the tournament axioms; returns the in-rows by transposition."""
        n = self.n
        if n < 1:
            raise ValueError("a tournament needs at least one vertex")
        for v, out in enumerate(self.out_rows):
            if out < 0 or out >> n:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
        in_rows = transpose_rows(n, self.out_rows)
        everything = full_mask(n)
        for v, (out, inn) in enumerate(zip(self.out_rows, in_rows)):
            if (out >> v) & 1:
                raise ValueError(f"vertex {v} has a self-arc")
            if out & inn:
                w = next(bits(out & inn))
                raise ValueError(f"both arcs {v}->{w} and {w}->{v} present")
            if (out | inn) != everything ^ (1 << v):
                w = next(bits(everything ^ (1 << v) ^ (out | inn)))
                raise ValueError(f"pair {{{v}, {w}}} has no arc")
        return in_rows

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Tournament":
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
        return cls(n, rows)

    @classmethod
    def from_pair_bits(cls, n: int, pair_bits: int) -> "Tournament":
        """Decode one orientation bit per unordered pair.

        Pairs are ordered (0,1), (0,2), .., (0,n-1), (1,2), .., (n-2,n-1);
        pair k reads bit k of ``pair_bits``; a 1 orients u -> v (u < v), a 0
        orients v -> u.  Bits from n(n-1)/2 up are ignored.
        """
        m = n * (n - 1) // 2
        data = (pair_bits & ((1 << m) - 1)).to_bytes(m // 8 + 1, "little")
        everything = full_mask(n)
        upper = []  # row u: the arcs u -> v with v > u, a slice of pair_bits
        beaten = []  # row u: the v > u with v -> u
        k = 0
        for u in range(n):
            span = n - 1 - u
            chunk = int.from_bytes(data[k >> 3 : ((k + span) >> 3) + 1], "little")
            row = ((chunk >> (k & 7)) & ((1 << span) - 1)) << (u + 1)
            upper.append(row)
            beaten.append(everything ^ ((2 << u) - 1) ^ row)
            k += span
        lower = transpose_rows(n, tuple(beaten))
        return cls(n, [a | b for a, b in zip(upper, lower)], _trusted=True)

    # -- basic queries ------------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.out_rows[u] >> v) & 1)

    def out_deg(self, v: int) -> int:
        return self.out_rows[v].bit_count()

    def in_deg(self, v: int) -> int:
        return self.in_rows[v].bit_count()

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.out_rows):
            yield from ((u, v) for v in bits(row))

    # -- derived tournaments -------------------------------------------------

    def reverse(self) -> "Tournament":
        """The tournament with every arc reversed."""
        return Tournament(self.n, self.in_rows, _trusted=True)

    def induced(self, subset: int) -> tuple["Tournament", list[int]]:
        """Induced subtournament on a vertex bitmask.

        Returns the subtournament (with dense 0-based ids) and the list
        mapping new ids to the original ids, in ascending original order.
        Each kept row is compressed in one C-level pass: its n-digit
        binary string is filtered by the subset's own digits
        (``itertools.compress``) and read back with ``int(.., 2)``, so a
        call costs k string passes of length n for k kept vertices.  On
        a 60-vertex host it measured 0.29 ms for 59 kept vertices and
        0.05 ms for 15 (Python 3.11, one core of a 2-vCPU host).
        """
        n = self.n
        keep = bit_list(subset)
        pick = [d == "1" for d in format(subset, f"0{n}b")]
        rows = [
            int("".join(compress(format(self.out_rows[v], f"0{n}b"), pick)) or "0", 2)
            for v in keep
        ]
        return Tournament(len(keep), rows, _trusted=True), keep

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tournament)
            and self.n == other.n
            and self.out_rows == other.out_rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out_rows))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n})"


# ---------------------------------------------------------------------------
# Oriented tree


class Rooted(NamedTuple):
    """A tree seen from a root: BFS order (neighbours ascending), the
    underlying parent of each vertex (-1 at the root, and at any vertex the
    root does not reach), and subtree sizes."""

    order: list[int]
    parent: list[int]
    size: list[int]


class DirectedTree:
    """An orientation of a tree on ``n`` vertices.

    ``arcs`` lists the directed edges (u, v) meaning u -> v; ``out_nbrs``,
    ``in_nbrs`` and ``nbrs`` hold each vertex's out-, in- and underlying
    neighbours, ascending.  Construction validates that the underlying
    undirected graph is a tree; only the generators of
    :mod:`treetour.generate` and :meth:`reverse`, whose output is a tree
    by construction, skip that check (and its BFS) through the private
    ``_trusted`` flag, as they do for :class:`Tournament`.  ``plan`` holds the tree's
    search plan once :func:`treetour.search.greedy_embed` or
    ``exhaustive_embed`` has built it, and ``path_order`` its
    source-to-sink order (``()`` when it is not a directed path) once
    :func:`treetour.strategies.directed_path_order` has computed it.
    Neither takes part in equality or hashing.
    """

    __slots__ = ("n", "arcs", "out_nbrs", "in_nbrs", "nbrs", "plan", "path_order")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]], *, _trusted: bool = False):
        if _trusted:
            # The library's generators build trees by construction.
            arc_tuple = tuple(arcs)
        else:
            arc_tuple = tuple((int(u), int(v)) for u, v in arcs)
            if n < 1:
                raise ValueError("a tree needs at least one vertex")
            if len(arc_tuple) != n - 1:
                raise ValueError(f"a tree on {n} vertices needs {n - 1} arcs, got {len(arc_tuple)}")
            seen: set[frozenset[int]] = set()
            for u, v in arc_tuple:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"self-arc at vertex {u}")
                pair = frozenset((u, v))
                if pair in seen:
                    raise ValueError(f"duplicate edge between {u} and {v}")
                seen.add(pair)
        out_nbrs: list[list[int]] = [[] for _ in range(n)]
        in_nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in arc_tuple:
            out_nbrs[u].append(v)
            in_nbrs[v].append(u)
        self.n = n
        self.arcs = arc_tuple
        self.out_nbrs = tuple(tuple(sorted(x)) for x in out_nbrs)
        self.in_nbrs = tuple(tuple(sorted(x)) for x in in_nbrs)
        self.nbrs = tuple(tuple(sorted(o + i)) for o, i in zip(out_nbrs, in_nbrs))
        self.plan = None
        self.path_order = None
        if not _trusted:
            # Connectivity: n-1 distinct edges + connected <=> tree.
            reached = self.rooted(0).order
            if len(reached) != n:
                missing = min(set(range(n)) - set(reached))
                raise ValueError(f"not connected: vertex {missing} unreachable")

    # -- queries ---------------------------------------------------------

    def neighbours(self, v: int) -> tuple[int, ...]:
        """Underlying neighbours of ``v``, ascending."""
        return self.nbrs[v]

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out_nbrs[u]

    def is_outbranching(self) -> bool:
        """True iff some root reaches every vertex by directed paths.

        For a tree this is equivalent to: exactly one vertex has in-degree
        0 and every other vertex has in-degree 1.
        """
        roots = [v for v in range(self.n) if not self.in_nbrs[v]]
        return len(roots) == 1 and all(len(self.in_nbrs[v]) <= 1 for v in range(self.n))

    def root_of_outbranching(self) -> int:
        if not self.is_outbranching():
            raise ValueError("not an outbranching")
        return next(v for v in range(self.n) if not self.in_nbrs[v])

    def reverse(self) -> "DirectedTree":
        """Every arc turned round: a tree again, so not checked again."""
        return DirectedTree(self.n, tuple((v, u) for u, v in self.arcs), _trusted=True)

    def rooted(self, root: int) -> Rooted:
        """BFS order, parents and subtree sizes of the underlying tree from ``root``."""
        nbrs = self.nbrs
        parent = [-1] * self.n
        parent[root] = root
        order = [root]
        for x in order:  # grows while it is walked: a queue without pops
            for y in nbrs[x]:
                if parent[y] == -1:
                    parent[y] = x
                    order.append(y)
        parent[root] = -1
        size = [1] * self.n
        for v in reversed(order):
            if parent[v] >= 0:
                size[parent[v]] += size[v]
        return Rooted(order, parent, size)

    def centroids(self) -> tuple[int, ...]:
        """The 1 or 2 centroids of the underlying tree, ascending.

        A centroid is a vertex v whose largest component of T - v has at
        most n/2 vertices (the tree's 2-core).  One BFS from vertex 0 gives
        the subtree sizes; the walk from 0 steps into the child holding more
        than n/2 vertices while there is one and stops at a centroid, and a
        second centroid is a child of it holding exactly n/2.  Each returned
        vertex is checked against the defining inequality, in O(degree).
        """
        n = self.n
        nbrs = self.nbrs
        _, parent, size = self.rooted(0)
        v = 0
        while True:
            for c in nbrs[v]:
                if c != parent[v] and 2 * size[c] > n:
                    v = c
                    break
            else:
                break
        found = [v] + [c for c in nbrs[v] if c != parent[v] and 2 * size[c] == n]
        for c in found:
            largest = max([n - size[c]] + [size[w] for w in nbrs[c] if w != parent[c]])
            if 2 * largest > n:
                raise GraphDefectError(
                    f"centroid {c} leaves a component of {largest} > {n}/2 vertices"
                )
        return tuple(sorted(found))

    def bfs_order(self, root: int) -> list[int]:
        """Vertices in BFS order of the underlying tree, neighbours ascending."""
        return self.rooted(root).order

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectedTree)
            and self.n == other.n
            and sorted(self.arcs) == sorted(other.arcs)
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.arcs))))

    def __repr__(self) -> str:
        return f"DirectedTree(n={self.n}, arcs={self.arcs!r})"


# ---------------------------------------------------------------------------
# Free functions on tournaments


def degrees(G: Tournament) -> list[tuple[int, int]]:
    """(out-degree, in-degree) per vertex, indexed by vertex id."""
    return [(G.out_deg(v), G.in_deg(v)) for v in range(G.n)]


def directed_edge_count(G: Tournament, source: int, target: int) -> int:
    """Number of arcs from the bitmask ``source`` into the bitmask ``target``."""
    return sum((G.out_rows[u] & target).bit_count() for u in bits(source))


def is_valid_embedding(T: DirectedTree, G: Tournament, mapping: Mapping[int, int]) -> bool:
    """True iff ``mapping`` is an injective arc-direction-preserving total map.

    The map must assign an image to every tree vertex; a partial map is an
    input error (:class:`PartialMapError`), not a False verdict.  Images out
    of range are also input errors, checked before injectivity.
    Non-injectivity or a wrongly directed arc gives False.  Each tree arc
    u -> v is one row lookup: bit ``mapping[v]`` of ``G.out_rows[mapping[u]]``.
    """
    if mapping.keys() != set(range(T.n)):
        raise PartialMapError(
            f"map must be total on the {T.n} tree vertices, got keys {sorted(mapping.keys())}"
        )
    images = mapping.values()
    n = G.n
    for g in images:
        if not (0 <= g < n):
            raise ValueError(f"image {g} out of range for host on {n} vertices")
    if len(set(images)) != len(images):
        return False
    rows = G.out_rows
    for u, v in T.arcs:
        if not rows[mapping[u]] >> mapping[v] & 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical form

CANONICAL_MAX_N = 10


def canonical_form(G: Tournament) -> bytes:
    """A bytes key equal for two tournaments iff they are isomorphic.

    The key encodes the lexicographically minimal lower-triangle bit matrix
    over all vertex orderings, found by branch-and-bound with prefix
    pruning (a greedy descent seeds the incumbent).  Capped at
    n <= ``CANONICAL_MAX_N``.
    """
    n = G.n
    if n > CANONICAL_MAX_N:
        raise ValueError(f"canonical_form is capped at n <= {CANONICAL_MAX_N}, got {n}")
    if n == 1:
        return bytes([1])
    rows = G.out_rows
    total_bits = n * (n - 1) // 2

    def chunk(v: int, placed: list[int]) -> int:
        c = 0
        row = rows[v]
        for u in placed:
            c = (c << 1) | ((row >> u) & 1)
        return c

    # Greedy incumbent: repeatedly take the (first) candidate with minimal
    # next chunk.
    placed: list[int] = []
    value = 0
    remaining = set(range(n))
    while remaining:
        best_v = min(remaining, key=lambda v: (chunk(v, placed), v))
        value = (value << len(placed)) | chunk(best_v, placed)
        placed.append(best_v)
        remaining.discard(best_v)
    best = value

    # Branch and bound.
    stack: list[tuple[list[int], int, int, int]] = [([], 0, 0, 0)]
    while stack:
        placed, placed_mask, prefix, used = stack.pop()
        k = len(placed)
        if k == n:
            if prefix < best:
                best = prefix
            continue
        # Push candidates in descending id so ascending ids pop first.
        nxt = []
        for v in range(n):
            if (placed_mask >> v) & 1:
                continue
            c = chunk(v, placed)
            np_prefix = (prefix << k) | c
            nb = used + k
            if np_prefix > (best >> (total_bits - nb)):
                continue
            nxt.append((placed + [v], placed_mask | (1 << v), np_prefix, nb))
        stack.extend(reversed(nxt))
    return bytes([n]) + best.to_bytes((total_bits + 7) // 8, "big")
