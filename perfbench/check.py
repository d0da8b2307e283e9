"""Independent re-checks of the outputs the benchmark collects.

Nothing here calls the library's own validators (``is_valid_embedding``,
the split postcondition check): every property is recounted from a
host's ``out_rows`` bit by bit, so a bug shared by a producer and its
validator still shows.  Each function returns ``None`` when the output
passes, otherwise a one-line reason.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


def _arc(out_rows: Sequence[int], u: int, v: int) -> bool:
    return bool((out_rows[u] >> v) & 1)


def embedding_error(
    tree_n: int,
    tree_arcs: Sequence[tuple[int, int]],
    out_rows: Sequence[int],
    mapping: Mapping[int, int] | None,
) -> str | None:
    """Why ``mapping`` is not an embedding of the tree into the host, or None.

    An embedding is total on ``0 .. tree_n-1``, injective, lands inside
    the host, and sends every tree arc ``u -> v`` to a host arc.
    """
    if mapping is None:
        return "no embedding returned"
    if sorted(mapping) != list(range(tree_n)):
        return "map is not total on the tree vertices"
    images = [mapping[u] for u in range(tree_n)]
    if any(not 0 <= g < len(out_rows) for g in images):
        return "an image lies outside the host"
    if len(set(images)) != tree_n:
        return "map is not injective"
    for u, v in tree_arcs:
        if not _arc(out_rows, mapping[u], mapping[v]):
            return f"tree arc {u}->{v} maps to a non-arc {mapping[u]}->{mapping[v]}"
    return None


def path_error(out_rows: Sequence[int], seq: Sequence[int]) -> str | None:
    """Why ``seq`` is not a directed path of distinct host vertices, or None."""
    if any(not 0 <= g < len(out_rows) for g in seq):
        return "a path vertex lies outside the host"
    if len(set(seq)) != len(seq):
        return "a path vertex repeats"
    for a, b in zip(seq, seq[1:]):
        if not _arc(out_rows, a, b):
            return f"{a} does not beat its successor {b}"
    return None


def split_error(
    out_rows: Sequence[int],
    pieces: Sequence[int],
    classification: Sequence[str],
    deleted: int,
    gamma: Fraction,
) -> str | None:
    """Why an ordered split of the host violates its postconditions, or None.

    Checks that the pieces are nonempty, pairwise disjoint and avoid the
    deleted vertices; that they cover at least ``(1-γ)·n`` vertices; that
    pieces labelled ``small`` have fewer than ``γ·n`` vertices; and, by a
    direct recount, that no vertex has more than ``γ·n`` in-neighbours in
    later pieces or out-neighbours in earlier pieces.
    """
    n = len(out_rows)
    gamma_n = gamma * n
    if len(classification) != len(pieces):
        return "classification and pieces differ in length"
    seen = 0
    for p in pieces:
        if p <= 0 or p >> n:
            return "a piece is empty or lies outside the host"
        if p & seen:
            return "two pieces overlap"
        seen |= p
    if seen & deleted:
        return "a deleted vertex lies in a piece"
    if seen.bit_count() < (1 - gamma) * n:
        return f"pieces cover {seen.bit_count()} of {n} vertices, below (1-γ)·n"
    members = [[v for v in range(n) if (p >> v) & 1] for p in pieces]
    for p, label in zip(members, classification):
        if label == "small" and not len(p) < gamma_n:
            return "a piece labelled small has at least γ·n vertices"
    for i, piece in enumerate(members):
        later = [u for p in members[i + 1 :] for u in p]
        earlier = [u for p in members[:i] for u in p]
        for v in piece:
            if sum(_arc(out_rows, u, v) for u in later) > gamma_n:
                return f"vertex {v} has more than γ·n in-neighbours in later pieces"
            if sum(_arc(out_rows, v, u) for u in earlier) > gamma_n:
                return f"vertex {v} has more than γ·n out-neighbours in earlier pieces"
    return None
