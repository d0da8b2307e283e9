"""The two-set embedding lemma, with its seeded instance builder.

The approximate Sumner proof embeds a tree split into induced forests
``F⁻``/``F⁺`` (every cross arc ``F⁻ → F⁺``) across a host bipartition
``Y``/``Z`` with few ``Y → Z`` arcs, one forest component at a time.
:func:`component_by_component` (and its mirror
:func:`dual_component_by_component`) validates every hypothesis of a
:class:`TwoSetInstance` exactly, raising :class:`HypothesisViolation`
with the violated clause named, and verifies the embedding it returns.
Each component is placed greedy-first with a complete backtracking
search as fallback; a validated instance leaves room for every
component, so a failed placement raises :class:`GraphDefectError`.

No portfolio stage, campaign or CLI verdict calls this procedure: it
declined every arc-flip climb hit, and its round-the-back and one-by-one
siblings were retired after validating on none of the portfolio's
misses (CHANGES.md).  The package does not import this module.

:func:`random_two_set_instance` builds hypothesis-satisfying instances
from a seed, and :func:`break_two_set` damages exactly one named
hypothesis of such an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .generate import Xoshiro256StarStar, random_oriented_tree, stream
from .graphs import (
    DirectedTree,
    GraphDefectError,
    Tournament,
    as_fraction,
    bit_list,
    bits,
    full_mask,
    is_valid_embedding,
    mask_of,
)
from .search import exhaustive_embed, greedy_embed
from .weights import tree_components

__all__ = [
    "HypothesisViolation",
    "TwoSetInstance",
    "component_by_component",
    "dual_component_by_component",
    "random_two_set_instance",
    "break_two_set",
]

# largest forest component, components per forest, and the α, γ of the
# hypotheses, for the seeded builder
TWO_SET_MAX_COMP = 4
TWO_SET_COMPS_PER_FOREST = 3
TWO_SET_ALPHA = Fraction(1, 4)
TWO_SET_GAMMA = Fraction(1, 8)


class HypothesisViolation(ValueError):
    """A two-set instance fails a stated hypothesis; the message names it."""


def _lsb(mask: int) -> int:
    """The smallest vertex of a bitmask (-1 for the empty set)."""
    return (mask & -mask).bit_length() - 1


def _first_bits(mask: int, k: int) -> int:
    """The k lowest set bits of mask (all of them if fewer than k)."""
    out = 0
    while k > 0 and mask:
        low = mask & -mask
        out |= low
        mask ^= low
        k -= 1
    return out


def _place(
    phi: dict[int, int],
    T: DirectedTree,
    comp: int,
    G: Tournament,
    allowed: int,
    where: str,
) -> int:
    """Place the component T[comp] inside the host region ``allowed``.

    Greedy search runs first and the complete search second.  The
    placement is merged into ``phi`` and the host mask it uses is
    returned; a placement the complete search cannot make raises
    :class:`GraphDefectError` naming ``where``.
    """
    old = bit_list(comp)
    index = {v: i for i, v in enumerate(old)}
    sub = DirectedTree(
        len(old),
        [(index[u], index[v]) for u, v in T.arcs if (comp >> u) & 1 and (comp >> v) & 1],
    )
    outcome = greedy_embed(sub, G, region=allowed)
    if not outcome.found:
        outcome = exhaustive_embed(sub, G, region=allowed)
    if not outcome.found:
        raise GraphDefectError(f"{where} placement failed on a validated instance")
    assert outcome.embedding is not None
    for i, h in outcome.embedding.items():
        phi[old[i]] = h
    return mask_of(outcome.embedding.values())


@dataclass(frozen=True)
class TwoSetInstance:
    """Input bundle for :func:`component_by_component`.

    The tree's vertices are split into induced forests ``F⁻`` and ``F⁺``
    with every cross arc directed ``F⁻ → F⁺``; the host's vertices are
    split into ``Y`` and ``Z``.  ``seed`` embeds the largest component of
    ``F⁺`` into ``G[Y]``.  With ``n = |T|``, ``T₂⁺`` the second-largest
    ``F⁺`` component, the hypotheses are:

    * (Y-size): ``|Y| >= |F⁺| + |T₂⁺| + α·n``
    * (Z-size): ``|Z| >= 2|F⁻| + α·n``
    * (Y-out-gamma): every Y-vertex has at most ``γ·n`` out-neighbours in Z
    * (Z-in-gamma): every Z-vertex has at most ``γ·n`` in-neighbours in Y
    """

    T: DirectedTree
    F_minus: int
    F_plus: int
    G: Tournament
    Y: int
    Z: int
    gamma: Fraction | int | float | str
    alpha: Fraction | int | float | str
    seed: Mapping[int, int]


def _check_seed(
    T: DirectedTree, c_mask: int, seed: Mapping[int, int], G: Tournament, region: int
) -> None:
    if set(seed.keys()) != set(bit_list(c_mask)):
        raise HypothesisViolation("(seed): seed keys differ from the subtree vertices")
    images = list(seed.values())
    if len(set(images)) != len(images):
        raise HypothesisViolation("(seed): seed images are not distinct")
    if mask_of(images) & ~region:
        raise HypothesisViolation("(seed): seed image leaves its host region")
    for u, v in T.arcs:
        if (c_mask >> u) & 1 and (c_mask >> v) & 1 and not G.has_arc(seed[u], seed[v]):
            raise HypothesisViolation(
                f"(seed): tree arc ({u},{v}) not respected by the seed"
            )


def _validate_two_set(inst: TwoSetInstance) -> list[int]:
    """Check hypotheses; returns the F⁺ components, largest (the seed's) first."""
    T, G = inst.T, inst.G
    tree_mask = full_mask(T.n)
    if inst.F_minus & inst.F_plus or (inst.F_minus | inst.F_plus) != tree_mask:
        raise ValueError("F⁻ and F⁺ must partition the tree's vertices")
    all_hosts = full_mask(G.n)
    if inst.Y & inst.Z or (inst.Y | inst.Z) != all_hosts:
        raise ValueError("Y and Z must partition the host's vertices")
    gamma = as_fraction(inst.gamma)
    alpha = as_fraction(inst.alpha)
    for u, v in T.arcs:
        if (inst.F_plus >> u) & 1 and (inst.F_minus >> v) & 1:
            raise HypothesisViolation(
                f"(cross-direction): arc ({u},{v}) runs from F⁺ to F⁻"
            )
    if inst.F_plus == 0:
        raise HypothesisViolation(
            "(F-plus-empty): F⁺ is empty; use the dual procedure instead"
        )
    plus_comps = sorted(
        tree_components(T, inst.F_plus), key=lambda c: (-c.bit_count(), _lsb(c))
    )
    t2_plus = plus_comps[1].bit_count() if len(plus_comps) > 1 else 0
    n = T.n
    if inst.Y.bit_count() < inst.F_plus.bit_count() + t2_plus + alpha * n:
        raise HypothesisViolation(
            f"(Y-size): |Y| = {inst.Y.bit_count()} < |F⁺| + |T₂⁺| + α·n = "
            f"{inst.F_plus.bit_count()} + {t2_plus} + {alpha * n}"
        )
    if inst.Z.bit_count() < 2 * inst.F_minus.bit_count() + alpha * n:
        raise HypothesisViolation(
            f"(Z-size): |Z| = {inst.Z.bit_count()} < 2|F⁻| + α·n = "
            f"{2 * inst.F_minus.bit_count()} + {alpha * n}"
        )
    for y in bits(inst.Y):
        if (G.out_rows[y] & inst.Z).bit_count() > gamma * n:
            raise HypothesisViolation(
                f"(Y-out-gamma): vertex {y} has "
                f"{(G.out_rows[y] & inst.Z).bit_count()} out-neighbours in Z, "
                f"cap is γ·n = {gamma * n}"
            )
    for z in bits(inst.Z):
        if (G.in_rows[z] & inst.Y).bit_count() > gamma * n:
            raise HypothesisViolation(
                f"(Z-in-gamma): vertex {z} has "
                f"{(G.in_rows[z] & inst.Y).bit_count()} in-neighbours in Y, "
                f"cap is γ·n = {gamma * n}"
            )
    _check_seed(T, plus_comps[0], inst.seed, G, inst.Y)
    return plus_comps


def component_by_component(inst: TwoSetInstance) -> dict[int, int]:
    """Grow the seed over all remaining forest components.

    Components are taken in an order where each new one touches the
    already-embedded prefix by exactly one tree arc (ties to the smallest
    member id).  An ``F⁺`` component lands in the unoccupied
    out-neighbours in ``Y`` of its attachment's image; an ``F⁻``
    component in the unoccupied in-neighbours in ``Z``.  The returned
    total embedding is verified.
    """
    plus_comps = _validate_two_set(inst)
    T, G = inst.T, inst.G
    prefix = plus_comps[0]
    remaining = plus_comps[1:] + tree_components(T, inst.F_minus)
    phi: dict[int, int] = dict(inst.seed)
    occupied = mask_of(phi.values())
    while remaining:
        adjacent = [
            c
            for c in remaining
            if any(
                ((prefix >> u) & 1 and (c >> v) & 1)
                or ((c >> u) & 1 and (prefix >> v) & 1)
                for u, v in T.arcs
            )
        ]
        if not adjacent:
            raise GraphDefectError("two-set: disconnected component order")
        comp = min(adjacent, key=_lsb)
        remaining.remove(comp)
        links = [
            (u, v)
            for u, v in T.arcs
            if ((prefix >> u) & 1 and (comp >> v) & 1)
            or ((comp >> u) & 1 and (prefix >> v) & 1)
        ]
        if len(links) != 1:
            raise GraphDefectError("two-set: component linked by more than one arc")
        u, v = links[0]
        host_v = phi[u if (prefix >> u) & 1 else v]
        if comp & inst.F_plus:
            allowed = G.out_rows[host_v] & inst.Y & ~occupied
            where = "two-set: F⁺ component"
        else:
            allowed = G.in_rows[host_v] & inst.Z & ~occupied
            where = "two-set: F⁻ component"
        occupied |= _place(phi, T, comp, G, allowed, where)
        prefix |= comp
    if not is_valid_embedding(T, G, phi):
        raise GraphDefectError("two-set produced an invalid embedding")
    return phi


def dual_component_by_component(inst: TwoSetInstance) -> dict[int, int]:
    """Mirrored reading of :func:`component_by_component`.

    Here ``seed`` embeds the largest component of ``F⁻`` into ``G[Z]``
    and the size conditions swap to ``|Y| >= 2|F⁺| + α·n`` and
    ``|Z| >= |F⁻| + |T₂⁻| + α·n``.  Implemented by reversing every arc of
    the tree and the host, swapping the two forests and the two host
    sides, and running the primal procedure; the resulting vertex map is
    returned unchanged (reversing both graphs preserves embeddings).
    Hypothesis names in errors refer to the reversed primal instance.
    """
    rev = TwoSetInstance(
        T=inst.T.reverse(),
        F_minus=inst.F_plus,
        F_plus=inst.F_minus,
        G=inst.G.reverse(),
        Y=inst.Z,
        Z=inst.Y,
        gamma=inst.gamma,
        alpha=inst.alpha,
        seed=inst.seed,
    )
    return component_by_component(rev)


# ---------------------------------------------------------------------------
# Seeded instances and single-hypothesis mutators

def _random_subtree(rng: Xoshiro256StarStar, size: int) -> DirectedTree:
    if size == 1:
        return DirectedTree(1, [])
    return random_oriented_tree(size, rng.next64())


def _flip_arcs(G: Tournament, pairs: list[tuple[int, int]]) -> Tournament:
    """A copy of G with each listed arc reversed (pairs in either order)."""
    rows = list(G.out_rows)
    for a, b in pairs:
        if rows[a] >> b & 1:
            rows[a] &= ~(1 << b)
            rows[b] |= 1 << a
        else:
            rows[b] &= ~(1 << a)
            rows[a] |= 1 << b
    return Tournament(G.n, rows)


def random_two_set_instance(seed: int) -> TwoSetInstance:
    """A hypothesis-satisfying two-set instance.

    Builds the tree by alternately hanging F⁻ and F⁺ components with all
    cross arcs F⁻ → F⁺, sizes Y and Z to the stated bounds plus a little
    jitter, starts from an all-Z-to-Y host (zero cross-arc load) and then
    flips a few Y → Z arcs while respecting the per-vertex γ·n caps.
    """
    rng = stream(seed, "instance:two-set")
    a, g = TWO_SET_ALPHA, TWO_SET_GAMMA
    n_minus = 1 + rng.next_below(TWO_SET_COMPS_PER_FOREST)
    n_plus = 1 + rng.next_below(TWO_SET_COMPS_PER_FOREST)
    plus_sizes = sorted(
        (1 + rng.next_below(TWO_SET_MAX_COMP) for _ in range(n_plus)), reverse=True
    )
    minus_sizes = [1 + rng.next_below(TWO_SET_MAX_COMP) for _ in range(n_minus)]

    arcs: list[tuple[int, int]] = list(_random_subtree(rng, plus_sizes[0]).arcs)
    plus_mask = full_mask(plus_sizes[0])
    minus_mask = 0
    offset = plus_sizes[0]
    # every minus component first, so a plus component always has a minus
    # vertex to hang from
    queue = [("minus", s) for s in minus_sizes] + [
        ("plus", s) for s in plus_sizes[1:]
    ]
    for kind, size in queue:
        branch = _random_subtree(rng, size)
        arcs.extend((offset + u, offset + v) for u, v in branch.arcs)
        comp_ids = list(range(offset, offset + size))
        hook = comp_ids[rng.next_below(size)]
        if kind == "minus":
            hosts = bit_list(plus_mask)
            arcs.append((hook, hosts[rng.next_below(len(hosts))]))
            minus_mask |= mask_of(comp_ids)
        else:
            hosts = bit_list(minus_mask)
            arcs.append((hosts[rng.next_below(len(hosts))], hook))
            plus_mask |= mask_of(comp_ids)
        offset += size
    T = DirectedTree(offset, arcs)
    n = T.n

    t2_plus = plus_sizes[1] if len(plus_sizes) > 1 else 0
    an = a * n
    ceil_an = -(-an.numerator // an.denominator)
    y_size = plus_mask.bit_count() + t2_plus + ceil_an + rng.next_below(3)
    z_size = 2 * minus_mask.bit_count() + ceil_an + rng.next_below(3)
    host_n = y_size + z_size
    y_ids = list(range(y_size))
    z_ids = list(range(y_size, host_n))
    # decided[(i, j)] (i < j) is True for the arc i -> j
    decided: dict[tuple[int, int], bool] = {}
    for y in y_ids:
        for z in z_ids:
            decided[(y, z)] = False  # z -> y
    for u, v in T.arcs:
        if u < plus_sizes[0] and v < plus_sizes[0]:
            decided[(min(u, v), max(u, v))] = u < v
    gn = g * n
    cap = gn.numerator // gn.denominator
    if cap > 0:
        out_load = {y: 0 for y in y_ids}
        in_load = {z: 0 for z in z_ids}
        for _ in range(rng.next_below(2 * cap + 1)):
            y = y_ids[rng.next_below(len(y_ids))]
            z = z_ids[rng.next_below(len(z_ids))]
            if y < plus_sizes[0]:
                continue  # keep the seed region clean of flipped arcs
            if out_load[y] < cap and in_load[z] < cap and not decided[(y, z)]:
                decided[(y, z)] = True
                out_load[y] += 1
                in_load[z] += 1
    host_arcs = []
    for i in range(host_n):
        for j in range(i + 1, host_n):
            choice = decided.get((i, j))
            if choice is None:
                choice = rng.next_below(2) == 0
            host_arcs.append((i, j) if choice else (j, i))
    return TwoSetInstance(
        T=T,
        F_minus=minus_mask,
        F_plus=plus_mask,
        G=Tournament.from_arcs(host_n, host_arcs),
        Y=mask_of(y_ids),
        Z=mask_of(z_ids),
        gamma=g,
        alpha=a,
        seed={i: i for i in range(plus_sizes[0])},
    )


def break_two_set(inst: TwoSetInstance, which: str) -> TwoSetInstance:
    """Damage exactly the named hypothesis of a valid instance."""
    an = as_fraction(inst.alpha) * inst.T.n
    ceil_an = -(-an.numerator // an.denominator)
    gn = as_fraction(inst.gamma) * inst.T.n
    cap = gn.numerator // gn.denominator
    if which == "(cross-direction)":
        a, b = next(
            (a, b)
            for a, b in inst.T.arcs
            if ((inst.F_minus >> a) & 1) and ((inst.F_plus >> b) & 1)
        )
        arcs = [(y, x) if (x, y) == (a, b) else (x, y) for x, y in inst.T.arcs]
        return replace(inst, T=DirectedTree(inst.T.n, arcs))
    if which == "(Y-size)":
        sizes = sorted(
            (c.bit_count() for c in tree_components(inst.T, inst.F_plus)), reverse=True
        )
        t2 = sizes[1] if len(sizes) > 1 else 0
        min_y = inst.F_plus.bit_count() + t2 + ceil_an
        movable = inst.Y & ~mask_of(inst.seed.values())
        moved = _first_bits(movable, max(inst.Y.bit_count() - min_y + 1, 1))
        return replace(inst, Y=inst.Y & ~moved, Z=inst.Z | moved)
    if which == "(Z-size)":
        min_z = 2 * inst.F_minus.bit_count() + ceil_an
        moved = _first_bits(inst.Z, max(inst.Z.bit_count() - min_z + 1, 1))
        return replace(inst, Z=inst.Z & ~moved, Y=inst.Y | moved)
    if which == "(Y-out-gamma)":
        y = max(bits(inst.Y))
        zs = bit_list(inst.Z)[: cap + 1]
        flips = [(y, z) for z in zs if not inst.G.has_arc(y, z)]
        return replace(inst, G=_flip_arcs(inst.G, flips))
    if which == "(Z-in-gamma)":
        z = max(bits(inst.Z))
        # add in-arcs from Y vertices that still have out-cap headroom, so
        # the flips cannot push any of them over their own cap first
        ys = [
            y
            for y in bits(inst.Y)
            if inst.G.has_arc(z, y) and (inst.G.out_rows[y] & inst.Z).bit_count() < cap
        ][: cap + 1]
        if len(ys) < cap + 1:
            raise ValueError(
                "cannot break (Z-in-gamma) alone: every spare arc into the "
                "target would trip a Y vertex's own out-cap first"
            )
        return replace(inst, G=_flip_arcs(inst.G, [(z, y) for y in ys]))
    if which == "(seed)":
        bad = dict(inst.seed)
        bad[next(iter(bad))] = next(bits(inst.Z))
        return replace(inst, seed=bad)
    raise ValueError(f"unknown hypothesis {which!r}")
