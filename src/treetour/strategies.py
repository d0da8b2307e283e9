"""Structured embedding strategies with validated hypotheses.

This module turns three finite embedding guarantees into executable
procedures.  Each procedure takes an *instance* — the tree, the host, a
partition of the host's vertices and the numeric parameters — validates
every stated hypothesis exactly (integer and Fraction arithmetic, no
floats), and then runs the constructive argument step by step.  Every
inner single-component placement of the three procedures goes through
one helper, greedy-first with a complete backtracking search as
fallback; because a validated instance guarantees enough room (three
times the component size), an inner failure is a defect and raises
:class:`GraphDefectError` naming the procedure and side, never a silent
miss.

Contents:

* ``round_the_back`` — embeds a tree rooted at an in-degree-0 vertex so
  the root lands on a prescribed host vertex ``v``, the remaining
  vertices land in ``v``'s out-neighbourhood ``N`` plus a bounded spill
  region ``X`` (at most ``4d`` X-vertices used, ``d`` = largest branch).
* ``extend_one_by_one`` — grows a partial embedding of a subtree one
  hanging component at a time, each component landing inside the correct
  directed neighbourhood of its attachment image; the ``b`` variant
  additionally forces at least ``r`` vertices into a tracked subset
  ``N'``; the ``c`` variant drops the degree conditions on the unused
  arc direction.
* ``component_by_component`` (and its dual) — embeds a tree split into
  forests ``F⁻``/``F⁺`` (all cross arcs ``F⁻ → F⁺``) across a host
  bipartition ``Y``/``Z`` with few ``Y → Z`` arcs.
* ``portfolio_embed`` — the dispatch driver: greedy, path and
  out-/in-branching specialisations, then complete search on hosts of at
  most ``EXHAUSTIVE_MAX_N`` vertices.  NotFound is only ever produced by
  a completed exhaustive search.  The lemma procedures above are public
  but not dispatched: no instance found so far needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graphs import (
    DirectedTree,
    GraphDefectError,
    HypothesisViolation,
    Tournament,
    as_fraction,
    bit_list,
    bits,
    first_bits,
    full_mask,
    is_valid_embedding,
    lsb,
    mask_of,
)
from .search import (
    BUDGET_EXHAUSTED,
    DEFAULT_NODE_BUDGET,
    FOUND,
    NOT_FOUND,
    EmbedOutcome,
    embed_outbranching,
    exhaustive_embed,
    greedy_embed,
    redei_path,
)
from .weights import hanging_components, tree_components

__all__ = [
    "RoundTheBackInstance",
    "OneByOneInstance",
    "TwoSetInstance",
    "round_the_back",
    "extend_one_by_one",
    "component_by_component",
    "dual_component_by_component",
    "portfolio_embed",
    "directed_path_order",
]


# ---------------------------------------------------------------------------
# Small helpers

def _by_size(comps: list[int]) -> list[int]:
    """Component masks by decreasing size, then smallest member."""
    return sorted(comps, key=lambda c: (-c.bit_count(), lsb(c)))


def _extract_subtree(T: DirectedTree, mask: int) -> tuple[DirectedTree, list[int]]:
    """Relabel T[mask] as its own tree; returns (tree, old ids by new id)."""
    verts = bit_list(mask)
    index = {v: i for i, v in enumerate(verts)}
    arcs = [
        (index[u], index[v])
        for (u, v) in T.arcs
        if (mask >> u) & 1 and (mask >> v) & 1
    ]
    return DirectedTree(len(verts), arcs), verts


def _place(
    phi: dict[int, int],
    T: DirectedTree,
    comp: int,
    G: Tournament,
    allowed: int,
    where: str,
) -> int:
    """Place the component T[comp] inside the host region ``allowed``.

    Greedy search runs first and the complete search second, both with
    ``region=allowed``.  The placement is merged into ``phi`` and the host
    mask it uses is returned.  A validated instance leaves room for every
    component, so a placement the complete search cannot make raises
    :class:`GraphDefectError` naming ``where`` (procedure and side).
    """
    sub, old = _extract_subtree(T, comp)
    outcome = greedy_embed(sub, G, region=allowed)
    if not outcome.found:
        outcome = exhaustive_embed(sub, G, region=allowed)
    if not outcome.found:
        raise GraphDefectError(f"{where} placement failed on a validated instance")
    assert outcome.embedding is not None
    for i, h in outcome.embedding.items():
        phi[old[i]] = h
    return mask_of(outcome.embedding.values())


# ---------------------------------------------------------------------------
# Round-the-back embedding

@dataclass(frozen=True)
class RoundTheBackInstance:
    """Input bundle for :func:`round_the_back`.

    ``T`` is rooted at ``t`` (which must have no in-arcs); the host ``G``
    is partitioned into ``{v}``, ``N`` and ``X`` (vertex masks).  With
    ``d`` the largest component of ``T - t``, the hypotheses are:

    * (root): ``t`` has no in-neighbours in ``T``;
    * (N-size): ``|N| >= |T| - 1``;
    * (N-out): every vertex of ``N`` is an out-neighbour of ``v``;
    * (X-capacity): at least ``3d`` vertices of ``N`` have at least
      ``6d`` in-neighbours and ``6d`` out-neighbours in ``X``.
    """

    T: DirectedTree
    t: int
    G: Tournament
    v: int
    N: int
    X: int


def _validate_round_the_back(inst: RoundTheBackInstance) -> tuple[int, int]:
    """Check all hypotheses; returns (d, qualifying-N-vertex mask)."""
    T, G = inst.T, inst.G
    if not (0 <= inst.t < T.n):
        raise ValueError(f"root {inst.t} out of range for a {T.n}-vertex tree")
    if not (0 <= inst.v < G.n):
        raise ValueError(f"host vertex {inst.v} out of range")
    all_hosts = full_mask(G.n)
    v_bit = 1 << inst.v
    if inst.N & ~all_hosts or inst.X & ~all_hosts:
        raise ValueError("N or X contains out-of-range vertices")
    if (inst.N & inst.X) or (v_bit & (inst.N | inst.X)):
        raise ValueError("{v}, N, X must be disjoint")
    if (v_bit | inst.N | inst.X) != all_hosts:
        raise ValueError("{v}, N, X must cover all host vertices")
    if T.in_nbrs[inst.t]:
        raise HypothesisViolation(
            f"(root): root {inst.t} has in-neighbours {list(T.in_nbrs[inst.t])}"
        )
    if inst.N.bit_count() < T.n - 1:
        raise HypothesisViolation(
            f"(N-size): |N| = {inst.N.bit_count()} < |T| - 1 = {T.n - 1}"
        )
    if inst.N & ~G.out_rows[inst.v]:
        bad = lsb(inst.N & ~G.out_rows[inst.v])
        raise HypothesisViolation(
            f"(N-out): vertex {bad} of N is not an out-neighbour of v"
        )
    d = max((h.comp.bit_count() for h in hanging_components(T, 1 << inst.t)), default=0)
    qual = 0
    for u in bits(inst.N):
        if (
            (G.in_rows[u] & inst.X).bit_count() >= 6 * d
            and (G.out_rows[u] & inst.X).bit_count() >= 6 * d
        ):
            qual |= 1 << u
    if qual.bit_count() < 3 * d:
        raise HypothesisViolation(
            f"(X-capacity): only {qual.bit_count()} vertices of N have 6d = {6 * d} "
            f"in- and out-neighbours in X; need 3d = {3 * d}"
        )
    return d, qual


def round_the_back(inst: RoundTheBackInstance) -> dict[int, int]:
    """Embed T with root on v, branches in N, and at most 4d spill into X.

    Branches of ``T - t`` are processed in decreasing size (ties to the
    smallest member id).  While a qualifying N-vertex is free and fewer
    than ``3d`` X-vertices are used, a branch puts its attachment vertex
    on a qualifying N-vertex and the rest into that vertex's in/out
    neighbourhoods inside X; once ``3d`` X-vertices are occupied, whole
    branches go into the unoccupied part of N.  The returned embedding is
    verified, including the ``<= 4d`` X-occupancy bound.
    """
    d, qual = _validate_round_the_back(inst)
    T, G = inst.T, inst.G
    phi: dict[int, int] = {inst.t: inst.v}
    occupied = 1 << inst.v
    branches = sorted(
        hanging_components(T, 1 << inst.t),
        key=lambda h: (-h.comp.bit_count(), lsb(h.comp)),
    )
    for comp, _t, t_i, direction in branches:
        if direction != "out":
            raise GraphDefectError("root with an in-branch survived validation")
        size = comp.bit_count()
        x_occupied = (occupied & inst.X).bit_count()
        free_qual = qual & ~occupied
        if x_occupied < 3 * d and free_qual:
            v_i = lsb(free_qual)
            phi[t_i] = v_i
            occupied |= 1 << v_i
            sub_pieces = sorted(
                hanging_components(T, 1 << t_i, comp & ~(1 << t_i)),
                key=lambda h: h.outer,
            )
            ordered = [h for h in sub_pieces if h.direction == "out"] + [
                h for h in sub_pieces if h.direction == "in"
            ]
            for piece, _v, _w, pdir in ordered:
                row = G.out_rows[v_i] if pdir == "out" else G.in_rows[v_i]
                occupied |= _place(
                    phi, T, piece, G, row & inst.X & ~occupied, "round-the-back: X-side"
                )
        elif x_occupied < 3 * d:
            if size != 1:
                raise GraphDefectError(
                    "round-the-back: all qualifying vertices used before the "
                    "branches shrank to singletons"
                )
            free_n = inst.N & ~occupied
            if not free_n:
                raise GraphDefectError("round-the-back: N exhausted prematurely")
            phi[t_i] = lsb(free_n)
            occupied |= free_n & -free_n
        else:
            occupied |= _place(
                phi, T, comp, G, inst.N & ~occupied, "round-the-back: N-side"
            )
    x_used = (occupied & inst.X).bit_count()
    if x_used > 4 * d:
        raise GraphDefectError(
            f"round-the-back: {x_used} X-vertices occupied, bound is 4d = {4 * d}"
        )
    if phi[inst.t] != inst.v or not is_valid_embedding(T, G, phi):
        raise GraphDefectError("round-the-back produced an invalid embedding")
    return phi


# ---------------------------------------------------------------------------
# One-by-one extension

@dataclass(frozen=True)
class OneByOneInstance:
    """Input bundle for :func:`extend_one_by_one`.

    ``seed`` embeds the subtree on vertex mask ``T_c`` into ``G[S]``;
    ``S`` and ``N`` partition the host's vertices.  With ``m = |T - T_c|``
    and ``d`` the largest hanging component, the degree hypotheses are,
    for every vertex ``v`` of ``S``:

    * (i)  ``|N⁺(v) ∩ N| >= m + 2d``     * (ii) ``|N⁻(v) ∩ N| >= m + 2d``
    * (iii) ``|N⁺(v) ∩ N'| >= r + 2d``   * (iv) ``|N⁻(v) ∩ N'| >= r + 2d``

    Variant ``a`` checks (i)-(ii); variant ``b`` additionally takes
    ``N' ⊆ N`` and ``r <= m``, checks (iii)-(iv) and guarantees at least
    ``r`` new vertices land in ``N'``; variant ``c`` requires all arcs
    between ``T_c`` and the rest to share one direction and drops the
    conditions for the unused direction.
    """

    T: DirectedTree
    T_c: int
    seed: Mapping[int, int]
    G: Tournament
    S: int
    N: int
    variant: str = "a"
    N_prime: int | None = None
    r: int | None = None


def _check_seed(
    T: DirectedTree, c_mask: int, seed: Mapping[int, int], G: Tournament, region: int
) -> None:
    if set(seed.keys()) != set(bit_list(c_mask)):
        raise HypothesisViolation("(seed): seed keys differ from the subtree vertices")
    images = list(seed.values())
    if len(set(images)) != len(images):
        raise HypothesisViolation("(seed): seed images are not distinct")
    img_mask = mask_of(images)
    if img_mask & ~region:
        raise HypothesisViolation("(seed): seed image leaves its host region")
    for u, v in T.arcs:
        if (c_mask >> u) & 1 and (c_mask >> v) & 1 and not G.has_arc(seed[u], seed[v]):
            raise HypothesisViolation(
                f"(seed): tree arc ({u},{v}) not respected by the seed"
            )


def _validate_one_by_one(
    inst: OneByOneInstance,
) -> tuple[list[tuple[int, int, int, str]], int, int, int]:
    """Check hypotheses; returns (components, d, effective N', effective r)."""
    T, G = inst.T, inst.G
    all_hosts = full_mask(G.n)
    if inst.S & inst.N:
        raise ValueError("S and N must be disjoint")
    if (inst.S | inst.N) != all_hosts:
        raise ValueError("S and N must cover all host vertices")
    tree_mask = full_mask(T.n)
    if inst.T_c == 0 or inst.T_c & ~tree_mask:
        raise ValueError("T_c must be a nonempty set of tree vertices")
    if len(tree_components(T, inst.T_c)) != 1:
        raise ValueError("T_c must induce a connected subtree")
    if inst.variant not in ("a", "b", "c"):
        raise ValueError(f"unknown variant {inst.variant!r}")
    _check_seed(T, inst.T_c, inst.seed, G, inst.S)
    comps = hanging_components(T, inst.T_c)
    m = T.n - inst.T_c.bit_count()
    d = max((c.bit_count() for c, _, _, _ in comps), default=0)

    if (inst.N_prime is None) != (inst.r is None):
        raise ValueError("N_prime and r must be given together")
    if inst.variant == "b" and inst.N_prime is None:
        raise ValueError("variant b requires N_prime and r")
    if inst.variant == "a" and inst.N_prime is not None:
        raise ValueError("variant a takes no N_prime/r; use variant b")
    n_prime, r = inst.N_prime, inst.r
    if n_prime is not None:
        assert r is not None
        if n_prime & ~inst.N:
            raise HypothesisViolation("(N'-subset): N' must be a subset of N")
        if not (0 <= r <= m):
            raise HypothesisViolation(f"(r-range): r = {r} outside 0..{m}")
    else:
        n_prime, r = inst.N, m

    has_out = any(direction == "out" for _, _, _, direction in comps)
    has_in = any(direction == "in" for _, _, _, direction in comps)
    if inst.variant == "c":
        if has_out and has_in:
            raise HypothesisViolation(
                "(direction): variant c needs all arcs between the subtree and "
                "the rest to share one direction"
            )
        need_out, need_in = has_out, has_in
    else:
        need_out = need_in = True
    with_prime = inst.N_prime is not None
    for v in bits(inst.S):
        if need_out:
            if (G.out_rows[v] & inst.N).bit_count() < m + 2 * d:
                raise HypothesisViolation(
                    f"(i): vertex {v} has {(G.out_rows[v] & inst.N).bit_count()} "
                    f"out-neighbours in N, needs {m + 2 * d}"
                )
            if with_prime and (G.out_rows[v] & n_prime).bit_count() < r + 2 * d:
                raise HypothesisViolation(
                    f"(iii): vertex {v} has {(G.out_rows[v] & n_prime).bit_count()} "
                    f"out-neighbours in N', needs {r + 2 * d}"
                )
        if need_in:
            if (G.in_rows[v] & inst.N).bit_count() < m + 2 * d:
                raise HypothesisViolation(
                    f"(ii): vertex {v} has {(G.in_rows[v] & inst.N).bit_count()} "
                    f"in-neighbours in N, needs {m + 2 * d}"
                )
            if with_prime and (G.in_rows[v] & n_prime).bit_count() < r + 2 * d:
                raise HypothesisViolation(
                    f"(iv): vertex {v} has {(G.in_rows[v] & n_prime).bit_count()} "
                    f"in-neighbours in N', needs {r + 2 * d}"
                )
    return comps, d, n_prime, r


def extend_one_by_one(inst: OneByOneInstance) -> dict[int, int]:
    """Extend the seed embedding over all hanging components.

    Components are processed in ascending order of their smallest vertex
    id.  A component attached by an out-arc at ``t`` (image ``v``) lands
    inside the unoccupied out-neighbours of ``v``: inside ``N'`` while
    ``N'`` has room, topped up with the fewest possible vertices from
    ``N ∖ N'`` once ``N'`` tightens (this forces the ``r``-landing
    guarantee), and anywhere in ``N`` once ``r`` vertices have landed.
    In-arc components are symmetric.  The returned total embedding is
    verified, including the landing count.
    """
    comps, d, n_prime, r = _validate_one_by_one(inst)
    T, G = inst.T, inst.G
    phi: dict[int, int] = dict(inst.seed)
    occupied = mask_of(phi.values())
    landed_new = 0
    for comp, t_c, _w, direction in comps:
        v = phi[t_c]
        row = G.out_rows[v] if direction == "out" else G.in_rows[v]
        prime_side = row & n_prime
        occ_prime = (prime_side & occupied).bit_count()
        size = comp.bit_count()
        if occ_prime <= r - size:
            allowed = prime_side & ~occupied
        elif occ_prime >= r:
            allowed = row & inst.N & ~occupied
        else:
            k = r - occ_prime
            outside = row & (inst.N & ~n_prime) & ~occupied
            allowed = (prime_side & ~occupied) | first_bits(outside, size - k)
        used = _place(phi, T, comp, G, allowed, "one-by-one: component")
        occupied |= used
        landed_new |= used
    if (landed_new & n_prime).bit_count() < r:
        raise GraphDefectError(
            f"one-by-one: only {(landed_new & n_prime).bit_count()} vertices "
            f"landed in N', guarantee was {r}"
        )
    if not is_valid_embedding(T, G, phi):
        raise GraphDefectError("one-by-one produced an invalid embedding")
    return phi


# ---------------------------------------------------------------------------
# Two-set (forest-by-forest) embedding

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


def _validate_two_set(inst: TwoSetInstance) -> list[int]:
    """Check hypotheses; returns F⁺/F⁻ components with the seed's first."""
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
    plus_comps = _by_size(tree_components(T, inst.F_plus))
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
    first = plus_comps[0]
    comps_all = [c for c in plus_comps if c != first]
    comps_all += tree_components(T, inst.F_minus)
    phi: dict[int, int] = dict(inst.seed)
    occupied = mask_of(phi.values())
    prefix = first
    remaining = comps_all[:]
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
        comp = min(adjacent, key=lsb)
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
        t_prefix = u if (prefix >> u) & 1 else v
        host_v = phi[t_prefix]
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
# Portfolio driver

def directed_path_order(T: DirectedTree) -> list[int] | None:
    """The source-to-sink vertex order if T is a directed path, else None.

    It depends on the tree alone, so it is computed once per tree object
    and kept in ``T.path_order``, beside the tree's search plan.
    """
    if T.path_order is None:
        T.path_order = _path_order(T)
    return list(T.path_order) if T.path_order else None


def _path_order(T: DirectedTree) -> tuple[int, ...]:
    if any(len(T.out_nbrs[v]) > 1 or len(T.in_nbrs[v]) > 1 for v in range(T.n)):
        return ()
    sources = [v for v in range(T.n) if not T.in_nbrs[v]]
    if len(sources) != 1:
        return ()
    order = [sources[0]]
    while T.out_nbrs[order[-1]]:
        order.append(T.out_nbrs[order[-1]][0])
    return tuple(order) if len(order) == T.n else ()


EXHAUSTIVE_MAX_N = 26


def portfolio_embed(
    T: DirectedTree, G: Tournament, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> EmbedOutcome:
    """Dispatch driver over the embedding stages that campaigns reach.

    Stages, in order: pigeonhole size check; directed-path specialisation
    along a Rédei path; one greedy pass; outbranching embedder (on T or on
    the reversed pair when T is an in-branching, hosts of at least 2|T|-2
    vertices); complete search within ``node_budget`` nodes when the host
    has at most ``EXHAUSTIVE_MAX_N`` vertices.  The first embedding wins
    and the outcome's notes name the winning stage; NotFound is only
    produced by a completed exhaustive search (or an impossible size).

    Each embedding is validated once: the greedy, outbranching and
    exhaustive stages check their own maps and raise
    :class:`GraphDefectError` on an invalid one, and the Rédei-path map,
    built here, is checked here.  Campaigns re-check independently.

    The lemma procedures are not stages: no campaign, benchmark workload
    or greedy-defeating host search reached an instance that they solved
    and the stages before them did not.
    """
    notes: list[str] = []
    nodes = 0
    if T.n > G.n:
        return EmbedOutcome(
            NOT_FOUND, None, 0, "portfolio", ("host smaller than tree",)
        )

    def won(phi: dict[int, int], stage: str) -> EmbedOutcome:
        notes.append(f"found by {stage}")
        return EmbedOutcome(FOUND, phi, nodes, f"portfolio/{stage}", tuple(notes))

    path = directed_path_order(T)
    if path is not None:
        spine = redei_path(G)
        phi = {path[i]: spine[i] for i in range(T.n)}
        if not is_valid_embedding(T, G, phi):
            raise GraphDefectError("portfolio stage redei-path produced an invalid map")
        return won(phi, "redei-path")

    out = greedy_embed(T, G)
    nodes += out.nodes
    if out.found:
        assert out.embedding is not None
        return won(dict(out.embedding), "greedy")
    notes.append("greedy: no admissible completion")

    if G.n >= 2 * T.n - 2:
        if T.is_outbranching():
            stage, ob = "outbranching", embed_outbranching(T, G)
        else:
            R = T.reverse()
            stage = "inbranching-by-reversal"
            ob = embed_outbranching(R, G.reverse()) if R.is_outbranching() else None
        if ob is not None:
            nodes += ob.nodes
            if ob.found:
                assert ob.embedding is not None
                return won(dict(ob.embedding), stage)
            notes.append(f"{stage}: failed")

    if G.n <= EXHAUSTIVE_MAX_N:
        full = exhaustive_embed(T, G, node_budget=node_budget)
        nodes += full.nodes
        if full.found:
            assert full.embedding is not None
            return won(dict(full.embedding), "exhaustive")
        if full.verdict == NOT_FOUND:
            notes.append("exhaustive search completed: no embedding exists")
            return EmbedOutcome(NOT_FOUND, None, nodes, "portfolio", tuple(notes))
        notes.append("exhaustive: node budget exhausted")
    else:
        notes.append(f"exhaustive: host exceeds cap {EXHAUSTIVE_MAX_N}")
    return EmbedOutcome(BUDGET_EXHAUSTED, None, nodes, "portfolio", tuple(notes))
