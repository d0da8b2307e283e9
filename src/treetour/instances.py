"""Deterministic builders for strategy instances.

The ``random_*_instance`` builders produce inputs that satisfy every
hypothesis of the corresponding strategy *by construction* — the property
harness runs the strategies over thousands of these and certifies the
contracts (validity, occupancy bounds, landing counts).  The ``break_*``
mutators take a built instance and damage exactly one named hypothesis,
certifying that the validators are sound and name the right condition.

All randomness flows through the package's seeded generator streams, so
every instance is a pure function of its seed (and, for one-by-one, its
variant).  The sizes and parameters the builders draw within are the
module constants below.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .generate import Xoshiro256StarStar, random_oriented_tree, stream
from .graphs import (
    DirectedTree,
    Tournament,
    as_fraction,
    bit_list,
    bits,
    first_bits,
    full_mask,
    lsb,
    mask_of,
)
from .strategies import OneByOneInstance, RoundTheBackInstance, TwoSetInstance
from .weights import tree_components

__all__ = [
    "random_round_the_back_instance",
    "random_one_by_one_instance",
    "random_two_set_instance",
    "break_round_the_back",
    "break_one_by_one",
    "break_two_set",
    "flip_arcs",
]

# largest branch and branch count of a round-the-back tree
ROUND_THE_BACK_MAX_D = 3
ROUND_THE_BACK_MAX_BRANCHES = 4
# largest hanging component, component count and seeded-subtree size
ONE_BY_ONE_MAX_D = 3
ONE_BY_ONE_MAX_COMPS = 4
ONE_BY_ONE_CORE_SIZE = 3
# largest forest component, components per forest, and the α, γ of the
# two-set hypotheses
TWO_SET_MAX_COMP = 4
TWO_SET_COMPS_PER_FOREST = 3
TWO_SET_ALPHA = Fraction(1, 4)
TWO_SET_GAMMA = Fraction(1, 8)


def flip_arcs(G: Tournament, pairs: list[tuple[int, int]]) -> Tournament:
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


def _attach_branch(
    arcs: list[tuple[int, int]],
    branch: DirectedTree,
    offset: int,
) -> None:
    arcs.extend((offset + u, offset + v) for u, v in branch.arcs)


def _random_subtree(rng: Xoshiro256StarStar, size: int) -> DirectedTree:
    if size == 1:
        return DirectedTree(1, [])
    return random_oriented_tree(size, rng.next64())


def _fill_random(
    rng: Xoshiro256StarStar,
    n: int,
    decided: dict[tuple[int, int], bool],
) -> Tournament:
    """Build a tournament from partially decided pairs, coin-flipping the rest.

    ``decided[(i, j)] = True`` (i < j) means the arc i -> j is present.
    """
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            choice = decided.get((i, j))
            if choice is None:
                choice = rng.next_below(2) == 0
            arcs.append((i, j) if choice else (j, i))
    return Tournament.from_arcs(n, arcs)


# ---------------------------------------------------------------------------
# Round-the-back instances

def random_round_the_back_instance(seed: int) -> RoundTheBackInstance:
    """A hypothesis-satisfying round-the-back instance.

    The tree hangs 1..``ROUND_THE_BACK_MAX_BRANCHES`` branches (the
    largest has d <= ``ROUND_THE_BACK_MAX_D`` vertices) off
    an in-degree-0 root; the host gives the prescribed vertex all of N as
    out-neighbours and wires every N-vertex to 6d in- and 6d
    out-neighbours inside X.
    """
    rng = stream(seed, "instance:round-the-back")
    d = 1 + rng.next_below(ROUND_THE_BACK_MAX_D)
    n_branches = 1 + rng.next_below(ROUND_THE_BACK_MAX_BRANCHES)
    sizes = [d] + [1 + rng.next_below(d) for _ in range(n_branches - 1)]
    arcs: list[tuple[int, int]] = []
    offset = 1
    for size in sizes:
        branch = _random_subtree(rng, size)
        _attach_branch(arcs, branch, offset)
        arcs.append((0, offset + rng.next_below(size)))
        offset += size
    T = DirectedTree(offset, arcs)

    n_size = max(T.n - 1, 3 * d) + rng.next_below(3)
    x_size = 12 * d + rng.next_below(4)
    host_n = 1 + n_size + x_size
    n_ids = list(range(1, 1 + n_size))
    x_ids = list(range(1 + n_size, host_n))
    decided: dict[tuple[int, int], bool] = {}
    for u in n_ids:
        decided[(0, u)] = True  # v -> N
    for u in n_ids:
        for idx, x in enumerate(x_ids):
            pair = (min(u, x), max(u, x))
            if idx < 6 * d:
                decided[pair] = False  # arc x -> u: x is an in-neighbour
            elif idx < 12 * d:
                decided[pair] = True  # arc u -> x: x is an out-neighbour
    G = _fill_random(rng, host_n, decided)
    return RoundTheBackInstance(
        T=T, t=0, G=G, v=0, N=mask_of(n_ids), X=mask_of(x_ids)
    )


def break_round_the_back(
    inst: RoundTheBackInstance, which: str
) -> RoundTheBackInstance:
    """Damage exactly the named hypothesis of a valid instance."""
    if which == "(root)":
        u, v = next((a, b) for a, b in inst.T.arcs if a == inst.t)
        arcs = [(b, a) if (a, b) == (u, v) else (a, b) for a, b in inst.T.arcs]
        return replace(inst, T=DirectedTree(inst.T.n, arcs))
    if which == "(N-size)":
        needed = inst.N.bit_count() - (inst.T.n - 1) + 1
        moved = first_bits(inst.N, max(needed, 1))
        return replace(inst, N=inst.N & ~moved, X=inst.X | moved)
    if which == "(N-out)":
        u = lsb(inst.N)
        return replace(inst, G=flip_arcs(inst.G, [(inst.v, u)]))
    if which == "(X-capacity)":
        d = max(
            (c.bit_count() for c in tree_components(inst.T, full_mask(inst.T.n) & ~(1 << inst.t))),
            default=0,
        )
        G = inst.G
        flips: list[tuple[int, int]] = []
        qual = []
        for u in bits(inst.N):
            if (
                (G.in_rows[u] & inst.X).bit_count() >= 6 * d
                and (G.out_rows[u] & inst.X).bit_count() >= 6 * d
            ):
                qual.append(u)
        for u in qual[3 * d - 1 :]:
            out_x = bit_list(G.out_rows[u] & inst.X)
            excess = len(out_x) - 6 * d + 1
            flips.extend((u, x) for x in out_x[:excess])
        return replace(inst, G=flip_arcs(G, flips))
    raise ValueError(f"unknown hypothesis {which!r}")


# ---------------------------------------------------------------------------
# One-by-one instances

def random_one_by_one_instance(seed: int, variant: str = "a") -> OneByOneInstance:
    """A hypothesis-satisfying one-by-one instance of the given variant.

    The host mirrors the subtree on its first vertices (the seed is the
    identity) and surrounds it with forced degree blocks: enough
    S-dominated and S-dominating vertices inside N' and inside N \\ N' to
    meet conditions (i)-(iv) for every S-vertex.  For variant c all
    hanging components attach in one direction and only that direction's
    blocks are forced — the opposite degree conditions genuinely fail.
    """
    if variant not in ("a", "b", "c"):
        raise ValueError(f"unknown variant {variant!r}")
    rng = stream(seed, f"instance:one-by-one:{variant}")
    c_size = ONE_BY_ONE_CORE_SIZE
    core = _random_subtree(rng, c_size)
    arcs = list(core.arcs)
    d = 1 + rng.next_below(ONE_BY_ONE_MAX_D)
    n_comps = 1 + rng.next_below(ONE_BY_ONE_MAX_COMPS)
    sizes = [d] + [1 + rng.next_below(d) for _ in range(n_comps - 1)]
    if variant == "c":
        all_direction = "out" if rng.next_below(2) == 0 else "in"
    offset = c_size
    for size in sizes:
        branch = _random_subtree(rng, size)
        _attach_branch(arcs, branch, offset)
        anchor = rng.next_below(c_size)
        hook = offset + rng.next_below(size)
        if variant == "c":
            direction = all_direction
        else:
            direction = "out" if rng.next_below(2) == 0 else "in"
        arcs.append((anchor, hook) if direction == "out" else (hook, anchor))
        offset += size
    T = DirectedTree(offset, arcs)
    m = T.n - c_size

    if variant == "b":
        r = rng.next_below(m + 1)
    else:
        r = None
    need_n = m + 2 * d
    need_p = (r if r is not None else m) + 2 * d

    s_ids = list(range(c_size))
    decided: dict[tuple[int, int], bool] = {}
    for u, v in core.arcs:
        decided[(min(u, v), max(u, v))] = u < v

    blocks: list[tuple[int, str]] = []  # (size, role); roles: out/in forced, free
    if variant == "c":
        if all_direction == "out":
            blocks = [(need_p, "s-out"), (need_n, "s-out"), (2, "s-in")]
        else:
            blocks = [(need_p, "s-in"), (need_n, "s-in"), (2, "s-out")]
    else:
        blocks = [
            (need_p, "s-out"),
            (need_p, "s-in"),
            (need_n, "s-out"),
            (need_n, "s-in"),
        ]
    nxt = c_size
    n_prime_ids: list[int] = []
    n_ids: list[int] = []
    for bi, (size, role) in enumerate(blocks):
        ids = list(range(nxt, nxt + size))
        nxt += size
        n_ids.extend(ids)
        if variant == "b" and bi < 2:
            n_prime_ids.extend(ids)
        for u in ids:
            for s in s_ids:
                pair = (min(s, u), max(s, u))
                decided[pair] = (role == "s-out") == (s < u)
    pad = rng.next_below(3)
    n_ids.extend(range(nxt, nxt + pad))
    nxt += pad
    G = _fill_random(rng, nxt, decided)
    seed_map = {i: i for i in range(c_size)}
    return OneByOneInstance(
        T=T,
        T_c=full_mask(c_size),
        seed=seed_map,
        G=G,
        S=mask_of(s_ids),
        N=mask_of(n_ids),
        variant=variant,
        N_prime=mask_of(n_prime_ids) if variant == "b" else None,
        r=r,
    )


def break_one_by_one(inst: OneByOneInstance, which: str) -> OneByOneInstance:
    """Damage exactly the named hypothesis of a valid instance."""
    G, m = inst.G, inst.T.n - inst.T_c.bit_count()
    d = max(
        (c.bit_count() for c in tree_components(inst.T, full_mask(inst.T.n) & ~inst.T_c)),
        default=0,
    )

    v = next(bits(inst.S))
    if which in ("(i)", "(ii)", "(iii)", "(iv)"):
        region = inst.N if which in ("(i)", "(ii)") else (inst.N_prime or inst.N)
        bound = (m if which in ("(i)", "(ii)") else (inst.r or m)) + 2 * d
        outward = which in ("(i)", "(iii)")
        row = G.out_rows[v] if outward else G.in_rows[v]
        have = bit_list(row & region)
        excess = len(have) - bound + 1
        if excess <= 0:
            raise ValueError(f"cannot break {which}: no slack")
        return replace(inst, G=flip_arcs(G, [(v, u) for u in have[:excess]]))
    if which == "(direction)":
        comp_arcs = [
            (a, b)
            for a, b in inst.T.arcs
            if ((inst.T_c >> a) & 1) != ((inst.T_c >> b) & 1)
        ]
        if len(comp_arcs) < 2:
            raise ValueError(
                "cannot break (direction): a single hanging component "
                "always shares one direction"
            )
        a, b = comp_arcs[0]
        arcs = [(y, x) if (x, y) == (a, b) else (x, y) for x, y in inst.T.arcs]
        return replace(inst, T=DirectedTree(inst.T.n, arcs))
    if which == "(seed)":
        bad = dict(inst.seed)
        k = next(iter(bad))
        bad[k] = next(bits(inst.N))
        return replace(inst, seed=bad)
    raise ValueError(f"unknown hypothesis {which!r}")


# ---------------------------------------------------------------------------
# Two-set instances

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

    arcs: list[tuple[int, int]] = []
    first = _random_subtree(rng, plus_sizes[0])
    arcs.extend(first.arcs)
    plus_mask = full_mask(plus_sizes[0])
    minus_mask = 0
    offset = plus_sizes[0]
    queue = [("minus", s) for s in minus_sizes] + [
        ("plus", s) for s in plus_sizes[1:]
    ]
    # interleave so a plus component always has a minus vertex to hang from
    queue.sort(key=lambda kv: 0 if kv[0] == "minus" else 1)
    for kind, size in queue:
        branch = _random_subtree(rng, size)
        _attach_branch(arcs, branch, offset)
        comp_ids = list(range(offset, offset + size))
        hook = comp_ids[rng.next_below(size)]
        if kind == "minus":
            hosts = bit_list(plus_mask)
            anchor = hosts[rng.next_below(len(hosts))]
            arcs.append((hook, anchor))
            minus_mask |= mask_of(comp_ids)
        else:
            hosts = bit_list(minus_mask)
            anchor = hosts[rng.next_below(len(hosts))]
            arcs.append((anchor, hook))
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
    decided: dict[tuple[int, int], bool] = {}
    for y in y_ids:
        for z in z_ids:
            decided[(y, z)] = False  # z -> y
    first_ids = bit_list(full_mask(plus_sizes[0]))
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
    G = _fill_random(rng, host_n, decided)
    seed_map = {first_ids[i]: i for i in range(plus_sizes[0])}
    return TwoSetInstance(
        T=T,
        F_minus=minus_mask,
        F_plus=plus_mask,
        G=G,
        Y=mask_of(y_ids),
        Z=mask_of(z_ids),
        gamma=g,
        alpha=a,
        seed=seed_map,
    )


def break_two_set(inst: TwoSetInstance, which: str) -> TwoSetInstance:
    """Damage exactly the named hypothesis of a valid instance."""
    if which == "(cross-direction)":
        a, b = next(
            (a, b)
            for a, b in inst.T.arcs
            if ((inst.F_minus >> a) & 1) and ((inst.F_plus >> b) & 1)
        )
        arcs = [(y, x) if (x, y) == (a, b) else (x, y) for x, y in inst.T.arcs]
        return replace(inst, T=DirectedTree(inst.T.n, arcs))
    if which == "(Y-size)":
        seed_images = mask_of(inst.seed.values())
        movable = inst.Y & ~seed_images
        needed = inst.Y.bit_count() - _min_y(inst) + 1
        moved = first_bits(movable, max(needed, 1))
        return replace(inst, Y=inst.Y & ~moved, Z=inst.Z | moved)
    if which == "(Z-size)":
        needed = inst.Z.bit_count() - _min_z(inst) + 1
        moved = first_bits(inst.Z, max(needed, 1))
        return replace(inst, Z=inst.Z & ~moved, Y=inst.Y | moved)
    if which == "(Y-out-gamma)":
        g = as_fraction(inst.gamma)
        cap_frac = g * inst.T.n
        cap = cap_frac.numerator // cap_frac.denominator
        y = max(bits(inst.Y))
        zs = bit_list(inst.Z)[: cap + 1]
        flips = [(y, z) for z in zs if not inst.G.has_arc(y, z)]
        return replace(inst, G=flip_arcs(inst.G, flips))
    if which == "(Z-in-gamma)":
        g = as_fraction(inst.gamma)
        cap_frac = g * inst.T.n
        cap = cap_frac.numerator // cap_frac.denominator
        z = max(bits(inst.Z))
        # add in-arcs from Y vertices that still have out-cap headroom, so
        # the flips cannot push any of them over their own cap first
        ys = sorted(
            (
                y
                for y in bits(inst.Y)
                if inst.G.has_arc(z, y)
                and (inst.G.out_rows[y] & inst.Z).bit_count() < cap
            ),
        )[: cap + 1]
        if len(ys) < cap + 1:
            raise ValueError(
                "cannot break (Z-in-gamma) alone: every spare arc into the "
                "target would trip a Y vertex's own out-cap first"
            )
        flips = [(z, y) for y in ys]
        return replace(inst, G=flip_arcs(inst.G, flips))
    if which == "(seed)":
        bad = dict(inst.seed)
        k = next(iter(bad))
        bad[k] = next(bits(inst.Z))
        return replace(inst, seed=bad)
    raise ValueError(f"unknown hypothesis {which!r}")


def _min_y(inst: TwoSetInstance) -> int:
    sizes = sorted((c.bit_count() for c in tree_components(inst.T, inst.F_plus)), reverse=True)
    t2 = sizes[1] if len(sizes) > 1 else 0
    an = as_fraction(inst.alpha) * inst.T.n
    return inst.F_plus.bit_count() + t2 + -(-an.numerator // an.denominator)


def _min_z(inst: TwoSetInstance) -> int:
    an = as_fraction(inst.alpha) * inst.T.n
    return 2 * inst.F_minus.bit_count() + -(-an.numerator // an.denominator)
