"""Randomized property suites that re-check every module's guarantees.

Each suite draws seeded instances, tests a stated invariant with an
independent recomputation (never by trusting the code under test), and
reports failures.  When a failing instance is a plain tree or tournament,
the suite shrinks it by vertex deletion and attaches the smallest failing
instance it can find.

All randomness flows from ``PropertyConfig.seed`` through per-suite
labelled streams, so a run is reproducible bit-for-bit.  ``scale``
multiplies every suite's case count (1.0 = the full counts used by the
acceptance gate); ``inject_embedding_defect`` is a negative control that
corrupts one embedding before validation and must make the
``search-agreement`` suite fail.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .expansion import (
    EXPANDER,
    NOT_EXPANDER,
    UNKNOWN,
    is_robust_outexpander,
    make_expander_checker,
    robust_out_neighbourhood,
    tournament_split,
)
from .formats import parse_tournament, parse_tree, write_tournament, write_tree
from .generate import (
    directed_path,
    enumerate_oriented_trees,
    enumerate_tournaments,
    inward_star,
    near_extremal_pair,
    outward_star,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    stream,
    transitive_tournament,
)
from .graphs import (
    DirectedTree,
    ParseError,
    Tournament,
    bit_list,
    bits,
    canonical_form,
    degrees,
    full_mask,
    is_valid_embedding,
    mask_of,
)
from .reports import CampaignSummary
from .search import (
    FOUND,
    NOT_FOUND,
    embed_outbranching,
    exhaustive_embed,
    forward_arc_count,
    greedy_embed,
    median_order,
    redei_path,
)
from .strategies import portfolio_embed
from .weights import core_tree, hanging_components, weight_profile

__all__ = [
    "PropertyConfig",
    "SuiteFailure",
    "SuiteResult",
    "available_suites",
    "run_property_suites",
    "shrink_tournament",
    "shrink_tree",
]


@dataclass(frozen=True)
class PropertyConfig:
    """Shared knobs for every suite.

    ``scale`` multiplies case counts (use small values for quick runs)
    and must be finite and positive; ``inject_embedding_defect``
    deliberately corrupts one embedding so that the harness's failure
    detection can itself be tested.
    """

    seed: int = 0
    scale: float = 1.0
    inject_embedding_defect: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.scale < float("inf"):
            raise ValueError(
                f"scale must be finite and positive, got {self.scale}"
            )


@dataclass(frozen=True)
class SuiteFailure:
    """One violated check: the case label, what failed, and (when the
    instance is a single tree/tournament) a shrunken reproduction."""

    case: str
    detail: str
    minimized: str | None = None


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: tuple[SuiteFailure, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Shrinking: reduce a failing instance by vertex deletion

def shrink_tournament(G: Tournament, fails) -> Tournament:
    """Greedy minimization: drop vertices while ``fails`` stays true."""
    improved = True
    while improved and G.n > 1:
        improved = False
        for v in range(G.n):
            H, _ = G.induced(full_mask(G.n) & ~(1 << v))
            try:
                still = fails(H)
            except Exception:
                still = False
            if still:
                G = H
                improved = True
                break
    return G


def _delete_leaf(T: DirectedTree, v: int) -> DirectedTree:
    relabel = [w - 1 if w > v else w for w in range(T.n)]
    arcs = [(relabel[a], relabel[b]) for a, b in T.arcs if a != v and b != v]
    return DirectedTree(T.n - 1, arcs)


def shrink_tree(T: DirectedTree, fails) -> DirectedTree:
    """Greedy minimization: delete leaves while ``fails`` stays true."""
    improved = True
    while improved and T.n > 1:
        improved = False
        for v in range(T.n):
            if sum(1 for _ in T.neighbours(v)) != 1:
                continue
            S = _delete_leaf(T, v)
            try:
                still = fails(S)
            except Exception:
                still = False
            if still:
                T = S
                improved = True
                break
    return T


class _Collector:
    """Accumulates suite failures, shrinking instances when possible."""

    def __init__(self, limit: int = 5):
        self.failures: list[SuiteFailure] = []
        self.limit = limit

    @property
    def full(self) -> bool:
        return len(self.failures) >= self.limit

    def fail(self, case, detail, *, tournament=None, tree=None, fails=None):
        if self.full:
            return
        minimized = None
        if fails is not None:
            if tournament is not None:
                minimized = write_tournament(shrink_tournament(tournament, fails))
            elif tree is not None:
                minimized = write_tree(shrink_tree(tree, fails))
        self.failures.append(SuiteFailure(str(case), detail, minimized))

    def check(self, cond, case, detail, **kw) -> bool:
        if not cond:
            self.fail(case, detail, **kw)
        return bool(cond)


_SUITES: dict[str, object] = {}


def _suite(name: str):
    def deco(fn):
        def run(config: PropertyConfig) -> SuiteResult:
            start = time.perf_counter()
            col = _Collector()
            try:
                cases = fn(config, col)
            except Exception as e:  # a crash is itself a suite failure
                col.fail("exception", f"{type(e).__name__}: {e}")
                cases = 0
            return SuiteResult(
                name, cases, tuple(col.failures), time.perf_counter() - start
            )

        run.__name__ = fn.__name__
        _SUITES[name] = run
        return run

    return deco


def _cases(base: int, config: PropertyConfig) -> int:
    return max(1, round(base * config.scale))


# ---------------------------------------------------------------------------
# Small structural helpers used by several suites

def _tree_components(T: DirectedTree, excluded: int) -> list[int]:
    """Masks of the connected components of T minus ``excluded``."""
    comps = []
    assigned = excluded
    for v in range(T.n):
        if (assigned >> v) & 1:
            continue
        comp = 1 << v
        stack = [v]
        while stack:
            x = stack.pop()
            for y in T.neighbours(x):
                if not ((excluded >> y) & 1) and not ((comp >> y) & 1):
                    comp |= 1 << y
                    stack.append(y)
        assigned |= comp
        comps.append(comp)
    return comps


def _connected(T: DirectedTree, mask: int) -> bool:
    members = bit_list(mask)
    if not members:
        return False
    seen = 1 << members[0]
    stack = [members[0]]
    while stack:
        x = stack.pop()
        for y in T.neighbours(x):
            if (mask >> y) & 1 and not ((seen >> y) & 1):
                seen |= 1 << y
                stack.append(y)
    return seen == mask


def _induced_subtree(T: DirectedTree, mask: int) -> DirectedTree:
    members = bit_list(mask)
    idx = {v: i for i, v in enumerate(members)}
    arcs = [
        (idx[a], idx[b])
        for a, b in T.arcs
        if (mask >> a) & 1 and (mask >> b) & 1
    ]
    return DirectedTree(len(members), arcs)


def _ball(T: DirectedTree, v: int, k: int) -> int:
    """Mask of the first k vertices of a breadth-first walk from v."""
    return mask_of(T.bfs_order(v)[:k])


def _random_perm(rng, n: int) -> list[int]:
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        p[i], p[j] = p[j], p[i]
    return p


def _permuted(G: Tournament, p: list[int]) -> Tournament:
    arcs = [(p[u], p[v]) for u in range(G.n) for v in bits(G.out_rows[u])]
    return Tournament.from_arcs(G.n, arcs)


def _outbranching_of(T: DirectedTree) -> DirectedTree:
    """Reorient every edge of T away from vertex 0."""
    parent = [-1] * T.n
    parent[0] = 0
    arcs = []
    for v in T.bfs_order(0):
        for w in T.neighbours(v):
            if parent[w] == -1:
                parent[w] = v
                arcs.append((v, w))
    return DirectedTree(T.n, arcs)


# ---------------------------------------------------------------------------
# Core graph types

@_suite("degree-identities")
def _degree_identities(config, col):
    rng = stream(config.seed, "props:degree-identities")
    cases = _cases(1000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 1 + rng.next_below(40)
        G = random_tournament(n, rng.next64())
        degs = degrees(G)
        col.check(
            sum(o for o, _ in degs) == n * (n - 1) // 2,
            f"case{i}:n={n}",
            "out-degrees do not sum to the number of arcs",
            tournament=G,
            fails=lambda H: sum(o for o, _ in degrees(H))
            != H.n * (H.n - 1) // 2,
        )
        col.check(
            all(o + s == n - 1 for o, s in degs),
            f"case{i}:n={n}",
            "out-degree plus in-degree misses n-1 at some vertex",
            tournament=G,
            fails=lambda H: any(
                o + s != H.n - 1 for o, s in degrees(H)
            ),
        )
    return cases


@_suite("reverse-involution")
def _reverse_involution(config, col):
    rng = stream(config.seed, "props:reverse-involution")
    cases = _cases(1000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 2 + rng.next_below(4)
        G = random_tournament(2 * n - 2, rng.next64())
        T = random_oriented_tree(n, rng.next64())
        col.check(
            G.reverse().reverse().out_rows == G.out_rows,
            f"case{i}",
            "tournament double reversal changed the arc set",
        )
        col.check(
            sorted(T.reverse().reverse().arcs) == sorted(T.arcs),
            f"case{i}",
            "tree double reversal changed the arc set",
        )
        out = exhaustive_embed(T, G)
        if out.verdict == FOUND:
            phi = out.embedding
            col.check(
                is_valid_embedding(T, G, phi)
                and is_valid_embedding(T.reverse(), G.reverse(), phi),
                f"case{i}",
                "embedding validity not preserved by reversing both graphs",
            )
            bad = dict(phi)
            bad[1] = bad[0]
            col.check(
                not is_valid_embedding(T, G, bad)
                and not is_valid_embedding(T.reverse(), G.reverse(), bad),
                f"case{i}",
                "non-injective map accepted as an embedding",
            )
    return cases


@_suite("canonical-relabelling")
def _canonical_relabelling(config, col):
    rng = stream(config.seed, "props:canonical-relabelling")
    cases = _cases(300, config)
    for i in range(cases):
        if col.full:
            return i
        n = 1 + rng.next_below(8)
        G = random_tournament(n, rng.next64())
        key = canonical_form(G)
        for _ in range(10):
            H = _permuted(G, _random_perm(rng, n))
            col.check(
                canonical_form(H) == key,
                f"case{i}:n={n}",
                "canonical form changed under relabelling",
                tournament=G,
            )
    col.check(
        canonical_form(transitive_tournament(5))
        != canonical_form(rotational_regular_tournament(5)),
        "fixed:transitive-vs-rotational",
        "canonical form fails to separate non-isomorphic tournaments",
    )
    return cases


@_suite("format-round-trip")
def _format_round_trip(config, col):
    rng = stream(config.seed, "props:format-round-trip")
    cases = _cases(1000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 1 + rng.next_below(24)
        G = random_tournament(n, rng.next64())
        col.check(
            parse_tournament(write_tournament(G)).out_rows == G.out_rows,
            f"case{i}:n={n}",
            "tournament does not survive a write/parse round trip",
            tournament=G,
        )
        if n >= 2:
            T = random_oriented_tree(n, rng.next64())
            col.check(
                sorted(parse_tree(write_tree(T)).arcs) == sorted(T.arcs),
                f"case{i}:n={n}",
                "tree does not survive a write/parse round trip",
                tree=T,
            )
    for label, text in (("empty", ""), ("garbage", "not a header\n1 2\n")):
        try:
            parse_tournament(text)
        except ParseError:
            pass
        else:
            col.fail(f"fixed:{label}", "malformed tournament text was accepted")
    return cases


# ---------------------------------------------------------------------------
# Tree weights and cores

_DELTAS = (2, 3, 5, 10)


@_suite("core-tree-props")
def _core_tree_props(config, col):
    rng = stream(config.seed, "props:core-tree-props")
    cases = _cases(10_000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 5 + rng.next_below(296)
        delta = _DELTAS[rng.next_below(len(_DELTAS))]
        T = random_oriented_tree(n, rng.next64())
        ct = core_tree(T, delta)
        case = f"case{i}:n={n}:delta={delta}"
        size = ct.vertices.bit_count()
        # (i) nonempty connected subtree whose arc list is exactly the
        # induced arcs
        col.check(size >= 1, case, "core is empty", tree=T,
                  fails=lambda S, d=delta: core_tree(S, d).size < 1)
        col.check(
            _connected(T, ct.vertices) and len(ct.arcs) == size - 1,
            case,
            "core vertex set is not a subtree",
            tree=T,
        )
        col.check(
            all(
                (ct.vertices >> a) & 1 and (ct.vertices >> b) & 1
                and (a, b) in T.arcs
                for a, b in ct.arcs
            ),
            case,
            "core arcs are not induced arcs of the tree",
            tree=T,
        )
        # (ii) both end-weights of every core edge are >= n/delta
        prof = weight_profile(T)
        col.check(
            all(
                delta * prof.edge_weight(a, b) >= n
                and delta * prof.edge_weight(b, a) >= n
                for a, b in ct.arcs
            ),
            case,
            "a core edge has an end-weight below n/delta",
            tree=T,
        )
        # (iii) max degree of the core
        deg = {v: 0 for v in bit_list(ct.vertices)}
        for a, b in ct.arcs:
            deg[a] += 1
            deg[b] += 1
        col.check(
            all(d <= delta for d in deg.values()),
            case,
            "core max degree exceeds delta",
            tree=T,
        )
        # (iv) components hanging off the core have <= n/delta vertices
        col.check(
            all(
                delta * c.bit_count() <= n
                for c in _tree_components(T, ct.vertices)
            ),
            case,
            "a component outside the core exceeds n/delta vertices",
            tree=T,
        )
    return cases


@_suite("core-delete-leaf")
def _core_delete_leaf(config, col):
    rng = stream(config.seed, "props:core-delete-leaf")
    cases = _cases(10_000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 2 + rng.next_below(199)
        delta = _DELTAS[rng.next_below(len(_DELTAS))]
        T = random_oriented_tree(n, rng.next64())
        leaves = [
            v for v in range(n) if sum(1 for _ in T.neighbours(v)) == 1
        ]
        x = leaves[rng.next_below(len(leaves))]
        before = core_tree(T, delta).size
        after = core_tree(_delete_leaf(T, x), delta).size if n > 1 else 0
        col.check(
            after >= before - 1,
            f"case{i}:n={n}:delta={delta}:leaf={x}",
            f"core shrank from {before} to {after} after one leaf deletion",
            tree=T,
        )
    return cases


@_suite("two-core-trees")
def _two_core_trees(config, col):
    rng = stream(config.seed, "props:two-core-trees")
    cases = _cases(10_000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 10 + rng.next_below(141)
        delta = _DELTAS[rng.next_below(len(_DELTAS))]
        T = random_oriented_tree(n, rng.next64())
        m1 = _ball(T, rng.next_below(n), 1 + rng.next_below(n))
        m2 = _ball(T, rng.next_below(n), 1 + rng.next_below(n))
        union = m1 | m2
        # instantiate the bound with the tightest valid parameters
        gamma_n = n - union.bit_count()
        a1 = core_tree(_induced_subtree(T, m1), delta).size
        a2 = core_tree(_induced_subtree(T, m2), delta).size
        alpha_n = max(a1, a2)
        bound = Fraction(gamma_n) + 2 * alpha_n + Fraction(2 * n, delta)
        col.check(
            core_tree(T, delta).size <= bound,
            f"case{i}:n={n}:delta={delta}",
            "core of the whole tree exceeds the two-subtree bound",
            tree=T,
        )
    return cases


@_suite("core-monotonicity")
def _core_monotonicity(config, col):
    rng = stream(config.seed, "props:core-monotonicity")
    cases = _cases(10_000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 5 + rng.next_below(196)
        T = random_oriented_tree(n, rng.next64())
        d_small = _DELTAS[rng.next_below(len(_DELTAS) - 1)]
        d_big = d_small + 1 + rng.next_below(12)
        lo = core_tree(T, d_small).vertices
        hi = core_tree(T, d_big).vertices
        col.check(
            lo & ~hi == 0,
            f"case{i}:n={n}:{d_small}<={d_big}",
            "core with the smaller parameter is not contained in the larger",
            tree=T,
            fails=lambda S, a=d_small, b=d_big: core_tree(S, a).vertices
            & ~core_tree(S, b).vertices
            != 0,
        )
    return cases


@_suite("weight-identities")
def _weight_identities(config, col):
    rng = stream(config.seed, "props:weight-identities")
    cases = _cases(2000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 2 + rng.next_below(149)
        T = random_oriented_tree(n, rng.next64())
        prof = weight_profile(T)
        case = f"case{i}:n={n}"
        col.check(
            all(
                prof.edge_weight(a, b) + prof.edge_weight(b, a) == n
                for a, b in T.arcs
            ),
            case,
            "the two side-weights of an edge do not sum to n",
            tree=T,
        )
        col.check(
            all(
                prof.in_weight[v] + prof.out_weight[v] == n - 1
                for v in range(n)
            ),
            case,
            "in-weight plus out-weight misses n-1 at some vertex",
            tree=T,
        )
        C = _ball(T, rng.next_below(n), 1 + rng.next_below(n - 1))
        comps = [(h.comp, h.direction) for h in hanging_components(T, C)]
        masks = [c for c, _ in comps]
        covered = 0
        ok_disjoint = True
        for m in masks:
            if m & covered:
                ok_disjoint = False
            covered |= m
        col.check(
            ok_disjoint and covered == full_mask(n) & ~C,
            case,
            "components against the subtree do not partition the rest",
            tree=T,
        )
        ok_dirs = True
        for m, d in comps:
            connectors = [
                (a, b)
                for a, b in T.arcs
                if ((m >> a) & 1 and (C >> b) & 1)
                or ((C >> a) & 1 and (m >> b) & 1)
            ]
            if len(connectors) != 1 or not _connected(T, m):
                ok_dirs = False
                break
            a, b = connectors[0]
            if d != ("in" if (C >> b) & 1 else "out"):
                ok_dirs = False
                break
        col.check(
            ok_dirs,
            case,
            "a component's attachment arc or direction tag is wrong",
            tree=T,
        )
    return cases


# ---------------------------------------------------------------------------
# Search primitives

@_suite("search-agreement")
def _search_agreement(config, col):
    rng = stream(config.seed, "props:search-agreement")
    cases = _cases(10_000, config)
    injected = False
    for i in range(cases):
        if col.full:
            return i
        n = 2 + rng.next_below(5)
        m = n + rng.next_below(n - 1) if n >= 2 else n
        T = random_oriented_tree(n, rng.next64())
        G = random_tournament(m, rng.next64())
        exh = exhaustive_embed(T, G)
        grd = greedy_embed(T, G)
        case = f"case{i}:n={n}:m={m}"
        col.check(
            exh.verdict in (FOUND, NOT_FOUND),
            case,
            f"exhaustive search returned verdict {exh.verdict!r} on a tiny instance",
        )
        if exh.verdict == FOUND:
            phi = dict(exh.embedding)
            if config.inject_embedding_defect and not injected and n >= 2:
                phi[1] = phi[0]
                injected = True
            col.check(
                is_valid_embedding(T, G, phi),
                case,
                "exhaustive search returned an invalid embedding",
            )
        if grd.verdict == FOUND:
            col.check(
                is_valid_embedding(T, G, grd.embedding),
                case,
                "greedy search returned an invalid embedding",
            )
            col.check(
                exh.verdict == FOUND,
                case,
                "greedy found an embedding where exhaustive search found none",
            )
    return cases


@_suite("redei-validity")
def _redei_validity(config, col):
    rng = stream(config.seed, "props:redei-validity")
    cases = _cases(2000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 1 + rng.next_below(64)
        G = random_tournament(n, rng.next64())
        p = redei_path(G)
        col.check(
            sorted(p) == list(range(n))
            and all(G.has_arc(p[j], p[j + 1]) for j in range(n - 1)),
            f"case{i}:n={n}",
            "returned order is not a Hamiltonian directed path",
            tournament=G,
            fails=lambda H: not all(
                H.has_arc(*e)
                for e in zip(redei_path(H), redei_path(H)[1:])
            ),
        )
    return cases


def _feedback_violation(G: Tournament, order: list[int]) -> tuple[int, int] | None:
    """First pair i < j where order[i] beats fewer than half of
    order[i+1..j], or order[j] is beaten by fewer than half of
    order[i..j-1]; None if there is none.  A fixed point of single-vertex
    moves has no such pair.  Recounted arc by arc."""
    n = len(order)
    for i in range(n):
        wins = 0
        for j in range(i + 1, n):
            wins += G.has_arc(order[i], order[j])
            if 2 * wins < j - i:
                return i, j
    for j in range(n):
        beaten = 0
        for i in range(j - 1, -1, -1):
            beaten += G.has_arc(order[i], order[j])
            if 2 * beaten < j - i:
                return i, j
    return None


def _second_neighbourhood_gap(G: Tournament, v: int) -> int:
    """|N⁺⁺(v)| − |N⁺(v)|, recounted arc by arc: N⁺⁺(v) is the set of
    vertices at distance exactly two from v."""
    first = [u for u in range(G.n) if G.has_arc(v, u)]
    second = {
        w
        for u in first
        for w in range(G.n)
        if w != v and G.has_arc(u, w) and not G.has_arc(v, w)
    }
    return len(second) - len(first)


@_suite("median-order-sanity")
def _median_order_sanity(config, col):
    rng = stream(config.seed, "props:median-order-sanity")
    cases = _cases(300, config)
    for i in range(cases):
        if col.full:
            return i
        n = 1 + rng.next_below(24)
        G = random_tournament(n, rng.next64())
        order, fc = median_order(G, "local")
        case = f"case{i}:n={n}"
        col.check(
            sorted(order) == list(range(n)),
            case,
            "median order is not a permutation",
            tournament=G,
        )
        col.check(
            fc == forward_arc_count(G, order),
            case,
            "reported forward-arc count disagrees with a recount",
            tournament=G,
        )
        col.check(
            _feedback_violation(G, order) is None,
            case,
            "local median order breaks the feedback property",
            tournament=G,
        )
        col.check(
            _second_neighbourhood_gap(G, order[-1]) >= 0,
            case,
            "last vertex of the local median order has |N⁺⁺| < |N⁺|",
            tournament=G,
        )
        col.check(
            all(
                fc >= forward_arc_count(G, _random_perm(rng, n))
                for _ in range(10)
            ),
            case,
            "a random order beats the local median order",
            tournament=G,
        )
        if n <= 7:
            best = max(
                forward_arc_count(G, list(p))
                for p in itertools.permutations(range(n))
            )
            _, fc_exact = median_order(G, "exact")
            col.check(
                fc_exact == best,
                case,
                "exact median order misses the brute-force optimum",
                tournament=G,
            )
    return cases


@_suite("outbranching-embeds")
def _outbranching_embeds(config, col):
    rng = stream(config.seed, "props:outbranching-embeds")
    cases = _cases(300, config)
    for i in range(cases):
        if col.full:
            return i
        n = 2 + rng.next_below(7)
        T = _outbranching_of(random_oriented_tree(n, rng.next64()))
        G = random_tournament(2 * n - 2, rng.next64())
        out = embed_outbranching(T, G)
        case = f"case{i}:n={n}"
        col.check(T.is_outbranching(), case, "generator built a non-outbranching")
        col.check(
            out.verdict == FOUND and is_valid_embedding(T, G, out.embedding),
            case,
            "outbranching embedding missing or invalid at guaranteed size",
        )
    return cases


# ---------------------------------------------------------------------------
# Portfolio driver

@_suite("reversal-duality")
def _reversal_duality(config, col):
    rng = stream(config.seed, "props:reversal-duality")
    cases = _cases(500, config)
    for i in range(cases):
        if col.full:
            return i
        n = 2 + rng.next_below(4)
        T = random_oriented_tree(n, rng.next64())
        G = random_tournament(2 * n - 2, rng.next64())
        fwd = portfolio_embed(T, G)
        rev = portfolio_embed(T.reverse(), G.reverse())
        case = f"case{i}:n={n}"
        col.check(
            fwd.verdict == FOUND and rev.verdict == FOUND,
            case,
            "portfolio missed an embedding at guaranteed sizes",
        )
        if fwd.verdict == FOUND:
            col.check(
                is_valid_embedding(T.reverse(), G.reverse(), fwd.embedding),
                case,
                "embedding stops being valid after reversing both graphs",
            )
    return cases


# ---------------------------------------------------------------------------
# Expanders and decompositions

@_suite("expander-rotational")
def _expander_rotational(config, col):
    runs = 0
    for n in (11, 13, 15, 17, 19):
        runs += 1
        v = is_robust_outexpander(
            rotational_regular_tournament(n),
            Fraction(1, n),
            Fraction(1, 5),
            "exact",
        )
        col.check(
            v.status == EXPANDER,
            f"rotational:n={n}",
            f"exact check returned {v.status} for a rotational tournament",
        )
    for n in (10, 14, 20):
        runs += 1
        G = transitive_tournament(n)
        v = is_robust_outexpander(G, Fraction(1, 10), Fraction(1, 5), "exact")
        ok = v.status == NOT_EXPANDER and v.witness is not None
        if ok:
            S = v.witness
            t = -(-v.mu.numerator * n // v.mu.denominator)
            rn = robust_out_neighbourhood(G, S, v.mu)
            ok = rn.bit_count() < S.bit_count() + t
        col.check(
            ok,
            f"transitive:n={n}",
            "transitive tournament not refuted with a checkable witness",
        )
    return runs


@_suite("split-postconditions")
def _split_postconditions(config, col):
    rng = stream(config.seed, "props:split-postconditions")
    cases = _cases(1000, config)
    mu = nu = Fraction(1, 20)
    eta = Fraction(1, 50)
    gamma = Fraction(1, 5)
    checker = make_expander_checker(exact_limit=14, sample_budget=0)
    for i in range(cases):
        if col.full:
            return i
        n = 10 + rng.next_below(51)
        G = random_tournament(n, rng.next64())
        res = tournament_split(G, mu, nu, eta, gamma, expander_checker=checker)
        case = f"case{i}:n={n}"
        covered = 0
        ok_disjoint = True
        for p in res.pieces:
            if p & covered:
                ok_disjoint = False
            covered |= p
        col.check(ok_disjoint, case, "pieces are not pairwise disjoint",
                  tournament=G)
        col.check(
            covered & res.deleted == 0,
            case,
            "a deleted vertex still appears in a piece",
            tournament=G,
        )
        col.check(
            covered.bit_count() >= (1 - gamma) * n,
            case,
            "less than (1-gamma)n of the tournament is covered",
            tournament=G,
        )
        # every backward arc between pieces is recorded, and recorded arcs
        # go from a later piece to an earlier one
        idx = {}
        for j, p in enumerate(res.pieces):
            for v in bits(p):
                idx[v] = j
        recorded = {
            (u, v)
            for u, v in res.bad_edges
            if u in idx and v in idx and idx[u] != idx[v]
        }
        actual = set()
        for j, p in enumerate(res.pieces):
            earlier = 0
            for q in res.pieces[:j]:
                earlier |= q
            for u in bits(p):
                for v in bits(G.out_rows[u] & earlier):
                    actual.add((u, v))
        col.check(
            recorded == actual,
            case,
            "recorded backward arcs disagree with a recount",
            tournament=G,
        )
        # per-vertex cap on backward arcs
        cap = gamma * n
        loads: dict[int, int] = {}
        for u, v in actual:
            loads[u] = loads.get(u, 0) + 1
            loads[v] = loads.get(v, 0) + 1
        col.check(
            all(load <= cap for load in loads.values()),
            case,
            "a vertex carries more than gamma*n backward arcs",
            tournament=G,
        )
        # classifications
        ok_class = True
        for j, p in enumerate(res.pieces):
            label = res.classification[j]
            if label == "small":
                if p.bit_count() >= gamma * n:
                    ok_class = False
            elif label == "expander":
                H, _ = G.induced(p)
                degs = degrees(H)
                if degs and min(o for o, _ in degs) < eta * n:
                    ok_class = False
                if res.verdicts[j].status != EXPANDER:
                    ok_class = False
            elif label != "unknown":
                ok_class = False
        col.check(ok_class, case, "piece classification is inconsistent",
                  tournament=G)
    return cases


@_suite("witness-revalidation")
def _witness_revalidation(config, col):
    rng = stream(config.seed, "props:witness-revalidation")
    cases = _cases(300, config)
    for i in range(cases):
        if col.full:
            return i
        exact = i % 2 == 0
        if exact:
            n = 4 + rng.next_below(11)
            mode = "exact"
        else:
            n = 20 + rng.next_below(61)
            mode = "sampled"
        G = random_tournament(n, rng.next64())
        mu = Fraction(1, 10 + rng.next_below(10))
        nu = Fraction(1, 5)
        v = is_robust_outexpander(G, mu, nu, mode, 200, seed=rng.next64())
        case = f"case{i}:n={n}:{mode}"
        if exact:
            col.check(
                v.status != UNKNOWN,
                case,
                "exact mode failed to decide a small instance",
            )
        else:
            col.check(
                v.status != EXPANDER,
                case,
                "sampled mode issued an expander certificate it cannot back",
            )
        if v.status == NOT_EXPANDER:
            S = v.witness
            t = -(-mu.numerator * n // mu.denominator)
            lo = -(-nu.numerator * n // nu.denominator)
            hi = (1 - nu) * n
            size = S.bit_count()
            rn = robust_out_neighbourhood(G, S, mu)
            col.check(
                lo <= size and size <= hi and rn.bit_count() < size + t,
                case,
                "witness does not actually refute expansion",
                tournament=G,
            )
        elif v.status == EXPANDER and exact:
            t = -(-mu.numerator * n // mu.denominator)
            lo = -(-nu.numerator * n // nu.denominator)
            ok = True
            for _ in range(30):
                size = lo + rng.next_below(max(1, n - 2 * lo + 1))
                S = mask_of(_random_perm(rng, n)[:size])
                if (1 - nu) * n < S.bit_count():
                    continue
                rn = robust_out_neighbourhood(G, S, mu)
                if rn.bit_count() < S.bit_count() + t:
                    ok = False
                    break
            col.check(
                ok,
                case,
                "a sampled subset refutes a certified expander",
                tournament=G,
            )
    return cases


# ---------------------------------------------------------------------------
# Generators

@_suite("generator-invariants")
def _generator_invariants(config, col):
    rng = stream(config.seed, "props:generator-invariants")
    cases = _cases(1000, config)
    for i in range(cases):
        if col.full:
            return i
        n = 2 + rng.next_below(40)
        seed = rng.next64()
        G = random_tournament(n, seed)
        col.check(
            G.n == n and G.out_rows == random_tournament(n, seed).out_rows,
            f"case{i}",
            "random tournament is not a pure function of (n, seed)",
        )
        T = random_oriented_tree(n, seed)
        col.check(
            T.n == n
            and len(T.arcs) == n - 1
            and _connected(T, full_mask(n))
            and sorted(T.arcs) == sorted(random_oriented_tree(n, seed).arcs),
            f"case{i}",
            "random tree is not a connected deterministic tree",
        )
    fixed_ok = (
        all(
            set(inward_star(k).arcs) == {(v, 0) for v in range(1, k)}
            for k in range(2, 8)
        )
        and all(
            set(outward_star(k).arcs) == {(0, v) for v in range(1, k)}
            for k in range(2, 8)
        )
        and all(
            directed_path(k).arcs == tuple((v, v + 1) for v in range(k - 1))
            for k in range(2, 8)
        )
        and all(
            transitive_tournament(k).has_arc(a, b)
            for k in range(2, 9)
            for a in range(k)
            for b in range(a + 1, k)
        )
    )
    col.check(fixed_ok, "fixed:shapes", "a fixed-shape generator is wrong")
    col.check(
        all(
            len({o for o, _ in degrees(rotational_regular_tournament(m))})
            == 1
            for m in (3, 5, 7, 9, 11)
        ),
        "fixed:rotational",
        "rotational tournament is not regular",
    )
    col.check(
        all(
            near_extremal_pair(n, ell)[0].n == n
            and near_extremal_pair(n, ell)[1].n == 2 * n - ell - 3
            for n, ell in ((6, 2), (7, 3), (8, 2), (10, 4))
        ),
        "fixed:near-extremal",
        "near-extremal construction has wrong sizes",
    )
    return cases


@_suite("enumeration-counts")
def _enumeration_counts(config, col):
    runs = 0
    for n, want in ((1, 1), (2, 2), (3, 8), (4, 64)):
        runs += 1
        got = sum(1 for _ in enumerate_tournaments(n, up_to_iso=False))
        col.check(
            got == want,
            f"labelled:n={n}",
            f"expected {want} labelled tournaments, enumerated {got}",
        )
    for n, want in ((1, 1), (2, 1), (3, 2), (4, 4), (5, 12), (6, 56)):
        runs += 1
        got = sum(1 for _ in enumerate_tournaments(n, up_to_iso=True))
        col.check(
            got == want,
            f"classes:n={n}",
            f"expected {want} tournament classes, enumerated {got}",
        )
    for n, want in ((1, 1), (2, 1), (3, 3), (4, 8), (5, 27), (6, 91)):
        runs += 1
        got = sum(1 for _ in enumerate_oriented_trees(n))
        col.check(
            got == want,
            f"trees:n={n}",
            f"expected {want} oriented trees, enumerated {got}",
        )
    return runs


# ---------------------------------------------------------------------------
# Entry point

def available_suites() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_property_suites(
    names=None, config: PropertyConfig | None = None
) -> tuple[list[SuiteResult], CampaignSummary]:
    """Run the named suites (all by default) and fold into a summary.

    Raises ValueError for an unknown suite name (usage error).  The
    summary counts suites: total = suites run, verdicts pass/fail, and
    one failure line per failing suite.
    """
    config = config or PropertyConfig()
    names = list(_SUITES) if names is None else list(names)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite names {unknown}; available: {sorted(_SUITES)}"
        )
    start = time.perf_counter()
    results = [_SUITES[name](config) for name in names]
    counts = {"pass": 0, "fail": 0}
    failures = []
    for r in results:
        if r.ok:
            counts["pass"] += 1
        else:
            first = r.failures[0]
            failures.append(
                f"{r.name}: {first.case} — {first.detail}"
                f" ({len(r.failures)} recorded)"
            )
            counts["fail"] += 1
    summary = CampaignSummary(
        total=len(results),
        verdict_counts=tuple(
            sorted((k, v) for k, v in counts.items() if v)
        ),
        failures=tuple(failures),
        elapsed=time.perf_counter() - start,
        config=tuple(
            sorted(
                {
                    "campaign": "property-suites",
                    "seed": str(config.seed),
                    "scale": str(config.scale),
                    "inject_embedding_defect": str(
                        config.inject_embedding_defect
                    ),
                    "suites": ",".join(names),
                }.items()
            )
        ),
    )
    return results, summary
