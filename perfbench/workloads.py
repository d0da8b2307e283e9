"""The benchmark's workloads: seeded inputs, operations and their checks.

A workload hands out rounds.  Round ``r`` of seed ``s`` is a list of
:class:`Op` whose inputs are a pure function of ``(s, r)``; every random
choice comes from the library's documented ``stream(seed, label)`` PRNG.
Each op calls exactly one public library function (looked up on the
``treetour`` package at call time, so traced bindings are seen) and
carries a check that re-verifies the result with :mod:`check` and
returns the record that enters the verdict digest.

Every op is expected to succeed: a raised exception, an unexpected
verdict or a failed re-check counts as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import treetour as tt
from treetour.generate import stream

from check import embedding_error, path_error, split_error


@dataclass(frozen=True)
class Outcome:
    """A checked op: verdicts attempted and failed, first error, digest record."""

    attempted: int
    failed: int
    error: str | None
    record: Any


@dataclass(frozen=True)
class Op:
    """One library call, its re-check, and the inputs it was built from."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]
    inputs: tuple = ()


def raised(result: Any) -> str | None:
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    return None


def _shuffled(rng, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _single_verdict(label, tree, host, result, *, path: bool = False) -> Outcome:
    """Check one embedding outcome of ``tree`` into ``host``."""
    error = raised(result)
    record = [label, tree.n, host.n, None, None, None]
    if error is None:
        emb = result.embedding
        record[3:] = [result.verdict, result.strategy, None if emb is None else sorted(emb.items())]
        if result.verdict != "found":
            error = f"verdict {result.verdict}, expected found"
        else:
            error = embedding_error(tree.n, tree.arcs, host.out_rows, emb)
        if error is None and path:
            error = path_error(host.out_rows, [emb[v] for v in range(tree.n)])
    return Outcome(1, int(error is not None), error and f"{label}: {error}", record)


# ---------------------------------------------------------------------------
# campaign


class Campaign:
    """Closed loop of sampled Sumner campaigns at n = 5.

    Each op is ``verify_sumner(5, ("sample", K, base), "iso")`` with one
    worker: all 27 five-vertex trees against K seeded 8-vertex hosts.
    The hosts of every op in every round are distinct.
    """

    name = "campaign"
    why = (
        "thousands of tiny tasks that share their trees, "
        "so per-task overhead (parsing, core tree) dominates"
    )
    TREE_N = 5
    HOSTS_PER_OP = 20
    OPS_PER_ROUND = 40

    params = {
        "call": "verify_sumner(5, ('sample', K, base), 'iso', workers=1)",
        "trees": 27,
        "host_n": 8,
        "hosts_per_op": HOSTS_PER_OP,
        "ops_per_round": OPS_PER_ROUND,
    }

    def prepare(self) -> None:
        self.trees = [(T.n, T.arcs) for T in tt.enumerate_oriented_trees(self.TREE_N)]

    def round(self, seed: int, r: int) -> list[Op]:
        ops = []
        for j in range(self.OPS_PER_ROUND):
            base = seed * 10**9 + (r * self.OPS_PER_ROUND + j) * self.HOSTS_PER_OP
            ops.append(Op(f"sumner:{base}", self._call(base), self._checker(base), (base,)))
        return ops

    def _call(self, base: int) -> Callable[[], Any]:
        source = ("sample", self.HOSTS_PER_OP, base)
        return lambda: tt.verify_sumner(self.TREE_N, source, "iso", workers=1)

    def _checker(self, base: int) -> Callable[[Any], Outcome]:
        def check(result: Any) -> Outcome:
            expected = [
                (f"sumner:n={self.TREE_N}:tree=iso{i}:tournament=seed{s}", i, s)
                for i in range(len(self.trees))
                for s in range(base, base + self.HOSTS_PER_OP)
            ]
            error = raised(result)
            if error is None:
                reports, summary = result
                if len(reports) != len(expected) or summary.total != len(expected):
                    error = (
                        f"{len(reports)} reports and a summary of {summary.total}, "
                        f"expected {len(expected)}"
                    )
            if error is not None:
                return Outcome(len(expected), len(expected), f"sumner:{base}: {error}", None)
            hosts = {
                s: tt.random_tournament(2 * self.TREE_N - 2, s).out_rows
                for s in range(base, base + self.HOSTS_PER_OP)
            }
            failed, first, record = 0, None, []
            for rep, (instance, i, s) in zip(reports, expected):
                emb = None if rep.embedding is None else dict(rep.embedding)
                record.append([rep.instance, rep.verdict, rep.strategy, rep.embedding])
                if rep.instance != instance:
                    why = f"report {rep.instance} where {instance} was due"
                elif rep.verdict != "found" or not rep.ok:
                    why = f"verdict {rep.verdict}, expected found"
                else:
                    n, arcs = self.trees[i]
                    why = embedding_error(n, arcs, hosts[s], emb)
                if why is not None:
                    failed += 1
                    first = first or f"{instance}: {why}"
            if summary.all_ok != all(rep.ok for rep in reports):
                first = f"sumner:{base}: summary all_ok={summary.all_ok} disagrees with the reports"
                failed = len(expected)
            return Outcome(len(expected), failed, first, record)

        return check


# ---------------------------------------------------------------------------
# large


def random_outbranching(n: int, seed: int) -> tt.DirectedTree:
    """Random recursive outbranching on ``n`` vertices with shuffled labels."""
    rng = stream(seed, "perfbench:outbranching")
    label = _shuffled(rng, n)
    arcs = [(label[rng.next_below(i)], label[i]) for i in range(1, n)]
    return tt.DirectedTree(n, arcs)


def relabelled(G: tt.Tournament, seed: int) -> tt.Tournament:
    """``G`` with its vertices renamed by a seeded permutation."""
    sigma = _shuffled(stream(seed, "perfbench:relabel"), G.n)
    rows = [0] * G.n
    for u, row in enumerate(G.out_rows):
        image = 0
        for v in range(G.n):
            if (row >> v) & 1:
                image |= 1 << sigma[v]
        rows[sigma[u]] = image
    return tt.Tournament(G.n, rows)


class Large:
    """Single large embeddings, one op each, interleaved by kind.

    Per round, ten of each: a random tree (n=200) into a random host on
    2n-2 vertices; the same kind of tree into a relabelled rotational host
    on 2n-1 vertices; a random outbranching (n in 30..34) into a random
    host on 2n-2 vertices via ``embed_outbranching``; a directed path
    (n in 1400..1600) via ``portfolio_embed`` into, alternately, the
    transitive host (the Redei worst case) and a random host.
    """

    name = "large"
    why = (
        "large inputs with no sharing: median order and Redei insertion "
        "set the tail, greedy at scale sets the median"
    )
    KINDS_PER_ROUND = 10
    TREE_N = 200

    params = {
        "per_round": (
            "10 x (tree200->random398, tree200->rotational399, "
            "outbranching30..34->random2n-2, path1400..1600->transitive|random)"
        ),
        "tree_n": TREE_N,
        "outbranching_n": "30..34",
        "path_n": "1400..1600",
    }

    def prepare(self) -> None:
        pass

    def round(self, seed: int, r: int) -> list[Op]:
        rng = stream(seed, f"perfbench:large:{r}")
        ops = []
        n = self.TREE_N
        for i in range(self.KINDS_PER_ROUND):
            T = tt.random_oriented_tree(n, rng.next64())
            G = tt.random_tournament(2 * n - 2, rng.next64())
            ops.append(self._embed(f"tree{n}->random{G.n}", T, G))
            T = tt.random_oriented_tree(n, rng.next64())
            G = relabelled(tt.rotational_regular_tournament(2 * n - 1), rng.next64())
            ops.append(self._embed(f"tree{n}->rotational{G.n}", T, G))
            m = 30 + rng.next_below(5)
            T = random_outbranching(m, rng.next64())
            G = tt.random_tournament(2 * m - 2, rng.next64())
            ops.append(self._outbranching(f"outbranching{m}->random{G.n}", T, G))
            m = 1400 + rng.next_below(201)
            P = tt.generate.directed_path(m)
            if i % 2 == 0:
                G, kind = tt.transitive_tournament(m), "transitive"
            else:
                G, kind = tt.random_tournament(m, rng.next64()), "random"
            ops.append(self._embed(f"path{m}->{kind}{m}", P, G, path=True))
        return ops

    @staticmethod
    def _embed(label: str, T, G, *, path: bool = False) -> Op:
        return Op(
            label,
            lambda: tt.portfolio_embed(T, G),
            lambda res: _single_verdict(label, T, G, res, path=path),
            (T, G),
        )

    @staticmethod
    def _outbranching(label: str, T, G) -> Op:
        return Op(
            label,
            lambda: tt.embed_outbranching(T, G),
            lambda res: _single_verdict(label, T, G, res),
            (T, G),
        )


# ---------------------------------------------------------------------------
# decompose

MU = NU = Fraction(1, 20)
ETA = Fraction(1, 50)
GAMMA = Fraction(1, 5)
EXACT_LIMIT = 20
SAMPLE_BUDGET = 1000


def planted_non_expander(n: int, blocks: int, seed: int) -> tt.Tournament:
    """Transitive blow-up over ``blocks`` near-equal seeded random blocks.

    Vertices are dealt to blocks by a seeded shuffle; every arc between
    two blocks points from the earlier block to the later one, and arcs
    inside a block are seeded coin flips.
    """
    rng = stream(seed, "perfbench:planted")
    block = [0] * n
    for pos, v in enumerate(_shuffled(rng, n)):
        block[v] = pos * blocks // n
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if block[u] != block[v]:
                forward = block[u] < block[v]
            else:
                forward = bool(rng.next64() & 1)
            if forward:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return tt.Tournament(n, rows)


def _split_call(G) -> Callable[[], Any]:
    return lambda: tt.tournament_split(
        G, MU, NU, ETA, GAMMA,
        tt.make_expander_checker(EXACT_LIMIT, SAMPLE_BUDGET, 0),
    )


class Decompose:
    """Expander decompositions with the CLI defaults.

    Per round: seeded random hosts at n = 20 and 24, three planted
    non-expanders at each of n = 30 (2 blocks) and n = 40 (3 blocks), and
    one at n = 60 (4 blocks).  The cheap planted hosts come three at a time
    so that the median op has enough samples to be steady.  Blocks stay at
    20 vertices or fewer: a random block above that size splits like a
    random host of that size, which the defect probe covers.

    The defect probe (traced runs only, not timed, not counted as ops)
    splits three random hosts at each of n = 30, 40 and 60, where
    ``tournament_split`` currently raises ``GraphDefectError`` on many
    seeds; the traced count ``expansion.tournament_split.failed`` reports
    how many did.
    """

    name = "decompose"
    why = (
        "the only workload that reaches expansion: exact subset sweeps, "
        "sampled checks and real non-expander splits"
    )
    RANDOM_N = (20, 24)
    PLANTED = ((30, 2, 3), (40, 3, 3), (60, 4, 1))  # (n, blocks, hosts per round)
    PROBE_N = (30, 40, 60)
    PROBE_HOSTS = 3

    params = {
        "call": "tournament_split(G, 1/20, 1/20, 1/50, 1/5, make_expander_checker(20, 1000, 0))",
        "random_n": list(RANDOM_N),
        "planted_n_blocks_count": [list(p) for p in PLANTED],
        "probe_random_n": list(PROBE_N),
        "probe_hosts_per_n": PROBE_HOSTS,
    }

    def prepare(self) -> None:
        pass

    def round(self, seed: int, r: int) -> list[Op]:
        rng = stream(seed, f"perfbench:decompose:{r}")
        hosts = [(f"random{n}", tt.random_tournament(n, rng.next64())) for n in self.RANDOM_N]
        hosts += [
            (f"planted{n}x{k}", planted_non_expander(n, k, rng.next64()))
            for n, k, count in self.PLANTED
            for _ in range(count)
        ]
        return [Op(label, _split_call(G), self._checker(label, G), (G,)) for label, G in hosts]

    def probe(self, seed: int) -> list[tuple[str, Callable[[], Any]]]:
        rng = stream(seed, "perfbench:decompose:probe")
        return [
            (f"random{n}", _split_call(tt.random_tournament(n, rng.next64())))
            for n in self.PROBE_N
            for _ in range(self.PROBE_HOSTS)
        ]

    @staticmethod
    def _checker(label: str, G) -> Callable[[Any], Outcome]:
        def check(result: Any) -> Outcome:
            error = raised(result)
            record = [label, G.n, None]
            if error is None:
                record[2:] = [
                    list(result.pieces),
                    list(result.classification),
                    result.deleted,
                    sorted(result.bad_edges),
                ]
                error = split_error(
                    G.out_rows, result.pieces, result.classification, result.deleted, GAMMA
                )
            return Outcome(1, int(error is not None), error and f"{label}: {error}", record)

        return check


WORKLOADS = {w.name: w for w in (Campaign, Large, Decompose)}
