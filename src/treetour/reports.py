"""Batch verification campaigns with deterministic, machine-readable output.

A campaign runs one embed function over two pools, its trees and its
tournaments as objects taken straight from the generators, and each task
names a tree and a host of them by index.  A tree's search plan is built
once per process, since later campaigns over the same trees reuse them.
There is one runner: a loop over a contiguous index range that returns
packed records (distinct outcomes and, per task, an index into them and
the elapsed time), which the parent expands into
:class:`InstanceReport` named tuples in task order.  A serial campaign
runs it once over every task in process; a pooled one hands each worker
the pools once and then index ranges only, and expands the slices as they
arrive.  So output is identical at any worker count by construction;
reports serialize to JSON lines, and all but wall-clock timing is a
function of configuration and seeds.  On a shared 2-CPU x86 host,
``verify_sumner(4)`` (262,144 tasks) takes 4.0-4.1 s serially and 2.6-2.8 s
with two workers, and a repeated ``verify_sumner(5, "iso", "iso")``
(185,760 tasks) 2.5 s and 1.8 s (medians of series of five alternating
runs, ``BENCH_21.json``); with hosts sent through text and reports
pickled back, two workers took 7.7 s and 4.9 s against 7.1 s and 3.8 s
serially (``BENCH_20.json``).

There are two ways in, one per campaign:

* :func:`verify_sumner` — embed every oriented tree on ``n`` vertices
  into every tournament on ``2n−2`` vertices (exhaustive labelled, up to
  isomorphism, or seeded samples) and demand 100% Found;
* :func:`verify_sharpness` — certify by complete search that the inward
  star on ``n`` vertices does not embed in the rotational regular
  tournament on ``2n−3`` vertices, and that the path-with-fringes tree
  does not embed in its matching three-block host.
"""

from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from . import __version__
from .generate import (
    enumerate_oriented_trees,
    enumerate_tournaments,
    inward_star,
    near_extremal_pair,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
)
from .graphs import DirectedTree, GraphDefectError, Tournament, is_valid_embedding
from .search import FOUND, NOT_FOUND, exhaustive_embed
from .strategies import portfolio_embed

__all__ = [
    "InstanceReport",
    "CampaignSummary",
    "verify_sumner",
    "verify_sharpness",
    "reports_to_jsonl",
    "summary_to_json",
]


class InstanceReport(NamedTuple):
    """One task's outcome inside a campaign.

    ``instance`` is a reproducible descriptor (generator name and
    parameters); ``ok`` records whether the verdict matched the task's
    expectation.  ``elapsed`` is wall time in seconds and is the only
    field allowed to differ between identical runs.
    """

    instance: str
    verdict: str
    ok: bool
    embedding: tuple[tuple[int, int], ...] | None
    strategy: str | None
    elapsed: float
    seed: int | None
    version: str


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate of a campaign run.

    ``failures`` lists the descriptors of instances whose verdict did not
    match expectations; the exit code for a CLI wrapping this summary is
    0 when it is empty and 1 otherwise.  ``config`` echoes the complete
    configuration for provenance.
    """

    total: int
    verdict_counts: tuple[tuple[str, int], ...]
    failures: tuple[str, ...]
    elapsed: float
    config: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if sum(c for _, c in self.verdict_counts) != self.total:
            raise GraphDefectError("summary verdict counts do not sum to total")

    @property
    def all_ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.all_ok else 1


# ---------------------------------------------------------------------------
# Task execution.  A task is a tuple (descriptor, tree index, host index,
# seed).  A tree keeps its search plan (``DirectedTree.plan``), so trees are
# compiled once per process: the enumerated trees are cached by
# :mod:`treetour.generate`, and ``_tree_store`` holds the sampled trees of
# the last campaign run in this process, by ``(n, seed)``, so it never
# outgrows one campaign's trees.  ``_run_range`` reads the pools bound by
# ``_bind``: in process for a serial campaign, by each worker's initializer
# for a pooled one.  Its distinct outcomes are (verdict, strategy, embedding
# images in tree-vertex order) triples.

# Small slices let the parent expand the first ones while the workers run
# the rest, and leave a short tail once the last one is handed out.
_SLICES_PER_WORKER = 16

_tree_store: dict[tuple[int, int], DirectedTree] = {}
_pools: tuple = ()


class _InvalidEmbedding(Exception):
    """The re-check failed on the task whose index is ``args[0]``."""


def _bind(*pools) -> None:
    global _pools
    _pools = pools


def _run_range(lo: int, hi: int) -> tuple[list[tuple], array, array]:
    embed, trees, hosts, tree_of, host_of = _pools
    outcomes: dict[tuple, int] = {}
    codes, elapsed = array("I"), array("d")
    for k in range(lo, hi):
        T, G = trees[tree_of[k]], hosts[host_of[k]]
        start = time.perf_counter()
        outcome = embed(T, G)
        elapsed.append(time.perf_counter() - start)
        images = outcome.embedding
        if images is not None:
            if not is_valid_embedding(T, G, images):
                raise _InvalidEmbedding(k)
            images = tuple(map(images.__getitem__, range(T.n)))
        verdict = outcome.verdict
        strategy = outcome.strategy if verdict == FOUND else None
        codes.append(outcomes.setdefault((verdict, strategy, images), len(outcomes)))
    return list(outcomes), codes, elapsed


def _slices(pools: tuple, total: int, workers: int):
    """Yield ``(lo, hi, packed records)`` for each slice, in task order."""
    if workers == 1 or total < 2:
        # The pools are process state, as in a worker: one campaign at a
        # time per process.
        _bind(*pools)
        try:
            records = _run_range(0, total)
        finally:
            _bind()
        yield 0, total, records
        return
    # Imported here so that serial campaigns and pool workers do not load
    # the process-pool stack.
    from concurrent.futures import ProcessPoolExecutor

    size = -(-total // (workers * _SLICES_PER_WORKER))
    bounds = [(lo, min(lo + size, total)) for lo in range(0, total, size)]
    with ProcessPoolExecutor(workers, initializer=_bind, initargs=pools) as pool:
        futures = [pool.submit(_run_range, lo, hi) for lo, hi in bounds]
        for (lo, hi), future in zip(bounds, futures):
            yield lo, hi, future.result()


def _run(
    embed, expect: str, trees: list[DirectedTree], hosts: list[Tournament],
    tasks: list[tuple], workers: int, config: dict[str, str],
) -> tuple[list[InstanceReport], CampaignSummary]:
    """Run every task, serially or over a process pool, and summarize.

    Reports come back in task order whatever the worker count, so two runs
    with the same tasks differ only in the timing fields.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    start = time.perf_counter()
    tree_of = array("I", [task[1] for task in tasks])
    host_of = array("I", [task[2] for task in tasks])
    pools = (embed, trees, hosts, tree_of, host_of)
    reports = []
    try:
        for lo, hi, (outcomes, codes, elapsed) in _slices(pools, len(tasks), workers):
            # Equal outcomes share one embedding tuple.
            outcomes = [
                (verdict, verdict == expect, strategy,
                 None if images is None else tuple(enumerate(images)))
                for verdict, strategy, images in outcomes
            ]
            for (descriptor, _, _, seed), code, dt in zip(tasks[lo:hi], codes, elapsed):
                verdict, ok, strategy, embedding = outcomes[code]
                reports.append(InstanceReport(
                    descriptor, verdict, ok, embedding, strategy, dt, seed, __version__,
                ))
    except _InvalidEmbedding as exc:
        raise GraphDefectError(
            f"campaign task {tasks[exc.args[0]][0]} produced an invalid embedding"
        ) from None
    counts: dict[str, int] = {}
    failures = []
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
        if not r.ok:
            failures.append(r.instance)
    summary = CampaignSummary(
        total=len(reports),
        verdict_counts=tuple(sorted(counts.items())),
        failures=tuple(failures),
        elapsed=time.perf_counter() - start,
        config=tuple(sorted(config.items())),
    )
    return reports, summary


# ---------------------------------------------------------------------------
# Stock campaigns

LABELLED_HOST_CAP = 6
ISO_HOST_CAP = 8
SHARPNESS_HOST_CAP = 15


def _check_sample_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")


def _tree_pool(n: int, tree_source) -> list[tuple[str, DirectedTree]]:
    """(descriptor fragment, tree) pairs for the given source."""
    global _tree_store
    if tree_source == "iso":
        return [(f"tree=iso{i}", T) for i, T in enumerate(enumerate_oriented_trees(n))]
    if isinstance(tree_source, tuple) and tree_source[0] == "sample":
        _, count, seed = tree_source
        _check_sample_count(count)
        known = _tree_store
        _tree_store = {
            (n, s): known[n, s] if (n, s) in known else random_oriented_tree(n, s)
            for s in range(seed, seed + count)
        }
        return [(f"tree=seed{s}", T) for (_, s), T in _tree_store.items()]
    raise ValueError(f"unknown tree source {tree_source!r}")


def _tournament_pool(m: int, source) -> tuple[list[tuple[str, Tournament, int | None]], str]:
    """(descriptor fragment, tournament, seed) triples plus a label."""
    if source == "exhaustive":
        if m > LABELLED_HOST_CAP:
            raise ValueError(
                f"labelled exhaustive sweep capped at {LABELLED_HOST_CAP}-vertex "
                f"tournaments, got {m}"
            )
        pool = [
            (f"tournament=lab{i}", G, None)
            for i, G in enumerate(enumerate_tournaments(m, up_to_iso=False))
        ]
        return pool, "exhaustive"
    if source == "iso":
        if m > ISO_HOST_CAP:
            raise ValueError(
                f"isomorphism-class sweep capped at {ISO_HOST_CAP}-vertex "
                f"tournaments, got {m}"
            )
        pool = [
            (f"tournament=iso{i}", G, None)
            for i, G in enumerate(enumerate_tournaments(m, up_to_iso=True))
        ]
        return pool, "iso"
    if isinstance(source, tuple) and source[0] == "sample":
        _, count, seed = source
        _check_sample_count(count)
        pool = [
            (f"tournament=seed{s}", random_tournament(m, s), s)
            for s in range(seed, seed + count)
        ]
        return pool, f"sample({count},{seed})"
    raise ValueError(f"unknown tournament source {source!r}")


def verify_sumner(
    n: int,
    tournament_source="exhaustive",
    tree_source="iso",
    *,
    workers: int = 1,
) -> tuple[list[InstanceReport], CampaignSummary]:
    """Embed every n-vertex tree in every (2n−2)-vertex tournament.

    ``tournament_source`` is ``"exhaustive"`` (every labelled tournament;
    host ≤ 6), ``"iso"`` (one per isomorphism class; host ≤ 8) or
    ``("sample", count, seed)``.  ``tree_source`` is ``"iso"`` or
    ``("sample", count, seed)``; a sample count below 1 is a ValueError,
    since a campaign over no samples would pass having checked nothing.
    Every pair must come back Found — at these sizes the statement is a
    theorem, so any failure is a bug.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = max(2 * n - 2, 1)
    trees = _tree_pool(n, tree_source)
    hosts, source_label = _tournament_pool(m, tournament_source)
    tasks = [
        (f"sumner:n={n}:{t_frag}:{g_frag}", t, g, seed)
        for t, (t_frag, _) in enumerate(trees)
        for g, (g_frag, _, seed) in enumerate(hosts)
    ]
    config = {
        "campaign": "verify-sumner",
        "n": str(n),
        "tournament_source": source_label,
        "tree_source": str(tree_source),
        "trees": str(len(trees)),
        "tournaments": str(len(hosts)),
        "version": __version__,
    }
    return _run(
        portfolio_embed, FOUND, [T for _, T in trees], [G for _, G, _ in hosts],
        tasks, workers, config,
    )


def verify_sharpness(
    n_range,
    near_extremal_pairs=((6, 2), (7, 3), (8, 2)),
    *,
    workers: int = 1,
) -> tuple[list[InstanceReport], CampaignSummary]:
    """Certify the tightness constructions by complete search.

    For each ``n`` in ``n_range``, the inward star on ``n`` vertices must
    NOT embed in the rotational regular tournament on ``2n−3`` vertices;
    for each ``(n, ℓ)`` in ``near_extremal_pairs``, the path-with-fringes
    tree on ``n`` must not embed in its (2n−ℓ−3)-vertex three-block host.
    NotFound here is a certificate: the search is exhaustive.  A call
    that builds no task is a ValueError, since a campaign that certifies
    nothing would pass.
    """
    n_range, near_extremal_pairs = tuple(n_range), tuple(near_extremal_pairs)
    pairs = []
    for n in n_range:
        if n < 2:
            raise ValueError("sharpness cases need n >= 2")
        host_n = 2 * n - 3
        if host_n > SHARPNESS_HOST_CAP:
            raise ValueError(
                f"complete-search certification capped at {SHARPNESS_HOST_CAP} "
                f"host vertices, n = {n} gives {host_n}"
            )
        pairs.append((
            f"sharpness:instar:n={n}",
            inward_star(n),
            rotational_regular_tournament(host_n),
        ))
    for n, ell in near_extremal_pairs:
        T, G = near_extremal_pair(n, ell)
        if G.n > SHARPNESS_HOST_CAP:
            raise ValueError(
                f"complete-search certification capped at {SHARPNESS_HOST_CAP} "
                f"host vertices, (n,l) = ({n},{ell}) gives {G.n}"
            )
        pairs.append((f"sharpness:near-extremal:n={n}:l={ell}", T, G))
    if not pairs:
        raise ValueError(
            "no sharpness case to certify: the n range and the near-extremal "
            "pairs are both empty"
        )
    tasks = [(descriptor, i, i, None) for i, (descriptor, _, _) in enumerate(pairs)]
    config = {
        "campaign": "verify-sharpness",
        "n_range": ",".join(str(n) for n in n_range),
        "near_extremal": ";".join(f"{n},{l}" for n, l in near_extremal_pairs),
        "version": __version__,
    }
    return _run(
        exhaustive_embed, NOT_FOUND, [T for _, T, _ in pairs], [G for _, _, G in pairs],
        tasks, workers, config,
    )


# ---------------------------------------------------------------------------
# Serialization

def _report_dict(r: InstanceReport, include_timing: bool) -> dict:
    d = {
        "instance": r.instance,
        "verdict": r.verdict,
        "ok": r.ok,
        "embedding": (
            None if r.embedding is None else {str(k): v for k, v in r.embedding}
        ),
        "strategy": r.strategy,
        "seed": r.seed,
        "version": r.version,
    }
    if include_timing:
        d["elapsed"] = r.elapsed
    return d


def reports_to_jsonl(
    reports: list[InstanceReport], *, include_timing: bool = True
) -> str:
    """One JSON object per line, in campaign order."""
    return "\n".join(
        json.dumps(_report_dict(r, include_timing), sort_keys=True)
        for r in reports
    ) + ("\n" if reports else "")


def summary_to_json(
    summary: CampaignSummary, *, include_timing: bool = True
) -> str:
    d = {
        "total": summary.total,
        "verdict_counts": dict(summary.verdict_counts),
        "failures": list(summary.failures),
        "config": dict(summary.config),
        "all_ok": summary.all_ok,
    }
    if include_timing:
        d["elapsed"] = summary.elapsed
    return json.dumps(d, sort_keys=True, indent=2) + "\n"
