"""Batch verification campaigns with deterministic, machine-readable output.

A campaign is an ordered list of tasks naming a tree and a tournament in
portable text.  It runs in contiguous chunks (one serially, slices in a
process pool).  A chunk parses each distinct host text once; a tree text
is parsed, and its search plan built, once per process, since each chunk
reuses the trees of the chunk before it.  :class:`InstanceReport` records
merge in task order, so output is identical regardless of scheduling;
reports serialize to JSON lines, and all but wall-clock timing is a
function of configuration and seeds.

The two stock campaigns:

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
from dataclasses import dataclass

from . import __version__
from .formats import parse_tournament, parse_tree, write_tournament, write_tree
from .generate import (
    enumerate_oriented_trees,
    enumerate_tournaments,
    inward_star,
    near_extremal_pair,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
)
from .graphs import DirectedTree, GraphDefectError, is_valid_embedding
from .search import NOT_FOUND, exhaustive_embed
from .strategies import portfolio_embed

__all__ = [
    "InstanceReport",
    "CampaignSummary",
    "run_campaign",
    "verify_sumner",
    "verify_sharpness",
    "reports_to_jsonl",
    "summary_to_json",
]


@dataclass(frozen=True)
class InstanceReport:
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
# Task execution.  A task is a picklable tuple (kind, descriptor, expectation,
# tree text, host text, seed).  A chunk parses each distinct host text once.
# Trees are compiled once per process: a parsed tree keeps its search plan
# (``DirectedTree.plan``), and ``_chunk_trees`` holds the trees of the last
# chunk run in this process, by text.  Each chunk starts from them and then
# replaces them with its own, so the store never outgrows one chunk's trees,
# and a text that fails to parse is never stored.  Successive campaigns over
# the same trees, and the contiguous tree-major slices a pool worker
# receives, parse and plan each tree once.

_chunk_trees: dict[str, DirectedTree] = {}


def _run_chunk(tasks: list[tuple]) -> list[InstanceReport]:
    global _chunk_trees
    known, trees, hosts, reports = _chunk_trees, {}, {}, []
    for kind, descriptor, expect, tree_text, host_text, seed in tasks:
        if kind not in ("portfolio", "exhaustive"):
            raise ValueError(f"unknown task kind {kind!r}")
        if tree_text not in trees:
            T = known.get(tree_text)
            trees[tree_text] = parse_tree(tree_text) if T is None else T
        if host_text not in hosts:
            hosts[host_text] = parse_tournament(host_text)
        T, G = trees[tree_text], hosts[host_text]
        start = time.perf_counter()
        if kind == "portfolio":
            outcome = portfolio_embed(T, G)
        else:
            outcome = exhaustive_embed(T, G)
        elapsed = time.perf_counter() - start
        embedding = None
        if outcome.embedding is not None:
            if not is_valid_embedding(T, G, outcome.embedding):
                raise GraphDefectError(
                    f"campaign task {descriptor} produced an invalid embedding"
                )
            embedding = tuple(sorted(outcome.embedding.items()))
        reports.append(InstanceReport(
            instance=descriptor,
            verdict=outcome.verdict,
            ok=outcome.verdict == expect,
            embedding=embedding,
            strategy=outcome.strategy if outcome.verdict == "found" else None,
            elapsed=elapsed,
            seed=seed,
            version=__version__,
        ))
    _chunk_trees = trees
    return reports


def run_campaign(
    tasks: list[tuple],
    *,
    workers: int = 1,
    config: dict[str, str] | None = None,
) -> tuple[list[InstanceReport], CampaignSummary]:
    """Run tasks (serially or via a process pool) and summarize.

    Reports come back in task order whatever the worker count, so two
    runs with the same tasks differ only in the timing fields.  A worker
    count below 1 is a ValueError.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    start = time.perf_counter()
    if workers > 1 and len(tasks) > 1:
        size = max(1, len(tasks) // (workers * 8))
        slices = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        # Imported here so that serial campaigns and pool workers do not
        # load the process-pool stack.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = [r for chunk in pool.map(_run_chunk, slices) for r in chunk]
    else:
        reports = _run_chunk(tasks)
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
        config=tuple(sorted((config or {}).items())),
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


def _tree_pool(n: int, tree_source) -> list[tuple[str, str]]:
    """(descriptor fragment, tree text) pairs for the given source."""
    if tree_source == "iso":
        return [
            (f"tree=iso{i}", write_tree(T))
            for i, T in enumerate(enumerate_oriented_trees(n))
        ]
    if isinstance(tree_source, tuple) and tree_source[0] == "sample":
        _, count, seed = tree_source
        _check_sample_count(count)
        return [
            (f"tree=seed{seed + i}", write_tree(random_oriented_tree(n, seed + i)))
            for i in range(count)
        ]
    raise ValueError(f"unknown tree source {tree_source!r}")


def _tournament_pool(m: int, source) -> tuple[list[tuple[str, str, int | None]], str]:
    """(descriptor fragment, tournament text, seed) triples plus a label."""
    if source == "exhaustive":
        if m > LABELLED_HOST_CAP:
            raise ValueError(
                f"labelled exhaustive sweep capped at {LABELLED_HOST_CAP}-vertex "
                f"tournaments, got {m}"
            )
        pool = [
            (f"tournament=lab{i}", write_tournament(G), None)
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
            (f"tournament=iso{i}", write_tournament(G), None)
            for i, G in enumerate(enumerate_tournaments(m, up_to_iso=True))
        ]
        return pool, "iso"
    if isinstance(source, tuple) and source[0] == "sample":
        _, count, seed = source
        _check_sample_count(count)
        pool = [
            (
                f"tournament=seed{seed + i}",
                write_tournament(random_tournament(m, seed + i)),
                seed + i,
            )
            for i in range(count)
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
    tasks = []
    for t_frag, t_text in trees:
        for g_frag, g_text, seed in hosts:
            descriptor = f"sumner:n={n}:{t_frag}:{g_frag}"
            tasks.append(("portfolio", descriptor, "found", t_text, g_text, seed))
    config = {
        "campaign": "verify-sumner",
        "n": str(n),
        "tournament_source": source_label,
        "tree_source": str(tree_source),
        "trees": str(len(trees)),
        "tournaments": str(len(hosts)),
        "version": __version__,
    }
    return run_campaign(tasks, workers=workers, config=config)


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
    tasks = []
    for n in n_range:
        if n < 2:
            raise ValueError("sharpness cases need n >= 2")
        host_n = 2 * n - 3
        if host_n > SHARPNESS_HOST_CAP:
            raise ValueError(
                f"complete-search certification capped at {SHARPNESS_HOST_CAP} "
                f"host vertices, n = {n} gives {host_n}"
            )
        tasks.append(
            (
                "exhaustive",
                f"sharpness:instar:n={n}",
                NOT_FOUND,
                write_tree(inward_star(n)),
                write_tournament(rotational_regular_tournament(host_n)),
                None,
            )
        )
    for n, ell in near_extremal_pairs:
        T, G = near_extremal_pair(n, ell)
        if G.n > SHARPNESS_HOST_CAP:
            raise ValueError(
                f"complete-search certification capped at {SHARPNESS_HOST_CAP} "
                f"host vertices, (n,l) = ({n},{ell}) gives {G.n}"
            )
        tasks.append(
            (
                "exhaustive",
                f"sharpness:near-extremal:n={n}:l={ell}",
                NOT_FOUND,
                write_tree(T),
                write_tournament(G),
                None,
            )
        )
    if not tasks:
        raise ValueError(
            "no sharpness case to certify: the n range and the near-extremal "
            "pairs are both empty"
        )
    config = {
        "campaign": "verify-sharpness",
        "n_range": ",".join(str(n) for n in n_range),
        "near_extremal": ";".join(f"{n},{l}" for n, l in near_extremal_pairs),
        "version": __version__,
    }
    return run_campaign(tasks, workers=workers, config=config)


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
