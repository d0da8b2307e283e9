"""Acceptance gate: exhaustive small-scale verification plus randomized suites.

The headline claim — every oriented tree on n vertices embeds in every
tournament on 2n-2 vertices — is asymptotic, so it cannot be checked as
stated.  This gate checks everything that is finitely checkable:

* exhaustive embedding sweeps at small n (labelled hosts at n <= 4,
  isomorphism classes at n = 5);
* complete-search certificates that the bound 2n-2 is tight (inward
  stars and the near-extremal path-with-leaves family);
* the structured outbranching embedder at full coverage for n = 4;
* Hamiltonian-path construction speed at n = 2000;
* the randomized property suites at their full advertised case counts;
* byte-level determinism of campaign re-runs.

Each test states its tolerance (runtime or failure budget) inline.
Expect roughly ten minutes of wall time for the whole module.
"""

import time

from treetour import (
    PropertyConfig,
    embed_outbranching,
    is_valid_embedding,
    run_property_suites,
    verify_sharpness,
    verify_sumner,
)
from treetour.generate import (
    enumerate_oriented_trees,
    enumerate_tournaments,
    random_tournament,
)
from treetour.reports import reports_to_jsonl, summary_to_json
from treetour.search import redei_path


def outbranchings(n):
    """Oriented trees on n vertices in which every arc points away from
    a single root, i.e. every vertex has in-degree at most one."""
    for T in enumerate_oriented_trees(n):
        indeg = [0] * T.n
        for _, v in T.arcs:
            indeg[v] += 1
        if all(d <= 1 for d in indeg):
            yield T


# ---------------------------------------------------------------------------
# A1: exhaustive sweep, labelled hosts, n in {3, 4}.  Budget: 5 minutes.


def test_every_tree_on_up_to_four_vertices_embeds_in_every_labelled_host():
    start = time.perf_counter()
    _, s3 = verify_sumner(3)
    assert s3.all_ok and s3.total == 3 * 64
    _, s4 = verify_sumner(4)
    assert s4.all_ok and s4.total == 8 * 2**15
    assert dict(s4.verdict_counts) == {"found": s4.total}
    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# A2: n = 5 up to isomorphism.  The 8-vertex host count must be exactly
# 6880, and every 5-vertex tree must embed in every class.  Budget: 10
# minutes for the count plus the sweep.


def test_eight_vertex_tournaments_form_6880_classes_and_host_all_five_trees():
    start = time.perf_counter()
    assert sum(1 for _ in enumerate_tournaments(8, up_to_iso=True)) == 6880
    _, summary = verify_sumner(5, "iso")
    assert summary.all_ok and summary.total == 27 * 6880
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# A3: tightness, star family.  The inward star on n vertices must be
# certified absent from the rotational tournament on 2n-3 vertices by a
# complete search, for n in {3,...,6}.  Budget: 1 minute.


def test_inward_stars_do_not_fit_hosts_one_vertex_below_the_bound():
    start = time.perf_counter()
    reports, summary = verify_sharpness(range(3, 7), ())
    assert summary.all_ok and summary.total == 4
    assert [r.verdict for r in reports] == ["not_found"] * 4
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# A4: tightness, near-extremal family (path spine with balanced leaf
# fans vs. a three-block host on 2n-l-3 vertices).  Budget: 10 minutes.


def test_near_extremal_trees_do_not_fit_their_three_block_hosts():
    start = time.perf_counter()
    reports, summary = verify_sharpness((), ((6, 2), (7, 3), (8, 2)))
    assert summary.all_ok and summary.total == 3
    assert [r.verdict for r in reports] == ["not_found"] * 3
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# A5: structured outbranching embedder at full coverage for n = 4.
# Every instance must be found by the median-order greedy itself, with no
# note: the embedder has no fallback search.


def test_outbranchings_on_four_vertices_embed_structurally_in_all_six_hosts():
    trees = list(outbranchings(4))
    assert len(trees) == 4
    total = 0
    for G in enumerate_tournaments(6):
        for T in trees:
            outcome = embed_outbranching(T, G)
            assert outcome.verdict == "found"
            assert outcome.strategy == "outbranching_greedy"
            assert outcome.notes == ()
            assert is_valid_embedding(T, G, outcome.embedding)
            total += 1
    assert total == 4 * 2**15


# ---------------------------------------------------------------------------
# A6: Hamiltonian directed path construction must finish in under one
# second per tournament at n = 2000, across 100 seeds, and every path
# must be validated arc by arc.


def test_hamiltonian_path_is_fast_and_valid_at_two_thousand_vertices():
    n = 2000
    for seed in range(100):
        G = random_tournament(n, seed=seed)
        start = time.perf_counter()
        order = redei_path(G)
        assert time.perf_counter() - start < 1.0
        assert sorted(order) == list(range(n))
        assert all(G.has_arc(order[i], order[i + 1]) for i in range(n - 1))


# ---------------------------------------------------------------------------
# A7: core-tree suites at their full advertised volume — 10^4 randomized
# instances each, zero violations.


def test_core_tree_suites_pass_ten_thousand_cases_each():
    names = [
        "core-tree-props",
        "core-delete-leaf",
        "two-core-trees",
        "core-monotonicity",
    ]
    results, summary = run_property_suites(names, PropertyConfig(scale=1.0))
    for r in results:
        assert r.ok, (r.name, r.failures[:3])
        assert r.cases == 10_000
    assert summary.all_ok


# ---------------------------------------------------------------------------
# A9: expander suite.  Rotational tournaments on 11..19 vertices are
# exact robust outexpanders, transitive tournaments are refuted with
# re-validated witnesses, and the splitter's postconditions hold exactly
# on 10^3 random tournaments with up to 60 vertices.


def test_expander_certificates_and_split_postconditions_at_full_scale():
    names = ["expander-rotational", "split-postconditions", "witness-revalidation"]
    results, summary = run_property_suites(names, PropertyConfig(scale=1.0))
    by_name = {r.name: r for r in results}
    for r in results:
        assert r.ok, (r.name, r.failures[:3])
    assert by_name["expander-rotational"].cases == 8
    assert by_name["split-postconditions"].cases == 1000
    assert by_name["witness-revalidation"].cases == 300
    assert summary.all_ok


# ---------------------------------------------------------------------------
# A10: determinism.  Re-running a campaign with the same inputs must
# reproduce every verdict and embedding byte-for-byte once elapsed
# fields are dropped, independent of the worker count; property suites
# must reproduce their full outcome vectors.


def test_campaign_reruns_are_byte_identical_modulo_timing():
    first_reports, first_summary = verify_sumner(3)
    second_reports, second_summary = verify_sumner(3)
    assert reports_to_jsonl(first_reports, include_timing=False) == reports_to_jsonl(
        second_reports, include_timing=False
    )
    assert summary_to_json(first_summary, include_timing=False) == summary_to_json(
        second_summary, include_timing=False
    )

    pooled_reports, _ = verify_sumner(3, workers=2)
    assert reports_to_jsonl(first_reports, include_timing=False) == reports_to_jsonl(
        pooled_reports, include_timing=False
    )


def test_property_suite_reruns_reproduce_their_outcome_vectors():
    def fingerprint():
        results, _ = run_property_suites(
            ["reversal-duality", "split-postconditions"],
            PropertyConfig(seed=11, scale=0.05),
        )
        return [(r.name, r.cases, r.ok, tuple(map(str, r.failures))) for r in results]

    assert fingerprint() == fingerprint()
