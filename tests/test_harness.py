"""Campaign engine, property-suite runner, and command-line interface.

Campaign output must be a pure function of its inputs apart from timing:
the same tasks give byte-identical reports once elapsed fields are
dropped, whatever the worker count.  The property runner must catch a
deliberately injected defect (negative control) and report failures with
a nonzero exit code.
"""

import ast
import hashlib
import importlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import treetour
from treetour import (
    CampaignSummary,
    DirectedTree,
    GraphDefectError,
    PropertyConfig,
    available_suites,
    run_property_suites,
    shrink_tournament,
    shrink_tree,
    verify_sharpness,
    verify_sumner,
)
from treetour import cli, formats, reports
from treetour.cli import main
from treetour.formats import write_tournament, write_tree
from treetour.generate import (
    directed_path,
    enumerate_tournaments,
    inward_star,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    transitive_tournament,
)
from treetour.reports import (
    SHARPNESS_HOST_CAP,
    InstanceReport,
    reports_to_jsonl,
    summary_to_json,
)
from treetour.search import EmbedOutcome


# ---------------------------------------------------------------------------
# Campaigns


def test_campaign_reports_preserve_task_order_and_expectations():
    reports, summary = verify_sumner(3, ("sample", 2, 7))
    assert [r.instance for r in reports] == [
        f"sumner:n=3:tree=iso{t}:tournament=seed{s}" for t in range(3) for s in (7, 8)
    ]
    assert [r.seed for r in reports] == [7, 8] * 3
    assert all(r.ok and r.verdict == "found" for r in reports)
    assert summary.total == 6 and dict(summary.verdict_counts) == {"found": 6}
    assert summary.all_ok and summary.exit_code == 0
    assert dict(summary.config)["tournament_source"] == "sample(2,7)"
    reports, summary = verify_sharpness((4, 3), ((6, 2),))
    assert [r.instance for r in reports] == [
        "sharpness:instar:n=4",
        "sharpness:instar:n=3",
        "sharpness:near-extremal:n=6:l=2",
    ]
    assert all(r.ok and r.verdict == "not_found" and r.seed is None for r in reports)
    assert dict(summary.verdict_counts) == {"not_found": 3} and summary.all_ok


def _overriding_into(host, outcome, search):
    """``search``, except that every task into ``host`` comes back ``outcome``."""
    def patched(T, G, config=None):
        return outcome(T) if G == host else search(T, G)
    return patched


def _unsure(T):
    return EmbedOutcome("budget_exhausted", None, 0, "portfolio")


def test_campaign_failures_list_mismatched_instances(monkeypatch):
    monkeypatch.setattr(reports, "portfolio_embed", _overriding_into(
        random_tournament(4, 8), _unsure, reports.portfolio_embed
    ))
    out, summary = verify_sumner(3, ("sample", 2, 7))
    assert [r.ok for r in out] == [True, False] * 3
    assert summary.failures == tuple(f"sumner:n=3:tree=iso{t}:tournament=seed8" for t in range(3))
    assert dict(summary.verdict_counts) == {"budget_exhausted": 3, "found": 3}
    assert summary.exit_code == 1
    monkeypatch.setattr(reports, "exhaustive_embed", _overriding_into(
        rotational_regular_tournament(5), _unsure, reports.exhaustive_embed
    ))
    out, summary = verify_sharpness((3, 4, 5), ())
    assert [r.ok for r in out] == [True, False, True]
    assert summary.failures == ("sharpness:instar:n=4",) and summary.exit_code == 1


def test_multi_tree_campaign_is_worker_count_invariant():
    # 8 trees x 56 hosts: two workers run the tree-major list as 16 slices.
    serial, serial_summary = verify_sumner(4, "iso", "iso", workers=1)
    pooled, pooled_summary = verify_sumner(4, "iso", "iso", workers=2)
    assert serial_summary.total == 448 and serial_summary.all_ok
    assert reports_to_jsonl(serial, include_timing=False) == reports_to_jsonl(
        pooled, include_timing=False
    )
    assert summary_to_json(serial_summary, include_timing=False) == summary_to_json(
        pooled_summary, include_timing=False
    )


def test_campaign_parses_each_text_once_and_plans_each_tree_once(monkeypatch):
    calls = {"text": Counter(), "tree": Counter(), "host": Counter(), "plan": Counter()}

    def counted(fn, kind, key):
        def wrapper(*args):
            calls[kind][key(*args)] += 1
            return fn(*args)
        return wrapper

    # Empty the process's tree store: an earlier campaign over the same
    # trees would otherwise leave them built and planned.
    monkeypatch.setattr(reports, "_tree_store", {})
    monkeypatch.setattr(formats, "parse_tree", counted(formats.parse_tree, "text", str))
    monkeypatch.setattr(
        formats, "parse_tournament", counted(formats.parse_tournament, "text", str)
    )
    monkeypatch.setattr(
        reports,
        "random_oriented_tree",
        counted(reports.random_oriented_tree, "tree", lambda n, seed: seed),
    )
    monkeypatch.setattr(
        reports,
        "random_tournament",
        counted(reports.random_tournament, "host", lambda n, seed: seed),
    )
    # A search plan is rooted at the tree's first centroid, so centroid calls
    # count plan builds.
    monkeypatch.setattr(
        DirectedTree, "centroids", counted(DirectedTree.centroids, "plan", write_tree)
    )
    runs = [verify_sumner(5, ("sample", 3, 0), ("sample", 9, 0)) for _ in range(2)]
    for _, summary in runs:
        assert summary.total == 27 and summary.all_ok
    # The campaign's pools come straight from the generators: no text.
    assert calls["text"] == Counter()
    # Trees are built once per process, hosts once per call.
    assert calls["tree"] == Counter({seed: 1 for seed in range(9)})
    assert calls["host"] == Counter({seed: 2 for seed in range(3)})
    # Every tree but a directed path (placed along a Redei path, with no
    # search plan) gets exactly one plan, however many hosts and calls it
    # meets.
    assert 0 < len(calls["plan"]) <= 9 and set(calls["plan"].values()) == {1}
    (first, first_summary), (second, second_summary) = runs
    assert reports_to_jsonl(first, include_timing=False) == reports_to_jsonl(
        second, include_timing=False
    )
    assert summary_to_json(first_summary, include_timing=False) == summary_to_json(
        second_summary, include_timing=False
    )


def test_tree_store_holds_the_last_campaigns_trees_only():
    verify_sumner(4, ("sample", 1, 0), ("sample", 2, 10))
    assert list(reports._tree_store) == [(4, 10), (4, 11)]
    verify_sumner(4, ("sample", 1, 0), ("sample", 2, 20))
    assert list(reports._tree_store) == [(4, 20), (4, 21)]


def _invalid_search(T, G, config=None):
    return EmbedOutcome("found", {v: 0 for v in range(T.n)}, 0, "portfolio/greedy")


def test_campaign_rechecks_every_embedding(monkeypatch):
    for embed, campaign, first in [
        ("portfolio_embed", lambda: verify_sumner(3), "sumner:n=3:tree=iso0:tournament=lab0"),
        ("exhaustive_embed", lambda: verify_sharpness((3,), ()), "sharpness:instar:n=3"),
    ]:
        monkeypatch.setattr(reports, embed, _invalid_search)
        with pytest.raises(
            GraphDefectError, match=f"campaign task {first} produced an invalid embedding"
        ):
            campaign()


def test_serial_campaigns_leave_no_pool_bound(monkeypatch):
    verify_sumner(3)
    assert reports._pools == ()
    monkeypatch.setattr(reports, "portfolio_embed", _invalid_search)
    with pytest.raises(GraphDefectError):
        verify_sumner(3)
    assert reports._pools == ()


def test_pooled_recheck_names_the_task(monkeypatch):
    # Forked workers inherit the patched search; spawned ones would not.
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers do not inherit the patched search")
    # 192 tasks in slices of 6: the first task into labelled host 40 is
    # task 40, in the seventh slice.
    host = list(enumerate_tournaments(4))[40]
    monkeypatch.setattr(reports, "portfolio_embed", _overriding_into(
        host, lambda T: _invalid_search(T, host), reports.portfolio_embed
    ))
    with pytest.raises(
        GraphDefectError,
        match="campaign task sumner:n=3:tree=iso0:tournament=lab40 produced an invalid embedding",
    ):
        verify_sumner(3, workers=2)


@pytest.mark.parametrize(
    "campaign",
    [
        lambda workers: verify_sumner(2, workers=workers),
        lambda workers: verify_sumner(3, workers=workers),
        lambda workers: verify_sumner(
            6, ("sample", 3, 5), ("sample", 3, 9), workers=workers
        ),
        lambda workers: verify_sharpness(range(3, 7), workers=workers),
    ],
    ids=["two-tasks", "exhaustive-hosts", "sampled-hosts-and-trees", "sharpness"],
)
def test_campaign_sources_are_worker_count_invariant(campaign):
    serial, serial_summary = campaign(1)
    pooled, pooled_summary = campaign(2)
    assert serial_summary.total > 1 and serial_summary.all_ok
    assert reports_to_jsonl(serial, include_timing=False) == reports_to_jsonl(
        pooled, include_timing=False
    )
    assert summary_to_json(serial_summary, include_timing=False) == summary_to_json(
        pooled_summary, include_timing=False
    )


def test_one_task_campaign_is_worker_count_invariant():
    serial, serial_summary = verify_sharpness((3,), ())
    pooled, pooled_summary = verify_sharpness((3,), (), workers=2)
    assert serial_summary.total == 1 and serial_summary.all_ok
    assert reports_to_jsonl(serial, include_timing=False) == reports_to_jsonl(
        pooled, include_timing=False
    )
    assert summary_to_json(serial_summary, include_timing=False) == summary_to_json(
        pooled_summary, include_timing=False
    )


def test_pool_slices_carry_index_ranges_and_packed_records(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    submitted = []
    submit = ProcessPoolExecutor.submit

    def spy(pool, fn, *args):
        future = submit(pool, fn, *args)
        submitted.append((fn, args, future))
        return future

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    out, summary = verify_sumner(4, "iso", "iso", workers=2)
    assert summary.total == 448 and summary.all_ok
    assert len(submitted) > 2
    bounds = [args for fn, args, _ in submitted]
    assert all(fn is reports._run_range for fn, _, _ in submitted)
    assert all(type(lo) is int and type(hi) is int and lo < hi for lo, hi in bounds)
    assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
    assert bounds[-1][1] == 448
    for _, _, future in submitted:
        record = pickle.dumps(future.result())
        assert b"InstanceReport" not in record
        assert b"sumner:" not in record and b"tournament" not in record


def test_summary_rejects_inconsistent_counts():
    with pytest.raises(GraphDefectError):
        CampaignSummary(
            total=3, verdict_counts=(("found", 1),), failures=(), elapsed=0.0
        )


# ---------------------------------------------------------------------------
# Stock campaigns


def test_two_vertex_trees_embed_in_every_two_vertex_tournament():
    reports, summary = verify_sumner(2)
    assert summary.total == 2  # one tree, two labelled hosts
    assert summary.all_ok
    assert dict(summary.config)["campaign"] == "verify-sumner"


def test_sumner_sweep_respects_host_caps():
    with pytest.raises(ValueError):
        verify_sumner(5, "exhaustive")  # 8-vertex hosts need the iso source
    with pytest.raises(ValueError):
        verify_sumner(6, "iso")  # 10-vertex hosts exceed the class sweep cap
    with pytest.raises(ValueError):
        verify_sumner(3, "oracle")


def test_sharpness_campaign_certifies_star_case():
    reports, summary = verify_sharpness((3,), ())
    assert summary.total == 1
    assert summary.all_ok
    assert reports[0].verdict == "not_found"


def test_sharpness_campaign_respects_host_cap():
    with pytest.raises(ValueError):
        verify_sharpness((10,), ())
    # The near-extremal pair (11, 3) has a 16-vertex three-block host.
    with pytest.raises(ValueError, match=f"capped at {SHARPNESS_HOST_CAP} "):
        verify_sharpness((), ((11, 3),))


def test_sharpness_campaign_records_one_shot_iterables():
    _, summary = verify_sharpness((n for n in (3, 4)), iter([(6, 2)]))
    assert summary.total == 3
    assert summary.config == verify_sharpness(range(3, 5), [(6, 2)])[1].config
    assert dict(summary.config)["n_range"] == "3,4"


@pytest.mark.parametrize("n_range", [(), range(5, 3)])
def test_sharpness_campaign_needs_at_least_one_case(n_range):
    """A certificate campaign over no case would certify nothing and pass."""
    with pytest.raises(ValueError, match="no sharpness case"):
        verify_sharpness(n_range, ())


def test_sampled_sources_record_their_seeds():
    reports, summary = verify_sumner(3, ("sample", 2, 40), ("sample", 2, 9))
    assert summary.total == 4
    assert summary.all_ok
    assert {r.seed for r in reports} == {40, 41}


@pytest.mark.parametrize("count", [0, -2])
def test_sampled_campaigns_need_at_least_one_sample(count):
    """A sampled campaign over no samples would check nothing and pass."""
    with pytest.raises(ValueError, match="sample count"):
        verify_sumner(4, ("sample", count, 0))
    with pytest.raises(ValueError, match="sample count"):
        verify_sumner(4, "iso", ("sample", count, 0))


@pytest.mark.parametrize("workers", [0, -1])
def test_campaigns_need_at_least_one_worker(workers):
    with pytest.raises(ValueError, match="worker count"):
        verify_sumner(3, workers=workers)
    with pytest.raises(ValueError, match="worker count"):
        verify_sharpness((3,), (), workers=workers)


# ---------------------------------------------------------------------------
# Serialization


def test_jsonl_round_trips_and_respects_timing_flag():
    reports = verify_sumner(3, ("sample", 2, 7))[0] + verify_sharpness((3,), ())[0]
    with_timing = reports_to_jsonl(reports)
    without = reports_to_jsonl(reports, include_timing=False)
    lines = [json.loads(line) for line in with_timing.splitlines()]
    assert all("elapsed" in d for d in lines)
    assert all("elapsed" not in json.loads(line) for line in without.splitlines())
    assert [d["instance"] for d in lines] == [r.instance for r in reports]
    found = json.loads(without.splitlines()[0])
    assert found["verdict"] == "found" and found["embedding"]
    missing = json.loads(without.splitlines()[-1])
    assert missing["verdict"] == "not_found" and missing["embedding"] is None


def test_summary_json_is_loadable():
    _, summary = verify_sumner(3)
    doc = json.loads(summary_to_json(summary))
    assert doc["total"] == 192 and doc["all_ok"] is True
    assert doc["config"] == dict(summary.config) and doc["config"]["trees"] == "3"
    assert json.loads(summary_to_json(summary, include_timing=False)).get("elapsed") is None


# sha256 of the timing-free JSON lines followed by the timing-free summary,
# taken when both record types were still dataclasses.  A change to any
# verdict, strategy, embedding, descriptor, seed, config entry or to the
# package version moves them.
_PINNED_CAMPAIGNS = [
    (
        verify_sumner, (3,),
        "833766ef9d7e99d19c98e2d3a5e451fa7b4d50bba22401086627eaa78d5e2329",
    ),
    (
        verify_sumner, (5, ("sample", 20, 7), "iso"),
        "8a204e119a27cdddc9c819245fc6fc45dd91b573a5b9147201b8e201c75a55ab",
    ),
    (
        verify_sharpness, (range(3, 6),),
        "920f77e0f472bb69fc3ad1866056c6e2d393376e80e228a73951273560e380d4",
    ),
]


@pytest.mark.parametrize(
    "campaign, args, digest", _PINNED_CAMPAIGNS, ids=["sumner3", "sumner5-sample", "sharpness3-5"]
)
def test_campaign_output_bytes_are_pinned(campaign, args, digest):
    out, summary = campaign(*args)
    text = reports_to_jsonl(out, include_timing=False) + summary_to_json(
        summary, include_timing=False
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_instance_report_is_an_immutable_picklable_record():
    report = InstanceReport(
        instance="sumner:n=2:tree=iso0:tournament=lab0", verdict="found", ok=True,
        embedding=((0, 0), (1, 1)), strategy="portfolio/greedy", elapsed=0.5,
        seed=None, version=treetour.__version__,
    )
    assert report.embedding == ((0, 0), (1, 1)) and report.seed is None
    with pytest.raises(AttributeError):
        report.verdict = "not_found"
    with pytest.raises(AttributeError):
        report.extra = 1
    copy = pickle.loads(pickle.dumps(report))
    assert type(copy) is InstanceReport and copy == report
    out, _ = verify_sumner(3, ("sample", 2, 7))
    assert pickle.loads(pickle.dumps(out)) == out


# ---------------------------------------------------------------------------
# Property suites


def test_all_suites_pass_at_reduced_scale():
    results, summary = run_property_suites(None, PropertyConfig(seed=0, scale=0.02))
    assert [r.name for r in results] == list(available_suites())
    assert all(r.ok for r in results), [
        (r.name, r.failures[:1]) for r in results if not r.ok
    ]
    assert summary.all_ok
    assert dict(summary.verdict_counts) == {"pass": len(results)}


def test_negative_control_catches_injected_defect():
    results, summary = run_property_suites(
        ["search-agreement"],
        PropertyConfig(seed=0, scale=0.1, inject_embedding_defect=True),
    )
    assert not results[0].ok
    assert results[0].failures
    assert not summary.all_ok and summary.exit_code == 1


def test_suite_outcomes_are_reproducible():
    def fingerprint():
        results, _ = run_property_suites(
            ["core-tree-props", "reversal-duality"], PropertyConfig(seed=3, scale=0.05)
        )
        return [(r.name, r.cases, r.ok, tuple(map(str, r.failures))) for r in results]

    assert fingerprint() == fingerprint()


def test_unknown_suite_names_are_rejected():
    with pytest.raises(ValueError):
        run_property_suites(["no-such-suite"])


def test_scale_controls_case_counts():
    small, _ = run_property_suites(["degree-identities"], PropertyConfig(scale=0.01))
    large, _ = run_property_suites(["degree-identities"], PropertyConfig(scale=0.05))
    assert small[0].cases < large[0].cases


# ---------------------------------------------------------------------------
# Counterexample shrinking


def test_shrink_tournament_minimizes_a_cycle_witness():
    def has_cycle(G):
        return any(
            G.has_arc(a, b) and G.has_arc(b, c) and G.has_arc(c, a)
            for a in range(G.n)
            for b in range(G.n)
            for c in range(G.n)
            if len({a, b, c}) == 3
        )

    G = random_tournament(12, seed=1)
    assert has_cycle(G)
    small = shrink_tournament(G, has_cycle)
    assert small.n == 3
    assert has_cycle(small)


def test_shrink_tree_minimizes_a_size_witness():
    T = random_oriented_tree(14, seed=2)
    small = shrink_tree(T, lambda t: t.n >= 4)
    assert small.n == 4


# ---------------------------------------------------------------------------
# Command-line interface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_gen_writes_a_parseable_tournament(capsys):
    from treetour.formats import parse_tournament

    code, out, _ = run_cli(capsys, "gen", "tournament", "-n", "5", "--seed", "3")
    assert code == 0
    G = parse_tournament(out)
    assert G == random_tournament(5, seed=3)


def test_cli_gen_near_extremal_writes_both_graphs(capsys):
    code, out, _ = run_cli(capsys, "gen", "near-extremal", "-n", "6", "--path-len", "2")
    assert code == 0
    assert out.startswith("tree 6\n")
    assert "tournament 7" in out


@pytest.mark.parametrize("kind", ["transitive", "path"])
def test_cli_gen_of_no_vertices_exits_with_two(kind, capsys):
    code, out, err = run_cli(capsys, "gen", kind, "-n", "0")
    assert (code, out) == (2, "")
    assert "n must be positive" in err


def test_cli_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "trees", "-n", "4", "--count-only")
    assert code == 0 and out.strip() == "8"
    code, out, _ = run_cli(capsys, "enumerate", "tournaments", "-n", "4", "--iso", "--count-only")
    assert code == 0 and out.strip() == "4"


def test_cli_coretree_reports_core_vertices(tmp_path, capsys):
    tree_file = tmp_path / "t.tree"
    tree_file.write_text(write_tree(directed_path(5)))
    code, out, _ = run_cli(capsys, "coretree", "--tree", str(tree_file), "--delta", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [2] and doc["size"] == 1 and doc["delta"] == 2


def test_cli_embed_exit_codes_track_verdicts(tmp_path, capsys):
    tree_file = tmp_path / "t.tree"
    host_file = tmp_path / "g.trn"
    tree_file.write_text(write_tree(inward_star(4)))
    host_file.write_text(write_tournament(transitive_tournament(6)))
    code, out, _ = run_cli(
        capsys, "embed", "--tree", str(tree_file), "--tournament", str(host_file)
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["verdict"] == "found"

    host_file.write_text(write_tournament(rotational_regular_tournament(5)))
    code, out, _ = run_cli(
        capsys, "embed", "--tree", str(tree_file), "--tournament", str(host_file)
    )
    assert code == 1
    assert json.loads(out.splitlines()[0])["verdict"] == "not_found"


def test_cli_decompose_emits_pieces(tmp_path, capsys):
    host_file = tmp_path / "g.trn"
    host_file.write_text(write_tournament(transitive_tournament(12)))
    code, out, _ = run_cli(
        capsys, "decompose", "--tournament", str(host_file),
        "--mu", "1/20", "--nu", "1/20", "--eta", "1/20", "--gamma", "35/100",
    )
    assert code == 0
    doc = json.loads(out)
    covered = sorted(v for piece in doc["pieces"] for v in piece)
    assert len(covered) == len(set(covered)) == doc["covered"]
    assert doc["covered"] >= 12 * (1 - 35 / 100)
    assert not set(covered) & set(doc["deleted"])
    assert len(doc["classification"]) == len(doc["pieces"])


def test_cli_decompose_reports_a_regime_failure_without_a_traceback(tmp_path, capsys):
    # With the CLI defaults, the random 30-vertex host of seed 0 loses 12
    # vertices to step-(5) deletions: a parameter-regime outcome, not a bug.
    host_file = tmp_path / "g.trn"
    code, out, _ = run_cli(capsys, "gen", "tournament", "-n", "30", "--seed", "0")
    host_file.write_text(out)
    code, out, err = run_cli(capsys, "decompose", "--tournament", str(host_file))
    assert code == 3
    assert out == ""
    assert err.startswith("treetour: regime: coverage: pieces cover only 18 of 30")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_decompose_sweep_of_random_hosts_ends_in_a_split_or_a_regime(tmp_path, capsys):
    # 100 seeded random hosts, n = 10, 20, ..., 100, with the CLI defaults:
    # each one either decomposes (exit 0) or reports one regime line (exit 3).
    host_file = tmp_path / "g.trn"
    decomposed = Counter()
    for n in range(10, 101, 10):
        for s in range(10):
            host_file.write_text(write_tournament(random_tournament(n, s)))
            code, _, err = run_cli(capsys, "decompose", "--tournament", str(host_file))
            assert code in (0, 3), (n, s, err)
            if code == 0:
                decomposed[n] += 1
            else:
                assert err.startswith("treetour: regime: "), (n, s, err)
                assert err.count("\n") == 1 and "Traceback" not in err
    assert decomposed == {10: 10, 20: 10, 40: 9, 50: 1}


def test_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "treetour", "--version"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == treetour.__version__


def test_cli_verify_sumner_is_byte_stable_without_timing(capsys):
    code, first, _ = run_cli(capsys, "verify-sumner", "-n", "2", "--no-timing")
    assert code == 0
    code, second, _ = run_cli(capsys, "verify-sumner", "-n", "2", "--no-timing")
    assert code == 0
    assert first == second


def test_cli_verify_sharpness_star_only(capsys):
    code, out, _ = run_cli(
        capsys, "verify-sharpness", "--n-range", "3-4", "--near-extremal", ""
    )
    assert code == 0
    assert '"not_found": 2' in out


def test_cli_verify_sharpness_with_no_case_exits_with_two(capsys):
    code, out, err = run_cli(
        capsys, "verify-sharpness", "--n-range", "5-3", "--near-extremal", ""
    )
    assert code == 2
    assert out == ""
    assert "treetour: error: no sharpness case" in err


def test_cli_props_subset_and_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "props", "--suites", "degree-identities", "--scale", "0.02"
    )
    assert code == 0
    assert "degree-identities" in out


def test_cli_reports_to_file(tmp_path, capsys):
    out_file = tmp_path / "reports.jsonl"
    code, _, _ = run_cli(
        capsys, "verify-sumner", "-n", "2", "--out", str(out_file), "--no-timing"
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 2


def test_cli_decompose_builds_its_expander_checker(tmp_path, capsys, monkeypatch):
    made = []
    real = cli.make_expander_checker

    def recording(**kwargs):
        made.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(cli, "make_expander_checker", recording)
    host_file = tmp_path / "g.trn"
    host_file.write_text(write_tournament(random_tournament(12, 3)))
    code, _, _ = run_cli(capsys, "decompose", "--tournament", str(host_file), "--seed", "3")
    assert code == 0
    assert made == [{"exact_limit": 20, "sample_budget": 1000, "seed": 3}]


# For each subcommand one flag that its handler has no use for, and a
# subcommand that does not exist: each is an argparse usage error.
_REMOVED_FLAGS = [
    (("coretree", "--tree", "t.tree", "--delta", "2"), ("--seed", "1")),
    (("embed", "--tree", "t.tree", "--tournament", "g.trn"), ("--workers", "4")),
    (("decompose", "--tournament", "g.trn"), ("--budget", "9")),
    (("gen", "tournament", "-n", "5"), ("--format", "csv")),
    (("enumerate", "trees", "-n", "3"), ("--no-timing",)),
    (("verify-sumner", "-n", "2"), ("--budget", "5")),
    (("verify-sumner", "-n", "2"), ("--format", "csv")),
    (("verify-sharpness",), ("--seed", "1")),
    (("verify-sharpness",), ("--config", "run.cfg")),
    (("props", "--suites", "degree-identities"), ("--config", "run.cfg")),
    (("bench", "redei", "-n", "12"), ()),
]


@pytest.mark.parametrize(
    "argv, removed",
    _REMOVED_FLAGS,
    ids=[" ".join(argv[:1] + removed[:1]) for argv, removed in _REMOVED_FLAGS],
)
def test_cli_rejects_flags_no_handler_reads(argv, removed, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv + removed))
    assert exit_info.value.code == 2
    assert "usage: treetour" in capsys.readouterr().err


def test_cli_errors_exit_with_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "coretree", "--tree", str(tmp_path / "nope"), "--delta", "2")
    assert code == 2
    assert "treetour: error:" in err
    bad = tmp_path / "bad.tree"
    bad.write_text("tree 3\n0 1\n")
    code, _, err = run_cli(capsys, "coretree", "--tree", str(bad), "--delta", "2")
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--tournament-source", "sample", "--count", "0"),
        ("--tournament-source", "sample", "--count", "-2"),
        ("--tree-source", "sample", "--count", "0"),
        ("--workers", "0"),
        ("--workers", "-1"),
    ],
)
def test_cli_empty_sampled_or_workerless_campaigns_exit_with_two(flags, capsys):
    code, out, err = run_cli(capsys, "verify-sumner", "-n", "4", "--no-timing", *flags)
    assert code == 2
    assert out == ""
    assert "treetour: error:" in err


# Malformed numbers in flags, each an input error rather than a traceback
# or a suite failure; "{host}" and "{tree}" stand for valid input files.
_MALFORMED_NUMBERS = [
    (("decompose", "--tournament", "{host}", "--mu", "1/0"), "cannot interpret '1/0'"),
    (("props", "--scale", "inf"), "scale must be finite and positive"),
    (("props", "--scale", "0"), "scale must be finite and positive"),
    (("props", "--scale", "-3"), "scale must be finite and positive"),
    (
        ("verify-sharpness", "--near-extremal", "6,2,1"),
        "entry '6,2,1' is not of the form n,path_len",
    ),
    (
        ("embed", "--tree", "{tree}", "--tournament", "{host}", "--budget", "-5"),
        "node budget must be at least 1, got -5",
    ),
    (
        ("embed", "--tree", "{tree}", "--tournament", "{host}", "--budget", "0"),
        "node budget must be at least 1, got 0",
    ),
    (
        ("decompose", "--tournament", "{host}", "--sample-budget", "-1"),
        "sample budget must be at least 0, got -1",
    ),
]


@pytest.mark.parametrize(
    "argv, message",
    _MALFORMED_NUMBERS,
    ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in _MALFORMED_NUMBERS],
)
def test_cli_malformed_numbers_exit_with_two(argv, message, tmp_path, capsys):
    host_file = tmp_path / "g.trn"
    host_file.write_text(write_tournament(transitive_tournament(6)))
    tree_file = tmp_path / "t.tree"
    tree_file.write_text(write_tree(inward_star(3)))
    code, out, err = run_cli(
        capsys, *(a.format(host=host_file, tree=tree_file) for a in argv)
    )
    assert (code, out) == (2, "")
    assert err.startswith("treetour: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_reads_no_setting_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("TREETOUR_SEED", "9")
    code, out, _ = run_cli(capsys, "gen", "tournament", "-n", "6")
    assert code == 0
    assert out == write_tournament(random_tournament(6, seed=0))


# ---------------------------------------------------------------------------
# Package surface

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "treetour"
_PACKAGE_FILES = sorted(_PACKAGE.glob("*.py"))


def _declared_all(path: Path) -> list[str] | None:
    """The names in a file's module-level ``__all__``, or None if absent.

    The package builds its ``__all__`` from its export table, so that one
    is taken from the imported package; every other is a literal list.
    """
    if path == _PACKAGE / "__init__.py":
        return list(treetour.__all__)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _unused_imports(path: Path) -> list[str]:
    """Module-level imported names that nothing in the file uses.

    A name counts as used when it is read anywhere in the module or is
    listed in the module's ``__all__``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_declared_all(path) or ())
    return [name for name in imported if name not in used]


def test_every_declared_export_resolves():
    checked = []
    for path in _PACKAGE_FILES:
        names = _declared_all(path)
        if names is None:
            continue
        module = (
            treetour
            if path.stem == "__init__"
            else importlib.import_module(f"treetour.{path.stem}")
        )
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        checked.append(module.__name__)
    assert "treetour" in checked and "treetour.expansion" in checked


def test_no_module_level_import_goes_unused():
    files = _PACKAGE_FILES + sorted((_ROOT / "tests").glob("*.py"))
    unused = {
        path.relative_to(_ROOT).as_posix(): names
        for path in files
        if (names := _unused_imports(path))
    }
    assert unused == {}


def test_running_the_package_loads_every_module():
    # ``python -m treetour --version`` in a fresh interpreter loads the
    # package and its command line; this process may have imported modules
    # that neither reaches.
    program = (
        "import runpy, sys\n"
        "sys.argv = ['treetour', '--version']\n"
        "try:\n"
        "    runpy.run_module('treetour', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(*sorted(sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    modules = {f"treetour.{path.stem}" for path in _PACKAGE_FILES} - {
        "treetour.__init__",
        "treetour.__main__",
    }
    assert sorted(modules - loaded) == []


# Each program below runs in a new interpreter, prints one JSON value last,
# and may call ``loaded(*prefixes)``: the sorted loaded module names that
# start with one of the prefixes.
_LOADED = (
    "import json, sys\n"
    "def loaded(*prefixes):\n"
    "    return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
)


def _fresh_run(program: str):
    done = subprocess.run(
        [sys.executable, "-c", _LOADED + program],
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_none_of_its_modules():
    assert _fresh_run("import treetour\nprint(json.dumps(loaded('treetour.')))") == []


def test_only_pooled_campaigns_load_the_process_pool():
    program = (
        "import treetour\n"
        "from treetour.reports import reports_to_jsonl, summary_to_json\n"
        "def text(campaign):\n"
        "    reports, summary = campaign\n"
        "    return (reports_to_jsonl(reports, include_timing=False)\n"
        "            + summary_to_json(summary, include_timing=False))\n"
        "treetour.verify_sumner(3)\n"
        "serial = text(treetour.verify_sumner(4, 'iso', 'iso', workers=1))\n"
        "pool_after_serial = loaded('concurrent', 'multiprocessing')\n"
        "pooled = text(treetour.verify_sumner(4, 'iso', 'iso', workers=2))\n"
        "print(json.dumps([pool_after_serial, serial == pooled,\n"
        "                  'concurrent.futures' in sys.modules]))\n"
    )
    assert _fresh_run(program) == [[], True, True]


def test_a_decomposition_loads_neither_campaigns_nor_property_suites():
    program = (
        "from fractions import Fraction\n"
        "import treetour\n"
        "G = treetour.rotational_regular_tournament(9)\n"
        "mu, eta, gamma = Fraction(1, 20), Fraction(1, 50), Fraction(1, 5)\n"
        "split = treetour.tournament_split(G, mu, mu, eta, gamma)\n"
        "print(json.dumps([split.classification, loaded('treetour.')]))\n"
    )
    classification, modules = _fresh_run(program)
    assert classification == ["expander"]
    assert "treetour.expansion" in modules
    assert "treetour.reports" not in modules and "treetour.props" not in modules


def test_star_import_binds_and_caches_every_export():
    program = (
        "import treetour\n"
        "exports = treetour.__all__\n"
        "before = sorted(set(exports) & set(vars(treetour)))\n"
        "from treetour import *\n"
        "print(json.dumps([\n"
        "    before,\n"
        "    [name for name in exports if name not in globals()],\n"
        "    [name for name in exports if name not in vars(treetour)],\n"
        "    [name for name in exports if name not in dir(treetour)],\n"
        "]))\n"
    )
    assert _fresh_run(program) == [["__version__"], [], [], []]


def test_submodules_resolve_as_attributes_and_unknown_names_do_not():
    program = (
        "import treetour\n"
        "search = treetour.search\n"
        "try:\n"
        "    treetour.no_such_export\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([search is sys.modules['treetour.search'], error]))\n"
    )
    assert _fresh_run(program) == [
        True,
        "module 'treetour' has no attribute 'no_such_export'",
    ]
