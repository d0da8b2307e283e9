"""Campaign engine, property-suite runner, and command-line interface.

Campaign output must be a pure function of its inputs apart from timing:
the same tasks give byte-identical reports once elapsed fields are
dropped, whatever the worker count.  The property runner must catch a
deliberately injected defect (negative control) and report failures with
a nonzero exit code.
"""

import ast
import importlib
import json
import os
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
    ParseError,
    PropertyConfig,
    Tournament,
    available_suites,
    run_campaign,
    run_property_suites,
    shrink_tournament,
    shrink_tree,
    verify_sharpness,
    verify_sumner,
)
from treetour import cli, reports
from treetour.cli import main
from treetour.formats import write_tournament, write_tree
from treetour.generate import (
    directed_path,
    enumerate_oriented_trees,
    inward_star,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    transitive_tournament,
)
from treetour.reports import reports_to_csv, reports_to_jsonl, summary_to_json
from treetour.search import EmbedOutcome


def sample_tasks():
    path3 = write_tree(directed_path(3))
    star3 = write_tree(inward_star(3))
    host4 = write_tournament(transitive_tournament(4))
    cycle = write_tournament(
        Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    )
    return [
        ("portfolio", "path3-into-t4", "found", path3, host4, None),
        ("exhaustive", "star3-into-cycle", "not_found", star3, cycle, None),
        ("portfolio", "star3-into-t4", "found", star3, host4, 7),
    ]


# ---------------------------------------------------------------------------
# Campaigns


def test_campaign_reports_preserve_task_order_and_expectations():
    reports, summary = run_campaign(sample_tasks(), config={"k": "v"})
    assert [r.instance for r in reports] == [
        "path3-into-t4",
        "star3-into-cycle",
        "star3-into-t4",
    ]
    assert all(r.ok for r in reports)
    assert summary.total == 3
    assert dict(summary.verdict_counts) == {"found": 2, "not_found": 1}
    assert summary.all_ok and summary.exit_code == 0
    assert dict(summary.config) == {"k": "v"}
    assert reports[2].seed == 7


def test_campaign_failures_list_mismatched_instances():
    tasks = sample_tasks()
    tasks[1] = tasks[1][:2] + ("found",) + tasks[1][3:]  # wrong expectation
    reports, summary = run_campaign(tasks)
    assert not reports[1].ok
    assert summary.failures == ("star3-into-cycle",)
    assert summary.exit_code == 1


def test_campaign_output_is_worker_count_invariant():
    serial_reports, _ = run_campaign(sample_tasks(), workers=1)
    pooled_reports, _ = run_campaign(sample_tasks(), workers=2)
    assert reports_to_jsonl(serial_reports, include_timing=False) == reports_to_jsonl(
        pooled_reports, include_timing=False
    )


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
    calls = {"tree": Counter(), "host": Counter(), "plan": Counter()}

    def counted(fn, kind, key):
        def wrapper(arg, *rest):
            calls[kind][key(arg)] += 1
            return fn(arg, *rest)
        return wrapper

    # Empty the process's tree store: an earlier campaign over the same
    # trees would otherwise leave them parsed and planned.
    monkeypatch.setattr(reports, "_chunk_trees", {})
    monkeypatch.setattr(reports, "parse_tree", counted(reports.parse_tree, "tree", str))
    monkeypatch.setattr(
        reports, "parse_tournament", counted(reports.parse_tournament, "host", str)
    )
    # A search plan is rooted at the tree's first centroid, so centroid calls
    # count plan builds.  The isomorphism keys of the tree enumeration call
    # it too; enumerating first leaves only the campaign's plans to count.
    list(enumerate_oriented_trees(5))
    monkeypatch.setattr(
        DirectedTree, "centroids", counted(DirectedTree.centroids, "plan", write_tree)
    )
    runs = [verify_sumner(5, ("sample", 3, 0), "iso") for _ in range(2)]
    for _, summary in runs:
        assert summary.total == 81 and summary.all_ok
    # Trees are compiled once per process, hosts once per call.
    assert len(calls["tree"]) == 27 and set(calls["tree"].values()) == {1}
    assert len(calls["host"]) == 3 and set(calls["host"].values()) == {2}
    # Every tree but the directed path (placed along a Redei path, with no
    # search plan) gets exactly one plan, however many hosts and calls it
    # meets.
    assert set(calls["plan"]) <= set(calls["tree"])
    assert len(calls["plan"]) == 26 and set(calls["plan"].values()) == {1}
    (first, first_summary), (second, second_summary) = runs
    assert reports_to_jsonl(first, include_timing=False) == reports_to_jsonl(
        second, include_timing=False
    )
    assert summary_to_json(first_summary, include_timing=False) == summary_to_json(
        second_summary, include_timing=False
    )


def test_malformed_tree_text_raises_on_every_call():
    host = write_tournament(transitive_tournament(4))
    good = ("portfolio", "path3", "found", write_tree(directed_path(3)), host, None)
    bad = ("portfolio", "bad", "found", "tree 3\n0 1\n1 0\n", host, None)
    for tasks in ([bad], [bad], [good, bad], [good, bad], [bad]):
        with pytest.raises(ParseError, match="line 3: duplicate edge between 1 and 0"):
            run_campaign(tasks)
    assert bad[3] not in reports._chunk_trees
    out, summary = run_campaign([good])
    assert summary.all_ok and out[0].verdict == "found"


def test_campaign_rechecks_every_embedding(monkeypatch):
    def wrong(T, G, config=None):
        return EmbedOutcome("found", {v: 0 for v in range(T.n)}, 0, "portfolio/greedy")

    monkeypatch.setattr(reports, "portfolio_embed", wrong)
    with pytest.raises(GraphDefectError, match="produced an invalid embedding"):
        run_campaign(sample_tasks()[:1])


def test_unknown_task_kind_is_an_error():
    with pytest.raises(ValueError):
        run_campaign([("teleport", "x", "found", "tree 1", "tournament 1", None)])


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


def test_sampled_sources_record_their_seeds():
    reports, summary = verify_sumner(3, ("sample", 2, 40), ("sample", 2, 9))
    assert summary.total == 4
    assert summary.all_ok
    assert {r.seed for r in reports} == {40, 41}


# ---------------------------------------------------------------------------
# Serialization


def test_jsonl_round_trips_and_respects_timing_flag():
    reports, _ = run_campaign(sample_tasks())
    with_timing = reports_to_jsonl(reports)
    without = reports_to_jsonl(reports, include_timing=False)
    lines = [json.loads(line) for line in with_timing.splitlines()]
    assert all("elapsed" in d for d in lines)
    assert all("elapsed" not in json.loads(line) for line in without.splitlines())
    assert [d["instance"] for d in lines] == [r.instance for r in reports]
    found = json.loads(without.splitlines()[0])
    assert found["verdict"] == "found" and found["embedding"]


def test_csv_has_a_header_and_one_row_per_report():
    reports, _ = run_campaign(sample_tasks())
    rows = reports_to_csv(reports).strip().splitlines()
    assert rows[0].startswith("instance,verdict,ok,")
    assert len(rows) == 1 + len(reports)


def test_summary_json_is_loadable():
    _, summary = run_campaign(sample_tasks(), config={"a": "1"})
    doc = json.loads(summary_to_json(summary))
    assert doc["total"] == 3 and doc["all_ok"] is True
    assert json.loads(summary_to_json(summary, include_timing=False)).get("elapsed") is None


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


def test_cli_props_subset_and_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "props", "--suites", "degree-identities", "--scale", "0.02"
    )
    assert code == 0
    assert "degree-identities" in out


def test_cli_reports_to_file_with_config_echo(tmp_path, capsys):
    out_file = tmp_path / "reports.jsonl"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nlabel = nightly\n")
    code, out, _ = run_cli(
        capsys, "verify-sumner", "-n", "2", "--out", str(out_file),
        "--config", str(cfg), "--no-timing",
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(out)["config"]["label"] == "nightly"


def test_cli_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify-sumner", "-n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("instance,verdict,ok,")


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
    (("verify-sharpness",), ("--seed", "1")),
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


def test_cli_env_overrides_seed(capsys, monkeypatch):
    code, default_out, _ = run_cli(capsys, "gen", "tournament", "-n", "6")
    monkeypatch.setenv("TREETOUR_SEED", "9")
    code, env_out, _ = run_cli(capsys, "gen", "tournament", "-n", "6")
    monkeypatch.delenv("TREETOUR_SEED")
    assert code == 0
    assert env_out != default_out
    assert env_out == write_tournament(random_tournament(6, seed=9))


# ---------------------------------------------------------------------------
# Package surface

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE_FILES = sorted((_ROOT / "src" / "treetour").glob("*.py"))


def _declared_all(tree: ast.Module) -> list[str] | None:
    """The names in a module-level ``__all__ = [...]``, or None if absent."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imported names that nothing in the module uses.

    A name counts as used when it is read anywhere in the module or is
    listed in the module's ``__all__``.
    """
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_declared_all(tree) or ())
    return [name for name in imported if name not in used]


def test_every_declared_export_resolves():
    checked = []
    for path in _PACKAGE_FILES:
        names = _declared_all(ast.parse(path.read_text(encoding="utf-8")))
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
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}
