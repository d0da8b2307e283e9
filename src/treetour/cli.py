"""Command-line driver for verification campaigns and one-off runs.

Subcommands::

    treetour coretree         core tree of an oriented tree file
    treetour embed            embed a tree file into a tournament file
    treetour decompose        expander decomposition of a tournament file
    treetour gen              write a generated tree/tournament
    treetour enumerate        stream all tournaments or oriented trees
    treetour verify-sumner    tree-into-tournament sweep (expect all Found)
    treetour verify-sharpness complete-search non-embeddability certificates
    treetour props            randomized property suites

Exit codes: 0 success / all pass, 1 counterexample or failure, 2 invalid
input or configuration, 3 decomposition parameters outside their working
regime at this size (:class:`~treetour.expansion.SplitRegimeError`).

Each subcommand takes only the flags its handler reads.  The defaults of
``--seed``, ``--workers``, ``--budget``, ``--out``, ``--format``,
``--config`` and ``--scale`` may be overridden by the environment
variables ``TREETOUR_SEED``, ``TREETOUR_WORKERS``, ``TREETOUR_BUDGET``,
``TREETOUR_OUT``, ``TREETOUR_FORMAT``, ``TREETOUR_CONFIG`` and
``TREETOUR_SCALE``; explicit flags win over the environment.  A
``--config FILE`` of ``key = value`` lines is echoed into campaign
summaries for provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .expansion import (
    EXACT_EXPANDER_MAX_N,
    SplitRegimeError,
    make_expander_checker,
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
    transitive_tournament,
)
from .graphs import ParseError, as_fraction, bit_list
from .props import PropertyConfig, available_suites, run_property_suites
from .reports import (
    reports_to_csv,
    reports_to_jsonl,
    summary_to_json,
    verify_sharpness,
    verify_sumner,
)
from .search import DEFAULT_NODE_BUDGET
from .strategies import portfolio_embed
from .weights import core_tree

__all__ = ["main"]

# Sampled-check default of `decompose`.
_DECOMPOSE_SAMPLE_BUDGET = 1000


def _env(name: str, fallback):
    raw = os.environ.get(f"TREETOUR_{name.upper().replace('-', '_')}")
    return fallback if raw is None else raw


def _read_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(
                f"{path}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_tree(path: str):
    return parse_tree(Path(path).read_text())


def _load_tournament(path: str):
    return parse_tournament(Path(path).read_text())


def _write_campaign(reports, summary, args) -> int:
    include_timing = not args.no_timing
    if args.format == "csv":
        body = reports_to_csv(reports)
    else:
        body = reports_to_jsonl(reports, include_timing=include_timing)
    _emit(body, args.out)
    sys.stdout.write(summary_to_json(summary, include_timing=include_timing))
    return summary.exit_code


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_coretree(args) -> int:
    T = _load_tree(args.tree)
    ct = core_tree(T, args.delta)
    payload = {
        "n": T.n,
        "delta": ct.delta,
        "size": ct.size,
        "vertices": bit_list(ct.vertices),
        "arcs": [list(a) for a in ct.arcs],
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_embed(args) -> int:
    T = _load_tree(args.tree)
    G = _load_tournament(args.tournament)
    outcome = portfolio_embed(T, G, node_budget=args.budget)
    payload = {
        "verdict": outcome.verdict,
        "strategy": outcome.strategy,
        "nodes": outcome.nodes,
        "embedding": (
            None
            if outcome.embedding is None
            else {str(k): v for k, v in sorted(outcome.embedding.items())}
        ),
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0 if outcome.verdict == "found" else 1


def _cmd_decompose(args) -> int:
    G = _load_tournament(args.tournament)
    checker = make_expander_checker(
        exact_limit=args.exact_limit,
        sample_budget=args.sample_budget,
        seed=args.seed,
    )
    result = tournament_split(
        G,
        as_fraction(args.mu),
        as_fraction(args.nu),
        as_fraction(args.eta),
        as_fraction(args.gamma),
        expander_checker=checker,
    )
    payload = {
        "n": G.n,
        "mu": str(result.mu),
        "nu": str(result.nu),
        "eta": str(result.eta),
        "gamma": str(result.gamma),
        "pieces": [bit_list(p) for p in result.pieces],
        "classification": list(result.classification),
        "deleted": bit_list(result.deleted),
        "bad_edges": sorted(result.bad_edges),
        "covered": result.covered.bit_count(),
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


_GEN_KINDS = (
    "tournament",
    "tree",
    "in-star",
    "out-star",
    "path",
    "transitive",
    "rotational",
    "near-extremal",
)


def _cmd_gen(args) -> int:
    kind, n, seed = args.kind, args.n, args.seed
    if kind == "tournament":
        text = write_tournament(random_tournament(n, seed))
    elif kind == "tree":
        text = write_tree(random_oriented_tree(n, seed))
    elif kind == "in-star":
        text = write_tree(inward_star(n))
    elif kind == "out-star":
        text = write_tree(outward_star(n))
    elif kind == "path":
        text = write_tree(directed_path(n))
    elif kind == "transitive":
        text = write_tournament(transitive_tournament(n))
    elif kind == "rotational":
        text = write_tournament(rotational_regular_tournament(n))
    else:
        T, G = near_extremal_pair(n, args.path_len)
        text = write_tree(T) + "\n" + write_tournament(G)
    _emit(text, args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.what == "tournaments":
        items = enumerate_tournaments(args.n, up_to_iso=args.iso)
        writer = write_tournament
    else:
        items = enumerate_oriented_trees(args.n)
        writer = write_tree
    if args.count_only:
        count = sum(1 for _ in items)
        _emit(f"{count}\n", args.out)
        return 0
    chunks = []
    for item in items:
        chunks.append(writer(item))
    _emit("\n".join(chunks), args.out)
    return 0


def _cmd_verify_sumner(args) -> int:
    extra = _read_config_file(args.config)
    tournament_source = args.tournament_source
    if tournament_source == "sample":
        tournament_source = ("sample", args.count, args.seed)
    tree_source = args.tree_source
    if tree_source == "sample":
        tree_source = ("sample", args.count, args.seed)
    reports, summary = verify_sumner(
        args.n,
        tournament_source,
        tree_source,
        workers=args.workers,
        extra_config=extra,
    )
    return _write_campaign(reports, summary, args)


def _cmd_verify_sharpness(args) -> int:
    extra = _read_config_file(args.config)
    lo, _, hi = args.n_range.partition("-")
    n_range = range(int(lo), int(hi or lo) + 1)
    pairs = []
    if args.near_extremal:
        for chunk in args.near_extremal.split(";"):
            a, b = chunk.split(",")
            pairs.append((int(a), int(b)))
    reports, summary = verify_sharpness(
        n_range,
        tuple(pairs),
        workers=args.workers,
        extra_config=extra,
    )
    return _write_campaign(reports, summary, args)


def _cmd_props(args) -> int:
    names = args.suites.split(",") if args.suites else None
    config = PropertyConfig(
        seed=args.seed,
        scale=args.scale,
        inject_embedding_defect=args.inject_embedding_defect,
    )
    results, summary = run_property_suites(names, config)
    lines = []
    for r in results:
        status = "pass" if r.ok else "FAIL"
        lines.append(
            f"{status} {r.name} cases={r.cases} elapsed={r.elapsed:.2f}s"
        )
        for f in r.failures:
            lines.append(f"  {f.case}: {f.detail}")
            if f.minimized:
                lines.append(f"  minimized: {f.minimized!r}")
    _emit("\n".join(lines) + "\n", args.out)
    sys.stdout.write(summary_to_json(summary))
    return summary.exit_code


# ---------------------------------------------------------------------------
# Parser

def _add_out(p: argparse.ArgumentParser, *, seed: bool = False) -> None:
    """``--out`` for every subcommand, and ``--seed`` for the seeded ones."""
    if seed:
        p.add_argument(
            "--seed", type=int, default=int(_env("seed", 0)),
            help="base PRNG seed (default 0)",
        )
    p.add_argument(
        "--out", default=_env("out", None),
        help="output path ('-' or omitted: stdout)",
    )


def _add_campaign(p: argparse.ArgumentParser) -> None:
    """The flags of the campaign subcommands."""
    p.add_argument(
        "--workers", type=int, default=int(_env("workers", 1)),
        help="parallel worker count for campaigns (default 1)",
    )
    p.add_argument(
        "--format", choices=("json", "csv"),
        default=_env("format", "json"),
        help="campaign report format (default json lines)",
    )
    p.add_argument(
        "--config", default=_env("config", None),
        help="key = value file echoed into campaign summaries",
    )
    p.add_argument(
        "--no-timing", action="store_true",
        help="omit elapsed fields (byte-identical reruns)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetour",
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Environment overrides: TREETOUR_SEED, TREETOUR_WORKERS, "
        "TREETOUR_BUDGET, TREETOUR_OUT, TREETOUR_FORMAT, TREETOUR_CONFIG, "
        "TREETOUR_SCALE.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coretree", help="core tree of an oriented tree file")
    p.add_argument("--tree", required=True, help="tree file path")
    p.add_argument("--delta", type=int, required=True, help="core parameter")
    _add_out(p)
    p.set_defaults(handler=_cmd_coretree)

    p = sub.add_parser("embed", help="embed a tree into a tournament")
    p.add_argument("--tree", required=True)
    p.add_argument("--tournament", required=True)
    p.add_argument(
        "--budget", type=int, default=int(_env("budget", DEFAULT_NODE_BUDGET)),
        help="search node budget (default 10^7)",
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("decompose", help="expander decomposition")
    p.add_argument("--tournament", required=True)
    p.add_argument("--mu", default="1/20")
    p.add_argument("--nu", default="1/20")
    p.add_argument("--eta", default="1/50")
    p.add_argument("--gamma", default="1/5")
    p.add_argument(
        "--exact-limit", type=int, default=EXACT_EXPANDER_MAX_N,
        help=f"largest piece checked exactly (default {EXACT_EXPANDER_MAX_N})",
    )
    p.add_argument(
        "--sample-budget", type=int, default=_DECOMPOSE_SAMPLE_BUDGET,
        help="sampled sets per expander check above the exact limit",
    )
    _add_out(p, seed=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("gen", help="write a generated graph")
    p.add_argument("kind", choices=_GEN_KINDS)
    p.add_argument("-n", type=int, required=True, help="vertex count")
    p.add_argument(
        "--path-len", type=int, default=2,
        help="path length for near-extremal (default 2)",
    )
    _add_out(p, seed=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("enumerate", help="stream all graphs of a size")
    p.add_argument("what", choices=("tournaments", "trees"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--iso", action="store_true",
        help="one tournament per isomorphism class",
    )
    p.add_argument("--count-only", action="store_true")
    _add_out(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser(
        "verify-sumner", help="embed every tree in every tournament"
    )
    p.add_argument("-n", type=int, required=True, help="tree size")
    p.add_argument(
        "--tournament-source", choices=("exhaustive", "iso", "sample"),
        default="exhaustive",
    )
    p.add_argument(
        "--tree-source", choices=("iso", "sample"), default="iso"
    )
    p.add_argument(
        "--count", type=int, default=100,
        help="sample count when a source is 'sample'",
    )
    _add_out(p, seed=True)
    _add_campaign(p)
    p.set_defaults(handler=_cmd_verify_sumner)

    p = sub.add_parser(
        "verify-sharpness", help="certify the tightness constructions"
    )
    p.add_argument(
        "--n-range", default="3-6", help="inward-star sizes, e.g. 3-6"
    )
    p.add_argument(
        "--near-extremal", default="6,2;7,3;8,2",
        help="semicolon-separated n,path_len pairs ('' to skip)",
    )
    _add_out(p)
    _add_campaign(p)
    p.set_defaults(handler=_cmd_verify_sharpness)

    p = sub.add_parser("props", help="run randomized property suites")
    p.add_argument(
        "--suites", default=None,
        help=f"comma-separated subset of: {', '.join(available_suites())}",
    )
    p.add_argument(
        "--scale", type=float, default=float(_env("scale", 1.0)),
        help="case-count multiplier (default 1.0)",
    )
    p.add_argument(
        "--inject-embedding-defect", action="store_true",
        help="negative control: corrupt one embedding; suites must fail",
    )
    _add_out(p, seed=True)
    p.set_defaults(handler=_cmd_props)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ParseError, ValueError, OSError) as e:
        print(f"treetour: error: {e}", file=sys.stderr)
        return 2
    except SplitRegimeError as e:
        print(f"treetour: regime: {e.postcondition}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
