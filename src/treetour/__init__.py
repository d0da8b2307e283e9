"""Embedding oriented trees into tournaments.

A tournament is an orientation of a complete graph; an oriented tree is an
orientation of a tree.  This package provides:

- bit-level tournament and oriented-tree types with exact text formats
  (:mod:`treetour.graphs`, :mod:`treetour.formats`);
- edge-weight and core-tree analysis of oriented trees
  (:mod:`treetour.weights`);
- base embedding procedures: complete backtracking search, Redei
  (Hamiltonian directed) paths, median orders, outbranching embedding and
  a greedy embedder (:mod:`treetour.search`);
- a portfolio driver over greedy, path, branching and complete search
  (:mod:`treetour.strategies`);
- robust outexpander verdicts, non-expander splits, and a tournament
  decomposition into expander/small pieces (:mod:`treetour.expansion`);
- deterministic seeded generators and exhaustive enumeration up to
  isomorphism (:mod:`treetour.generate`);
- a batch verification harness, property suites with counterexample
  shrinking, and a CLI (:mod:`treetour.reports`, :mod:`treetour.props`,
  :mod:`treetour.cli`).

All randomness flows through an explicit, documented, bit-exact PRNG; equal
seeds give equal outputs on every platform.

Each export loads on first use (PEP 562): ``import treetour`` runs none of
the modules above, and ``treetour.verify_sumner`` imports the campaign
code and what it calls, not the property suites or the expansion code.
"""

__version__ = "0.1.0"

from importlib import import_module

# Each export and the module that defines it; ``__all__`` is read from it.
_HOMES = {
    "DirectedTree": "graphs",
    "GraphDefectError": "graphs",
    "ParseError": "graphs",
    "PartialMapError": "graphs",
    "Tournament": "graphs",
    "as_fraction": "graphs",
    "canonical_form": "graphs",
    "degrees": "graphs",
    "directed_edge_count": "graphs",
    "is_valid_embedding": "graphs",
    "parse_tournament": "formats",
    "parse_tree": "formats",
    "write_tournament": "formats",
    "write_tree": "formats",
    "CoreTree": "weights",
    "WeightProfile": "weights",
    "core_tree": "weights",
    "weight_profile": "weights",
    "EmbedOutcome": "search",
    "embed_outbranching": "search",
    "exhaustive_embed": "search",
    "forward_arc_count": "search",
    "greedy_embed": "search",
    "median_order": "search",
    "redei_path": "search",
    "enumerate_oriented_trees": "generate",
    "enumerate_tournaments": "generate",
    "inward_star": "generate",
    "near_extremal_pair": "generate",
    "random_oriented_tree": "generate",
    "random_tournament": "generate",
    "rotational_regular_tournament": "generate",
    "stream": "generate",
    "transitive_tournament": "generate",
    "portfolio_embed": "strategies",
    "ExpanderVerdict": "expansion",
    "SplitResult": "expansion",
    "SplitRegimeError": "expansion",
    "SplitSearchExhausted": "expansion",
    "is_robust_outexpander": "expansion",
    "make_expander_checker": "expansion",
    "non_expander_split": "expansion",
    "robust_out_neighbourhood": "expansion",
    "tournament_split": "expansion",
    "CampaignSummary": "reports",
    "InstanceReport": "reports",
    "verify_sharpness": "reports",
    "verify_sumner": "reports",
    "PropertyConfig": "props",
    "available_suites": "props",
    "run_property_suites": "props",
    "shrink_tournament": "props",
    "shrink_tree": "props",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    """Import an export's module, or a module named in ``_HOMES``, on first
    access, and keep the value in the package globals: later lookups are
    plain dictionary hits, and code that scans ``vars(treetour)`` for the
    bindings of a function, to patch them, finds it there.
    """
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _HOMES.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
