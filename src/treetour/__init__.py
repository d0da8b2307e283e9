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
- the two-set embedding lemma of the approximate Sumner proof, with
  seeded instances (:mod:`treetour.twoset`, not imported here);
- robust outexpander verdicts, non-expander splits, and a tournament
  decomposition into expander/small pieces (:mod:`treetour.expansion`);
- deterministic seeded generators and exhaustive enumeration up to
  isomorphism (:mod:`treetour.generate`);
- a batch verification harness, property suites with counterexample
  shrinking, and a CLI (:mod:`treetour.reports`, :mod:`treetour.props`,
  :mod:`treetour.cli`).

All randomness flows through an explicit, documented, bit-exact PRNG; equal
seeds give equal outputs on every platform.
"""

__version__ = "0.1.0"

from .graphs import (
    DirectedTree,
    GraphDefectError,
    ParseError,
    PartialMapError,
    Tournament,
    as_fraction,
    canonical_form,
    degrees,
    directed_edge_count,
    is_valid_embedding,
)
from .formats import parse_tournament, parse_tree, write_tournament, write_tree
from .weights import (
    CoreTree,
    WeightProfile,
    core_tree,
    weight_profile,
)
from .search import (
    EmbedOutcome,
    embed_outbranching,
    exhaustive_embed,
    forward_arc_count,
    greedy_embed,
    median_order,
    redei_path,
)
from .generate import (
    enumerate_oriented_trees,
    enumerate_tournaments,
    inward_star,
    near_extremal_pair,
    random_oriented_tree,
    random_tournament,
    rotational_regular_tournament,
    stream,
    transitive_tournament,
)
from .strategies import portfolio_embed
from .expansion import (
    ExpanderVerdict,
    SplitResult,
    SplitRegimeError,
    SplitSearchExhausted,
    is_robust_outexpander,
    make_expander_checker,
    non_expander_split,
    robust_out_neighbourhood,
    tournament_split,
)
from .reports import (
    CampaignSummary,
    InstanceReport,
    run_campaign,
    verify_sharpness,
    verify_sumner,
)
from .props import (
    PropertyConfig,
    available_suites,
    run_property_suites,
    shrink_tournament,
    shrink_tree,
)

__all__ = [
    "__version__",
    # graphs
    "DirectedTree",
    "GraphDefectError",
    "ParseError",
    "PartialMapError",
    "Tournament",
    "as_fraction",
    "canonical_form",
    "degrees",
    "directed_edge_count",
    "is_valid_embedding",
    # formats
    "parse_tournament",
    "parse_tree",
    "write_tournament",
    "write_tree",
    # weights
    "CoreTree",
    "WeightProfile",
    "core_tree",
    "weight_profile",
    # search
    "EmbedOutcome",
    "embed_outbranching",
    "exhaustive_embed",
    "forward_arc_count",
    "greedy_embed",
    "median_order",
    "redei_path",
    # generate
    "enumerate_oriented_trees",
    "enumerate_tournaments",
    "inward_star",
    "near_extremal_pair",
    "random_oriented_tree",
    "random_tournament",
    "rotational_regular_tournament",
    "stream",
    "transitive_tournament",
    # strategies
    "portfolio_embed",
    # expansion
    "ExpanderVerdict",
    "SplitResult",
    "SplitRegimeError",
    "SplitSearchExhausted",
    "is_robust_outexpander",
    "make_expander_checker",
    "non_expander_split",
    "robust_out_neighbourhood",
    "tournament_split",
    # reports
    "CampaignSummary",
    "InstanceReport",
    "run_campaign",
    "verify_sharpness",
    "verify_sumner",
    # props
    "PropertyConfig",
    "available_suites",
    "run_property_suites",
    "shrink_tournament",
    "shrink_tree",
]
