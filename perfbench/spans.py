"""Span recorder that wraps library functions from outside the library.

:class:`Recorder` replaces each traced public function at every module
binding that holds it (``treetour.search.core_tree`` and
``treetour.weights.core_tree`` are separate bindings of one function), so
calls between library modules are seen as well as calls from the
benchmark.  Spans stay in memory as ``(op, parent, name, start, end)``
tuples and are written out once, after the traced run.  Counts that need
arguments or results (distinct trees, Found outcomes, search nodes, stage
wins, raised errors) are taken at the same boundaries.

Per-layer metrics are derived from the spans: a layer's self time is its
span duration minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Sequence

# Portfolio stages, as they appear in ``EmbedOutcome.strategy``
# (``portfolio/<stage>``).
STAGES = (
    "redei-path",
    "greedy",
    "outbranching",
    "inbranching-by-reversal",
    "star-shaped",
    "two-set",
    "two-set-dual",
    "exhaustive",
)


def _core_tree_note(rec: "Recorder", args, kwargs, result, exc) -> None:
    tree = args[0] if args else kwargs["T"]
    rec.tree_keys.add((tree.n, tuple(sorted(tree.arcs))))


def _found_note(rec: "Recorder", args, kwargs, result, exc) -> None:
    if result is not None and result.verdict == "found":
        rec.counts["search.greedy_embed.found"] += 1


def _nodes_note(rec: "Recorder", args, kwargs, result, exc) -> None:
    if result is not None:
        rec.counts["search.exhaustive_embed.nodes"] += result.nodes


def _stage_note(rec: "Recorder", args, kwargs, result, exc) -> None:
    if result is not None and result.strategy.startswith("portfolio/"):
        rec.counts["strategies.stage_wins." + result.strategy.split("/", 1)[1]] += 1


def _exhausted_note(rec: "Recorder", args, kwargs, result, exc) -> None:
    if exc is not None and type(exc).__name__ == "SplitSearchExhausted":
        rec.counts["expansion.non_expander_split.exhausted"] += 1


def _failed_note(rec: "Recorder", args, kwargs, result, exc) -> None:
    if exc is not None:
        rec.counts["expansion.tournament_split.failed"] += 1


def _expander_mode(args, kwargs) -> str:
    return args[3] if len(args) > 3 else kwargs.get("mode", "exact")


# (module, attribute, note, span-name suffix from the arguments).  The span
# name is "<module>.<attribute>", whichever binding the call went through.
TARGETS: tuple[tuple[str, str, Callable | None, Callable | None], ...] = (
    ("formats", "parse_tree", None, None),
    ("formats", "parse_tournament", None, None),
    ("generate", "random_tournament", None, None),
    ("weights", "core_tree", _core_tree_note, None),
    ("search", "greedy_embed", _found_note, None),
    ("search", "exhaustive_embed", _nodes_note, None),
    ("search", "redei_path", None, None),
    ("search", "median_order", None, None),
    ("search", "embed_outbranching", None, None),
    ("strategies", "portfolio_embed", _stage_note, None),
    ("expansion", "is_robust_outexpander", None, _expander_mode),
    ("expansion", "non_expander_split", _exhausted_note, None),
    ("expansion", "tournament_split", _failed_note, None),
    ("reports", "verify_sumner", None, None),
)

# Span names that per-layer metrics are reported for (calls and self_s).
LAYER_SPANS = (
    "formats.parse_tree",
    "formats.parse_tournament",
    "graphs.Tournament",
    "generate.random_tournament",
    "weights.core_tree",
    "search.greedy_embed",
    "search.exhaustive_embed",
    "search.redei_path",
    "search.median_order",
    "search.embed_outbranching",
    "strategies.portfolio_embed",
    "expansion.is_robust_outexpander.exact",
    "expansion.is_robust_outexpander.sampled",
    "expansion.non_expander_split",
    "expansion.tournament_split",
    "reports.verify_sumner",
)


class Recorder:
    """In-memory spans and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.tree_keys: set = set()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note, suffix):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            parent = rec._stack[-1] if rec._stack else -1
            index = len(rec.spans)
            rec.spans.append((rec.op, parent, span, 0.0, 0.0))
            rec._stack.append(index)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[index] = (rec.op, parent, span, start, end)
                if note is not None:
                    note(rec, args, kwargs, result, exc)

        return traced

    def install(self, package) -> None:
        """Wrap every target at every ``treetour`` module binding."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for mod_name, attr, note, suffix in TARGETS:
            original = getattr(getattr(package, mod_name), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, note, suffix)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        tournament = package.graphs.Tournament
        init = tournament.__dict__["__init__"]
        self._patched.append((tournament, "__init__", init))
        tournament.__init__ = self._wrap("graphs.Tournament", init, None, None)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, parent, name, start, end in self.spans:
                fh.write(json.dumps([op, parent, name, start, end]) + "\n")


def self_times(spans: Sequence[tuple[int, int, str, float, float]]) -> dict[str, list]:
    """``{span name: [calls, self seconds]}``.

    A span's self time is its duration minus the length of the union of
    its direct children's intervals, each clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for op, parent, name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for index, (op, parent, name, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return out


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) for one traced run."""
    selfs = self_times(rec.spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        calls, self_s = selfs.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    core_calls = selfs.get("weights.core_tree", (0, 0.0))[0]
    greedy_calls = selfs.get("search.greedy_embed", (0, 0.0))[0]
    metrics["weights.core_tree.distinct_ratio"] = (ratio(len(rec.tree_keys), core_calls), "ratio")
    metrics["search.greedy_embed.success_ratio"] = (
        ratio(rec.counts["search.greedy_embed.found"], greedy_calls),
        "ratio",
    )
    for key in (
        "search.exhaustive_embed.nodes",
        "expansion.non_expander_split.exhausted",
        "expansion.tournament_split.failed",
    ):
        metrics[key] = (rec.counts[key], "count")
    for stage in STAGES:
        key = f"strategies.stage_wins.{stage}"
        metrics[key] = (rec.counts[key], "count")
    return metrics

