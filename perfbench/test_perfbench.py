"""Tests of the benchmark's own code: checker, seeded inputs, span arithmetic.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402
import treetour as tt  # noqa: E402

import hostspeed  # noqa: E402
from check import embedding_error, path_error, split_error  # noqa: E402
from spans import Recorder, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, planted_non_expander  # noqa: E402


def _fingerprint(ops) -> list:
    def one(x):
        if isinstance(x, tt.Tournament):
            return ("tournament", x.out_rows)
        if isinstance(x, tt.DirectedTree):
            return ("tree", x.n, x.arcs)
        return x

    return [(op.label, tuple(one(x) for x in op.inputs)) for op in ops]


# ---------------------------------------------------------------------------
# checker


def test_checker_accepts_and_rejects_embeddings():
    T = tt.random_oriented_tree(12, 3)
    G = tt.random_tournament(22, 4)
    out = tt.portfolio_embed(T, G)
    assert embedding_error(T.n, T.arcs, G.out_rows, out.embedding) is None

    u, v = T.arcs[0]
    flipped = dict(out.embedding)
    flipped[u], flipped[v] = flipped[v], flipped[u]
    assert "non-arc" in embedding_error(T.n, T.arcs, G.out_rows, flipped)

    collided = dict(out.embedding)
    collided[v] = collided[u]
    assert embedding_error(T.n, T.arcs, G.out_rows, collided) is not None

    partial = dict(out.embedding)
    del partial[T.n - 1]
    assert "total" in embedding_error(T.n, T.arcs, G.out_rows, partial)
    assert embedding_error(T.n, T.arcs, G.out_rows, None) is not None


def test_checker_rejects_a_non_path():
    G = tt.random_tournament(40, 5)
    path = tt.redei_path(G)
    assert path_error(G.out_rows, path) is None
    assert "does not beat" in path_error(G.out_rows, path[::-1])
    assert "repeats" in path_error(G.out_rows, path[:-1] + [path[0]])


def test_checker_rejects_an_overlapping_split():
    G = planted_non_expander(30, 2, 11)
    gamma = Fraction(1, 5)
    result = tt.tournament_split(G, Fraction(1, 20), Fraction(1, 20), Fraction(1, 50), gamma)
    pieces = list(result.pieces)
    assert split_error(G.out_rows, pieces, result.classification, result.deleted, gamma) is None

    low = pieces[1] & -pieces[1]
    overlapping = [pieces[0] | low] + pieces[1:]
    error = split_error(G.out_rows, overlapping, result.classification, result.deleted, gamma)
    assert "overlap" in error


def test_checker_recounts_cross_arc_bounds():
    # Transitive host split backwards: every vertex of the first piece has
    # all later vertices as in-neighbours, far more than γ·n.
    G = tt.transitive_tournament(10)
    back = [0b1111100000, 0b0000011111]
    error = split_error(G.out_rows, back, ["unknown"] * 2, 0, Fraction(1, 5))
    assert "in-neighbours in later" in error
    forward = list(reversed(back))
    assert split_error(G.out_rows, forward, ["unknown"] * 2, 0, Fraction(1, 5)) is None
    assert "cover" in split_error(G.out_rows, [0b11111], ["unknown"], 0, Fraction(1, 5))


# ---------------------------------------------------------------------------
# workload inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]()
    workload.prepare()
    first = _fingerprint(workload.round(7, 0))
    assert first == _fingerprint(WORKLOADS[name]().round(7, 0))
    assert first != _fingerprint(workload.round(8, 0))
    assert first != _fingerprint(workload.round(7, 1))


def test_planted_hosts_are_transitive_between_blocks():
    G = planted_non_expander(40, 3, 5)
    assert sorted(G.out_deg(v) for v in range(40))[-1] >= 26  # first block beats the other two
    verdict = tt.is_robust_outexpander(G, Fraction(1, 20), Fraction(1, 20), "sampled")
    assert verdict.status == "not_expander"


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (0, 0, "a", 1.0, 3.0),
        (0, 0, "a", 2.0, 4.0),  # overlaps its sibling: union 1..4
        (0, 0, "b", 8.0, 12.0),  # clipped to 8..10
        (0, 1, "c", 1.5, 2.5),  # grandchild: only its parent loses it
    ]
    selfs = self_times(spans)
    assert selfs["root"] == [1, pytest.approx(10.0 - 3.0 - 2.0)]
    assert selfs["a"] == [2, pytest.approx((2.0 - 1.0) + 2.0)]
    assert selfs["b"] == [1, pytest.approx(4.0)]
    assert selfs["c"] == [1, pytest.approx(1.0)]


def test_recorder_sees_every_binding_and_restores_them():
    original = tt.weights.core_tree
    assert tt.search.core_tree is original and tt.strategies.core_tree is original
    recorder = Recorder()
    recorder.install(tt)
    try:
        assert tt.search.core_tree is not original
        tt.verify_sumner(4, ("sample", 2, 0), "iso")
    finally:
        recorder.uninstall()
    assert tt.search.core_tree is original and tt.strategies.core_tree is original
    assert tt.graphs.Tournament.__init__.__name__ == "__init__"
    assert "__wrapped__" not in vars(tt.graphs.Tournament.__init__)

    metrics = layer_metrics(recorder)
    assert metrics["reports.verify_sumner.calls"][0] == 1
    assert metrics["strategies.portfolio_embed.calls"][0] == 16
    assert metrics["formats.parse_tree.calls"][0] >= 16
    wins = sum(v for k, (v, _) in metrics.items() if k.startswith("strategies.stage_wins."))
    assert wins == 16
    assert 0 < metrics["weights.core_tree.distinct_ratio"][0] <= 1
    names = {name for _, _, name, _, _ in recorder.spans}
    assert {"search.greedy_embed", "weights.core_tree", "graphs.Tournament"} <= names
    assert all(self_s >= 0 for _, self_s in self_times(recorder.spans).values())


# ---------------------------------------------------------------------------
# host speed


def test_reference_kernel_is_fixed_work_and_scale_is_relative():
    assert hostspeed.reference_kernel() == hostspeed.CHECKSUM
    assert hostspeed.sample() > 0
    assert hostspeed.scale(hostspeed.REF_S, hostspeed.REF_S) == pytest.approx(1.0)
    # A host running the kernel twice as slow halves the scale factor.
    slow = 2 * hostspeed.REF_S
    assert hostspeed.scale(slow, slow) == pytest.approx(0.5)
    assert hostspeed.scale(hostspeed.REF_S, slow) == pytest.approx(2 / 3)
