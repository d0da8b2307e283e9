"""Seeded generators of hypothesis-satisfying instances, plus mutators
that break exactly one named hypothesis.

Every generated instance must run to a verified embedding; every mutated
instance must be rejected with the targeted clause named first in the
error.  Mutators may refuse ("cannot break"/"no slack") when an instance
has no room to violate only that clause; refusal must be an explicit
error, never a silently-still-valid instance.
"""

import pytest

from treetour import (
    HypothesisViolation,
    TwoSetInstance,
    break_one_by_one,
    break_round_the_back,
    break_two_set,
    component_by_component,
    dual_component_by_component,
    extend_one_by_one,
    random_one_by_one_instance,
    random_round_the_back_instance,
    random_two_set_instance,
    round_the_back,
)
from treetour.graphs import bits, mask_of
from treetour.weights import hanging_components


def branch_span(T, t):
    return max((h.comp.bit_count() for h in hanging_components(T, 1 << t)), default=0)


# ---------------------------------------------------------------------------
# Round-the-back instances


def test_generated_instances_run_and_respect_occupancy():
    for seed in range(30):
        inst = random_round_the_back_instance(seed)
        phi = round_the_back(inst)
        assert phi[inst.t] == inst.v
        d = branch_span(inst.T, inst.t)
        assert (mask_of(phi.values()) & inst.X).bit_count() <= 4 * d


@pytest.mark.parametrize("which", ["(root)", "(N-size)", "(N-out)", "(X-capacity)"])
def test_each_mutation_is_rejected_by_name(which):
    for seed in range(10):
        inst = random_round_the_back_instance(seed)
        bad = break_round_the_back(inst, which)
        with pytest.raises(HypothesisViolation) as err:
            round_the_back(bad)
        assert str(err.value).startswith(which)


def test_unknown_mutation_target_is_an_error():
    inst = random_round_the_back_instance(0)
    with pytest.raises(ValueError):
        break_round_the_back(inst, "(bogus)")


# ---------------------------------------------------------------------------
# One-by-one instances


@pytest.mark.parametrize("variant", ["a", "b", "c"])
def test_generated_extensions_succeed(variant):
    for seed in range(30):
        inst = random_one_by_one_instance(seed, variant)
        phi = extend_one_by_one(inst)
        assert set(phi) == set(range(inst.T.n))
        if variant == "b":
            landed = mask_of(
                phi[u] for u in range(inst.T.n) if not (inst.T_c >> u) & 1
            )
            assert (landed & inst.N_prime).bit_count() >= inst.r


def one_by_one_targets(inst, variant):
    has_out = any(
        (inst.T_c >> a) & 1 and not (inst.T_c >> b) & 1 for a, b in inst.T.arcs
    )
    if variant == "a":
        return ["(i)", "(ii)", "(seed)"]
    if variant == "b":
        return ["(i)", "(ii)", "(iii)", "(iv)", "(seed)"]
    targets = ["(i)" if has_out else "(ii)", "(seed)"]
    crossing = sum(
        1 for a, b in inst.T.arcs if ((inst.T_c >> a) & 1) != ((inst.T_c >> b) & 1)
    )
    if crossing >= 2:
        targets.append("(direction)")
    return targets


@pytest.mark.parametrize("variant", ["a", "b", "c"])
def test_each_extension_mutation_is_rejected_by_name(variant):
    refused = 0
    for seed in range(10):
        inst = random_one_by_one_instance(seed, variant)
        for which in one_by_one_targets(inst, variant):
            try:
                bad = break_one_by_one(inst, which)
            except ValueError as exc:
                assert "no slack" in str(exc) or "cannot break" in str(exc)
                refused += 1
                continue
            with pytest.raises(HypothesisViolation) as err:
                extend_one_by_one(bad)
            assert str(err.value).startswith(which)
    assert refused < 10  # refusal must be the exception, not the rule


# ---------------------------------------------------------------------------
# Two-set instances


def test_generated_two_set_instances_split_correctly():
    for seed in range(30):
        inst = random_two_set_instance(seed)
        phi = component_by_component(inst)
        assert set(phi) == set(range(inst.T.n))
        for u in bits(inst.F_plus):
            assert (inst.Y >> phi[u]) & 1
        for u in bits(inst.F_minus):
            assert (inst.Z >> phi[u]) & 1


def test_two_set_dual_solves_the_mirrored_instance():
    for seed in range(10):
        inst = random_two_set_instance(seed)
        mirror = TwoSetInstance(
            T=inst.T.reverse(),
            F_minus=inst.F_plus,
            F_plus=inst.F_minus,
            G=inst.G.reverse(),
            Y=inst.Z,
            Z=inst.Y,
            gamma=inst.gamma,
            alpha=inst.alpha,
            seed=inst.seed,
        )
        assert dual_component_by_component(mirror) == component_by_component(inst)


@pytest.mark.parametrize(
    "which",
    [
        "(cross-direction)",
        "(Y-size)",
        "(Z-size)",
        "(Y-out-gamma)",
        "(Z-in-gamma)",
        "(seed)",
    ],
)
def test_each_two_set_mutation_is_rejected_by_name(which):
    hit = 0
    for seed in range(10):
        inst = random_two_set_instance(seed)
        try:
            bad = break_two_set(inst, which)
        except ValueError as exc:
            assert "cannot break" in str(exc) or "no slack" in str(exc)
            continue
        with pytest.raises(HypothesisViolation) as err:
            component_by_component(bad)
        assert str(err.value).startswith(which)
        hit += 1
    assert hit > 0 or which == "(Z-in-gamma)"  # structurally tight target


# ---------------------------------------------------------------------------
# Determinism


def test_instance_generators_are_deterministic():
    assert random_round_the_back_instance(7) == random_round_the_back_instance(7)
    assert random_one_by_one_instance(7, "b") == random_one_by_one_instance(7, "b")
    assert random_two_set_instance(7) == random_two_set_instance(7)


def test_different_seeds_give_different_instances():
    assert random_two_set_instance(1) != random_two_set_instance(2)
