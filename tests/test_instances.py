"""Seeded two-set instances, plus mutators that break exactly one named
hypothesis.

Every generated instance must run to a verified embedding; every mutated
instance must be rejected with the targeted clause named first in the
error.  A mutator may refuse ("cannot break"/"no slack") when an instance
has no room to violate only that clause; refusal must be an explicit
error, never a silently-still-valid instance.
"""

import pytest

from treetour.graphs import bits
from treetour.twoset import (
    HypothesisViolation,
    TwoSetInstance,
    break_two_set,
    component_by_component,
    dual_component_by_component,
    random_two_set_instance,
)


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


def test_different_seeds_give_different_instances():
    assert random_two_set_instance(1) != random_two_set_instance(2)


def test_unknown_mutation_target_is_an_error():
    inst = random_two_set_instance(0)
    with pytest.raises(ValueError):
        break_two_set(inst, "(bogus)")


def test_instance_generators_are_deterministic():
    assert random_two_set_instance(7) == random_two_set_instance(7)
