"""Differential test: the exhaustive oracle against its frozen earlier version.

``reference_oracle`` enumerated x, z and r, checked C3, C5 and C6 over a
whole batch's bit matrix, and completed its winner with a scalar rebuild
of its own.  The package's oracle enumerates z and r only, sets x on every
coverage pair of a sensing triple, and completes its winner with the
schedule assembler the other solvers use.  On every instance below both
must pick the same z and r, at the same objective within 1e-12 relative,
and the package's schedule must pass the validator with x set exactly on
the coverage pairs of its sensing triples.

The one intended difference is x where a sensing sensor covers a point
that does not demand that phenomenon: the reference sets x only where it
lowers h, the package on every coverage pair, as the other solvers do.
"""

import math

import pytest

import wsnsched as w
from helpers import (make_instance, relay_chain, tiny_instance, trivial_instance,
                     values_by_kind)
import reference_oracle as ref


def _twins():
    return make_instance(
        sensors=[(4.0, 5.0), (6.0, 5.0)], demand_points=[(5.0, 5.0)],
        sinks=[(5.0, 5.0)], radii=(1.0,), comm_radius=2.0)


def _partial_demand():
    """One sensor with two radius-2 phenomena; each of its two points
    demands one of them, and each lies within both radii."""
    return make_instance(
        sensors=[(5.0, 5.0)],
        demand_points=[((5.0, 6.0), (0,)), ((6.0, 5.0), (1,))],
        sinks=[(5.0, 3.0)], radii=(2.0, 2.0))


def _coverage_pairs(inst, arcs, solution):
    """The x indices that the sensing triples of ``solution`` cover."""
    return {(i, j, t, g)
            for (i, t, g) in values_by_kind(solution, "r")
            for (a, j) in arcs.coverage[g] if a == i}


def _assert_same(inst, arcs=None):
    arcs = arcs or w.build_arcs(inst)
    got = w.brute_force_oracle(inst, arcs)
    want = ref.brute_force_oracle(inst, arcs)
    for kind in ("z", "r"):
        assert values_by_kind(got, kind) == values_by_kind(want, kind), kind
    assert math.isclose(got.objective, want.objective, rel_tol=1e-12)
    assert w.check_feasibility(inst, arcs, got) == []
    assert set(values_by_kind(got, "x")) == _coverage_pairs(inst, arcs, got)
    return got, want


# Seeds 0-199 include the 40 whose optimum senses something
# (``helpers.SENSING_SEEDS``).
@pytest.mark.parametrize("seed", range(200))
def test_oracle_matches_reference_on_tiny_instances(seed):
    _assert_same(*tiny_instance(seed))


@pytest.mark.parametrize("battery", [0.0, 1.3, 4.0])
@pytest.mark.parametrize("periods", [1, 2])
def test_oracle_matches_reference_on_trivial_instances(battery, periods):
    _assert_same(trivial_instance(battery=battery, periods=periods))


def test_oracle_matches_reference_on_relay_chain():
    _assert_same(relay_chain())


def test_oracle_matches_reference_on_symmetric_twins():
    got, _ = _assert_same(_twins())
    assert values_by_kind(got, "r") == {(1, 0, 0): 1}


def test_oracle_sets_x_on_every_coverage_pair():
    inst = _partial_demand()
    got, want = _assert_same(inst)
    assert values_by_kind(got, "r") == {(0, 0, 0): 1, (0, 0, 1): 1}
    # The reference set x only where a point demands the phenomenon.
    assert len(values_by_kind(want, "x")) == 2
    assert len(values_by_kind(got, "x")) == 4
