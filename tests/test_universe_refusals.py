"""Every public name that takes a space refuses points outside its
universe with ``DomainError`` (exit code 2 at the CLI), before M is
evaluated there.

The table below holds one call per name that ``__init__.py`` re-exports
with a parameter named ``space*``, each given the points -2 and -1 on
``ultrametric_space()``, where t/(t + max(x, y)) would divide by zero
(the pipeline alone on ``ratio_minmax_space()``; see its row).  A new
``space*`` re-export fails the test until it is listed.
"""

import inspect
from fractions import Fraction as F

import pytest

import fuzzycoarse
from fuzzycoarse import (
    Cover,
    DimensionWitness,
    DomainError,
    Family,
    ModulusEntry,
    ScaleParams,
    Window,
    derived_scale,
    identity_map,
    ratio_minmax_space,
    ultrametric_space,
)

SPACE = ultrametric_space()
P = ScaleParams(F(1, 2), 1)
W = Window([-2, -1])
FAM = Family.of([(-2, -1)])
COVER = Cover.of([FAM], W)
WITNESS = DimensionWitness(0, P, P, (FAM,), W)
ENTRY = ModulusEntry(F(1, 2), 1, F(1, 2), 1)
F_ID = identity_map(domain=W, expansive=(ENTRY,), proper=(ENTRY,), onto_params=P)

# name -> a call with the points -2 and -1 somewhere in its arguments
CALLS = {
    "ball": lambda f: f(SPACE, -2, P, W),
    "check_axioms": lambda f: f(SPACE, W, [1]),
    "check_close": lambda f: f(SPACE, F_ID, F_ID, P, W),
    "check_coarsely_onto": lambda f: f(SPACE, F_ID, P, W),
    "check_effectively_proper": lambda f: f(SPACE, SPACE, F_ID, W),
    "check_uniformly_expansive": lambda f: f(SPACE, SPACE, F_ID, W),
    "coarse_inverse": lambda f: f(SPACE, SPACE, F_ID, P, W, W),
    "derive_bound_params": lambda f: f(SPACE, [(-2, -1)], 1),
    "first_lebesgue_violation": lambda f: f(SPACE, COVER, P),
    "is_bounded": lambda f: f(SPACE, (-2, -1), P),
    "is_uniformly_bounded_family": lambda f: f(SPACE, FAM, P),
    "lebesgue_cover_from_multiplicity": lambda f: f(SPACE, COVER, P, P),
    "lift_metric_families": lambda f: f(SPACE, [FAM], 3, P, W),
    # the witness must be at the derived scale to reach the points
    "multiplicity_cover_from_witness": lambda f: f(
        SPACE, DimensionWitness(0, derived_scale(SPACE, P), P, (FAM,), W), P),
    "neighborhood_family": lambda f: f(SPACE, FAM, P, W, P),
    "oracle_min_families": lambda f: f(SPACE, P, P, W),
    "refinement_via_lebesgue": lambda f: f(SPACE, COVER, COVER, P),
    # the pipeline refuses a t-dependent space before it reads a point, so
    # it gets ratio_minmax, t-free on the same universe, where min/max of
    # -2 and -1 is 2 and would give a verdict
    "run_dimension_pipeline": lambda f: f(
        ratio_minmax_space(), P, lambda scale: DimensionWitness(0, scale, scale, (FAM,), W)),
    "scale_graph": lambda f: f(SPACE, P, W),
    "scale_multiplicity": lambda f: f(SPACE, COVER, P),
    "scale_neighborhood": lambda f: f(SPACE, (-2, -1), P, W),
    "subspace": lambda f: f(SPACE, (-2, -1)),
    "transport_witness": lambda f: f(SPACE, SPACE, F_ID, WITNESS, P, W),
    "union_bound": lambda f: f(SPACE, P, P, -2, -1),
    "verify_witness": lambda f: f(SPACE, WITNESS),
    "verify_witness_scales": lambda f: f(SPACE, WITNESS, [P]),
    "witness_ball_partition": lambda f: f(SPACE, P, None, W),
    "witness_whole_window": lambda f: f(SPACE, W, P),
}

# name -> why it has no row above
TAKES_NO_POINTS = {
    "derived_scale": "reads only the t-norm and the scale",
    "compose_closeness": "composes two closeness certificates and a modulus entry",
}


def _space_re_exports():
    return {name for name in dir(fuzzycoarse)
            if not name.startswith("_") and inspect.isfunction(getattr(fuzzycoarse, name))
            and any(p.startswith("space")
                    for p in inspect.signature(getattr(fuzzycoarse, name)).parameters)}


def test_every_space_re_export_is_listed():
    assert sorted(CALLS.keys() | TAKES_NO_POINTS.keys()) == sorted(_space_re_exports())


@pytest.mark.parametrize("name", sorted(CALLS))
def test_points_outside_the_universe_raise_domain_error(name):
    with pytest.raises(DomainError, match=r"point -[12] is outside the (naturals|parent) universe"):
        CALLS[name](getattr(fuzzycoarse, name))
