"""Walkthrough: coarse maps, inverses, composing closeness, and carrying a
witness across.

Run:  python demos/05_coarse_maps.py
"""

from fractions import Fraction as F

from fuzzycoarse import (
    ClosenessCert,
    Family,
    ModulusEntry,
    ScaleParams,
    affine_map,
    check_close,
    check_coarsely_onto,
    check_effectively_proper,
    check_uniformly_expansive,
    coarse_inverse,
    compose_closeness,
    compose_maps,
    grid_window,
    identity_map,
    inclusion_map,
    int_window,
    lift_metric_families,
    standard_space,
    transport_witness,
    verify_witness,
)
from fuzzycoarse.space import RATIONALS

std = standard_space()                      # integers, t/(t + |x - y|)
stdq = standard_space(universe=RATIONALS)   # the same rule on rational samples

# The inclusion of the integers into a half-step rational grid.  Its
# moduli are finite tables: each entry is one checkable implication.
wx = int_window(0, 399)
wy = grid_window(0, 399, F(1, 2))
incl = inclusion_map(
    domain=wx,
    expansive=(ModulusEntry(F(1, 2), 128, F(1, 2), 128),),
    proper=(ModulusEntry(F(1, 8), 3, F(1, 2), 21),),
    onto_params=ScaleParams(F(1, 2), 1),
)

print(check_uniformly_expansive(std, stdq, incl, int_window(0, 40)))
print()
print(check_effectively_proper(std, stdq, incl, int_window(0, 40)))
print()
print(check_coarsely_onto(stdq, incl, incl.onto_params, grid_window(0, 40, F(1, 2))))
print()

# A coarse inverse: the smallest integer within the onto threshold of
# each grid point.  Both composite-closeness certificates are re-checked.
small_incl = inclusion_map(domain=int_window(-5, 5),
                           proper=(ModulusEntry(F(1, 2), 1, F(1, 2), 1),))
g, inv_report = coarse_inverse(std, stdq, small_incl, ScaleParams(F(1, 2), 1),
                               grid_window(-5, 5, F(1, 2)), int_window(-5, 5))
print(inv_report)
print("g(1/2) =", g.apply(F(1, 2)), "  g(-1/2) =", g.apply(F(-1, 2)))
print()

# Composition in the coarse category: closeness of f ~ f' at (r, t) and
# g ~ g' at (r', t'), with an expansiveness entry of g' at level 1 - r and
# time t, gives a certified scale for g f ~ g' f'.  Here f is the identity,
# f' the shift by 1 and g = g' the doubling; check_close re-checks the
# composed maps pointwise at that scale.
wc = int_window(-50, 50)
shift = affine_map(1, 1)
double = affine_map(2, 0, expansive=(ModulusEntry(F(1, 2), 2, F(1, 2), 4),))
close_f = ScaleParams(F(1, 2), 2)
print(check_close(std, identity_map(), shift, close_f, wc))
print()
print(check_uniformly_expansive(std, std, double, wc))
print()
cert = compose_closeness(std, ClosenessCert(close_f), ClosenessCert(ScaleParams(F(1, 2), 1)),
                         double.expansive[0])
print("composed: r =", cert.params.r, " t =", cert.params.t)
print(check_close(std, compose_maps(identity_map(), double, wc),
                  compose_maps(shift, double, wc), cert.params, wc))
print()

# Witness transport: a two-family block witness on the integers, carried
# through the inclusion onto the sampled line.  The derivation (scan
# level, source scale, bounds) is recorded in the report.
fam_a = Family.of([tuple(range(0, 100)), tuple(range(200, 300))], "A")
fam_b = Family.of([tuple(range(100, 200)), tuple(range(300, 400))], "B")


def factory(scale):
    s = (1 + scale.r) / 2
    sep = s * scale.t / (1 - s) + 1
    return lift_metric_families(std, [fam_a, fam_b], sep, scale, wx)


out, report = transport_witness(std, stdq, incl, None, ScaleParams(F(1, 3), 1),
                                wy, witness_factory=factory)
print(report)
print()
print("transported witness verifies:", verify_witness(stdq, out).passed)
