"""Walkthrough: from a witness to a low-multiplicity cover, a Lebesgue
cover, and a refinement certificate.

Each implication consumes its input at a derived scale (double the time,
square-and-halve the complement level), so the chain derives twice and
asks for the witness at the innermost scale.

Run:  python demos/04_implication_pipeline.py
"""

from fractions import Fraction as F

from fuzzycoarse import (
    ScaleParams,
    derived_scale,
    int_window,
    multiplicity,
    ratio_minmax_space,
    run_dimension_pipeline,
    scale_multiplicity,
    witness_ratio_minmax,
)

ratio = ratio_minmax_space()
target = ScaleParams(F(1, 2), 1)
w = int_window(1, 2000)

level1 = derived_scale(ratio, target)
level2 = derived_scale(ratio, level1)
print("target scale:      r=1/2, t=1")
print(f"derived once:      r={level1.r}, t={level1.t}")
print(f"derived twice:     r={level2.r}, t={level2.t}")
print()

result = run_dimension_pipeline(ratio, target, lambda scale: witness_ratio_minmax(scale, w))

for rep in result.reports:
    print(rep)
    print()

print("witness families:", [len(f) for f in result.witness.families], "sets")
print("cover scale-multiplicity at target:",
      scale_multiplicity(ratio, result.multiplicity_cover, target))
print("lebesgue cover plain multiplicity:",
      multiplicity(result.lebesgue_cover))
print("pipeline passed:", result.passed)
