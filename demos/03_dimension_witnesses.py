"""Walkthrough: dimension witnesses at explicit scales.

Three constructions, their verification, a witness restricted to a
subspace, and the scale-graph lower bound.

Run:  python demos/03_dimension_witnesses.py
"""

from fractions import Fraction as F

from fuzzycoarse import (
    ScaleParams,
    int_window,
    oracle_min_families,
    ratio_block_structure,
    ratio_minmax_space,
    reciprocal_product_space,
    restrict_witness,
    scale_graph,
    subspace,
    ultrametric_space,
    verify_witness,
    witness_ball_partition,
    witness_ratio_minmax,
    witness_reciprocal_product,
)

params = ScaleParams(F(1, 2), 1)

# Reciprocal-product space (closeness 1/(xy)): a finite head plus
# singletons forms a single separated family, so the dimension bound is 0
# at every scale.
rec = reciprocal_product_space()
w = int_window(1, 1000)
wit = witness_reciprocal_product(params, w)
print("head-plus-singletons head:", wit.families[0].sets[0])
print(verify_witness(rec, wit))
print()

# Ratio space (closeness min/max): consecutive integers stay close at
# every scale, so one family can never work; two alternating families of
# blocks and gaps do.  The block recursion is exact; at r = 1/2 the
# strict inequalities force these starts and widths:
blocks = ratio_block_structure(F(1, 2), 100)
print("block starts:", blocks.starts)
print("block widths:", blocks.widths)
ratio = ratio_minmax_space()
wit2 = witness_ratio_minmax(params, int_window(1, 10_000))
print(verify_witness(ratio, wit2))
print()

# Subspaces: separation and boundedness are hereditary, so a dimension
# bound passes to any subset at the same scales.  The block witness cut
# down to the even points verifies on the subspace of the evens.
evens = range(2, 10_001, 2)
print(verify_witness(subspace(ratio, evens), restrict_witness(wit2, evens)))
print()

# The lower bound: at (1/2, t) the closed-threshold graph on 1..N is one
# spanning component whose internal minimum is 1/N, so a single covering
# family would need one set containing everything, and no fixed bound
# level survives N growing.
graph = scale_graph(ratio, params, int_window(1, 10_000))
print("spanning:", graph.spanning, " min internal:", graph.min_internal,
      "at", graph.min_internal_pair)
print()

# Non-Archimedean line under the minimum t-norm: slightly enlarged balls
# partition the window (equal or disjoint), giving dimension 0.
ult = ultrametric_space()
wit3 = witness_ball_partition(ult, ScaleParams(F(1, 4), 10), F(1, 4), int_window(1, 200))
print("ball partition, first members:", wit3.families[0].sets[:3], "...")
print(verify_witness(ult, wit3))
print()

# The exact oracle agrees on tiny windows: a backtracking search colours
# the window points with the fewest classes in which every component of
# the separation graph is bounded, evaluating M directly.
tiny = int_window(2, 8)
k = oracle_min_families(ratio, params, params, tiny)
print(f"oracle on {tiny.label()} at (1/2, 1): minimum families = {k}")
