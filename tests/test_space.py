from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzycoarse import (
    LUKASIEWICZ,
    PRODUCT,
    EuclideanLattice,
    EuclideanLine,
    MaxUltrametric,
    ScaleParams,
    TableMetric,
    Window,
    ball,
    check_axioms,
    check_metric_axioms,
    grid_window,
    int_window,
    is_bounded,
    pathological_space,
    ratio_minmax_space,
    reciprocal_product_space,
    standard_space,
    subspace,
    threshold_bridge_suite,
    threshold_split,
    ultrametric_space,
    union_bound,
)
from fuzzycoarse.errors import DomainError, ExactnessError, UnsupportedOperationError
from fuzzycoarse.space import RATIONALS

F = Fraction


def brute_ball(space, x, params, window):
    """Independent oracle: direct scan of the defining inequality."""
    b, t = params.threshold, params.t
    return tuple(y for y in window if space.value(x, y, t) > b)


# ---------------------------------------------------------------------------
# windows and scale parameters
# ---------------------------------------------------------------------------


def test_scale_params_validation():
    ScaleParams(F(1, 2), 1)
    with pytest.raises(DomainError):
        ScaleParams(0, 1)
    with pytest.raises(DomainError):
        ScaleParams(1, 1)
    with pytest.raises(DomainError):
        ScaleParams(F(1, 2), 0)


def test_window_between():
    w = int_window(1, 10)
    assert w.between(F(5, 2), F(9, 2)) == (3, 4)
    assert w.between(3, 5) == (4,)
    assert w.between(3, 5, include_lo=True, include_hi=True) == (3, 4, 5)
    assert w.between(None, 3) == (1, 2)
    assert w.between(8, None) == (9, 10)
    assert w.label() == "1..10"
    assert grid_window(0, 2, F(1, 2)).points == (0, F(1, 2), 1, F(3, 2), 2)


def test_window_contiguity_is_decided_once_from_the_points():
    assert Window(range(-3, 4)).is_contiguous_ints()
    assert Window([3, 1, 2, 2]).is_contiguous_ints()
    assert not Window(range(0, 10, 2)).is_contiguous_ints()
    assert not Window([1, F(3, 2), 3]).is_contiguous_ints()
    assert not Window([]).is_contiguous_ints()


def test_runs_of_takes_points_in_any_order():
    w = int_window(1, 10)
    assert w.runs_of((2, 3, 4)) == [(1, 4)]
    assert w.runs_of((2, 5, 4)) == [(1, 2), (3, 5)]
    assert w.runs_of((4, 3, 2)) == [(1, 4)]
    assert w.runs_of((2, 2, 4)) == [(1, 2), (3, 4)]
    assert w.runs_of((0, 1, 2, 11)) == [(0, 2)]
    assert w.runs_of(range(0, 4)) == [(0, 3)]
    sparse = Window([1, 3, F(7, 2), 9])
    assert sparse.runs_of((9, 3)) == [(1, 2), (3, 4)]
    assert sparse.runs_of((3, F(7, 2), 9)) == [(1, 4)]


BOUNDS = st.none() | st.fractions(-9, 12, max_denominator=3)


@given(lo=BOUNDS, hi=BOUNDS, include_lo=st.booleans(), include_hi=st.booleans(),
       sparse=st.booleans())
@settings(max_examples=200, deadline=None)
def test_window_between_matches_its_definition(lo, hi, include_lo, include_hi, sparse):
    w = Window([-5, -2, F(1, 2), 3, 8] if sparse else range(-5, 9))

    def inside(p):
        return ((lo is None or (p >= lo if include_lo else p > lo))
                and (hi is None or (p <= hi if include_hi else p < hi)))

    want = tuple(p for p in w if inside(p))
    assert w.between(lo, hi, include_lo, include_hi) == want
    assert w.count_between(lo, hi, include_lo, include_hi) == len(want)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_values():
    std = standard_space()
    assert std.value(0, 1, 1) == F(1, 2)
    assert reciprocal_product_space().value(2, 3, 1) == F(1, 6)
    assert ratio_minmax_space().value(4, 9, 7) == F(4, 9)
    ult = ultrametric_space()
    assert ult.value(3, 5, 10) == F(10, 15)
    assert ult.value(4, 4, 10) == 1
    pat = pathological_space()
    assert pat.value(1, 5, 1) == F(1, 5)
    assert pat.value(5, 1, 1) == F(1, 5)
    assert pat.value(2, 9, 1) == F(1, 2)
    assert pat.value(6, 6, 1) == 1


def test_eval_validation():
    std = standard_space()
    with pytest.raises(DomainError):
        std.value(0, 1, 0)
    with pytest.raises(DomainError):
        std.value(F(1, 2), 1, 1)  # integers universe
    with pytest.raises(DomainError):
        reciprocal_product_space().value(0, 1, 1)  # naturals universe


def test_lattice_exactness():
    lat = standard_space(EuclideanLattice(2))
    assert lat.value((0, 0), (3, 4), 1) == F(1, 6)
    with pytest.raises(ExactnessError):
        lat.value((0, 0), (1, 1), 1)
    line = standard_space(EuclideanLattice(1))
    assert line.value((0,), (4,), 1) == F(1, 5)


def test_table_metric():
    tm = TableMetric([10, 20, 30], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    sp = standard_space(tm)
    assert sp.value(10, 30, 2) == F(1, 2)
    rep = check_metric_axioms(tm, Window([10, 20, 30]))
    assert rep.passed
    with pytest.raises(DomainError):
        TableMetric([1, 2], [[0, 1], [2, 0]])  # asymmetric


def test_max_ultrametric_strong_triangle():
    rep = check_metric_axioms(MaxUltrametric(), int_window(1, 15))
    assert rep.passed


def test_standard_space_defaults_to_the_metric_universe():
    """max(x, y) is a metric on the positive integers only: on the integers
    M(-3,-5,1) would be -1/2 and M(-3,-5,10) would be 10/7."""
    from fuzzycoarse.config import space_from_config

    for sp in (standard_space(MaxUltrametric()),
               space_from_config({"kind": "standard", "metric": "max_ultrametric"})):
        assert sp.universe.name == "naturals"
        with pytest.raises(DomainError):
            sp.value(-3, -5, 1)
        assert sp.value(3, 5, 1) == F(1, 6)
    assert standard_space().universe.name == "integers"
    assert standard_space(EuclideanLattice(2)).universe.name == "lattice2"
    table = standard_space(TableMetric([10, 20], [[0, 1], [1, 0]]))
    assert 10 in table.universe and 15 not in table.universe
    assert standard_space(MaxUltrametric(), universe=RATIONALS).universe is RATIONALS


def test_subspace_agrees_with_parent():
    std = standard_space()
    sub = subspace(std, [0, 2, 4])
    assert sub.value(0, 2, 1) == F(1, 3)
    with pytest.raises(DomainError):
        sub.value(1, 2, 1)
    with pytest.raises(DomainError):
        subspace(reciprocal_product_space(), [0, 1])


def test_subspace_degenerate_cases():
    rec = reciprocal_product_space()
    full = subspace(rec, range(1, 11))
    w = int_window(1, 10)
    for x in w:
        for y in w:
            assert full.value(x, y, 1) == rec.value(x, y, 1)
    empty = subspace(rec, [])
    assert is_bounded(empty, [], ScaleParams(F(1, 2), 1))
    from fuzzycoarse import Family, is_scale_disjoint, is_uniformly_bounded_family

    fam = Family.of([])
    assert is_uniformly_bounded_family(empty, fam, ScaleParams(F(1, 2), 1))
    assert is_scale_disjoint(empty, fam, ScaleParams(F(1, 2), 1))


# ---------------------------------------------------------------------------
# threshold bridge
# ---------------------------------------------------------------------------


def test_threshold_split_examples():
    assert threshold_split(3, ScaleParams(F(1, 2), 4)) == (True, True)
    assert threshold_split(0, ScaleParams(F(1, 7), F(9, 5))) == (True, True)
    assert threshold_split(5, ScaleParams(F(1, 2), 5)) == (False, False)


@given(
    d=st.fractions(min_value=0, max_value=50, max_denominator=40),
    r=st.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda q: 0 < q < 1),
    t=st.fractions(min_value=0, max_value=30, max_denominator=20).filter(lambda q: q > 0),
)
@settings(max_examples=200, deadline=None)
def test_threshold_sides_agree(d, r, t):
    fuzzy, metric = threshold_split(d, ScaleParams(r, t))
    assert fuzzy == metric


def test_bridge_suite_seeded():
    rep = threshold_bridge_suite(seed=0, cases=200)
    assert rep.passed
    again = threshold_bridge_suite(seed=0, cases=200)
    assert rep.lines() == again.lines()


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


def test_ball_standard_integers():
    std = standard_space()
    got = ball(std, 0, ScaleParams(F(1, 2), 5), int_window(-10, 10))
    assert got == tuple(range(-4, 5))


def test_ball_ultrametric():
    ult = ultrametric_space()
    got = ball(ult, 1, ScaleParams(F(1, 2), 10), int_window(1, 200))
    assert got == tuple(range(1, 10))


def test_ball_tiny_radius_is_singleton():
    for sp in (standard_space(), ratio_minmax_space(), reciprocal_product_space(),
               pathological_space(), ultrametric_space()):
        w = int_window(1, 30)
        got = ball(sp, 7, ScaleParams(F(1, 1000), 1), w)
        assert got == (7,)


@pytest.mark.parametrize(
    "factory",
    [standard_space, ratio_minmax_space, reciprocal_product_space,
     pathological_space, ultrametric_space],
)
@pytest.mark.parametrize("r,t", [(F(1, 3), 1), (F(1, 2), 3), (F(7, 9), F(5, 2))])
def test_ball_fast_path_matches_brute(factory, r, t):
    sp = factory()
    lo = 1 if sp.universe.name == "naturals" else -8
    w = int_window(lo, 17)
    params = ScaleParams(r, t)
    for x in w:
        assert sp.ball_points(x, params.threshold, params.t, w) == \
            brute_ball(sp, x, params, w)


def test_ball_contains_center_and_monotone():
    sp = ratio_minmax_space()
    w = int_window(1, 40)
    for x in (1, 7, 23):
        small = set(ball(sp, x, ScaleParams(F(1, 4), 1), w))
        big = set(ball(sp, x, ScaleParams(F(1, 2), 1), w))
        assert x in small
        assert small <= big
    std = standard_space()
    wz = int_window(-20, 20)
    b1 = set(ball(std, 0, ScaleParams(F(1, 2), 1), wz))
    b2 = set(ball(std, 0, ScaleParams(F(1, 2), 4), wz))
    assert b1 <= b2


def test_radiality_flags_hold():
    """The structural flags that unlock fast paths, against brute force."""
    for factory in (standard_space, ratio_minmax_space, pathological_space,
                    ultrametric_space):
        sp = factory()
        lo = 1 if sp.universe.name == "naturals" else -6
        pts = list(int_window(lo, 12))
        if sp.radially_monotone:
            for t in (F(1, 2), 2):
                for i, x in enumerate(pts):
                    for j in range(i + 1, len(pts)):
                        for k in range(j + 1, len(pts)):
                            v = sp.value(x, pts[k], t)
                            assert v <= sp.value(x, pts[j], t)
                            assert v <= sp.value(pts[j], pts[k], t)
    rec = reciprocal_product_space()
    assert rec.coordinate_decreasing
    for x in range(1, 10):
        for y in range(x + 1, 10):
            assert rec.value(x + 1, y + 1, 1) <= rec.value(x, y, 1)


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------


def test_bounded_pathological():
    pat = pathological_space()
    p34 = ScaleParams(F(3, 4), 1)
    assert is_bounded(pat, [1, 2], p34)
    assert not is_bounded(pat, range(1, 5), p34)
    assert not is_bounded(pat, range(1, 40), p34)
    assert is_bounded(pat, [9], p34)
    assert is_bounded(pat, [], p34)
    assert is_bounded(pat, range(2, 40), ScaleParams(F(3, 4), 1))  # no point 1 involved


def test_bounded_matches_metric_diameter():
    """At r = 1/2 the standard space's boundedness is the metric fact d < t."""
    std = standard_space()
    w = list(int_window(-5, 6))
    subsets = [w[:3], w[2:9], [w[0], w[-1]], w]
    for subset in subsets:
        for t in (3, 7, 11, F(23, 2)):
            diam = max(abs(a - b) for a in subset for b in subset)
            assert is_bounded(std, subset, ScaleParams(F(1, 2), t)) == (diam < t)


def test_union_bound():
    std = standard_space()
    s, t_out = union_bound(std, ScaleParams(F(1, 2), 1), ScaleParams(F(1, 2), 5), 0, 2)
    # middle factor t/(t+d) = 1/3, chain (1/2)(1/3)(1/2) = 1/12
    assert 1 - s == F(1, 12)
    assert t_out == 7
    # coinciding anchors: the middle factor is 1
    s2, _ = union_bound(std, ScaleParams(F(1, 2), 1), ScaleParams(F(1, 3), 5), 4, 4)
    assert 1 - s2 == F(1, 2) * F(2, 3)
    with pytest.raises(UnsupportedOperationError):
        union_bound(pathological_space(), ScaleParams(F(1, 2), 1),
                    ScaleParams(F(1, 2), 1), 1, 2)


# ---------------------------------------------------------------------------
# axiom certification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory,window",
    [
        (standard_space, int_window(-10, 10)),
        (reciprocal_product_space, int_window(1, 20)),
        (ratio_minmax_space, int_window(1, 20)),
        (pathological_space, int_window(1, 20)),
        (ultrametric_space, int_window(1, 20)),
    ],
)
def test_axioms_pass_for_builtins(factory, window):
    rep = check_axioms(factory(), window, [F(1, 2), 1, 2])
    assert rep.passed, str(rep)


def test_pathological_with_product_fails_chain():
    rep = check_axioms(pathological_space(PRODUCT), int_window(1, 5), [1])
    assert not rep.passed
    fail = rep.failures()[0]
    assert fail.predicate == "chain-inequality"
    detail = dict(fail.details)
    assert "~" in detail["witness"]
    # the chain value really does exceed the right side at the witness
    lhs = Fraction(*map(int, detail["lhs"].split("/"))) if "/" in detail["lhs"] else Fraction(int(detail["lhs"]))
    rhs = Fraction(*map(int, detail["rhs"].split("/"))) if "/" in detail["rhs"] else Fraction(int(detail["rhs"]))
    assert lhs > rhs


def test_pathological_with_lukasiewicz_flagged():
    rep = check_axioms(pathological_space(LUKASIEWICZ), int_window(1, 12), [1, 2])
    assert rep.passed
    notes = [c for c in rep.checks if c.predicate == "tnorm-positivity"]
    assert notes and ("positivity_preserving", "false") in notes[0].details


def test_axiom_report_has_sampling_notes():
    rep = check_axioms(ratio_minmax_space(), int_window(1, 6), [1])
    preds = [c.predicate for c in rep.checks if c.verdict == "NOTE"]
    assert "monotone-in-t" in preds
    assert "continuity-in-t" in preds


def test_axioms_on_rational_window():
    from fuzzycoarse.space import RATIONALS

    sp = standard_space(EuclideanLine(), PRODUCT, RATIONALS)
    rep = check_axioms(sp, grid_window(0, 3, F(1, 2)), [1, 2])
    assert rep.passed


def test_axioms_with_custom_tnorm_uses_generic_scan():
    """A user-supplied rule has no specialized scanner and unknown
    positivity; the exhaustive check still runs on exact Fractions."""
    from fuzzycoarse import TNorm

    custom = TNorm("square-product", lambda a, b: a * a * b * b, None)
    # not a t-norm: a*1 = a^2 != a; identity must fail on the grid check
    from fuzzycoarse import check_tnorm_axioms

    rep = check_tnorm_axioms(custom, [0, F(1, 2), 1])
    assert not rep.passed
    # a genuine custom clone of the product passes the chain scan
    clone = TNorm("product-clone", lambda a, b: a * b, None)
    sp = standard_space(EuclideanLine(), clone)
    rep2 = check_axioms(sp, int_window(-6, 6), [1, 2])
    assert rep2.passed


def test_axioms_on_collinear_lattice_window():
    lat = standard_space(EuclideanLattice(2))
    w = Window([(k, 0) for k in range(8)])
    rep = check_axioms(lat, w, [1, 2])
    assert rep.passed
    got = ball(lat, (3, 0), ScaleParams(F(1, 2), 2), w)
    assert got == ((2, 0), (3, 0), (4, 0))
    with pytest.raises(ExactnessError):
        check_axioms(lat, Window([(0, 0), (1, 1)]), [1])


def test_subspace_keeps_fast_paths_exact():
    ratio = ratio_minmax_space()
    evens = list(range(2, 41, 2))
    sub = subspace(ratio, evens)
    w = Window(evens)
    params = ScaleParams(F(2, 5), 1)
    for x in (2, 10, 34):
        assert sub.ball_points(x, params.threshold, params.t, w) == \
            brute_ball(sub, x, params, w)
