import bisect
import math
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzycoarse import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    EuclideanLattice,
    EuclideanLine,
    MaxUltrametric,
    Metric,
    ScaleParams,
    TableMetric,
    Window,
    ball,
    check_axioms,
    grid_window,
    int_window,
    is_bounded,
    oracle_min_families,
    pathological_space,
    ratio_minmax_space,
    reciprocal_product_space,
    standard_space,
    subspace,
    threshold_bridge_suite,
    threshold_split,
    ultrametric_space,
    union_bound,
    witness_ball_partition,
)
from fuzzycoarse.errors import (
    DomainError,
    ExactnessError,
    OracleSizeError,
    UnsupportedOperationError,
)
from fuzzycoarse.report import fmt_value
from fuzzycoarse.space import (
    INTEGERS,
    NATURALS,
    RATIONALS,
    _Prefix,
    _Radial,
    _Unordered,
    finite_universe,
)

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


def test_window_contiguity_is_decided_once_from_the_points():
    assert Window(range(-3, 4)).is_contiguous_ints()
    assert Window([3, 1, 2, 2]).is_contiguous_ints()
    assert not Window(range(0, 10, 2)).is_contiguous_ints()
    assert not Window([1, F(3, 2), 3]).is_contiguous_ints()
    assert not Window([]).is_contiguous_ints()
    assert int_window(1, 10).label() == "1..10"
    assert grid_window(0, 2, F(1, 2)).points == (0, F(1, 2), 1, F(3, 2), 2)


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
    assert Window(range(1, 4)).runs_of((1, F(5, 2), 3)) == [(0, 1), (2, 3)]


def test_run_set_gives_consecutive_ints_on_a_sparse_window_as_a_range():
    """A run of two or more consecutive ``int``s is a step-1 range on any
    window, in the form ``Family`` keeps, so a family takes it as it is;
    other points stay a tuple."""
    from fuzzycoarse import Family

    sparse = Window([0, 1, 3, 4, 5])
    assert sparse.run_set([(0, 2)]) == range(0, 2)
    assert sparse.run_set([(2, 5)]) == range(3, 6)
    assert sparse.run_set([(1, 3)]) == (1, 3)
    assert sparse.run_set([(0, 2), (3, 4)]) == (0, 1, 4)
    assert sparse.run_set([(2, 3)]) == (3,)
    mixed = Window([0, 1, F(3, 2), 2, F(2)])
    assert mixed.run_set([(0, 2)]) == range(0, 2)
    assert type(mixed.run_set([(1, 3)])) is tuple
    assert Window([0, F(1), 2]).run_set([(0, 3)]) == (0, F(1), 2)
    assert Window([(0, 0), (0, 1)]).run_set([(0, 2)]) == ((0, 0), (0, 1))
    member = sparse.run_set([(2, 5)])
    assert Family.of([member]).sets[0] is member


class SortedTupleWindow:
    """Reference model of a window: a sorted, duplicate-free tuple and its
    frozenset, read by bisection and membership alone."""

    def __init__(self, points):
        self.points = tuple(sorted(set(points)))
        self.set = frozenset(self.points)
        pts = self.points
        self.contiguous = (bool(pts) and all(type(p) is int for p in pts)
                           and len(pts) == pts[-1] - pts[0] + 1)

    def index_of(self, p):
        return bisect.bisect_left(self.points, p) if p in self.set else None

    def runs_of(self, points):
        runs = []
        for k in sorted({self.index_of(p) for p in points} - {None}):
            if runs and runs[-1][1] == k:
                runs[-1] = (runs[-1][0], k + 1)
            else:
                runs.append((k, k + 1))
        return runs

    def run_set(self, runs):
        pts = tuple(p for i, j in runs for p in self.points[i:j])
        if (len(pts) > 1 and all(type(p) is int for p in pts)
                and pts[-1] - pts[0] == len(pts) - 1):
            return range(pts[0], pts[-1] + 1)
        return pts

    def label(self):
        pts = self.points
        if not pts:
            return "empty"
        if self.contiguous:
            return f"{pts[0]}..{pts[-1]}"
        if len(pts) <= 8:
            return "{" + ",".join(fmt_value(p) for p in pts) + "}"
        return f"{fmt_value(pts[0])}..{fmt_value(pts[-1])}(#{len(pts)})"


SMALL = st.integers(-12, 12)
RANGES = st.builds(range, SMALL, SMALL, SMALL.filter(bool))
GRID_STEPS = st.sampled_from([F(1, 3), F(1, 2), F(1), F(2), F(3), F(4, 3)])


@st.composite
def window_routes(draw):
    """``(points, window)``: a window built by one route, and its points as
    a list for the reference model."""
    route = draw(st.sampled_from(["range", "spaced list", "int list", "mixed list",
                                  "lattice", "grid"]))
    if route == "range":
        r = draw(RANGES)
        return list(r), Window(r)
    if route == "grid":
        lo, n, step = F(draw(SMALL), 2), draw(st.integers(0, 10)), draw(GRID_STEPS)
        pts = [lo + k * step for k in range(n + 1)]
        return ([int(p) if p.denominator == 1 else p for p in pts],
                grid_window(lo, pts[-1], step))
    pts = draw({
        "spaced list": RANGES.flatmap(lambda r: st.permutations(list(r) + list(r)[:2])),
        "int list": st.lists(SMALL, max_size=10),
        "mixed list": st.lists(st.one_of(SMALL, st.booleans(), SMALL.map(F)), max_size=10),
        "lattice": st.lists(st.tuples(SMALL, SMALL), max_size=6),
    }[route])
    return pts, Window(pts)


PROBES = st.one_of(SMALL, st.booleans(), st.fractions(-13, 13, max_denominator=3),
                   st.fractions(-13, 13, max_denominator=2).map(float),
                   st.tuples(SMALL, SMALL))


@settings(max_examples=100, deadline=None)
@given(st.builds(range, SMALL, SMALL, st.integers(1, 3)).filter(lambda r: len(r) > 1),
       st.lists(SMALL | st.sampled_from([True, False, F(2), 2.0, F(1, 2), 10**40, -10**40]),
                max_size=6),
       st.sampled_from([set, frozenset, tuple, list, iter]))
def test_window_holds_matches_point_by_point_membership(seq, points, form):
    """``holds`` on a range window, step 1 or not, answers as ``in`` does:
    in bulk for a collection of ``int``s on a step-1 window, point by
    point otherwise."""
    w = Window(seq)
    assert w.holds(form(points)) == all(p in w for p in points)
    assert w.holds(form([])) and w.holds(form(seq))
    for edge in (w.points[0] - 1, w.points[-1], w.points[-1] + 1, w.points[-1] + seq.step,
                 w.points[0] + F(1, 2), w.points[-1] - 0.5):
        assert w.holds(form([w.points[0], edge])) == (edge in w)


@settings(max_examples=400, deadline=None)
@given(window_routes(), window_routes(), st.lists(PROBES, max_size=6), st.data())
def test_window_matches_the_sorted_tuple_and_frozenset_model(a, b, probes, data):
    """Every window reads as a sorted tuple and its frozenset would, however
    it was built and whichever form it keeps, for probes of every type."""
    (pts, w), (other_pts, other) = a, b
    ref = SortedTupleWindow(pts)
    assert w.points == ref.points and list(map(type, w.points)) == list(map(type, ref.points))
    assert len(w) == len(ref.points) and tuple(w) == ref.points
    assert w.is_contiguous_ints() == ref.contiguous and w.label() == ref.label()
    for p in probes:
        assert (p in w, w.index_of(p)) == (p in ref.set, ref.index_of(p))
    assert w.holds(probes) == ref.set.issuperset(probes)
    assert w.holds(w.points[1:])
    i = data.draw(st.integers(0, len(w)))
    j = data.draw(st.integers(i, len(w)))
    members = [probes, w.points[i:j], w.points[i:j][::-1]]
    if ref.contiguous:
        members.append(range(w.points[0] + data.draw(SMALL), w.points[0] + data.draw(SMALL)))
    for member in members:
        runs = w.runs_of(member)
        assert runs == ref.runs_of(member)
        if runs:
            got, want = w.run_set(runs), ref.run_set(runs)
            assert (type(got), tuple(got)) == (type(want), tuple(want))
    again = Window(pts[::-1] + pts)
    no_ints = Window([F(p) if type(p) is int else p for p in pts])  # never a range
    for twin in (again, no_ints):
        assert twin == w and w == twin and hash(twin) == hash(w)
    assert (w == other) == (ref.points == SortedTupleWindow(other_pts).points)
    if w == other:
        assert hash(w) == hash(other)


def test_a_billion_point_window_is_never_spelled_out(monkeypatch):
    """int_window(1, 10**9) answers its length, membership, indices and
    label, is checked against the naturals at its two ends and is refused
    by the oracle, in well under a megabyte."""
    calls = []
    contains = NATURALS._contains
    monkeypatch.setattr(NATURALS, "_contains", lambda p: calls.append(p) or contains(p))
    tracemalloc.start()
    try:
        w = int_window(1, 10**9)
        assert len(w) == 10**9 and 10**9 in w and 10**9 + 1 not in w and F(7) in w
        assert w.index_of(10**9) == 10**9 - 1 and w.index_of(F(1, 2)) is None
        assert w.label() == "1..1000000000"
        assert w.runs_of(range(10**9 - 1, 10**9 + 5)) == [(10**9 - 2, 10**9)]
        ratio_minmax_space()._check_window(w)
        with pytest.raises(OracleSizeError):
            oracle_min_families(ratio_minmax_space(), ScaleParams(F(1, 2), 1),
                                ScaleParams(F(1, 2), 1), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) <= 2
    assert peak < 2**20


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
    assert check_axioms(sp, Window([10, 20, 30]), [1, 2]).passed
    with pytest.raises(DomainError):
        TableMetric([1, 2], [[0, 1], [2, 0]])  # asymmetric


def test_max_ultrametric_strong_triangle():
    """max(x, y) off the diagonal is an ultrametric, so under min the
    space's M is non-Archimedean, which the ball partition checks."""
    d, w = MaxUltrametric().distance, int_window(1, 15)
    assert all(d(x, z) <= max(d(x, y), d(y, z)) for x in w for y in w for z in w)
    witness_ball_partition(ultrametric_space(), ScaleParams(F(1, 2), 1), None, w)


def test_line_distances_refuse_floats():
    """Int points give int distances; a float point is not an exact
    rational and raises, so no float reaches a certificate."""
    assert EuclideanLine().distance(-3, 4) == 7
    assert type(EuclideanLine().distance(-3, 4)) is int
    assert EuclideanLine().distance(F(1, 2), 2) == F(3, 2)
    for metric in (EuclideanLine(), MaxUltrametric()):
        with pytest.raises(DomainError, match="not an exact rational"):
            metric.distance(0.5, 1.5)
    with pytest.raises(DomainError, match="not an exact rational"):
        standard_space(universe=RATIONALS)._pair(0.5, 1, F(1))


RATIONAL_POINTS = st.one_of(st.integers(-10**6, 10**6),
                            st.fractions(-10**3, 10**3, max_denominator=10**3))


@given(RATIONAL_POINTS, RATIONAL_POINTS, st.fractions(F(1, 100), 100, max_denominator=100))
@settings(max_examples=300, deadline=None)
def test_line_distance_pair_is_the_distance_in_lowest_terms(x, y, t):
    """The integer pair of |x - y|, built from the points' own ratios, is
    that of the Fraction distance, and the standard pair gives t/(t + d)."""
    d = EuclideanLine().distance(x, y)
    assert EuclideanLine().distance_pair(x, y) == (d.numerator, d.denominator)
    assert F(*standard_space(universe=RATIONALS)._pair(x, y, t)) == t / (t + d)


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
    with pytest.raises(DomainError, match="^max_ultrametric is not a metric on the rationals"):
        standard_space(MaxUltrametric(), universe=RATIONALS)
    assert standard_space(MaxUltrametric(), universe=NATURALS).universe is NATURALS
    assert standard_space(universe=RATIONALS).universe is RATIONALS


def test_check_axioms_never_sees_a_universe_the_metric_is_not_a_metric_on():
    """max(-3, -2) = -2 makes t + d = 0 at t = 2; the space is refused when
    it is built, before check_axioms divides by it."""
    with pytest.raises(DomainError, match="^max_ultrametric is not a metric on the integers"):
        check_axioms(standard_space(MaxUltrametric(), universe=INTEGERS), int_window(-3, 3),
                     [1, 2])
    lattice = EuclideanLattice(1)
    with pytest.raises(DomainError, match="^euclidean_lattice is not a metric on the integers"):
        standard_space(lattice, universe=INTEGERS)
    assert standard_space(lattice, universe=lattice.universe).universe is lattice.universe


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
    from fuzzycoarse import Family, is_uniformly_bounded_family

    assert is_uniformly_bounded_family(empty, Family.of([]), ScaleParams(F(1, 2), 1))


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
    level = sp.ball_level(params.threshold, params.t, w)
    for k, x in enumerate(w):
        assert sp.ball_points(x, params.threshold, params.t, w) == \
            brute_ball(sp, x, params, w) == w.points_of(level[k])


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


@pytest.mark.parametrize("factory", [ratio_minmax_space, reciprocal_product_space])
@pytest.mark.parametrize("n", [10**3, 10**4])
def test_ball_sweeps_make_linear_pair_calls(factory, n, monkeypatch):
    """A whole-window sweep makes at most 6N ``pair`` calls and one ball at
    most 5 log2 N.  On a radial kind each ball end gallops, at most
    1 + 2 log2(d + 1) calls for a move of d, and the moves of one end add
    up to at most N over a sweep."""
    space = factory()
    calls = []
    pair = type(space._kind).pair
    monkeypatch.setattr(type(space._kind), "pair",
                        lambda self, *args: calls.append(0) or pair(self, *args))
    w = int_window(1, n)
    for bound in (F(1, 10), F(1, 2), F(999, 1000)):
        calls.clear()
        assert sum(map(len, space.balls(w.points, bound, F(1), w))) >= n
        assert len(calls) <= 6 * n
        for x in (1, 2, n // 3, n // 2, n - 1, n):
            calls.clear()
            next(space.balls((x,), bound, F(1), w))
            assert len(calls) <= 5 * math.log2(n)


@pytest.mark.parametrize("factory,n", [(ratio_minmax_space, 4000), (pathological_space, 1000),
                                       (ultrametric_space, 1000)])
def test_radial_ball_level_makes_at_most_4n_pair_calls(factory, n, monkeypatch):
    """A radial level walks both ball ends right one point at a time over
    the whole window: each end moves at most N in all and stops once per
    centre, so at most 4N ``pair`` calls, with no gallop."""
    space = factory()
    assert type(space.order) is _Radial
    calls = []
    pair = type(space._kind).pair
    monkeypatch.setattr(type(space._kind), "pair",
                        lambda self, *args: calls.append(0) or pair(self, *args))
    w = int_window(1, n)
    for bound in (F(1, 4), F(1, 2), F(9, 10)):
        calls.clear()
        assert len(space.ball_level(bound, F(1), w)) == n
        assert len(calls) <= 4 * n


def test_radiality_flags_hold():
    """Each built-in kind's declared order against brute force: M of a
    ``_Radial`` kind shrinks as a pair nests outward, M of a ``_Prefix``
    kind does not grow in either coordinate off the diagonal, and the
    lattice and table metrics declare no order."""
    table = TableMetric([0, 1, 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    cases = [(standard_space(), _Radial), (ratio_minmax_space(), _Radial),
             (pathological_space(), _Radial), (ultrametric_space(), _Radial),
             (standard_space(universe=RATIONALS), _Radial), (reciprocal_product_space(), _Prefix),
             (standard_space(EuclideanLattice(1)), _Unordered), (standard_space(table), _Unordered)]
    for sp, order in cases:
        assert type(sp.order) is order
        if order is _Unordered:
            continue
        lo = 1 if sp.universe.name == "naturals" else -6
        pts = list(int_window(lo, 12))
        for t in (F(1, 2), 2):
            for x, y, z in combinations(pts, 3):
                if order is _Radial:
                    assert sp.value(x, z, t) <= min(sp.value(x, y, t), sp.value(y, z, t))
            for x in pts:  # off the diagonal, M(x, .) does not grow
                for y, z in combinations(pts, 2):
                    if order is _Prefix and x not in (y, z):
                        assert sp.value(x, z, t) <= sp.value(x, y, t)


def test_only_the_space_module_names_the_orders():
    """Callers reach a kind's fast paths through ``FuzzyMetricSpace.order``
    alone: no other library module names an order flag, a kind or a
    concrete order class."""
    import re

    import fuzzycoarse

    names = re.compile(r"\b(radially_monotone|coordinate_decreasing|_kind"
                       r"|_Unordered|_Line|_Radial|_Prefix)\b")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(Path(fuzzycoarse.__file__).parent.glob("*.py"))
            if path.name != "space.py"
            for n, line in enumerate(path.read_text().splitlines(), 1) if names.search(line)]
    assert hits == []


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


# ---------------------------------------------------------------------------
# the integer evaluator
# ---------------------------------------------------------------------------


PAIR_TABLE_POINTS = [0, 2, 5, 9]
PAIR_TABLE_MATRIX = [[0, F(1, 2), 3, 7], [F(1, 2), 0, F(5, 2), 4],
                     [3, F(5, 2), 0, F(3, 2)], [7, 4, F(3, 2), 0]]
PAIR_TABLE = TableMetric(PAIR_TABLE_POINTS, PAIR_TABLE_MATRIX)
naturals = st.integers(1, 300)
rationals = st.fractions(-40, 40, max_denominator=12).map(
    lambda q: int(q) if q.denominator == 1 else q)
# (space, point strategy): every built-in kind, table and lattice metrics,
# negative integers, rational grid points and a subspace.
PAIR_CASES = {
    "standard": (standard_space(), st.integers(-60, 60)),
    "standard-rationals": (standard_space(universe=RATIONALS), rationals),
    "max-ultrametric": (standard_space(MaxUltrametric()), naturals),
    "ultrametric": (ultrametric_space(), naturals),
    "ratio": (ratio_minmax_space(), naturals),
    "reciprocal": (reciprocal_product_space(), naturals),
    "pathological": (pathological_space(), st.integers(1, 12)),
    "table": (standard_space(PAIR_TABLE), st.sampled_from(PAIR_TABLE.points)),
    "lattice": (standard_space(EuclideanLattice(2)),
                st.tuples(st.integers(-6, 6), st.integers(-6, 6))),
    "ratio-subspace": (subspace(ratio_minmax_space(), range(2, 61, 3)),
                       st.sampled_from(range(2, 61, 3))),
}


@pytest.mark.parametrize("name", sorted(PAIR_CASES))
@given(data=st.data(), t=st.fractions(F(1, 20), 60, max_denominator=20))
@settings(max_examples=150, deadline=None)
def test_pair_is_the_value_as_integers(name, data, t):
    space, points = PAIR_CASES[name]
    x, y = data.draw(points), data.draw(points)
    want = closed_form(name, x, y, t)
    if want is None:
        for evaluate in (space._pair, space.value):
            with pytest.raises(ExactnessError):
                evaluate(x, y, t)
        return
    num, den = space._pair(x, y, t)
    assert type(num) is int and type(den) is int
    assert den > 0
    assert Fraction(num, den) == want
    assert space.value(x, y, t) == want


def closed_form(name, x, y, t):
    """M(x, y, t) of a ``PAIR_CASES`` space from the closed forms in the
    space module docstring, written out here; None for a lattice pair at
    an irrational distance."""
    if x == y:
        return F(1)
    if name in ("ratio", "ratio-subspace"):
        return F(min(x, y), max(x, y))
    if name == "reciprocal":
        return F(1, x * y)
    if name == "pathological":
        return F(1, max(x, y)) if 1 in (x, y) else F(1, 2)
    if name in ("max-ultrametric", "ultrametric"):
        d = max(x, y)
    elif name == "table":
        d = PAIR_TABLE_MATRIX[PAIR_TABLE_POINTS.index(x)][PAIR_TABLE_POINTS.index(y)]
    elif name == "lattice":
        sq = (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2
        d = math.isqrt(sq)
        if d * d != sq:
            return None
    else:
        d = abs(x - y)
    return t / (t + d)


def matrix_check(space, window, grid):
    """The report of ``check_axioms``'s matrix path on a window and a
    grid, which a standard kind whose certificate holds never reaches."""
    from fuzzycoarse.report import CertReport
    from fuzzycoarse.space import _axioms_on_matrices

    rep = CertReport("space-axioms")
    _axioms_on_matrices(space, window.points, sorted(set(map(F, grid))), rep)
    return rep


def test_axioms_evaluate_each_matrix_entry_once(monkeypatch):
    """The matrices hold every (x, y) in both orders, so the symmetry step
    evaluates nothing more: one integer pair per entry per time, and on a
    standard kind one distance, as its integer pair, per entry for all
    times.  A certified line window reads the n - 1 gaps and one row of
    distances per point, and builds no matrix."""
    from fuzzycoarse import space as space_mod
    from fuzzycoarse.space import EuclideanLine, FuzzyMetricSpace

    calls = {"value": 0, "_raw": 0, "pair": 0, "distance": 0, "distance_pair": 0,
             "_value_matrices": 0}
    for cls, name in ((FuzzyMetricSpace, "value"), (FuzzyMetricSpace, "_raw"),
                      (type(ratio_minmax_space()._kind), "pair"),
                      (type(standard_space()._kind), "pair"), (EuclideanLine, "distance"),
                      (EuclideanLine, "distance_pair")):
        def counted(self, *args, _name=name, _fn=getattr(cls, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(cls, name, counted)

    def counted_matrices(*args, _fn=space_mod._value_matrices):
        calls["_value_matrices"] += 1
        return _fn(*args)

    monkeypatch.setattr(space_mod, "_value_matrices", counted_matrices)
    grid = [F(1, 2), 1, 2, 7]
    times = set(grid) | {a + b for a in grid for b in grid}
    assert check_axioms(ratio_minmax_space(), int_window(1, 20), grid).passed
    assert calls == {"value": 0, "_raw": 0, "pair": 20 * 20 * len(times), "distance": 0,
                     "distance_pair": 0, "_value_matrices": 1}
    calls.update(pair=0, _value_matrices=0)
    assert matrix_check(standard_space(), int_window(1, 20), grid).passed
    assert calls == {"value": 0, "_raw": 0, "pair": 0, "distance": 0,
                     "distance_pair": 20 * 20, "_value_matrices": 1}
    calls.update(distance_pair=0, _value_matrices=0)
    assert check_axioms(standard_space(), int_window(1, 20), grid).passed
    assert calls == {"value": 0, "_raw": 0, "pair": 0, "distance": 20 * 20 + 20 - 1,
                     "distance_pair": 0, "_value_matrices": 0}


def test_certified_axioms_hold_one_row_of_distances():
    """``check_axioms`` on standard 1..200 holds no matrix: its peak
    allocation stays under 1 MB (0.01 MB measured; the matrix path, with
    12 n x n pairs of integer lists, peaked at 8.9 MB there)."""
    tracemalloc.start()
    try:
        rep = check_axioms(standard_space(), int_window(1, 200), [F(1, 2), 1, 2, 7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and peak < 2 ** 20


class LineTable(Metric):
    """A distance table over sorted points that claims to be
    ``line_compatible`` and is not checked: it may break the triangle
    inequality, have zero gaps or asymmetric entries."""

    line_compatible = True

    def __init__(self, table):
        self.table = table
        self.universe = finite_universe({x for x, _ in table})

    def distance(self, x, y):
        return self.table[x, y]


@st.composite
def line_tables(draw):
    """A ``LineTable`` on 1..6 sorted integers whose distances combine the
    drawn gaps (a few zero) by ``add`` or ``max`` between the two points,
    then up to two edits: an entry and its mirror cut to 3/4, which keeps
    d a metric but not a line metric when the cut is small, or set to any
    value in [0, 6], which can break the triangle inequality, or one entry
    so set."""
    pts = sorted(draw(st.sets(st.integers(-9, 9), min_size=1, max_size=6)))
    combine = draw(st.sampled_from([add, max]))
    gaps = [draw(st.sampled_from([F(0)] + [F(k, 2) for k in range(1, 11)])) for _ in pts[1:]]
    table = {}
    for i, x in enumerate(pts):
        for k, y in enumerate(pts):
            between = gaps[min(i, k):max(i, k)]
            table[x, y] = reduce(combine, between) if between else F(0)
    for edit in draw(st.lists(st.sampled_from(["cut", "symmetric", "asymmetric"]), max_size=2)):
        x, y = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        v = draw(st.fractions(0, 6, max_denominator=4))
        table[x, y] = table[x, y] * F(3, 4) if edit == "cut" else v
        if edit != "asymmetric":
            table[y, x] = table[x, y]
    return LineTable(table), Window(pts)


@st.composite
def line_spaces(draw):
    """``(space, window, certified)``: a standard space under product, min
    or Lukasiewicz on a window of ``EuclideanLine`` (integers or
    rationals) or ``MaxUltrametric``, whose certificate holds
    (``certified`` True), or, half the time, of a ``line_tables`` table
    (None)."""
    tnorm = draw(st.sampled_from([PRODUCT, MINIMUM, LUKASIEWICZ]))
    kind = draw(st.sampled_from(["table", "table", "table", "integers", "rationals",
                                 "max-ultrametric"]))
    if kind == "table":
        metric, window = draw(line_tables())
        return standard_space(metric, tnorm), window, None
    if kind == "max-ultrametric":
        pts = draw(st.sets(st.integers(1, 40), min_size=1, max_size=12))
        return standard_space(MaxUltrametric(), tnorm), Window(pts), True
    points = st.integers(-20, 20)
    if kind == "rationals":
        points = points | st.fractions(-5, 5, max_denominator=6)
    pts = draw(st.sets(points, min_size=1, max_size=12))
    return standard_space(EuclideanLine(), tnorm, RATIONALS), Window(pts), True


def _table_case(entries):
    """A ``line_spaces`` case from the entries of a ``LineTable`` on 0..2:
    |x - y| but where ``entries`` says otherwise."""
    table = {(x, y): F(entries.get((x, y), abs(x - y))) for x in range(3) for y in range(3)}
    return standard_space(LineTable(table)), int_window(0, 2), None


@given(case=line_spaces(), grid=st.lists(st.fractions(F(1, 4), 8, max_denominator=4),
                                         min_size=1, max_size=3))
@example(case=_table_case({(0, 1): 0, (1, 0): 0}), grid=[1])  # a zero gap
@example(case=_table_case({(0, 0): 1, (0, 2): 1, (2, 0): 1}), grid=[1])  # d(x, x) > 0
@example(case=_table_case({(0, 2): 3}), grid=[1])  # asymmetric above the diagonal
@example(case=_table_case({(2, 0): 3}), grid=[1])  # and below it
@example(case=_table_case({(0, 2): 1, (2, 0): 1}), grid=[1])  # an ultrametric
@example(case=_table_case({(0, 2): F(3, 2), (2, 0): F(3, 2)}), grid=[1])  # neither
@settings(max_examples=200, deadline=None)
def test_certified_axioms_match_the_matrix_check(case, grid):
    """On line windows of ``EuclideanLine`` (integers and rationals) and
    ``MaxUltrametric`` the certificate holds, and on line tables it holds
    or not; either way ``check_axioms`` writes the verdict lines of the
    matrix check, under product, min and Lukasiewicz, on a drawn grid."""
    space, window, certified = case
    if certified:
        assert space._kind.certifies_axioms(window.points)
    assert check_axioms(space, window, grid).lines()[2:-2] == \
        matrix_check(space, window, grid).lines()[1:]


def test_a_line_compatible_metric_that_is_not_a_path_metric_falls_back():
    """d = (x - y)^2 is ``line_compatible`` through its ``EuclideanLine``
    base but neither a path metric nor an ultrametric on the window: the
    certificate fails, and the matrix check names the
    triple that fails the chain under min and passes the product chain."""

    class Squared(EuclideanLine):
        name = "squared"

        def distance(self, x, y):
            return (x - y) ** 2

    window, grid = int_window(0, 4), [F(1, 2), 1, 2]
    assert not standard_space(Squared())._kind.certifies_axioms(window.points)
    chain_lines = [[ln for ln in check_axioms(standard_space(Squared(), tn), window, grid).lines()
                    if "chain-inequality" in ln] for tn in (MINIMUM, PRODUCT)]
    assert chain_lines == [["FAIL chain-inequality witness=0~1~2 t=1/2 s=1/2 lhs=1/3 rhs=1/5"],
                           ["PASS chain-inequality triples=75 time_pairs=9"]]


def _table_space(draw):
    pts = sorted(draw(st.sets(st.integers(-9, 9), min_size=1, max_size=6)))
    d = {(i, j): draw(st.fractions(F(1, 4), 9, max_denominator=4))
         for i in range(len(pts)) for j in range(i + 1, len(pts))}
    table = [[0 if i == j else d[min(i, j), max(i, j)] for j in range(len(pts))]
             for i in range(len(pts))]
    return standard_space(TableMetric(pts, table)), pts


MATRIX_SPACES = {
    "line-integers": lambda draw: (standard_space(), draw(st.sets(st.integers(-20, 20)))),
    "line-rationals": lambda draw: (standard_space(universe=RATIONALS), draw(st.sets(
        st.fractions(-5, 5, max_denominator=6) | st.integers(-5, 5)))),
    "max-ultrametric": lambda draw: (ultrametric_space(), draw(st.sets(st.integers(1, 30)))),
    "lattice-1": lambda draw: (standard_space(EuclideanLattice(1)), draw(st.sets(
        st.tuples(st.integers(-9, 9))))),
    "lattice-2": lambda draw: (standard_space(EuclideanLattice(2)), draw(st.sets(
        st.integers(-4, 4).map(lambda m: (3 * m, 4 * m))))),
    "table": _table_space,
    "ratio": lambda draw: (ratio_minmax_space(), draw(st.sets(st.integers(1, 30)))),
    "reciprocal": lambda draw: (reciprocal_product_space(), draw(st.sets(st.integers(1, 30)))),
    "pathological": lambda draw: (pathological_space(), draw(st.sets(st.integers(1, 30)))),
}


@given(data=st.data())
@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("kind", MATRIX_SPACES)
def test_value_matrices_equal_pair_entry_by_entry(kind, data):
    """Each kind's matrices hold ``pair(x, y, t)`` at row x, column y, for
    every ordered pair of the points (both orders, the diagonal too) and
    every t, on every built-in metric and kind."""
    from fuzzycoarse.space import _value_matrices

    space, pts = MATRIX_SPACES[kind](data.draw)
    pts = sorted(pts)
    ts = data.draw(st.lists(st.fractions(F(1, 10), 10, max_denominator=12),
                            min_size=1, max_size=3, unique=True))
    mats = _value_matrices(space, pts, ts)
    assert list(mats) == ts
    for t in ts:
        nums, dens = mats[t]
        assert [list(zip(nr, dr)) for nr, dr in zip(nums, dens)] == [
            [space._pair(x, y, t) for y in pts] for x in pts]


def test_axioms_symmetry_and_range_compare_values_not_representations():
    """A kind whose integer pairs depend on the argument order but whose
    values do not is symmetric; one that skews a single pair fails symmetry
    there, and one with M = 0 off the diagonal fails the range check."""
    from fuzzycoarse.space import NATURALS, FuzzyMetricSpace, _Kind

    class Skewed(_Kind):
        name = "skewed"

        def pair(self, x, y, t):
            num, den = min(x, y), max(x, y)
            if (x, y) == (3, 5):
                den *= 2
            return (num, den) if x <= y else (2 * num, 2 * den)

    class Flat(_Kind):
        name = "flat"

        def pair(self, x, y, t):
            return (1, 1) if x == y else (0, 1)

    def failures(kind):
        rep = check_axioms(FuzzyMetricSpace(kind, PRODUCT, NATURALS), int_window(1, 8), [1])
        return [f.line() for f in rep.failures() if f.predicate in ("symmetry", "range")]

    assert failures(Skewed()) == ["FAIL symmetry witness=3~5 t=1"]
    assert failures(Flat()) == ["FAIL range witness=1~2 t=1 value=0"]


def test_axioms_check_the_diagonal_and_monotonicity_in_t():
    """Range and identity scan the diagonal too; monotonicity compares
    neighbouring grid times."""
    from fuzzycoarse.space import NATURALS, FuzzyMetricSpace, _Kind

    class Diagonal(_Kind):
        name = "diagonal"

        def pair(self, x, y, t):
            return (2, 1) if x == y == 3 else (1, 1) if x == y else (1, 3)

    class Shrinking(_Kind):
        name = "shrinking"

        def pair(self, x, y, t):  # 1/(1 + t) off the diagonal
            return (1, 1) if x == y else (t.denominator, t.denominator + t.numerator)

    def failures(kind, predicates):
        rep = check_axioms(FuzzyMetricSpace(kind, PRODUCT, NATURALS), int_window(1, 5), [1, 2])
        return [f.line() for f in rep.failures() if f.predicate in predicates]

    assert failures(Diagonal(), ("range", "identity-of-indiscernibles")) == [
        "FAIL range witness=3~3 t=1 value=2",
        "FAIL identity-of-indiscernibles witness=3~3 t=1"]
    assert failures(Shrinking(), ("monotone-in-t",)) == [
        "FAIL monotone-in-t witness=1~2 t_low=1 t_high=2"]


@st.composite
def drawn_kinds(draw):
    """A kind on 1..5 whose pair at each of 1..3 grid times is drawn: each
    entry in [-1, 3] as an unreduced pair, mirrored as it is, doubled or
    redrawn, the diagonal 1 or drawn; a later time often keeps the table
    of the one before, so the matrices share one object."""
    from fuzzycoarse.space import NATURALS, FuzzyMetricSpace, _Kind

    n = draw(st.integers(1, 5))
    grid = sorted(draw(st.sets(st.sampled_from([F(1, 2), F(1), F(2), F(3)]), min_size=1,
                               max_size=3)))

    def entry():
        return draw(st.integers(-1, 3)), draw(st.integers(1, 3))

    tables = []
    for k in range(len(grid)):
        if k and draw(st.booleans()):
            tables.append(tables[-1])
            continue
        table = {}
        for i in range(n):
            table[i, i] = entry() if draw(st.integers(0, 4)) == 0 else (1, 1)
            for j in range(i + 1, n):
                num, den = table[i, j] = entry()
                table[j, i] = draw(st.sampled_from([(num, den), (2 * num, 2 * den), entry()]))
        tables.append(table)

    class Drawn(_Kind):
        name = "drawn"

        def pair(self, x, y, t):
            return tables[grid.index(t) if t in grid else -1][x - 1, y - 1]

    values = [{key: F(*pair) for key, pair in table.items()} for table in tables]
    return FuzzyMetricSpace(Drawn(), PRODUCT, NATURALS), n, grid, values


@given(drawn_kinds())
@settings(max_examples=200, deadline=None)
def test_row_tests_name_the_first_bad_pair_of_the_pair_by_pair_scan(case):
    """The range, identity, symmetry and monotonicity verdicts, read row by
    row, name the pair and times that a scan pair by pair over every grid
    time finds first."""
    space, n, grid, v = case

    def first(keys, bad, diagonal=False):
        return next(((k, i, j) for k in keys for i in range(n)
                     for j in range(i if diagonal else i + 1, n) if bad(k, i, j)), None)

    def line(predicate, found, *keys):
        if found is None:
            return " ".join(["PASS", predicate] + [f"{key}=-" for key in keys])
        k, i, j = found
        vals = {"witness": f"{i + 1}~{j + 1}", "t": fmt_value(grid[k]),
                "value": fmt_value(v[k][i, j]), "t_low": fmt_value(grid[k]),
                "t_high": fmt_value(grid[k + 1]) if k + 1 < len(grid) else "-"}
        return " ".join(["FAIL", predicate] + [f"{key}={vals[key]}" for key in keys])

    times = range(len(grid))
    want = [
        line("range", first(times, lambda k, i, j: not 0 < v[k][i, j] <= 1, True),
             "witness", "t", "value"),
        line("identity-of-indiscernibles",
             first(times, lambda k, i, j: (v[k][i, j] == 1) != (i == j), True), "witness", "t"),
        line("symmetry", first(times, lambda k, i, j: v[k][i, j] != v[k][j, i]), "witness", "t"),
        line("monotone-in-t", first(times[:-1], lambda k, i, j: v[k][i, j] > v[k + 1][i, j]),
             "witness", "t_low", "t_high"),
    ]
    got = [ln for ln in matrix_check(space, int_window(1, n), grid).lines()[1:]
           if "chain-inequality" not in ln]
    assert got == want


def test_generic_scan_reports_what_the_integer_scan_reports():
    """The product under a name with no integer scanner runs the Fraction
    scan over the same matrices and reports the same chain failure."""
    from fuzzycoarse import TNorm

    custom = TNorm("product-clone", lambda a, b: a * b, True)
    w = int_window(1, 12)
    lines = [[ln for ln in check_axioms(pathological_space(tn), w, [1, 2]).lines()
              if "chain-inequality" in ln] for tn in (PRODUCT, custom)]
    assert lines[0] == lines[1]
    assert lines[0][0].startswith("FAIL chain-inequality")


def test_a_user_rule_under_a_built_in_name_is_scanned_as_its_rule():
    """``TNorm`` equality ignores the rule, so a built-in's scan is picked
    by identity: the min rule named "product" compares equal to
    ``PRODUCT`` yet names the first triple that fails under min."""
    from fuzzycoarse import TNorm

    named_product = TNorm("product", MINIMUM.rule, True)
    assert named_product == PRODUCT
    w = int_window(1, 8)
    lines = [[ln for ln in check_axioms(pathological_space(tn), w, [1]).lines()
              if ln.startswith("FAIL chain-inequality")] for tn in (MINIMUM, named_product)]
    assert lines[0] == lines[1] == ["FAIL chain-inequality witness=1~2~3 t=1 s=1 lhs=1/2 rhs=1/3"]


@st.composite
def chain_matrix_triples(draw):
    """Three integer ``(nums, dens)`` matrices on 1..7 points with
    ``den > 0``: entries are any small rationals, zero, negative or above
    1, on the diagonal too.  C is drawn from a low or a high range, so some
    triples fail at once and others scan deep or pass."""
    n = draw(st.integers(1, 7))

    def matrix(top):
        return ([[draw(st.integers(-2, top)) for _ in range(n)] for _ in range(n)],
                [[draw(st.integers(1, 4)) for _ in range(n)] for _ in range(n)])

    return matrix(4), matrix(4), matrix(draw(st.sampled_from([4, 40])))


@given(mats=chain_matrix_triples())
@example(mats=(([[-1]], [[1]]),) * 2 + (([[-1]], [[2]]),))
@settings(max_examples=300, deadline=None)
@pytest.mark.parametrize("tnorm", [PRODUCT, MINIMUM, LUKASIEWICZ], ids=lambda tn: tn.name)
def test_first_chain_violation_matches_brute_force_and_the_generic_path(tnorm, mats):
    """Each integer scanner names the first (i, j, k), in (i, k >= i, j)
    order, with T(A[i][j], B[k][j]) > C[i][k] in Fractions, and so does
    the Fraction path that a clone of the rule under another name takes."""
    from fuzzycoarse import TNorm
    from fuzzycoarse.space import _first_chain_violation

    a, b, c = ([[Fraction(p, q) for p, q in zip(nr, dr)] for nr, dr in zip(*m)] for m in mats)
    n = len(a)
    brute = next(((i, j, k) for i in range(n) for k in range(i, n) for j in range(n)
                  if tnorm.rule(a[i][j], b[k][j]) > c[i][k]), None)
    clone = TNorm(tnorm.name + "-clone", tnorm.rule)
    assert _first_chain_violation(tnorm, *mats) == brute
    assert _first_chain_violation(clone, *mats) == brute


def test_booleans_do_not_make_a_window_of_consecutive_integers():
    assert int_window(1, 3).is_contiguous_ints()
    for pts in ([True, 2, 3], [0, True, 2]):
        assert not Window(pts).is_contiguous_ints()
        with pytest.raises(DomainError, match="point True is outside"):
            check_axioms(standard_space(), Window(pts), [1])


# -- random matrices for the chain scans ---------------------------------------


@st.composite
def min_matrices(draw):
    """An integer ``(nums, dens)`` matrix pair on 1..9 points: a random
    ultrametric similarity, points read as codes with M set by the length
    of their common prefix, with up to two edits: a planted violation (an
    entry and its mirror lowered), a symmetric or an asymmetric entry set
    to any value in [-1/10, 5/4], or one diagonal entry so set.  Entries
    are scaled by random factors so that equal values have unequal pairs."""
    n = draw(st.integers(1, 9))
    depth = draw(st.integers(1, 3))
    codes = [draw(st.lists(st.integers(0, 1), min_size=depth, max_size=depth))
             for _ in range(n)]
    levels = sorted(draw(st.lists(st.integers(0, 20), min_size=depth + 1, max_size=depth + 1)))

    def level(a, b):
        common = next((c for c, (p, q) in enumerate(zip(a, b)) if p != q), depth)
        return Fraction(levels[common], 20)

    vals = [[Fraction(1) if i == j else level(codes[i], codes[j]) for j in range(n)]
            for i in range(n)]
    edits = ["plant", "symmetric", "asymmetric", "diagonal"]
    for edit in draw(st.lists(st.sampled_from(edits), max_size=2)):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = Fraction(draw(st.integers(-2, 20) | st.integers(21, 25)), 20)
        if edit == "plant" and i != j:
            vals[i][j] = vals[j][i] = vals[i][j] - Fraction(draw(st.integers(1, 5)), 20)
        elif edit == "symmetric" and i != j:
            vals[i][j] = vals[j][i] = v
        elif edit == "asymmetric":
            vals[i][j] = v
        elif edit == "diagonal":
            vals[i][i] = v
    scale = [[draw(st.integers(1, 3)) for _ in range(n)] for _ in range(n)]
    nums = [[vals[i][j].numerator * scale[i][j] for j in range(n)] for i in range(n)]
    dens = [[vals[i][j].denominator * scale[i][j] for j in range(n)] for i in range(n)]
    return nums, dens


def test_chain_failure_stops_at_the_first_violation(monkeypatch):
    """``check_axioms`` scans the (t, s) pairs in order, stops at the first
    one that fails and builds the reported lhs and rhs once."""
    from fuzzycoarse import space as space_mod

    scans, entries = [], []
    scan, entry = space_mod._first_chain_violation, space_mod._entry

    def counted_scan(*args):
        scans.append(scan(*args))
        return scans[-1]

    def counted_entry(mat, i, j):
        entries.append((i, j))
        return entry(mat, i, j)

    monkeypatch.setattr(space_mod, "_first_chain_violation", counted_scan)
    monkeypatch.setattr(space_mod, "_entry", counted_entry)
    rep = check_axioms(pathological_space(PRODUCT), int_window(1, 20), [Fraction(1, 2), 1, 2, 7])
    assert [f.line() for f in rep.failures()] == [
        "FAIL chain-inequality witness=1~2~5 t=1/2 s=1/2 lhs=1/4 rhs=1/5"]
    assert scans == [(0, 1, 4)] and len(entries) == 3


# -- the chain inequality from certified structure ---------------------------


def _pairs(vals, draw):
    """Fraction rows as a ``(nums, dens)`` matrix, each entry scaled by a
    drawn factor so that equal values have unequal pairs."""
    scale = [[draw(st.integers(1, 3)) for _ in row] for row in vals]
    return ([[v.numerator * f for v, f in zip(row, fs)] for row, fs in zip(vals, scale)],
            [[v.denominator * f for v, f in zip(row, fs)] for row, fs in zip(vals, scale)])


@st.composite
def chain_cases(draw):
    """Matrix triples (A, B, C) for the pruned and the certified chain
    paths, in four shapes:

    - ``radial``: A and B in (0, 1] with unit diagonals, each row
      non-increasing away from the diagonal and drawn on its own, so the
      rows are not symmetric and the crossing pointer restarts; each row
      of C anything in [-1/6, 5/2] or at least 1, so the time slices need
      not be monotone, the triple j = i can fail, and the first failing
      row can lie deep enough for an earlier j to fail too;
    - ``symmetric``: A and B radial and symmetric, on up to 8 points, each
      entry above the diagonal at most its left and lower neighbours, so
      the crossing pointer is carried across k; C as for ``radial``;
    - in both radial shapes, half the time each C[i][k] is the largest
      min(A[i][j], B[k][j]) or 1/12 below it, so that the chain passes or
      fails by a hair on most pairs, where the crossing bound decides;
    - ``valid``: A and B in (0, 1] with unit diagonals and rows in any
      order;
    - ``below``: C a random ultrametric similarity with up to two edits
      (``min_matrices``), A and B at most 1/10 below C entrywise, so the
      chain under min can pass, and fail when C was edited.

    Then up to two edits set an entry of A or B to a negative value, a
    value above 1, or a non-unit diagonal."""
    mode = draw(st.sampled_from(["radial", "symmetric", "valid", "below"]))
    n = draw(st.integers(1, 8 if mode == "symmetric" else 6))

    def level(lo, hi):
        return F(draw(st.integers(lo, hi)), 12)

    def radial():
        rows = []
        for i in range(n):
            row = [F(1)] * n
            for j in list(range(i + 1, n)) + list(range(i - 1, -1, -1)):
                near = row[j - 1] if j > i else row[j + 1]
                row[j] = max(F(1, 12), near - level(0, draw(st.sampled_from([1, 4]))))
            rows.append(row)
        return rows

    def symmetric():
        rows = [[F(1)] * n for _ in range(n)]
        for d in range(1, n):
            for i in range(n - d):
                near = min(rows[i][i + d - 1], rows[i + 1][i + d])
                step = level(0, draw(st.sampled_from([1, 4])))
                rows[i][i + d] = rows[i + d][i] = max(F(1, 12), near - step)
        return rows

    def valid():
        return [[F(1) if i == j else level(1, 12) for j in range(n)] for i in range(n)]

    if mode == "below":
        c = [[F(p, q) for p, q in zip(nr, dr)] for nr, dr in zip(*draw(min_matrices()))]
        n = len(c)
        a, b = ([[v - F(draw(st.integers(0, 2)), 20) for v in row] for row in c]
                for _ in range(2))
    else:
        shape = {"radial": radial, "symmetric": symmetric, "valid": valid}[mode]
        a, b = shape(), shape()
        c = [[level(draw(st.sampled_from([-2, 12])), 30) for _ in range(n)] for _ in range(n)]
        if mode != "valid" and draw(st.booleans()):  # C at or just below max_j min(A, B)
            c = [[max(map(min, a[i], b[k])) - level(0, draw(st.sampled_from([0, 0, 0, 1])))
                  for k in range(n)] for i in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        m = draw(st.sampled_from([a, b]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] = draw(st.sampled_from([F(-1, 12), F(13, 12), F(11, 12)]))
    return _pairs(a, draw), _pairs(b, draw), _pairs(c, draw)


def _certified(mat):
    """The shape ``check_axioms`` certifies before it prunes: entries in
    (0, 1], unit diagonal, radial rows."""
    from fuzzycoarse.space import _radial

    nums, dens = mat
    return (all(0 < p <= q for nr, dr in zip(nums, dens) for p, q in zip(nr, dr))
            and all(nums[i][i] == dens[i][i] for i in range(len(nums))) and _radial(mat))


ONES = ([[1, 1], [1, 1]], [[1, 1], [1, 1]])


@given(mats=chain_cases())
# the triple j = i fails at (i, k) = (1, 1) and so does j = 0 before it
@example(mats=(ONES, ONES, ([[1, 1], [1, 1]], [[1, 1], [1, 2]])))
# radial, failing in the middle: the product twin of the Lukasiewicz table
@example(mats=(([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [[1, 3, 201], [3, 1, 3], [201, 3, 1]]),) * 2
         + (([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [[1, 1, 101], [1, 1, 1], [101, 1, 1]]),))
# a negative C entry under Lukasiewicz on certified rows
@example(mats=(ONES, ONES, ([[1, -1], [1, 1]], [[1, 2], [1, 1]])))
# B[2][0] = 1 >= A[0][0]: the crossing pointer of i = 0 restarts at k = 2
@example(mats=(([[1] * 3] * 3, [[1, 2, 2], [2, 1, 2], [2, 2, 1]]),
               ([[1] * 3] * 3, [[1, 2, 2], [2, 1, 2], [1, 1, 1]]),
               ([[1] * 3] * 3, [[1, 1, 2], [1, 1, 1], [1, 1, 1]])))
@settings(max_examples=300, deadline=None)
@pytest.mark.parametrize("tnorm", [PRODUCT, MINIMUM, LUKASIEWICZ], ids=lambda tn: tn.name)
def test_pruned_and_certified_chain_paths_match_the_full_scan(tnorm, mats):
    """On matrices certified radial, the scan over middle points in [i, k]
    of the pairs that the crossing bound leaves, with the rescan from 0,
    names the triple of the full scan, whether or not the rows are
    symmetric; uncertified matrices get the full scan.  The pairs the
    bound leaves are exactly those whose largest min(A[i][j], B[k][j])
    exceeds C[i][k]."""
    from fuzzycoarse.space import _first_chain_violation, _uncrossed_pairs

    a, b, c = ([[Fraction(p, q) for p, q in zip(nr, dr)] for nr, dr in zip(*m)] for m in mats)
    n = len(a)
    brute = next(((i, j, k) for i in range(n) for k in range(i, n) for j in range(n)
                  if tnorm.rule(a[i][j], b[k][j]) > c[i][k]), None)
    radial = _certified(mats[0]) and _certified(mats[1])
    assert _first_chain_violation(tnorm, *mats, radial) == brute
    if radial:
        assert list(_uncrossed_pairs(*mats[0], *mats[1], *mats[2])) == [
            (i, k, range(i, k + 1)) for i in range(n) for k in range(i, n)
            if max(map(min, a[i], b[k])) > c[i][k]]


def _counting(mat, counter):
    """A copy of a ``_value_matrices`` entry whose rows add every entry
    read from them to ``counter[0]``."""

    class Row(list):
        def __getitem__(self, key):
            got = list.__getitem__(self, key)
            counter[0] += len(got) if isinstance(key, slice) else 1
            return got

        def __iter__(self):
            counter[0] += len(self)
            return list.__iter__(self)

    return tuple([Row(row) for row in part] for part in mat)


def test_chain_work_is_pruned_on_radial_windows_and_quadratic_under_min(monkeypatch):
    """Machine-independent pins on the chain inequality of ``check_axioms``
    (on its matrix path, for the standard kinds, whose line windows are
    certified without one):

    - the product chain on ratio_minmax 1..60, which the crossing bound
      cannot clear for k >= i + 2 as (x/y)(y/z) = x/z, reads A 43,634
      times: 37,642 in the scan over j in [i, k] of the 1,711 pairs left
      (n(n+1)(n+2)/6 less the 178 middle points of the pairs k <= i + 1)
      and 5,992 for the bounds, about 0.4 of the n^2(n+1)/2 triples of
      the full scan.  It runs once for all 16 (t, s) pairs of a 4-time
      grid, whose matrices are equal and so shared;
    - on the radial windows of the ultrametric PASS under min the bound
      leaves no pair to scan; on the FAIL of the pathological space under
      min the scan stops at the first pair left;
    - the entries that the chain reads grow with log-log slope at most
      2.1 from 20 to 40 points on ultrametric_standard (min), and at most
      2.2 from 100 to 200 points on standard under product and
      Lukasiewicz."""
    from fuzzycoarse import space as space_mod

    grid = [Fraction(1, 2), 1, 2, 7]
    chain_scan, scan_min, value_matrices = (
        space_mod._first_chain_violation, space_mod._scan_min, space_mod._value_matrices)

    visited, chain_scans = [0], [0]

    def counted_a(tnorm, a, b, c, *rest):
        chain_scans[0] += 1
        return chain_scan(tnorm, (_counting(a, visited)[0], a[1]), b, c, *rest)

    monkeypatch.setattr(space_mod, "_first_chain_violation", counted_a)
    n = 60
    rep = check_axioms(ratio_minmax_space(), int_window(1, n), grid)
    assert "PASS chain-inequality triples=109800 time_pairs=16" in rep.lines()
    assert chain_scans == [1]
    assert visited[0] == 43634 == n * (n + 1) * (n + 2) // 6 - 178 + 5992 <= 0.4 * 109800

    scans, pairs_left = [], [0]

    def counted_min(*args):
        *mats, pairs = args

        def counted(pairs):
            for p in pairs:
                pairs_left[0] += 1
                yield p

        scans.append(scan_min(*mats, counted(pairs)))
        return scans[-1]

    monkeypatch.setattr(space_mod, "_first_chain_violation", chain_scan)
    monkeypatch.setitem(space_mod._SCANNERS, "min", counted_min)
    assert matrix_check(ultrametric_space(), int_window(1, 60), grid).passed
    assert scans == [None] * 16 and pairs_left == [0]
    rep = check_axioms(pathological_space(MINIMUM), int_window(1, 20), grid)
    assert [f.predicate for f in rep.failures()] == ["chain-inequality"]
    assert scans[16:] == [(0, 1, 2)] and pairs_left == [1]

    reads = [0]

    def counting_matrices(space, pts, t_values):
        return {t: _counting(mat, reads) for t, mat in value_matrices(space, pts, t_values).items()}

    def chain_reads(tnorm, *args):
        before = reads[0]
        found = chain_scan(tnorm, *args)
        chain_reads.total += reads[0] - before
        return found

    monkeypatch.setattr(space_mod, "_value_matrices", counting_matrices)
    monkeypatch.setattr(space_mod, "_first_chain_violation", chain_reads)

    def slope(space, sizes, grid):
        totals = []
        for n in sizes:
            chain_reads.total = 0
            assert matrix_check(space, int_window(1, n), grid).passed
            totals.append(chain_reads.total)
        return math.log(totals[1] / totals[0], sizes[1] / sizes[0])

    assert slope(ultrametric_space(), (20, 40), grid) <= 2.1
    for tnorm in (PRODUCT, LUKASIEWICZ):
        assert slope(standard_space(tnorm=tnorm), (100, 200), [1, 2]) <= 2.2


@pytest.mark.parametrize("n", [100, 200])
def test_crossing_bound_leaves_one_row_of_pairs_on_the_pathological_space(monkeypatch, n):
    """``verify-axioms`` on the pathological space (Lukasiewicz) takes the
    matrix path on a certified radial window.  M(1, y) = 1/y and M = 1/2
    between other distinct points, so the crossing bound clears every pair
    (i, k) with i >= 1, where no min(A[i][j], B[k][j]) with j in [i, k]
    exceeds 1/2 = C[i][k] off the diagonal, and leaves (0, k) for k >= 2,
    where j = 1 gives 1/2 > 1/(k + 1).  That is n - 2 pairs and
    n(n + 1)/2 - 3 middle points, against the n^2(n + 1)/2 triples of
    the full scan, once for all 16 (t, s) pairs, as M does not depend
    on t."""
    from fuzzycoarse import space as space_mod

    uncrossed, left = space_mod._uncrossed_pairs, []

    def counted(*mats):
        for i, k, js in uncrossed(*mats):
            left.append((i, k, len(js)))
            yield i, k, js

    monkeypatch.setattr(space_mod, "_uncrossed_pairs", counted)
    rep = check_axioms(pathological_space(), int_window(1, n), [Fraction(1, 2), 1, 2, 7])
    assert f"PASS chain-inequality triples={n * n * (n + 1) // 2} time_pairs=16" in rep.lines()
    assert [(i, k) for i, k, _ in left] == [(0, k) for k in range(2, n)]
    assert (len(left), sum(m for *_, m in left)) == {100: (98, 5047), 200: (198, 20097)}[n]
