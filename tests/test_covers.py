from fractions import Fraction
from itertools import chain, combinations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzycoarse import (
    Cover,
    DimensionWitness,
    EuclideanLattice,
    Family,
    FuzzyMetricSpace,
    ScaleParams,
    TableMetric,
    Window,
    ball,
    derive_bound_params,
    derived_scale,
    first_lebesgue_violation,
    first_refinement_violation,
    grid_window,
    int_window,
    is_uniformly_bounded_family,
    lebesgue_cover_from_multiplicity,
    multiplicity,
    neighborhood_family,
    pathological_space,
    ratio_minmax_space,
    reciprocal_product_space,
    refinement_via_lebesgue,
    scale_graph,
    scale_multiplicity,
    scale_neighborhood,
    standard_space,
    ultrametric_space,
    verify_witness,
)
from fuzzycoarse.asdim import _components, witness_ratio_minmax, witness_reciprocal_product
from fuzzycoarse.covers import (
    _clean_set,
    _first_shared_point,
    _hull_ordered,
    _level_neighborhood,
    _run_containment,
    coverage,
    family_max_cross,
    family_min_intra,
    min_intra_pair,
    missing_points,
    outside_points,
)
from fuzzycoarse.errors import DomainError, PreconditionError, UnsupportedOperationError
from fuzzycoarse.space import RATIONALS, _Radial, _Unordered

F = Fraction

SPACES = [standard_space, ratio_minmax_space, reciprocal_product_space,
          pathological_space, ultrametric_space]


def table_space():
    """A standard space on a table metric over 1..14: it has no fast
    extremal path, and its distances 1 and 2 tie often."""
    pts = range(1, 15)
    return standard_space(TableMetric(pts, [[0 if x == y else 1 + x * y % 2 for y in pts]
                                            for x in pts]))


def brute_min_intra(space, fam, t):
    best = None
    for s in fam.sets:
        for x, y in combinations(s, 2):
            v = space.value(x, y, t)
            if best is None or v < best:
                best = v
    return best


def brute_max_cross(space, fam, t):
    best = None
    for a, b in combinations(range(len(fam.sets)), 2):
        for x in fam.sets[a]:
            for y in fam.sets[b]:
                v = space.value(x, y, t)
                if best is None or v > best:
                    best = v
    return best


def blocks_cover(lo, hi, size):
    """Partition lo..hi into consecutive blocks of the given size."""
    sets = []
    start = lo
    while start <= hi:
        sets.append(tuple(range(start, min(start + size - 1, hi) + 1)))
        start += size
    return sets


# ---------------------------------------------------------------------------
# Family / Cover basics
# ---------------------------------------------------------------------------


def test_family_drops_empty_sets():
    fam = Family.of([[3, 1, 1], [], [5]], "demo")
    assert fam.sets == ((1, 3), (5,))
    assert fam.dropped_empty == 1


def test_family_is_canonical_when_built_directly():
    members = ((5, 1, 9), (), (2, 2), (4, 3))
    fam = Family(members, "x")
    assert fam == Family.of(members, "x")
    assert fam.sets == ((1, 5, 9), (2,), range(3, 5))
    assert fam.dropped_empty == 1
    assert Family([(1, 2, 3)]) == Family([range(1, 4)]) == Family([[3, 1, 2, 2]])


def test_family_keeps_step_one_ranges():
    fam = Family.of([range(1, 4), range(1, 8, 2)])
    assert fam.sets == (range(1, 4), (1, 3, 5, 7))
    assert list(fam.sets[0]) == [1, 2, 3]


def test_cover_all_sets_and_labels():
    c = Cover.of([Family.of([[1]], "a"), Family.of([[2], [3]], "b")], int_window(1, 3))
    assert c.all_sets() == ((1,), (2,), (3,))


# ---------------------------------------------------------------------------
# uniform boundedness
# ---------------------------------------------------------------------------


def test_uniformly_bounded_examples():
    ratio = ratio_minmax_space()
    p = ScaleParams(F(1, 2), 1)
    assert is_uniformly_bounded_family(ratio, Family.of([[3, 4]]), p)
    assert not is_uniformly_bounded_family(ratio, Family.of([[1, 2, 3]]), p)
    singletons = Family.of([[k] for k in range(1, 9)])
    assert is_uniformly_bounded_family(ratio, singletons, ScaleParams(F(1, 1000), 1))


def test_boundedness_monotone_in_r_and_t():
    std = standard_space()
    fam = Family.of([[0, 1, 2], [7, 9]])
    for t in (1, 2, 4):
        for ra, rb in [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))]:
            if is_uniformly_bounded_family(std, fam, ScaleParams(ra, t)):
                assert is_uniformly_bounded_family(std, fam, ScaleParams(rb, t))
    for r in (F(1, 4), F(1, 2)):
        for ta, tb in [(1, 2), (2, 8)]:
            if is_uniformly_bounded_family(std, fam, ScaleParams(r, ta)):
                assert is_uniformly_bounded_family(std, fam, ScaleParams(r, tb))


# ---------------------------------------------------------------------------
# cross sup and disjointness
# ---------------------------------------------------------------------------


def cross_sup(space, u, v, t):
    """The largest M(x, y, t) over x in u and y in v, as ``family_max_cross``
    reads it from the two-member family {u, v}."""
    return family_max_cross(space, Family.of((u, v)), F(t))[0]


def separated(space, family, params):
    """The ``disjoint`` verdict of ``verify_witness`` on a one-family witness
    of ``family`` over the window of its points."""
    w = Window(chain.from_iterable(family.sets))
    rep = verify_witness(space, DimensionWitness(0, params, params, (family,), w))
    return all(c.verdict == "PASS" for c in rep.checks if c.predicate == "disjoint")


def test_cross_sup_examples():
    std = standard_space()
    assert cross_sup(std, [0], [0], 1) == 1
    rec = reciprocal_product_space()
    assert cross_sup(rec, [3], [4, 5], 1) == F(1, 12)
    ratio = ratio_minmax_space()
    assert cross_sup(ratio, [1, 2], [3, 4], 1) == F(2, 3)
    assert family_max_cross(std, Family.of(([], [1])), 1) is None  # the empty member is dropped


point_sets = st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=5)


@pytest.mark.parametrize("factory", SPACES + [table_space])
@given(u=point_sets, v=point_sets, t=st.sampled_from([F(1, 2), 1, 3]))
@settings(max_examples=40, deadline=None)
def test_cross_sup_matches_brute(factory, u, v, t):
    space = factory()
    assert cross_sup(space, u, v, t) == max(space.value(x, y, t) for x in u for y in v)


def test_disjoint_examples():
    p = ScaleParams(F(1, 2), 1)
    assert separated(standard_space(), Family.of([[1, 2, 3]]), p)  # single set
    rec = reciprocal_product_space()
    assert separated(rec, Family.of([[1, 2], [3], [4]]), p)
    ratio = ratio_minmax_space()
    assert not separated(ratio, Family.of([[3, 4], [5]]), p)


def test_disjoint_antitone_in_r_and_t():
    std = standard_space()
    fam = Family.of([[0, 1], [5, 6], [12]])
    for t in (1, 2, 4):
        for ra, rb in [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))]:
            # disjoint at larger r implies disjoint at smaller r
            if separated(std, fam, ScaleParams(rb, t)):
                assert separated(std, fam, ScaleParams(ra, t))
    for r in (F(1, 4), F(1, 2)):
        for ta, tb in [(1, 2), (2, 8)]:
            if separated(std, fam, ScaleParams(r, tb)):
                assert separated(std, fam, ScaleParams(r, ta))


small_sets = st.lists(
    st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=5),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("factory", SPACES + [table_space])
@given(sets=small_sets, t=st.sampled_from([F(1, 2), 1, 3]))
@settings(max_examples=40, deadline=None)
def test_extremal_fast_paths_match_brute(factory, sets, t):
    """Members are read as sets: a Family built directly from unsorted
    tuples with repeats, and an empty member, gets the extremes of its
    ``Family.of`` form."""
    space = factory()
    fam = Family.of(sets)
    want_min = brute_min_intra(space, fam, t)
    want_max = brute_max_cross(space, fam, t)
    for built in (fam, Family(tuple(map(tuple, sets)) + ((),))):
        got_min = family_min_intra(space, built.sets, t)
        assert (got_min is None) == (want_min is None)
        if got_min is not None:
            assert got_min[0] == want_min
            x, y = got_min[1]
            assert space.value(x, y, t) == want_min
        got_max = family_max_cross(space, built, t)
        assert (got_max is None) == (want_max is None)
        if got_max is not None:
            assert got_max[0] == want_max
            x, y = got_max[1]
            assert space.value(x, y, t) == want_max


def test_extremal_fast_paths_read_unsorted_members_as_sets():
    """The coordinate-decreasing cross pair and the radial intra pair of
    a directly built Family come from its smallest and largest points,
    not from the first and last entries of its tuples."""
    rec = reciprocal_product_space()
    members = ((5, 1), (3,))
    reports = [verify_witness(rec, DimensionWitness(
        0, ScaleParams(F(3, 4), 1), ScaleParams(F(99, 100), 1), (fam,), Window([1, 3, 5])))
        for fam in (Family(members), Family.of(members))]
    assert reports[0].lines() == reports[1].lines()
    assert "FAIL disjoint family=family0 sup=1/3 pair=1~3 bound=1/4" in reports[0].lines()
    ratio = ratio_minmax_space()
    assert not is_uniformly_bounded_family(ratio, Family(((5, 1, 9),)), ScaleParams(F(3, 4), 1))
    assert family_min_intra(ratio, Family(((5, 1, 9),)).sets, 1) == (F(1, 9), (1, 9), 0)


def test_intra_minima_name_the_first_of_equal_values():
    """The integer minima keep the first of equal values: the first member
    among members with the same worst pair value, and within a member
    scanned pair by pair the first pair in (i, j) order."""
    ratio = ratio_minmax_space()
    assert family_min_intra(ratio, Family.of([(2, 4), (1, 2), (3, 6)]).sets, 1) == (
        F(1, 2), (2, 4), 0)
    table = standard_space(TableMetric(range(3), [[0, 2, 1], [2, 0, 2], [1, 2, 0]]))
    assert min_intra_pair(table, (0, 1, 2), 1) == (F(1, 3), (0, 1))
    assert family_min_intra(table, [(0, 2), (0, 1, 2)], 1) == (F(1, 3), (0, 1), 1)


# Member lists with several shared points and repeated points: the
# smallest shared point, and the two smallest members that hold it.
SHARED_CASES = [
    (((9, 4, 4, 7), (2, 7, 9), (5, 4, 2), (7,)), 2, (1, 2)),
    (((5, 5, 1), (9,), (5,), (5, 2)), 5, (0, 2)),
    (((8, 3), (6, 1), (3, 8, 3), (1, 6)), 1, (1, 3)),
]


@pytest.mark.parametrize("factory", [ratio_minmax_space, reciprocal_product_space, table_space])
@pytest.mark.parametrize("members, point, pair", SHARED_CASES)
def test_max_cross_reports_the_smallest_shared_point(factory, members, point, pair):
    """Radial, coordinate-decreasing and generic spaces report the same
    shared point and member pair, for ``Family.of`` members and for the
    unsorted tuples as given."""
    space = factory()
    for fam in (Family.of(members), Family(members)):
        assert family_max_cross(space, fam, 1) == (1, (point, point), pair)


@pytest.mark.parametrize("factory", SPACES + [table_space])
@given(sets=small_sets)
@settings(max_examples=40, deadline=None)
def test_max_cross_shared_point_matches_the_definition(factory, sets):
    holders = {}
    for i, s in enumerate(sets):
        for p in s:
            holders.setdefault(p, set()).add(i)
    shared = sorted(p for p, owners in holders.items() if len(owners) > 1)
    space = factory()
    for fam in (Family.of(sets), Family(tuple(map(tuple, sets)))):
        got = family_max_cross(space, fam, 1)
        if shared:
            p = shared[0]
            assert got == (1, (p, p), tuple(sorted(holders[p])[:2]))
        else:
            assert got is None or got[0] < 1


def brute_max_cross_pair(space, sets, t):
    """(value, pair, (i, j)) from every cross pair of a family's members.

    A shared point gives 1 at the smallest such point, with the two
    smallest indices of the members that hold it.  Otherwise the value is
    the maximum over every cross pair, and the pair is the one each order
    names: ``_Unordered`` the first maximum in (i, j, p, q) order,
    ``_Radial`` the smallest maximal pair with no support point strictly
    between its points, ``_Prefix`` the smallest maximal pair."""
    if len(sets) < 2:
        return None
    support = sorted(set().union(*sets))
    holders = {p: [i for i, s in enumerate(sets) if p in s] for p in support}
    shared = [p for p in support if len(holders[p]) > 1]
    if shared:
        return (1, (shared[0], shared[0]), tuple(holders[shared[0]][:2]))
    scan = [(space.value(p, q, t), (p, q), (i, j))
            for i, j in combinations(range(len(sets)), 2) for p in sets[i] for q in sets[j]]
    top = max(v for v, _, _ in scan)
    if type(space.order) is _Unordered:
        return next(c for c in scan if c[0] == top)
    best = [(min(pq), max(pq), ij) for v, pq, ij in scan if v == top]
    if type(space.order) is _Radial:
        best = [c for c in best if not any(c[0] < r < c[1] for r in support)]
    p, q, ij = min(best)
    return (top, (p, q), ij)


@st.composite
def cross_families(draw, points):
    """Families whose members are hull-ordered chunks of a sorted sample,
    chunks that touch the next one's first point, chunks in shuffled
    order, or arbitrary lists that overlap and share points."""
    shape = draw(st.sampled_from(["chunks", "touching", "shuffled", "any"]))
    if shape == "any":
        return Family.of(draw(st.lists(st.lists(points, min_size=1, max_size=5),
                                       min_size=1, max_size=5)))
    pts = sorted(draw(st.sets(points, min_size=2, max_size=12)))
    k = draw(st.integers(2, len(pts)))
    cuts = sorted(draw(st.permutations(range(1, len(pts))))[:k - 1])
    bounds = [0, *cuts, len(pts)]
    chunks = [pts[a:b] for a, b in zip(bounds, bounds[1:])]
    if shape == "touching":
        chunks = [c + pts[b:b + 1] for c, b in zip(chunks, bounds[1:])]
    if shape == "shuffled":
        chunks = draw(st.permutations(chunks))
    return Family.of(chunks)


NATURAL_POINTS = st.integers(1, 30)
CROSS_CASES = [
    (ratio_minmax_space, NATURAL_POINTS),
    (ultrametric_space, NATURAL_POINTS),
    (pathological_space, NATURAL_POINTS),
    (lambda: standard_space(universe=RATIONALS),
     st.integers(-10, 10) | st.builds(F, st.integers(-20, 20), st.sampled_from([2, 3]))),
    (reciprocal_product_space, NATURAL_POINTS),
    (table_space, st.integers(1, 14)),
    (lambda: standard_space(EuclideanLattice(1)), st.tuples(st.integers(-6, 6))),
]


@pytest.mark.parametrize("factory, points", CROSS_CASES)
@given(data=st.data(), t=st.sampled_from([F(1, 2), 1, 3]))
@settings(max_examples=60, deadline=None)
def test_max_cross_matches_a_scan_of_every_cross_pair(factory, points, data, t):
    """Radial, prefix and unordered spaces, on members in
    any order, with touching or overlapping hulls, shared points, one-point
    members and Fraction points: the whole (value, pair, (i, j))."""
    space = factory()
    fam = data.draw(cross_families(points))
    assert family_max_cross(space, fam, t) == brute_max_cross_pair(space, fam.sets, t)


@pytest.mark.parametrize("space, construct", [
    (ratio_minmax_space(), witness_ratio_minmax),
    (reciprocal_product_space(), witness_reciprocal_product),
])
def test_max_cross_of_constructed_witnesses_matches_the_scan(space, construct):
    """The constructors' families are hull-ordered, with range members."""
    members = []
    for r in (F(1, 4), F(1, 2), F(3, 4)):
        wit = construct(ScaleParams(r, 1), int_window(1, 90))
        for fam in wit.families:
            members += fam.sets
            for t in (F(1, 2), 1):
                assert family_max_cross(space, fam, t) == brute_max_cross_pair(space, fam.sets, t)
    assert {type(s) for s in members} == {range, tuple}


_FRACTIONS = st.builds(F, st.integers(-10, 16), st.sampled_from([1, 2]))
_MEMBERS = st.one_of(
    st.lists(st.integers(-5, 8)),
    st.lists(st.integers(-5, 8)).map(sorted),
    st.lists(st.integers(-5, 8) | _FRACTIONS),
    st.lists(st.integers(0, 3) | st.booleans()),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2))),
    st.builds(range, st.integers(-5, 5), st.integers(-5, 10), st.sampled_from([1, 1, 2, -1])),
    st.builds(lambda a: range(a, a + 1), st.integers(-5, 5)),
)


@given(members=_MEMBERS, form=st.sampled_from([list, tuple, set, iter]))
@settings(max_examples=400, deadline=None)
def test_clean_set_holds_the_sorted_points_in_one_form(members, form):
    """The points of ``tuple(sorted(set(s)))``, as a step-1 range exactly
    when there are two or more and they are consecutive ``int``s (not a
    ``Fraction`` or ``bool`` among them), else as a tuple."""
    want = tuple(sorted(set(members)))
    got = _clean_set(members if isinstance(members, range) else form(members))
    assert tuple(got) == want
    run = (len(want) > 1 and all(type(p) is int for p in want)
           and want[-1] - want[0] == len(want) - 1)
    assert type(got) is (range if run else tuple)
    assert not run or got.step == 1


_POINTS = st.sampled_from([
    st.integers(-5, 8),
    st.integers(-5, 8) | _FRACTIONS,
    st.integers(0, 3) | st.booleans(),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
])
_FEW_POINTS = _POINTS.flatmap(lambda pts: st.lists(pts, max_size=3))
_MAKERS = {"list": list, "tuple": tuple, "set": set, "generator": lambda pts: (p for p in pts)}


@given(st.lists(st.tuples(st.sampled_from(sorted(_MAKERS)), _FEW_POINTS)
                | st.integers(-5, 5).map(lambda p: ("range", [p]))))
@settings(max_examples=100, deadline=None)
def test_family_builds_one_point_members_as_clean_set_does(members):
    """``Family`` makes a one-point tuple or list a 1-tuple inline; every
    member, of any point type or container, generators without a ``len``
    among them, takes the form ``_clean_set`` gives it."""
    def make(kind, pts):
        return range(pts[0], pts[0] + 1) if kind == "range" else _MAKERS[kind](pts)

    fam = Family.of([make(kind, pts) for kind, pts in members])
    want = [_clean_set(make(kind, pts)) for kind, pts in members]
    kept = [s for s in want if s]
    assert fam.sets == tuple(kept) and fam.dropped_empty == len(want) - len(kept)
    assert [(type(s), list(map(type, s))) for s in fam.sets] == [
        (type(s), list(map(type, s))) for s in kept]


def test_clean_set_type_rule_examples():
    assert _clean_set((1, F(3, 2), 3)) == (1, F(3, 2), 3)
    assert _clean_set((1, F(2), 3)) == (1, 2, 3) and type(_clean_set((1, F(2), 3))) is tuple
    assert type(_clean_set((True, 2))) is tuple and type(_clean_set([0, True])) is tuple
    assert _clean_set(range(4, 5)) == (4,)
    assert _clean_set([3, 1, 2, 2]) == range(1, 4)
    assert _clean_set(range(5, 0, -1)) == range(1, 6)
    assert _clean_set(((0, 1), (0, 2))) == ((0, 1), (0, 2))


# ---------------------------------------------------------------------------
# neighborhoods
# ---------------------------------------------------------------------------


def test_neighborhood_examples():
    std = standard_space()
    w = int_window(-20, 20)
    p = ScaleParams(F(1, 2), 3)
    got = scale_neighborhood(std, [0, 10], p, w)
    assert got == tuple(range(-2, 3)) + tuple(range(8, 13))
    assert scale_neighborhood(std, [], p, w) == ()
    # neighborhood of a singleton is exactly its ball
    assert scale_neighborhood(std, [4], p, w) == ball(std, 4, p, w)


def rational_line():
    return standard_space(universe=RATIONALS)


@pytest.mark.parametrize("factory", SPACES + [table_space, rational_line])
def test_neighborhood_matches_brute(factory):
    """The union of balls against the definition, with the kind's order and
    unordered, on a run window and sparse ones, for sets that hold points
    outside the window."""
    space = factory()
    lo = -8 if 0 in space.universe else 1
    windows = [int_window(lo, 12), Window([lo, lo + 2, 5, 6, 11])]
    sets = [[2, 3], [5], [1, 9, 12], [13, 14], [3, 14, 14]]
    if F(1, 2) in space.universe:
        windows.append(Window([-3, F(-1, 2), 0, F(1, 3), 2, F(7, 2), 9]))
        sets += [[F(1, 4)], [0, F(5, 2)], [9, F(23, 2)]]
    for sp in (space, unordered(space)):
        for p in (ScaleParams(F(2, 5), F(3, 2)), ScaleParams(F(3, 4), 3)):
            for w in windows:
                for u in sets:
                    got = scale_neighborhood(sp, u, p, w)
                    want = tuple(x for x in w
                                 if any(space.value(x, y, p.t) > p.threshold for y in u))
                    assert got == want
                    assert set(u) & set(w) <= set(got)


def test_neighborhood_monotone():
    ratio = ratio_minmax_space()
    w = int_window(1, 60)
    small = scale_neighborhood(ratio, [8, 9], ScaleParams(F(1, 4), 1), w)
    big = scale_neighborhood(ratio, [8, 9], ScaleParams(F(1, 2), 1), w)
    bigger_u = scale_neighborhood(ratio, [8, 9, 30], ScaleParams(F(1, 4), 1), w)
    assert set(small) <= set(big)
    assert set(small) <= set(bigger_u)


def test_neighborhood_family_certificate():
    std = standard_space()
    w = int_window(-30, 30)
    fam = Family.of([[k] for k in range(-12, 13, 6)], "singles")
    fat, rep = neighborhood_family(std, fam, ScaleParams(F(1, 2), 3), w,
                                   input_bound=ScaleParams(F(1, 2), 1))
    assert rep.passed
    detail = dict(next(c for c in rep.checks if c.predicate == "output-bounded").details)
    assert detail["level"] == "1/8"
    assert detail["t_out"] == "7"
    assert all(len(s) == 5 for s in fat.sets)  # each singleton fattens to 5 points


def test_neighborhood_family_empty_and_cover_preserved():
    std = standard_space()
    w = int_window(0, 9)
    empty, rep = neighborhood_family(std, Family.of([]), ScaleParams(F(1, 2), 1), w,
                                     input_bound=ScaleParams(F(1, 2), 1))
    assert len(empty) == 0 and rep.passed
    fam = Family.of(blocks_cover(0, 9, 5))
    fat, rep = neighborhood_family(std, fam, ScaleParams(F(1, 2), 2), w,
                                   input_bound=ScaleParams(F(1, 2), 5))
    assert rep.passed
    assert set().union(*fat.sets) == set(w)


def test_neighborhood_family_needs_positivity():
    pat = pathological_space()  # lukasiewicz
    with pytest.raises(UnsupportedOperationError):
        neighborhood_family(pat, Family.of([[1, 2]]), ScaleParams(F(1, 2), 1),
                            int_window(1, 5), input_bound=ScaleParams(F(1, 2), 1))


# ---------------------------------------------------------------------------
# multiplicity and Lebesgue pairs
# ---------------------------------------------------------------------------


def test_multiplicity_examples():
    w = int_window(1, 3)
    partition = Cover.of([Family.of([[1], [2], [3]])], w)
    assert multiplicity(partition) == 1
    overlapping = Cover.of([Family.of([[1, 2], [2, 3]])], w)
    assert multiplicity(overlapping) == 2
    assert multiplicity(Cover.of([], int_window(1, 1))) == 0


def brute_ball(space, x, params, window):
    return {y for y in window if space.value(x, y, params.t) > params.threshold}


def brute_scale_multiplicity(space, cover, params, window):
    best = 0
    for x in window:
        bp = brute_ball(space, x, params, window)
        best = max(best, sum(1 for s in cover.all_sets() if bp & set(s)))
    return best


def test_scale_multiplicity_blocks():
    std = standard_space()
    w = int_window(0, 49)
    cov = Cover.of([Family.of(blocks_cover(0, 49, 10), "blocks")], w)
    assert scale_multiplicity(std, cov, ScaleParams(F(1, 2), 1)) == 1
    assert scale_multiplicity(std, cov, ScaleParams(F(1, 2), 3)) == 2
    assert scale_multiplicity(std, cov, ScaleParams(F(1, 2), 3)) >= multiplicity(cov)


@pytest.mark.parametrize("factory", SPACES)
def test_scale_multiplicity_matches_brute(factory):
    space = factory()
    lo = 1 if space.universe.name == "naturals" else -5
    w = int_window(lo, 12)
    cov = Cover.of([Family.of(blocks_cover(lo, 12, 4))], w)
    for r, t in [(F(1, 3), 1), (F(1, 2), 2)]:
        p = ScaleParams(r, t)
        assert scale_multiplicity(space, cov, p) == \
            brute_scale_multiplicity(space, cov, p, w)


def test_scale_multiplicity_reads_one_ball_level(monkeypatch):
    """The public count builds the ball level of the window once and reads
    it: on ratio 1..4000 with the ratio witness cover that is one radial
    sweep, at most 4 ``pair`` calls per point."""
    n = 4000
    ratio = ratio_minmax_space()
    w = int_window(1, n)
    target = ScaleParams(F(1, 2), 1)
    cov = witness_ratio_minmax(derived_scale(ratio, target), w).as_cover()
    pairs, builds = [], []
    pair = type(ratio._kind).pair
    monkeypatch.setattr(type(ratio._kind), "pair",
                        lambda self, *args: pairs.append(0) or pair(self, *args))
    ball_level = FuzzyMetricSpace.ball_level
    monkeypatch.setattr(FuzzyMetricSpace, "ball_level",
                        lambda self, *args: builds.append(args[:2]) or ball_level(self, *args))
    assert scale_multiplicity(ratio, cov, target) == 2
    assert builds == [(target.threshold, target.t)]
    assert len(pairs) <= 4 * n


def brute_lebesgue_violation(space, cover, params, window):
    sets = [frozenset(s) for s in cover.all_sets()]
    for x in window:
        if not any(brute_ball(space, x, params, window) <= s for s in sets):
            return x
    return None


@pytest.mark.parametrize("factory", SPACES)
def test_lebesgue_matches_brute(factory):
    space = factory()
    lo = 1 if space.universe.name == "naturals" else -5
    w = int_window(lo, 12)
    covers = [
        Cover.of([Family.of(blocks_cover(lo, 12, 4))], w),
        Cover.of([Family.of([list(w)])], w),
        Cover.of([Family.of([[x] for x in w])], w),
    ]
    for cov in covers:
        for r, t in [(F(1, 3), 1), (F(1, 2), 2), (F(4, 5), 1)]:
            p = ScaleParams(r, t)
            assert (first_lebesgue_violation(space, cov, p) is None) == \
                (brute_lebesgue_violation(space, cov, p, w) is None)


def test_family_boundedness_matches_metric_at_half():
    """At level 1/2 the standard space's family boundedness is the metric
    statement that every member's diameter stays below t."""
    std = standard_space()
    families = [
        Family.of(blocks_cover(-10, 10, 4)),
        Family.of([[0, 1, 2], [5, 9]]),
        Family.of([list(range(-25, 25))]),
    ]
    for fam in families:
        for t in (2, 4, 7, 50):
            metric_side = all(
                max(s) - min(s) < t for s in fam.sets
            )
            assert is_uniformly_bounded_family(std, fam, ScaleParams(F(1, 2), t)) \
                == metric_side


def test_lebesgue_examples():
    std = standard_space()
    w = int_window(0, 49)
    whole = Cover.of([Family.of([list(w)])], w)
    assert first_lebesgue_violation(std, whole, ScaleParams(F(9, 10), 7)) is None
    blocks = Cover.of([Family.of(blocks_cover(0, 49, 10))], w)
    assert first_lebesgue_violation(std, blocks, ScaleParams(F(1, 2), 1)) is None
    assert first_lebesgue_violation(std, blocks, ScaleParams(F(1, 2), 3)) is not None
    non_cover = Cover.of([Family.of([[0, 1]])], w)
    with pytest.raises(PreconditionError):
        first_lebesgue_violation(std, non_cover, ScaleParams(F(1, 2), 1))


def test_a_standalone_lebesgue_check_reads_one_ball_level(monkeypatch):
    """A call without a context makes one and reads its balls from the
    context's ball level: on 1..4000 the ball of 2 is the first that no
    singleton holds, and the level of the window is one radial sweep, at
    most 4 ``pair`` calls per point."""
    ratio = ratio_minmax_space()
    n = 4000
    w = int_window(1, n)
    singles = Cover.of([Family.of([(p,) for p in w])], w)
    calls = []
    pair = type(ratio._kind).pair
    monkeypatch.setattr(type(ratio._kind), "pair",
                        lambda self, *args: calls.append(0) or pair(self, *args))
    assert first_lebesgue_violation(ratio, singles, ScaleParams(F(1, 2), 1)) == 2
    assert len(calls) <= 4 * n


def test_refines():
    w = int_window(1, 3)
    c = Cover.of([Family.of([[1, 2], [3]])], w)
    assert first_refinement_violation(c, c) is None
    singles = Cover.of([Family.of([[1], [2], [3]])], w)
    assert first_refinement_violation(singles, c) is None
    merged = Cover.of([Family.of([[1, 2, 3]])], w)
    assert first_refinement_violation(merged, c) is not None
    assert first_refinement_violation(c, merged) is None


def test_violation_witnesses():
    std = standard_space()
    w = int_window(0, 49)
    blocks = Cover.of([Family.of(blocks_cover(0, 49, 10))], w)
    # ball(8) at threshold 3 is {6..10}, straddling the first block boundary
    assert first_lebesgue_violation(std, blocks, ScaleParams(F(1, 2), 3)) == 8
    assert first_lebesgue_violation(std, blocks, ScaleParams(F(1, 2), 1)) is None
    c = Cover.of([Family.of([[1, 2], [3]])], int_window(1, 3))
    merged = Cover.of([Family.of([[1, 2, 3]])], int_window(1, 3))
    loose = first_refinement_violation(merged, c)
    assert type(loose) is range and tuple(loose) == (1, 2, 3)
    assert first_refinement_violation(c, merged) is None


# ---------------------------------------------------------------------------
# window semantics: member points outside the window are never counted
# ---------------------------------------------------------------------------


def test_scale_multiplicity_ignores_points_outside_the_window():
    ratio = ratio_minmax_space()
    w = int_window(1, 5)
    cov = Cover.of([Family.of([(4,), (8,)])], w)
    p = ScaleParams(F(1, 2), 1)
    # the ball of 5 is {3, 4, 5} on the window; 8 lies outside it
    assert scale_multiplicity(ratio, cov, p) == 1
    assert brute_scale_multiplicity(ratio, cov, p, w) == 1


def test_lebesgue_ignores_points_outside_the_window():
    ratio = ratio_minmax_space()
    w = int_window(1, 4)
    cov = Cover.of([Family.of([(2, 7, 8), (4, 5, 6, 9), (1,), (3,)])], w)
    p = ScaleParams(F(1, 4), 1)
    # every window ball is a singleton, so each fits in the set owning it
    assert first_lebesgue_violation(ratio, cov, p) is None
    assert brute_lebesgue_violation(ratio, cov, p, w) is None


def test_balls_that_skip_a_window_point():
    """Around 0 and 2 the ball is {0, 2}: two runs of the window 0..2."""
    space = standard_space(TableMetric(range(3), [[0, 4, 1], [4, 0, 4], [1, 4, 0]]))
    w = int_window(0, 2)
    p = ScaleParams(F(2, 3), 1)
    singles = Cover.of([Family.of([(0,), (1,), (2,)])], w)
    assert scale_multiplicity(space, singles, p) == 2
    assert brute_scale_multiplicity(space, singles, p, w) == 2
    split = Cover.of([Family.of([(0, 2), (1,)])], w)
    assert first_lebesgue_violation(space, split, p) is None
    assert brute_lebesgue_violation(space, split, p, w) is None


def test_window_points_outside_the_universe_are_refused():
    """A ball never counts, or evaluates M at, a window point outside the
    space's universe, and a neighbourhood never starts from one."""
    space = reciprocal_product_space()
    w = Window([-1, 0, 1, 2, 3])
    p = ScaleParams(F(1, 2), 1)
    cov = Cover.of([Family.of([list(w)])], w)
    with pytest.raises(DomainError, match="point -1 is outside the naturals"):
        ball(space, 2, p, w)
    with pytest.raises(DomainError, match="point -1 is outside the naturals"):
        scale_neighborhood(space, [2], p, w)
    with pytest.raises(DomainError, match="point -1 is outside the naturals"):
        scale_multiplicity(space, cov, p)
    with pytest.raises(DomainError, match="point -1 is outside the naturals"):
        first_lebesgue_violation(space, cov, p)
    with pytest.raises(DomainError, match="point 0 is outside the naturals"):
        scale_neighborhood(space, [0, 2], p, int_window(1, 3))


@pytest.mark.parametrize("factory, pair", [(ultrametric_space, (-2, -1)),
                                           (ratio_minmax_space, (0, 1)),
                                           (reciprocal_product_space, (0, 2))])
def test_member_points_outside_the_universe_are_refused(factory, pair):
    """The boundedness and disjointness predicates, the bound search, the
    refinement check of both covers, scale multiplicity, the Lebesgue
    check and the Lebesgue-cover stage check member points before M is
    evaluated, where the ultrametric and the reciprocal rule would divide
    by zero and the ratio rule would give a verdict (2 and True on the
    cover below)."""
    space, p = factory(), ScaleParams(F(1, 2), 1)
    match = f"point {pair[0]} is outside the naturals"
    five = int_window(1, 5)
    cover = Cover.of([Family.of([pair, range(1, 6)])], five)
    for check in (scale_multiplicity, first_lebesgue_violation):
        with pytest.raises(DomainError, match=match):
            check(space, cover, p)
    with pytest.raises(DomainError, match=match):
        lebesgue_cover_from_multiplicity(space, cover, p, p)
    with pytest.raises(DomainError, match=match):
        is_uniformly_bounded_family(space, Family.of([pair]), p)
    with pytest.raises(DomainError, match=match):
        derive_bound_params(space, [pair], 1)
    w = int_window(1, 3)
    with pytest.raises(DomainError, match=match):
        refinement_via_lebesgue(space, Cover.of([Family.of([pair])], w),
                                Cover.of([Family.of([w.points])], w), p)
    with pytest.raises(DomainError, match=match):  # a target point outside
        refinement_via_lebesgue(space, Cover.of([Family.of([w.points])], w),
                                Cover.of([Family.of([pair, w.points])], w), p)


def test_members_in_any_order_or_with_repeats():
    """Members given unsorted or with repeats are read as sets."""
    ratio = ratio_minmax_space()
    w = int_window(1, 10)
    p = ScaleParams(F(1, 2), 1)
    messy = Cover.of([Family(((2, 5, 4), (4, 4, 2), (10, 9, 8, 7, 6, 3, 1)))], w)
    clean = Cover.of([Family.of(messy.all_sets())], w)
    assert multiplicity(messy) == multiplicity(clean) == 2
    assert (scale_multiplicity(ratio, messy, p) == scale_multiplicity(ratio, clean, p)
            == brute_scale_multiplicity(ratio, messy, p, w))
    assert (first_lebesgue_violation(ratio, messy, p)
            == brute_lebesgue_violation(ratio, messy, p, w) == 2)
    runs = Cover.of([Family((range(2, 6),))], w)
    assert first_refinement_violation(runs, messy) == range(2, 6)
    assert first_refinement_violation(Cover.of([Family(((5, 3),))], w), runs) is None


# ---------------------------------------------------------------------------
# differential suite: window runs vs window scans vs the definitions
# ---------------------------------------------------------------------------


def unordered(space):
    """The same space with the ``_Unordered`` order: every ball is a window
    scan and every extremal pair a brute-force one."""
    kind = copy.copy(space._kind)
    kind.order = _Unordered()
    return FuzzyMetricSpace(kind, space.tnorm, space.universe)


LINE_KINDS = [ratio_minmax_space, reciprocal_product_space, pathological_space,
              ultrametric_space]


@st.composite
def spaces_and_windows(draw, cases=("standard", "rational", "line", "lattice", "table"),
                       line_kinds=LINE_KINDS):
    """(space, window, points outside the window) over every built-in space,
    or the given cases and line kinds.

    Windows are runs of integers, sparse integer sets, negative-integer
    windows and rational grids.  Lattice and table spaces are unordered;
    a random distance table makes balls that are not runs of the window.
    """
    case = draw(st.sampled_from(cases))
    if case == "table":
        n = 7
        d = {(i, j): draw(st.integers(1, 4)) for i in range(n) for j in range(i + 1, n)}
        table = TableMetric(range(n), [[0 if i == j else d[min(i, j), max(i, j)]
                                        for j in range(n)] for i in range(n)])
        pts = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        return standard_space(table), Window(pts), [p for p in range(n) if p not in pts]
    if case == "rational":
        lo = F(draw(st.integers(-6, 2)), draw(st.sampled_from([1, 2, 3])))
        step = draw(st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]))
        w = grid_window(lo, lo + step * draw(st.integers(0, 11)), step)
        space = standard_space(universe=RATIONALS)
        return space, w, [p + step / 2 for p in w.points[:3]] + [w.points[-1] + step]
    if case == "lattice":
        pts = draw(st.sets(st.integers(-8, 8), min_size=1, max_size=10))
        return standard_space(EuclideanLattice(1)), Window((p,) for p in pts), [(20,), (-20,)]
    if case == "standard":
        space, floor = standard_space(), -15
    else:
        space, floor = draw(st.sampled_from(line_kinds))(), 1
    if draw(st.booleans()):
        lo = draw(st.integers(floor, floor + 10))
        w = int_window(lo, lo + draw(st.integers(0, 13)))
    else:
        w = Window(draw(st.sets(st.integers(floor, floor + 20), min_size=1, max_size=12)))
    top = w.points[-1]
    outside = [p for p in range(floor, top + 4) if p not in w]
    return space, w, outside


@st.composite
def member_sets(draw, window, outside, count):
    """Runs of window points (as tuples, or ranges over integers), arbitrary
    window subsets, and sets that stick out of the window."""
    pts = window.points
    sets = []
    for _ in range(count):
        shape = draw(st.sampled_from(["run", "subset", "outside", "outside"]))
        if shape == "run":
            i = draw(st.integers(0, len(pts) - 1))
            j = draw(st.integers(i, len(pts) - 1))
            run = pts[i:j + 1]
            if isinstance(run[0], int) and isinstance(run[-1], int) and draw(st.booleans()):
                sets.append(range(run[0], run[-1] + 1 + draw(st.integers(0, 2))))
            else:
                sets.append(run)
        else:
            s = set(draw(st.lists(st.sampled_from(pts), min_size=1, max_size=4)))
            if shape == "outside" and outside:
                s |= set(draw(st.lists(st.sampled_from(outside), min_size=1, max_size=4)))
            sets.append(s)
    return sets


SCALES = st.builds(ScaleParams, st.sampled_from([F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(4, 5)]),
                   st.sampled_from([F(1, 2), 1, 3]))


def split_into_families(sets, data):
    cut = data.draw(st.integers(0, len(sets)))
    return [Family.of(sets[:cut], "a"), Family.of(sets[cut:], "b")]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_balls_match_the_definition_and_the_flag_free_scan(data):
    """One sweep over sorted centres, some outside the window, gives each
    centre's ball as the definition does and as a window scan does."""
    space, w, outside = data.draw(spaces_and_windows())
    centres = sorted(set(data.draw(st.lists(st.sampled_from(list(w) + outside), max_size=8))))
    p = data.draw(SCALES)
    swept = list(space.balls(centres, p.threshold, p.t, w))
    assert swept == list(unordered(space).balls(centres, p.threshold, p.t, w))
    assert swept == [w.runs_of(tuple(brute_ball(space, x, p, w))) for x in centres]
    for x, runs in zip(centres, swept):
        assert next(space.balls((x,), p.threshold, p.t, w)) == runs


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_threshold_edges_give_the_components_of_every_pair(data):
    """The closed threshold graph has the same components from an ordered
    kind's one edge per point, from the pair scan of its unordered copy
    and from M on every pair, over run, sparse and rational-grid windows.
    The threshold is a scale's level or a value of M on the window, where
    the closed and the strict graphs differ."""
    space, w, _ = data.draw(spaces_and_windows())
    p = data.draw(SCALES)
    pts = w.points
    value = {(i, j): space.value(pts[i], pts[j], p.t)
             for i, j in combinations(range(len(pts)), 2)}
    b = data.draw(st.sampled_from(sorted(set(value.values())) + [p.threshold]))
    expected = _components(len(pts), [ij for ij, v in value.items() if v >= b])
    for sp in (space, unordered(space)):
        edges = sp.order.edges(pts, sp._threshold(pts, b, p.t, False))
        assert _components(len(pts), edges) == expected


@pytest.mark.parametrize("cases, line_kinds", [
    (("standard", "rational", "line"), [ratio_minmax_space, pathological_space, ultrametric_space]),
    (("line",), [reciprocal_product_space]),
], ids=["radial", "prefix"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_order_primitives_match_the_unordered_order(cases, line_kinds, data):
    """Each primitive of a line order against ``_Unordered`` on the same
    sorted points, over run, sparse and rational-grid windows: the same
    ball runs and threshold components under a strict and a closed test,
    the same weakest intra and strongest cross values (with the pair and
    member indices each order names on ties), and, on a non-decreasing
    sequence with repeated points, premise runs that are the pairs
    meeting a closed premise."""
    space, w, outside = data.draw(spaces_and_windows(cases, line_kinds))
    order, plain = space.order, _Unordered()
    p = data.draw(SCALES)
    pts, t, pair = w.points, p.t, space._pair
    centres = sorted(set(data.draw(st.lists(st.sampled_from(list(w) + outside), max_size=8))))
    values = sorted({space.value(x, y, t) for x, y in combinations(pts, 2)})
    b = data.draw(st.sampled_from(values + [p.threshold]))
    for strict in (True, False):
        test = space._threshold(pts, b, t, strict)
        assert (list(order.balls(pts, centres, test))
                == list(plain.balls(pts, centres, test)))
        assert (_components(len(pts), order.edges(pts, test))
                == _components(len(pts), plain.edges(pts, test)))

    sets = Family.of(data.draw(member_sets(w, outside, data.draw(st.integers(1, 5))))).sets
    for s in sets:
        if len(s) > 1:
            (num, den), (x, y) = order.min_intra(s, pair, t)
            assert F(num, den) == F(*plain.min_intra(s, pair, t)[0]) == space.value(x, y, t)
            assert {x, y} <= set(s) and x < y
    cuts = sorted(set(data.draw(st.lists(st.integers(1, len(pts)), max_size=4))))
    chunks = Family.of([pts[i:j] for i, j in zip([0, *cuts], [*cuts, len(pts)])]).sets
    for fam in (sets, chunks):
        if len(fam) > 1 and _first_shared_point(fam) is None:
            got = order.max_cross(fam, space._raw, t, _hull_ordered(fam))
            assert got[0] == plain.max_cross(fam, space._raw, t, False)[0]
            assert got == brute_max_cross_pair(space, fam, t)

    seq = sorted(data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=12)))
    assert order.rows_fall_on(seq) and not plain.rows_fall_on(seq)
    n = len(seq)
    ends = order.run_ends(seq, space._threshold(seq, b, t, False))
    for i, end in enumerate(ends):
        assert [j for j in range(i, n) if space.value(seq[i], seq[j], t) >= b] == list(range(i, end))


def test_extremal_checks_refuse_points_outside_the_universe():
    """-2 and -1 lie outside the naturals, where t + max(x, y) can be 0:
    each public check raises ``DomainError`` before M is evaluated."""
    sp, p = ultrametric_space(), ScaleParams(F(1, 2), 1)
    for call in (lambda: min_intra_pair(sp, (-2, -1), 1),
                 lambda: is_uniformly_bounded_family(sp, Family.of([(-2, -1)]), p),
                 lambda: scale_graph(sp, p, int_window(-2, -1))):
        with pytest.raises(DomainError, match="point -2 is outside the naturals universe"):
            call()


def outcome(fn, *args):
    """What a call returns, or the message of the ``DomainError`` it raises."""
    try:
        return fn(*args)
    except DomainError as err:
        return str(err)


def refusal(space, sets):
    """The ``DomainError`` message for the first member point outside the
    space's universe, in member order, or None."""
    bad = next((p for s in sets for p in s if p not in space.universe), None)
    return None if bad is None else f"point {bad!r} is outside the {space.universe.name} universe"


def level_neighborhood_points(*args):
    """The points of ``_level_neighborhood(*args)``, a tuple or a range."""
    got = _level_neighborhood(*args)
    assert type(got) in (tuple, range)
    return tuple(got)


def level_scale_multiplicity(cover, window, level):
    """The largest number of members that the ball of one window point
    meets, with the balls read from ``level`` as points."""
    balls = [set(window.points_of(level[k])) for k in range(len(window))]
    return max((sum(not ball.isdisjoint(s) for s in cover.all_sets()) for ball in balls),
               default=0)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_ball_level_holds_the_ball_of_each_window_point(data):
    """Item k of a ball level is the run list that ``balls`` yields for
    window point k, on radial, coordinate-decreasing and scan kinds over
    run, sparse and rational-grid windows; the stages read their balls
    from it, the Lebesgue check its first ball outside every member, and
    a neighbourhood read from it, with member points outside the window
    galloped, holds the points of ``scale_neighborhood`` for every member
    that passes the universe check, which the stages make first."""
    space, w, outside = data.draw(spaces_and_windows())
    p = data.draw(SCALES)
    level = space.ball_level(p.threshold, p.t, w)
    assert len(level) == len(w)
    for k, x in enumerate(w.points):
        assert level[k] == next(space.balls((x,), p.threshold, p.t, w))
    assert list(level) == list(space.balls(w.points, p.threshold, p.t, w))
    sets = data.draw(member_sets(w, outside, data.draw(st.integers(0, 5))))
    cov = Cover.of(split_into_families(sets, data), w)
    assert (outcome(scale_multiplicity, space, cov, p)
            == (refusal(space, cov.all_sets()) or level_scale_multiplicity(cov, w, level)))
    inside = Cover.of([Family.of([s for s in cov.all_sets() if w.holds(s)])], w)
    unions = Family.of([_level_neighborhood(space, s, p, w, level) for s in inside.all_sets()])
    assert scale_multiplicity(space, inside, p) == multiplicity(Cover.of([unions], w))
    for s in cov.all_sets():
        if refusal(space, (s,)) is None:
            assert (level_neighborhood_points(space, s, p, w, level)
                    == scale_neighborhood(space, s, p, w))
    if not missing_points(cov.all_sets(), w):
        sets = cov.all_sets()
        balls = [set(w.points_of(runs)) for runs in level]
        first = next((x for x, ball in zip(w, balls)
                      if not any(ball <= set(s) for s in sets)), None)
        assert outcome(first_lebesgue_violation, space, cov, p) == (refusal(space, sets) or first)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_scale_multiplicity_runs_scans_and_definition_agree(data):
    space, w, outside = data.draw(spaces_and_windows())
    sets = data.draw(member_sets(w, outside, data.draw(st.integers(0, 6))))
    cov = Cover.of(split_into_families(sets, data), w)
    p = data.draw(SCALES)
    want = refusal(space, cov.all_sets()) or brute_scale_multiplicity(space, cov, p, w)
    assert outcome(scale_multiplicity, space, cov, p) == want
    assert outcome(scale_multiplicity, unordered(space), cov, p) == want


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_lebesgue_runs_scans_and_definition_agree(data):
    """The first ball outside every member against the definition, and the
    run containment test against set inclusion on every ball.  Members
    may be unions of balls, which on unordered kinds and sparse windows
    hold balls of several runs only through a member of several runs, or
    such a union less one point."""
    space, w, outside = data.draw(spaces_and_windows())
    p = data.draw(SCALES)
    sets = data.draw(member_sets(w, outside, data.draw(st.integers(0, 5))))
    balls = [set(brute_ball(space, x, p, w)) for x in w]
    for _ in range(data.draw(st.integers(0, 3))):
        union = set().union(*data.draw(st.lists(st.sampled_from(balls), min_size=1, max_size=2)))
        if data.draw(st.booleans()):
            union.discard(data.draw(st.sampled_from(sorted(union))))
        sets.insert(data.draw(st.integers(0, len(sets))), union)
    if data.draw(st.booleans()):
        sets += [(p,) for p in w]  # make it a cover
    cov = Cover.of(split_into_families(sets, data), w)
    members = cov.all_sets()
    holds = _run_containment([w.runs_of(s) for s in members])
    for ball in balls:
        assert holds(w.runs_of(tuple(ball))) == any(ball <= set(s) for s in members)
    refused = refusal(space, members)
    if refused:
        for sp in (space, unordered(space)):
            assert outcome(first_lebesgue_violation, sp, cov, p) == refused
        return
    if not set(w) <= set().union(*map(set, sets)):
        for sp in (space, unordered(space)):
            with pytest.raises(PreconditionError):
                first_lebesgue_violation(sp, cov, p)
        return
    want = brute_lebesgue_violation(space, cov, p, w)
    assert first_lebesgue_violation(space, cov, p) == want
    assert first_lebesgue_violation(unordered(space), cov, p) == want


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_coverage_from_run_ends_matches_the_definition(data):
    """Uncovered window points, whether every member point lies in the
    window, and the member points outside it in member order, for range
    members sticking out on either side, ranges of other steps and point
    members, as given and in their ``Family`` form."""
    _, w, outside = data.draw(spaces_and_windows())
    sets = data.draw(member_sets(w, outside, data.draw(st.integers(0, 6))))
    if w.is_contiguous_ints() and data.draw(st.booleans()):
        lo = w.points[0] - data.draw(st.integers(0, 3))
        sets.insert(data.draw(st.integers(0, len(sets))),
                    range(lo, w.points[0] + data.draw(st.integers(0, len(w) + 3))))
    if data.draw(st.booleans()):
        sets.append(range(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 20)),
                          data.draw(st.sampled_from([2, 3, -1]))))
    held = set().union(*map(set, sets))
    for members in (sets, Family.of(sets).sets):
        assert coverage(members, w) == (tuple(p for p in w if p not in held), held <= set(w))
        assert list(outside_points(members, w)) == [p for s in members for p in s if p not in w]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_coverage_splits_ranges_from_point_members_in_bulk(data):
    """Runs of one-point members around ranges of step 1 and of other
    steps, reaching past the window or not, on run and non-run windows,
    against a scan of every member point."""
    lo = data.draw(st.integers(-4, 4))
    w = data.draw(st.sampled_from([
        int_window(lo, lo + 8), Window(range(lo, lo + 16, 2)), Window([lo, lo + 1, lo + 5]),
        grid_window(lo, lo + 3, F(1, 2))]))
    points = st.integers(lo - 3, lo + 18) | st.sampled_from([True, F(3, 2), F(lo), lo + 1.0])
    sets = []
    for _ in range(data.draw(st.integers(0, 8))):
        if data.draw(st.booleans()):
            sets += [(p,) for p in data.draw(st.lists(points, max_size=6))]
        else:
            start = data.draw(st.integers(lo - 3, lo + 12))
            sets.append(range(start, start + data.draw(st.integers(0, 8)),
                              data.draw(st.sampled_from([1, 1, 2, 3]))))
    window_points = frozenset(w.points)
    held = [p for s in sets for p in s]
    want = (tuple(p for p in w.points if p not in set(held)),
            all(p in window_points for p in held))
    assert coverage(sets, w) == coverage(tuple(sets), w) == want


_BULK = 10_000  # one-point members per case


def _bulk_members(where):
    """Range members around 10,000 one-point members whose points, in
    member order, are consecutive window points; the point 1 sits at the
    start, middle or end of that run.  Returns the window, the members and
    the index of the member holding 1."""
    at = {"start": 0, "middle": _BULK // 2, "end": _BULK - 1}[where]
    first = 1 - at
    w = int_window(first - 20, first + _BULK + 19)
    points = [(p,) for p in range(first, first + _BULK)]
    half = _BULK // 3
    tail = range(first + _BULK, first + _BULK + 20)
    sets = [range(first - 20, first), *points[:half], tail, *points[half:]]
    return w, sets, at + 1 + (at >= half)


_BULK_EDITS = {
    "missing": lambda sets, k: sets[:k] + sets[k + 1:],
    "duplicate": lambda sets, k: sets[:k + 1] + [(1,)] + sets[k + 1:],
    "outside": lambda sets, k: sets[:k] + [(-10**6,)] + sets[k:],
    "bool": lambda sets, k: sets[:k] + [(True,)] + sets[k + 1:],
    "fraction": lambda sets, k: sets[:k] + [(F(1),)] + sets[k + 1:],
    "float": lambda sets, k: sets[:k] + [(1.0,)] + sets[k + 1:],
}


@pytest.mark.parametrize("edit", sorted(_BULK_EDITS))
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_coverage_of_bulk_one_point_runs_matches_the_definition(edit, where):
    """10,000 one-point members among range members, with one point missing,
    repeated, outside the window, or given as ``True``, ``Fraction(1)`` or
    ``1.0``, at the start, middle or end of the run, against the
    definition.  Where the one-point members stay one run of window points
    (``Window.one_run``; the last assertion says where) they are decided
    with the range runs, elsewhere from the set of their points."""
    w, sets, k = _bulk_members(where)
    assert sets[k] == (1,)
    assert coverage(sets, w) == ((), True)
    sets = _BULK_EDITS[edit](sets, k)
    held = set(chain.from_iterable(sets))
    want = (tuple(p for p in w if p not in held), held <= set(w))
    assert coverage(sets, w) == coverage(tuple(sets), w) == want
    one_run = w.one_run([s[0] for s in sets if len(s) == 1])
    assert (one_run is not None) == (edit in ("bool", "fraction", "float")
                                     or edit == "missing" and where != "middle")


def brute_refinement_violation(cover_v, cover_u):
    targets = [set(u) for u in cover_u.all_sets()]
    return next((s for s in cover_v.all_sets() if not any(set(s) <= u for u in targets)), None)


def brute_multiplicity(cover, window):
    return max((sum(1 for s in cover.all_sets() if p in s) for p in window), default=0)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_refinement_and_multiplicity_runs_points_and_definition_agree(data):
    """The first refining set in no target member against the definition,
    and the run containment test against set inclusion on every refining
    set inside the window.  Some refining sets are drawn inside a target
    member: several runs of it, or points of it outside the window."""
    _, w, outside = data.draw(spaces_and_windows())
    cov_u = Cover.of([Family.of(data.draw(member_sets(w, outside, data.draw(st.integers(0, 5)))))], w)
    refining = data.draw(member_sets(w, outside, data.draw(st.integers(0, 5))))
    targets = cov_u.all_sets()
    for u in data.draw(st.lists(st.sampled_from(targets), max_size=3)) if targets else ():
        refining.insert(data.draw(st.integers(0, len(refining))),
                        data.draw(st.sets(st.sampled_from(list(u)), min_size=1)))
    cov_v = Cover.of([Family.of(refining)], w)
    holds = _run_containment([w.runs_of(u) for u in targets])
    for s in cov_v.all_sets():
        if w.holds(s):
            assert holds(w.runs_of(s)) == any(set(s) <= set(u) for u in targets)
    want = brute_refinement_violation(cov_v, cov_u)
    assert first_refinement_violation(cov_v, cov_u) == want
    # with no window runs to use, every set is checked point by point
    assert first_refinement_violation(cov_v, Cover(cov_u.families, Window(()))) == want
    assert multiplicity(cov_v) == brute_multiplicity(cov_v, w)
    assert multiplicity(cov_u) == brute_multiplicity(cov_u, w)
