import json
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzycoarse import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    Cover,
    DimensionWitness,
    EuclideanLine,
    Family,
    MaxUltrametric,
    ScaleParams,
    TableMetric,
    TNorm,
    Window,
    derive_bound_params,
    derived_scale,
    int_window,
    lebesgue_cover_from_multiplicity,
    lift_metric_families,
    multiplicity,
    multiplicity_cover_from_witness,
    oracle_min_families,
    pathological_space,
    ratio_block_structure,
    ratio_minmax_space,
    reciprocal_head_size,
    reciprocal_product_space,
    refinement_via_lebesgue,
    restrict_witness,
    run_dimension_pipeline,
    scale_graph,
    scale_multiplicity,
    standard_space,
    subspace,
    ultrametric_space,
    verify_witness,
    witness_ball_partition,
    witness_ratio_minmax,
    witness_reciprocal_product,
    witness_whole_window,
)
from fuzzycoarse import asdim, covers
from fuzzycoarse.config import dump_json, witness_from_json, witness_to_json
from fuzzycoarse.errors import (
    CertificationError,
    DomainError,
    NonArchimedeanViolationError,
    OracleSizeError,
    PreconditionError,
    UnsupportedOperationError,
)
from fuzzycoarse.report import fmt_value
from fuzzycoarse.space import FuzzyMetricSpace

F = Fraction
R_GRID = [F(1, 4), F(1, 2), F(3, 4), F(9, 10)]


# ---------------------------------------------------------------------------
# independent oracles (direct "smallest integer such that" scans)
# ---------------------------------------------------------------------------


def naive_head_size(r):
    n = 1
    while not F(1, n + 1) < 1 - r:
        n += 1
    return n


def naive_ratio_blocks(r, top):
    b = 1 - r
    starts, widths = [], []
    prev_top = 1
    while True:
        a = prev_top + 1
        while not F(prev_top, a) < b:
            a += 1
        if a > top:
            break
        m = 0
        while not F(a - 1, a + m + 1) < b:
            m += 1
        starts.append(a)
        widths.append(m)
        prev_top = a + m
        if prev_top >= top:
            break
    return tuple(starts), tuple(widths)


def brute_components(space, params, window):
    pts = list(window)
    b, t = params.threshold, params.t
    adj = {p: set() for p in pts}
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if space.value(x, y, t) >= b:
                adj[x].add(y)
                adj[y].add(x)
    seen, comps = set(), []
    for p in pts:
        if p in seen:
            continue
        stack, comp = [p], []
        seen.add(p)
        while stack:
            q = stack.pop()
            comp.append(q)
            for nxt in adj[q]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


# ---------------------------------------------------------------------------
# verification and the whole-window witness
# ---------------------------------------------------------------------------


def test_whole_window_witness_any_bounded_space():
    rec = reciprocal_product_space()
    w = int_window(1, 30)
    wit = witness_whole_window(rec, w, ScaleParams(F(1, 2), 1))
    assert wit.n == 0
    assert verify_witness(rec, wit).passed


def test_whole_window_singleton():
    wit = witness_whole_window(standard_space(), int_window(5, 5), ScaleParams(F(1, 2), 1))
    assert wit.bound_params == ScaleParams(F(1, 2), 1)
    assert verify_witness(standard_space(), wit).passed


def test_whole_window_pathological_degradation():
    """The grid tops out at level 1/64, so the bound must fall back to the
    exact worst pair 1/100 and record params with 1 - r' < 1/100."""
    pat = pathological_space()
    w = int_window(1, 100)
    wit = witness_whole_window(pat, w, ScaleParams(F(1, 2), 1))
    assert wit.bound_params.threshold < F(1, 100)
    rep = verify_witness(pat, wit)
    assert rep.passed
    bounded = next(c for c in rep.checks if c.predicate == "bounded")
    assert dict(bounded.details)["min"] == "1/100"
    assert dict(bounded.details)["pair"] == "1~100"


def test_witness_structure_validation():
    with pytest.raises(DomainError):
        DimensionWitness(1, ScaleParams(F(1, 2), 1), ScaleParams(F(1, 2), 1),
                         (Family.of([[1]]),), int_window(1, 1))


# ---------------------------------------------------------------------------
# head-plus-singletons construction
# ---------------------------------------------------------------------------


def test_head_size_values_and_oracle():
    assert reciprocal_head_size(F(1, 2)) == 2
    assert reciprocal_head_size(F(9, 10)) == 10
    assert reciprocal_head_size(F(1, 4)) == 1
    for r in R_GRID + [F(2, 3), F(5, 7), F(99, 100)]:
        assert reciprocal_head_size(r) == naive_head_size(r)


def test_reciprocal_witness_structure():
    w = int_window(1, 12)
    wit = witness_reciprocal_product(ScaleParams(F(1, 2), 1), w)
    fam = wit.families[0]
    assert type(fam.sets[0]) is range and tuple(fam.sets[0]) == (1, 2)
    assert fam.sets[1:] == tuple((m,) for m in range(3, 13))
    assert wit.n == 0


@pytest.mark.parametrize("r", R_GRID)
def test_reciprocal_witness_verifies(r):
    rec = reciprocal_product_space()
    for top in (10, 200):
        w = int_window(1, top)
        wit = witness_reciprocal_product(ScaleParams(r, 1), w)
        assert verify_witness(rec, wit).passed


def test_member_sets_are_cleaned_once(monkeypatch):
    """A member set is made sorted and duplicate-free when its Family is
    built; verifying a witness, at any number of scales, sorts none again.
    Reading the witness file cleans only its multi-point members: the
    9,998 one-point lists become 1-tuples in bulk, without a call each."""
    rec = reciprocal_product_space()
    wit = witness_reciprocal_product(ScaleParams(F(1, 2), 1), int_window(1, 10_000))
    as_json = json.loads(dump_json(witness_to_json(wit)))
    cleaned = []
    clean_set = covers._clean_set

    def counting_clean_set(s):
        cleaned.append(s)
        return clean_set(s)

    monkeypatch.setattr(covers, "_clean_set", counting_clean_set)
    assert verify_witness(rec, wit).passed
    assert cleaned == []
    loaded = witness_from_json(as_json)
    for r in (F(1, 4), F(1, 2), F(3, 4)):
        verify_witness(rec, DimensionWitness(loaded.n, ScaleParams(r, 1), loaded.bound_params,
                                             loaded.families, loaded.window))
    assert cleaned == [s for s in as_json["families"][0]["sets"] if len(s) > 1] == [[1, 2]]
    assert len(loaded.as_cover().all_sets()) == 9_999 and loaded == wit


def test_reciprocal_witness_needs_initial_segment():
    with pytest.raises(DomainError):
        witness_reciprocal_product(ScaleParams(F(1, 2), 1), int_window(2, 9))


# ---------------------------------------------------------------------------
# block/gap construction
# ---------------------------------------------------------------------------


def test_ratio_blocks_frozen_values_at_half():
    """Strictness decides the boundary cases: 4/8 = 1/2 fails the strict
    inequality, pushing the second block start to 9, and 8/16 = 1/2 fails
    again, pushing its width to 7."""
    blocks = ratio_block_structure(F(1, 2), 100)
    assert blocks.starts[:3] == (3, 9, 33)
    assert blocks.widths[:2] == (1, 7)
    wit = witness_ratio_minmax(ScaleParams(F(1, 2), 1), int_window(1, 100))
    u, v = wit.families
    assert u.sets[0] == (1,)
    assert type(u.sets[1]) is range and tuple(u.sets[1]) == (3, 4)
    assert type(u.sets[2]) is range and tuple(u.sets[2]) == tuple(range(9, 17))
    assert v.sets[0] == (2,)
    assert type(v.sets[1]) is range and tuple(v.sets[1]) == tuple(range(5, 9))


def test_ratio_blocks_at_quarter():
    blocks = ratio_block_structure(F(1, 4), 50)
    assert blocks.starts[0] == 2
    assert blocks.widths[0] == 0


@pytest.mark.parametrize("r", R_GRID + [F(2, 3), F(7, 8)])
def test_ratio_blocks_match_naive_recursion(r):
    got = ratio_block_structure(r, 300)
    want = naive_ratio_blocks(r, 300)
    assert (got.starts, got.widths) == want


@pytest.mark.parametrize("r", R_GRID)
def test_ratio_witness_verifies_and_boundary_inequalities(r):
    ratio = ratio_minmax_space()
    w = int_window(1, 2000)
    wit = witness_ratio_minmax(ScaleParams(r, 1), w)
    assert wit.n == 1
    assert wit.bound_params == wit.params
    assert verify_witness(ratio, wit).passed
    b = 1 - r
    blocks = ratio_block_structure(r, 2000)
    prev_top = 1
    for a, m in zip(blocks.starts, blocks.widths):
        assert F(prev_top, a) < b                      # block separation
        assert F(a - 1, a + m + 1) < b                 # gap separation
        if m >= 1:
            assert F(a - 1, a + m) >= b                # width minimality
        assert F(a, a + m) > b                         # block internally bounded
        if a - 1 > prev_top:
            assert F(prev_top, a - 1) >= b             # start minimality
        prev_top = a + m


def test_merged_families_fail_disjointness():
    ratio = ratio_minmax_space()
    w = int_window(1, 100)
    wit = witness_ratio_minmax(ScaleParams(F(1, 2), 1), w)
    merged = DimensionWitness(
        0, wit.params, wit.bound_params,
        (Family.of(wit.families[0].sets + wit.families[1].sets, "merged"),), w,
    )
    rep = verify_witness(ratio, merged)
    assert not rep.passed
    fail = next(c for c in rep.failures() if c.predicate == "disjoint")
    sup = dict(fail.details)["sup"]
    num, _, den = sup.partition("/")
    assert F(int(num), int(den)) >= F(1, 2)


# ---------------------------------------------------------------------------
# ball partition construction
# ---------------------------------------------------------------------------


def test_ball_partition_concrete():
    ult = ultrametric_space()
    w = int_window(1, 200)
    wit = witness_ball_partition(ult, ScaleParams(F(1, 4), 10), F(1, 4), w)
    fam = wit.families[0]
    assert type(fam.sets[0]) is range and tuple(fam.sets[0]) == tuple(range(1, 10))
    assert fam.sets[1:] == tuple((m,) for m in range(10, 201))
    assert wit.bound_params == ScaleParams(F(1, 2), 10)
    assert verify_witness(ult, wit).passed


def test_ball_partition_singletons():
    ult = ultrametric_space()
    w = int_window(1, 50)
    wit = witness_ball_partition(ult, ScaleParams(F(1, 4), 1), F(1, 4), w)
    assert all(len(s) == 1 for s in wit.families[0].sets)
    assert verify_witness(ult, wit).passed


def test_ball_partition_refuses_a_user_rule_named_min():
    """The construction rests on the minimum's proofs, so it takes the
    ``MINIMUM`` object only: the product rule named "min" is refused."""
    named_min = TNorm("min", PRODUCT.rule, True)
    assert named_min == MINIMUM
    with pytest.raises(UnsupportedOperationError, match="minimum t-norm"):
        witness_ball_partition(ultrametric_space(named_min), ScaleParams(F(1, 2), 4),
                               F(1, 4), int_window(1, 10))


def test_ball_partition_default_epsilon():
    ult = ultrametric_space()
    wit = witness_ball_partition(ult, ScaleParams(F(1, 2), 4), None, int_window(1, 40))
    assert wit.bound_params.r == F(3, 4)
    assert verify_witness(ult, wit).passed


def test_ball_partition_rejects_wrong_inputs():
    with pytest.raises(UnsupportedOperationError):
        witness_ball_partition(ratio_minmax_space(), ScaleParams(F(1, 2), 1),
                               F(1, 4), int_window(1, 10))
    with pytest.raises(NonArchimedeanViolationError):
        witness_ball_partition(standard_space(tnorm=MINIMUM), ScaleParams(F(1, 2), 4),
                               F(1, 4), Window(range(0, 12)))
    with pytest.raises(DomainError):
        witness_ball_partition(ultrametric_space(), ScaleParams(F(1, 2), 1),
                               F(3, 4), int_window(1, 10))


def brute_nonarch_violation(space, window, t):
    """Independent oracle: first triple, in (x, z, y) order, with
    min(M(x,y,t), M(y,z,t)) > M(x,z,t), or None."""
    pts = window.points
    for i, x in enumerate(pts):
        for z in pts[i + 1:]:
            for y in pts:
                if y not in (x, z) and min(space.value(x, y, t), space.value(y, z, t)) > \
                        space.value(x, z, t):
                    return (x, y, z)
    return None


@pytest.mark.parametrize("make_space, top, t, violated", [
    (ultrametric_space, 40, 1, False),
    (ultrametric_space, 40, 10, False),
    (lambda: standard_space(tnorm=MINIMUM), 20, 4, True),
    (lambda: ratio_minmax_space(MINIMUM), 20, 4, True),
    (lambda: reciprocal_product_space(MINIMUM), 20, 4, True),
])
def test_ball_partition_nonarch_check_matches_brute_force(make_space, top, t, violated):
    space, window, params = make_space(), int_window(1, top), ScaleParams(F(1, 2), t)
    bad = brute_nonarch_violation(space, window, params.t)
    assert (bad is not None) == violated
    if bad is None:
        witness = witness_ball_partition(space, params, F(1, 4), window)
        assert verify_witness(space, witness).passed
    else:
        with pytest.raises(NonArchimedeanViolationError) as info:
            witness_ball_partition(space, params, F(1, 4), window)
        assert str(info.value) == f"M(x,y,t)*M(y,z,t) <= M(x,z,t) fails at {bad} (t={t})"


def test_ball_partition_pass_runs_no_cubic_scan(monkeypatch):
    """A certified ultrametric window never reaches the cubic min scan; a
    failure scans once to name its triple."""
    from fuzzycoarse import space as space_mod

    scans = []

    def counted(*args):
        scans.append(scan(*args))
        return scans[-1]

    scan = space_mod._scan_min
    monkeypatch.setattr(space_mod, "_scan_min", counted)
    monkeypatch.setitem(space_mod._SCANNERS, "min", counted)
    ult = ultrametric_space()
    witness = witness_ball_partition(ult, ScaleParams(F(1, 4), 10), None, int_window(1, 400))
    assert scans == []
    assert verify_witness(ult, witness).passed
    with pytest.raises(NonArchimedeanViolationError):
        witness_ball_partition(standard_space(tnorm=MINIMUM), ScaleParams(F(1, 2), 4),
                               F(1, 4), Window(range(0, 12)))
    assert scans == [(0, 1, 2)]


@st.composite
def ball_partition_cases(draw):
    """``(space, window, certified)``: a sparse window of naturals on an
    ultrametric kind (certified from d), on the path metric |x - y|
    (certified only below three points, where every metric is an
    ultrametric) or on a table metric (never certified), each under min."""
    pts = draw(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True))
    kind = draw(st.sampled_from(["ultrametric", "max", "path", "table"]))
    if kind == "table":
        dist = {(x, y): draw(st.sampled_from([1, 2, 3, F(5, 2)]))
                for x, y in combinations(sorted(pts), 2)}
        matrix = [[0 if x == y else dist[min(x, y), max(x, y)] for y in pts] for x in pts]
        space = standard_space(TableMetric(pts, matrix), MINIMUM)
    else:
        space = {"ultrametric": ultrametric_space,
                 "max": lambda: standard_space(MaxUltrametric(), MINIMUM),
                 "path": lambda: standard_space(EuclideanLine(), MINIMUM)}[kind]()
    certified = kind in ("ultrametric", "max") or kind == "path" and len(pts) < 3
    return space, Window(pts), certified


def ball_partition_outcome(space, params, epsilon, window):
    try:
        return witness_ball_partition(space, params, epsilon, window)
    except NonArchimedeanViolationError as exc:
        return str(exc)


@given(case=ball_partition_cases(),
       r=st.sampled_from([F(1, 5), F(1, 3), F(1, 2), F(2, 3)]),
       t=st.sampled_from([F(1, 2), 1, 3, 10, 40]),
       epsilon=st.sampled_from([None, F(1, 100), F(1, 10)]))
@settings(max_examples=200, deadline=None)
def test_certified_ball_partition_matches_the_matrix_path(case, r, t, epsilon):
    """The ultrametric certificate gives the witness, or the refusal text,
    that the matrix path gives with the certificate forced off."""
    space, window, certified = case
    params = ScaleParams(r, t)
    assert space.is_ultrametric_on(window.points) == certified
    got = ball_partition_outcome(space, params, epsilon, window)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FuzzyMetricSpace, "is_ultrametric_on", lambda self, points: False)
        want = ball_partition_outcome(space, params, epsilon, window)
    assert got == want
    if certified:
        assert isinstance(got, DimensionWitness)


# ---------------------------------------------------------------------------
# metric lift and restriction
# ---------------------------------------------------------------------------


def _blocks(start, stop, size, gap):
    out = []
    a = start
    while a <= stop:
        out.append(tuple(range(a, min(a + size - 1, stop) + 1)))
        a += size + gap
    return out


def test_lift_metric_families_certifies():
    std = standard_space()
    w = int_window(0, 49)
    fam = Family.of(_blocks(0, 49, 5, 5), "blocks")  # gaps of 5 between blocks
    wit = lift_metric_families(std, [fam], 5, ScaleParams(F(1, 3), 2), w)
    # s = 2/3, needed separation st/(1-s) = 4 <= 5
    assert verify_witness(std, wit).passed is False  # blocks alone do not cover
    rep = verify_witness(std, wit)
    assert [c for c in rep.failures()] and all(
        c.predicate == "cover" for c in rep.failures()
    )
    disjoint = next(c for c in rep.checks if c.predicate == "disjoint")
    assert disjoint.verdict == "PASS"


def test_lift_single_family_vacuous():
    std = standard_space()
    fam = Family.of([[0, 1, 2]], "one")
    wit = lift_metric_families(std, [fam], 5, ScaleParams(F(1, 3), 2), int_window(0, 2))
    assert verify_witness(std, wit).passed


def test_lift_threshold_failure():
    std = standard_space()
    fam = Family.of(_blocks(0, 9, 2, 0), "tight")  # 1-separated blocks
    with pytest.raises(CertificationError):
        lift_metric_families(std, [fam], 1, ScaleParams(F(1, 2), 4), int_window(0, 9))


def test_lift_refuses_a_space_without_a_metric():
    fam = Family.of([[1, 2], [9, 10]], "pairs")
    for space in (ratio_minmax_space(), pathological_space()):
        with pytest.raises(UnsupportedOperationError, match="a standard-metric space is required"):
            lift_metric_families(space, [fam], 5, ScaleParams(F(1, 3), 2), int_window(1, 10))


def test_lift_refuses_float_set_points():
    std = standard_space()
    fam = Family.of([[0, 1], [10.5]], "float")
    with pytest.raises(DomainError, match="point 10.5 is outside the integers universe"):
        lift_metric_families(std, [fam], 5, ScaleParams(F(1, 3), 2), int_window(0, 4))
    for far in (1, 1000):  # member points are checked before any distance is read
        with pytest.raises(DomainError, match=r"point Fraction\(1, 2\) is outside"):
            lift_metric_families(std, [[[F(1, 2)], [far]]], 100, ScaleParams(F(1, 3), 2),
                                 int_window(0, 4))


def test_lift_separation_check_catches_lies():
    std = standard_space()
    fam = Family.of([[0, 1], [3, 4]], "close")  # actual separation 2
    with pytest.raises(CertificationError, match="only 2 apart at 1~3, below the claimed 5"):
        lift_metric_families(std, [fam], 5, ScaleParams(F(1, 3), 2), int_window(0, 4))
    shared = Family.of([[0, 1], [1, 4]], "shared")
    with pytest.raises(CertificationError, match="only 0 apart at 1~1"):
        lift_metric_families(std, [shared], 5, ScaleParams(F(1, 3), 2), int_window(0, 4))


def _counting_universe(monkeypatch, space):
    """Record every point ``space``'s universe is asked about."""
    calls = []
    contains = space.universe._contains
    monkeypatch.setattr(space.universe, "_contains", lambda p: calls.append(p) or contains(p))
    return calls


def test_member_points_are_checked_once_per_call(monkeypatch):
    """On a finite universe every point costs one universe call.  The lift
    checks its 16 member points once, and its bound search reads that check
    from the same context; the Lebesgue stage checks the 40 window and 40
    member points once, and not the runs it fattens
    them to.  A point outside the universe is still refused first."""
    sub = subspace(standard_space(), range(40))
    calls = _counting_universe(monkeypatch, sub)
    fam_a = Family.of([range(0, 4), range(20, 24)], "A")
    fam_b = Family.of([range(10, 14), range(30, 34)], "B")
    params = ScaleParams(F(1, 3), 2)
    lift_metric_families(sub, [fam_a, fam_b], 5, params, int_window(0, 39))
    assert sorted(calls) == sorted(p for fam in (fam_a, fam_b) for s in fam.sets for p in s)
    with pytest.raises(DomainError, match="point 40 is outside the finite universe"):
        lift_metric_families(sub, [fam_a, Family.of([(12,), (40,)])], 5, params,
                             int_window(0, 39))

    ratio = subspace(ratio_minmax_space(), range(1, 41))
    w = int_window(1, 40)
    cover = Cover.of([Family.of([range(1, 21), range(21, 41)])], w)
    bound = derive_bound_params(ratio, cover.all_sets(), 1)
    calls = _counting_universe(monkeypatch, ratio)
    _, rep = lebesgue_cover_from_multiplicity(ratio, cover, ScaleParams(F(1, 2), 1), bound)
    assert rep.passed and sorted(calls) == sorted([*w, *w])


def test_restrict_witness_hereditary():
    ratio = ratio_minmax_space()
    w = int_window(1, 100)
    wit = witness_ratio_minmax(ScaleParams(F(1, 2), 1), w)
    evens = restrict_witness(wit, range(2, 101, 2))
    assert verify_witness(ratio, evens).passed
    full = restrict_witness(wit, list(w))
    assert full.families == wit.families
    empty = restrict_witness(wit, [])
    assert verify_witness(ratio, empty).passed
    with pytest.raises(DomainError):
        restrict_witness(wit, [101])


# ---------------------------------------------------------------------------
# the implication pipeline
# ---------------------------------------------------------------------------


def test_derived_scale_examples():
    ratio = ratio_minmax_space()
    d = derived_scale(ratio, ScaleParams(F(1, 2), 1))
    assert d == ScaleParams(F(7, 8), 2)
    ult = ultrametric_space()  # min t-norm
    d2 = derived_scale(ult, ScaleParams(F(1, 2), 3))
    assert d2 == ScaleParams(F(3, 4), 6)
    pat = pathological_space()  # lukasiewicz collapses
    with pytest.raises(UnsupportedOperationError):
        derived_scale(pat, ScaleParams(F(3, 4), 1))


def test_multiplicity_cover_from_witness():
    ratio = ratio_minmax_space()
    w = int_window(1, 2000)
    target = ScaleParams(F(1, 2), 1)
    wit = witness_ratio_minmax(derived_scale(ratio, target), w)
    cover, rep = multiplicity_cover_from_witness(ratio, wit, target)
    assert rep.passed
    assert scale_multiplicity(ratio, cover, target) <= 2


def test_multiplicity_cover_wrong_scale_rejected():
    ratio = ratio_minmax_space()
    w = int_window(1, 50)
    wit = witness_ratio_minmax(ScaleParams(F(1, 2), 1), w)
    with pytest.raises(PreconditionError):
        multiplicity_cover_from_witness(ratio, wit, ScaleParams(F(1, 2), 1))


def test_zero_dim_witness_multiplicity_one():
    rec = reciprocal_product_space()
    w = int_window(1, 300)
    target = ScaleParams(F(1, 2), 1)
    wit = witness_reciprocal_product(derived_scale(rec, target), w)
    cover, rep = multiplicity_cover_from_witness(rec, wit, target)
    assert rep.passed
    assert scale_multiplicity(rec, cover, target) <= 1


def test_full_pipeline_ratio():
    ratio = ratio_minmax_space()
    w = int_window(1, 500)
    for r in (F(1, 4), F(1, 2)):
        result = run_dimension_pipeline(
            ratio, ScaleParams(r, 1),
            lambda scale: witness_ratio_minmax(scale, w),
        )
        assert result.passed
        assert multiplicity(result.lebesgue_cover) <= 2


@pytest.mark.parametrize("space, construct", [
    (ratio_minmax_space(), witness_ratio_minmax),
    (reciprocal_product_space(), witness_reciprocal_product),
])
def test_pipeline_memory_stays_linear(space, construct):
    """The default ball cover holds about N^2/2 points, 200 M at N = 20000.
    Kept as runs and de-duplicated by member set, with no run list per
    ball beside the members, the whole pipeline's traced peak stays under
    7 MB on ratio and 15 MB on reciprocal; keeping each distinct ball's
    run list as a dict key as well peaks at 9.5 and 17.6 MB."""
    w = int_window(1, 20000)
    tracemalloc.start()
    try:
        result = run_dimension_pipeline(space, ScaleParams(F(1, 2), 1),
                                        lambda scale: construct(scale, w))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < {"ratio_minmax": 7, "reciprocal_product": 15}[space.kind_name] * 2 ** 20


def test_pipeline_sweeps_each_ball_level_once(monkeypatch):
    """The ratio pipeline on 1..4000 needs balls at 3 (bound, t) levels:
    the derived scale, the target scale and the refining radius.  Each is
    swept once and read by every stage, so the whole call makes at most
    11 ``pair`` calls per point, and a neighbourhood of members inside the
    window makes none.  The levels live for one call."""
    from fuzzycoarse import FuzzyMetricSpace

    n = 4000
    ratio = ratio_minmax_space()
    w = int_window(1, n)
    pairs, builds, in_neighborhoods = [0], [], []
    pair = type(ratio._kind).pair
    monkeypatch.setattr(type(ratio._kind), "pair",
                        lambda self, *args: pairs.__setitem__(0, pairs[0] + 1) or pair(self, *args))
    ball_level = FuzzyMetricSpace.ball_level
    monkeypatch.setattr(FuzzyMetricSpace, "ball_level",
                        lambda self, *args: builds.append(args[:2]) or ball_level(self, *args))
    neighborhood = covers._level_neighborhood

    def counted_neighborhood(*args):
        before = pairs[0]
        got = neighborhood(*args)
        in_neighborhoods.append(pairs[0] - before)
        return got

    monkeypatch.setattr(asdim, "_level_neighborhood", counted_neighborhood)
    for _ in range(2):
        pairs[0] = 0
        builds.clear()
        result = run_dimension_pipeline(ratio, ScaleParams(F(1, 2), 1),
                                        lambda scale: witness_ratio_minmax(scale, w))
        assert result.passed
        assert builds == [(F(1, 8), 2), (F(1, 2), 1), (F(3, 4), 1)]
        assert pairs[0] <= 11 * n
    assert in_neighborhoods and set(in_neighborhoods) == {0}


def test_pipeline_singleton_ball_cover_on_integers():
    """Fattened singleton balls on the integer line: Lebesgue pair holds."""
    std = standard_space()
    w = int_window(-100, 100)
    target = ScaleParams(F(1, 2), 1)
    want = derived_scale(std, target)  # (7/8, 2)
    singles = Cover.of([Family.of([[x] for x in w], "singles")], w)
    out, rep = lebesgue_cover_from_multiplicity(std, singles, target,
                                                input_bound=ScaleParams(F(1, 2), 1))
    assert rep.passed


def test_lebesgue_cover_from_whole_window_is_trivial():
    rec = reciprocal_product_space()
    w = int_window(1, 40)
    whole = Cover.of([Family.of([list(w)], "whole")], w)
    bound = derive_bound_params(rec, whole.all_sets(), 1)
    out, rep = lebesgue_cover_from_multiplicity(rec, whole, ScaleParams(F(1, 2), 1), bound)
    assert rep.passed
    assert multiplicity(out) == 1


def test_refinement_check_examples():
    ratio = ratio_minmax_space()
    w = int_window(1, 200)
    target = ScaleParams(F(1, 2), 1)
    result = run_dimension_pipeline(ratio, target, lambda scale: witness_ratio_minmax(scale, w))
    # singletons refine anything that covers
    singles = Cover.of([Family.of([[x] for x in w], "singles")], w)
    rep = refinement_via_lebesgue(ratio, singles, result.lebesgue_cover, target)
    assert rep.passed
    # a cover without the Lebesgue property is a rejected hypothesis
    std = standard_space()
    wz = int_window(0, 49)
    blocks = Cover.of([Family.of([tuple(range(a, a + 10)) for a in range(0, 50, 10)])], wz)
    tight = Cover.of([Family.of([[x] for x in wz], "s")], wz)
    with pytest.raises(CertificationError):
        refinement_via_lebesgue(std, tight, blocks, ScaleParams(F(1, 2), 3))
    # so is a refining cover that is not bounded
    whole = Cover.of([Family.of([wz.points])], wz)
    with pytest.raises(CertificationError, match="refining cover is not uniformly bounded "
                       r"at r=1/2, t=3 \(worst pair 0~49 at 3/52\)"):
        refinement_via_lebesgue(std, whole, blocks, ScaleParams(F(1, 2), 3))


def test_pipeline_steps_refuse_a_failing_witness_and_an_uncovering_input():
    """The first step re-verifies its witness, the second refuses an input
    cover that misses window points, and the pipeline refuses a
    multiplicity cover whose scale multiplicity at the derived scale is
    above the n + 1 of the witness.  The ratio rule is no fuzzy metric
    under the minimum (M(1, 4) = 1/4 < min(M(1, 2), M(2, 4))), so its
    block/gap witness verifies at the derived scale while a ball there
    meets a block, the gap after it and the next block."""
    ratio = ratio_minmax_space()
    w, params = int_window(1, 20), ScaleParams(F(1, 2), 1)
    wit = witness_ratio_minmax(derived_scale(ratio, params), w)
    uncovering = DimensionWitness(wit.n, wit.params, wit.bound_params, wit.families,
                                  int_window(1, 21))
    with pytest.raises(PreconditionError,
                       match="witness fails verification: FAIL cover missing=1 witness=21"):
        multiplicity_cover_from_witness(ratio, uncovering, params)
    with pytest.raises(PreconditionError, match="input must cover the window"):
        lebesgue_cover_from_multiplicity(ratio, Cover.of([Family.of([range(1, 10)])], w),
                                         params, params)
    under_min = ratio_minmax_space(MINIMUM)
    scale1 = derived_scale(under_min, params)
    with pytest.raises(PreconditionError, match="input scale multiplicity 3 exceeds the expected 2 "
                                                f"at r={scale1.r}, t={scale1.t}"):
        run_dimension_pipeline(under_min, params, lambda scale: witness_ratio_minmax(scale, w))


def test_pipeline_decides_the_target_lebesgue_pair_once(monkeypatch):
    """The second step decides whether its fattened cover has the Lebesgue
    pair at (r, t); the refinement step asks ``first_lebesgue_violation``
    again, on the same cover and scale, and reads that verdict from the
    call's context instead of deciding it a second time.  So the Lebesgue
    cover's runs are indexed for containment twice: once for that verdict
    and once for the refinement check."""
    rec = reciprocal_product_space()
    w = int_window(1, 1000)
    asked, indexed = [], []
    first = asdim.first_lebesgue_violation
    monkeypatch.setattr(asdim, "first_lebesgue_violation",
                        lambda *args: asked.append(args[1]) or first(*args))
    containment = covers._run_containment
    monkeypatch.setattr(covers, "_run_containment",
                        lambda set_runs: indexed.append(set_runs) or containment(set_runs))
    result = run_dimension_pipeline(rec, ScaleParams(F(1, 2), 1),
                                    lambda scale: witness_reciprocal_product(scale, w))
    assert result.passed
    assert len(asked) == 2 and all(c is result.lebesgue_cover for c in asked)
    runs = [w.runs_of(s) for s in result.lebesgue_cover.all_sets()]
    assert indexed == [runs, runs]
    assert "PASS target-lebesgue-pair r=1/2 t=1" in result.reports[2].lines()


@pytest.mark.parametrize("space, construct", [
    (ratio_minmax_space(), witness_ratio_minmax),
    (reciprocal_product_space(), witness_reciprocal_product),
])
def test_pipeline_measures_the_witness_scale_multiplicity_once(monkeypatch, space, construct):
    """The first step measures the witness cover's scale multiplicity at
    the derived scale; the pipeline's refusal and the second step read it
    from the call's context.  So a call takes two depth sweeps: that one
    and the plain multiplicity of the Lebesgue cover.  The context also
    knows which covers passed the universe check (the verified witness
    cover, and the fattened and ball covers built from window runs), so
    the window is the only point set the call checks."""
    from fuzzycoarse import FuzzyMetricSpace

    w = int_window(1, 300)
    depths, checked = [], []
    max_depth = covers._max_depth
    monkeypatch.setattr(covers, "_max_depth", lambda runs: depths.append(0) or max_depth(runs))
    check_points = FuzzyMetricSpace._check_points
    monkeypatch.setattr(FuzzyMetricSpace, "_check_points",
                        lambda self, points: checked.append(points) or check_points(self, points))
    result = run_dimension_pipeline(space, ScaleParams(F(1, 2), 1),
                                    lambda scale: construct(scale, w))
    assert result.passed and len(depths) == 2
    assert checked == [w._seq]


def test_pipeline_refuses_a_t_dependent_space_before_any_work():
    """The refining ball cover is bounded only for t-independent spaces,
    so a t-dependent one is refused before the witness is built."""
    calls = []
    with pytest.raises(UnsupportedOperationError, match="t-independent"):
        run_dimension_pipeline(standard_space(), ScaleParams(F(1, 2), 1), calls.append)
    assert calls == []


# ---------------------------------------------------------------------------
# zero dimension: one separated family
# ---------------------------------------------------------------------------


def one_family(space, params, w, sets):
    """The one-family witness of a candidate partition of the window, with
    its bound parameters found by ``derive_bound_params``."""
    bound = derive_bound_params(space, sets, params.t)
    return DimensionWitness(0, params, bound, (Family.of(sets, "candidate"),), w)


def test_zero_dim_from_ball_partition():
    """The distinct balls of the ball partition are one separated family, and
    they verify with their bound parameters searched afresh."""
    ult = ultrametric_space()
    w = int_window(1, 60)
    params = ScaleParams(F(1, 2), 10)
    partition = witness_ball_partition(ult, params, None, w)
    wit = one_family(ult, params, w, partition.families[0].sets)
    assert wit.n == 0
    assert verify_witness(ult, wit).passed


def test_zero_dim_from_head_partition():
    """The head-plus-singletons partition at the stronger level
    (1 - r)/2 is separated at (r, t) too."""
    rec = reciprocal_product_space()
    w = int_window(1, 100)
    params = ScaleParams(F(1, 2), 1)
    inner = ScaleParams((1 + params.r) / 2, params.t)
    partition = witness_reciprocal_product(inner, w)
    assert verify_witness(rec, one_family(rec, params, w, partition.families[0].sets)).passed


def test_zero_dim_searched_components():
    """The components of the scale graph at (r, t) are the finest separated
    partition of the window: no pair across two of them reaches 1 - r."""
    rec = reciprocal_product_space()
    w = int_window(1, 100)
    params = ScaleParams(F(1, 2), 1)
    components = scale_graph(rec, params, w).components
    assert verify_witness(rec, one_family(rec, params, w, components)).passed


def _clusters_space():
    """Points 1..6 in three clusters {1,4}, {2,5}, {3,6} at distance 1,
    10 apart: at (1/2, 1) every cluster is a component of the scale graph,
    two runs of the window."""
    close = {frozenset(c) for c in ((1, 4), (2, 5), (3, 6))}
    pts = list(range(1, 7))
    matrix = [[0 if x == y else 1 if frozenset((x, y)) in close else 10 for y in pts]
              for x in pts]
    return standard_space(TableMetric(pts, matrix))


@pytest.mark.parametrize("space, w, sets, failure", [
    (reciprocal_product_space(), int_window(1, 10), [range(1, 4), range(3, 11)],
     "FAIL disjoint family=candidate sup=1 pair=3~3 bound=1/2"),
    (reciprocal_product_space(), int_window(1, 10), [range(1, 4), range(6, 11)],
     "FAIL cover missing=2 witness=4"),
    (ratio_minmax_space(), int_window(1, 40), [range(1, 21), range(21, 41)],
     "FAIL disjoint family=candidate sup=20/21 pair=20~21 bound=1/2"),
    (ratio_minmax_space(), int_window(1, 40), [[1, 2, 3, 4, 5, 30, 31], range(6, 30),
                                               range(32, 41)],
     "FAIL disjoint family=candidate sup=31/32 pair=31~32 bound=1/2"),
    (_clusters_space(), Window(range(1, 7)), [[1, 2, 4], [3, 5, 6]],
     "FAIL disjoint family=candidate sup=1/2 pair=2~5 bound=1/2"),
    (reciprocal_product_space(), int_window(1, 10), [[1, 3, 5, 7, 9], [2, 4, 6, 8, 10]],
     "FAIL disjoint family=candidate sup=1/2 pair=1~2 bound=1/2"),
], ids=["overlap", "gap", "ratio-later-point", "ratio-split-member", "clusters-split-ball",
        "reciprocal-first-point"])
def test_zero_dim_candidate_refusals(space, w, sets, failure):
    """A candidate partition that is no one-family witness fails on its
    first uncovered point or its strongest cross pair, on the closed test
    M >= 1 - r."""
    rep = verify_witness(space, one_family(space, ScaleParams(F(1, 2), 1), w, sets))
    assert rep.failures()[0].line() == failure


@pytest.mark.parametrize("sets, point", [([range(1, 6), [0, 1]], 0), ([[1, 2], [0]], 0)],
                         ids=["overlap", "gap"])
def test_zero_dim_candidate_points_outside_the_universe_are_refused(sets, point):
    """A candidate member point outside the universe is refused before the
    cover and separation verdicts, which would name another failure."""
    params = ScaleParams(F(1, 2), 1)
    wit = DimensionWitness(0, params, params, (Family.of(sets),), int_window(1, 5))
    with pytest.raises(DomainError, match=f"point {point} is outside the naturals universe"):
        verify_witness(ratio_minmax_space(), wit)


def test_zero_dim_candidate_of_split_members():
    """Members of two runs each, one or two clusters apiece."""
    space, w = _clusters_space(), Window(range(1, 7))
    params = ScaleParams(F(1, 2), 1)
    for sets in ([[1, 4], [2, 5], [3, 6]], [[1, 3, 4, 6], [2, 5]]):
        wit = one_family(space, params, w, sets)
        assert wit.families[0].sets == tuple(tuple(s) for s in sets)
        assert verify_witness(space, wit).passed


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_dim_candidate_matches_brute_force(data):
    """A candidate partition verifies as a one-family witness exactly when M
    on every pair across two members stays below 1 - r, and the reported
    sup is the largest of those values."""
    space, w = data.draw(st.sampled_from([
        (ratio_minmax_space(), int_window(1, 12)),
        (reciprocal_product_space(), int_window(1, 12)),
        (ultrametric_space(), int_window(1, 12)),
        (_clusters_space(), Window(range(1, 7))),
    ]))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(w), max_size=len(w)))
    sets = [[p for p, k in zip(w, labels) if k == label] for label in sorted(set(labels))]
    params = ScaleParams(data.draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)])),
                         data.draw(st.sampled_from([1, 3])))
    cross = [space.value(x, y, params.t) for a, b in combinations(sets, 2) for x in a for y in b]
    rep = verify_witness(space, one_family(space, params, w, sets))
    assert rep.passed == all(v < params.threshold for v in cross)
    disjoint = dict(next(c for c in rep.checks if c.predicate == "disjoint").details)
    assert disjoint["sup"] == (fmt_value(max(cross)) if cross else "-")


def _recording_components(monkeypatch):
    """Wrap ``asdim._components`` and return the list of edge lists it gets."""
    seen = []
    components = asdim._components

    def recording(n, edges):
        seen.append(list(edges))
        return components(n, seen[-1])

    monkeypatch.setattr(asdim, "_components", recording)
    return seen


def test_zero_dim_search_edges_are_linear_in_the_window(monkeypatch):
    """The finest separated partition comes from the scale graph.  On ratio
    1..2000 at (1/2, 1) it spans the window, and every ball holds a large
    share of it, yet the component finder gets at most three edges a point."""
    seen = _recording_components(monkeypatch)
    w = int_window(1, 2000)
    assert scale_graph(ratio_minmax_space(), ScaleParams(F(1, 2), 1), w).spanning
    assert len(seen) == 1 and len(seen[0]) <= 3 * len(w)


def _counted_pairs(monkeypatch, space):
    """Count the ``pair`` calls of the space's kind in a one-item list."""
    calls = [0]
    pair = type(space._kind).pair

    def counted(self, *args):
        calls[0] += 1
        return pair(self, *args)

    monkeypatch.setattr(type(space._kind), "pair", counted)
    return calls


def test_threshold_graphs_make_one_pair_call_per_point(monkeypatch):
    """On a flagged kind each window point's threshold edge comes from one
    ``pair`` call, however large the balls: the scale graph on ratio
    1..2000 at 1/2 (radial, one spanning component) and on reciprocal
    1..2000 at 999/1000 (coordinate-decreasing, 1..1000 and 1000
    singletons) each make at most n calls in all."""
    n = 2000
    w = int_window(1, n)
    ratio, rec = ratio_minmax_space(), reciprocal_product_space()
    calls = _counted_pairs(monkeypatch, ratio)
    assert scale_graph(ratio, ScaleParams(F(1, 2), 1), w).spanning
    assert calls[0] <= n
    calls = _counted_pairs(monkeypatch, rec)
    graph = scale_graph(rec, ScaleParams(F(999, 1000), 1), w)
    assert graph.components[0] == tuple(range(1, 1001)) and len(graph.components) == 1001
    assert calls[0] <= n


# ---------------------------------------------------------------------------
# scale graph
# ---------------------------------------------------------------------------


def test_scale_graph_ratio_spanning():
    ratio = ratio_minmax_space()
    for top in (50, 400):
        rep = scale_graph(ratio, ScaleParams(F(1, 2), 1), int_window(2, top))
        assert rep.spanning
        assert rep.min_internal == F(2, top)
    full = scale_graph(ratio, ScaleParams(F(1, 2), 1), int_window(1, 300))
    assert full.spanning and full.min_internal == F(1, 300)


def test_scale_graph_reciprocal_isolated():
    rec = reciprocal_product_space()
    rep = scale_graph(rec, ScaleParams(F(1, 2), 1), int_window(3, 40))
    assert len(rep.components) == 38
    assert not rep.spanning


def test_scale_graph_near_one_spans():
    for factory in (standard_space, ratio_minmax_space, reciprocal_product_space,
                    pathological_space, ultrametric_space):
        sp = factory()
        lo = 1 if sp.universe.name == "naturals" else -4
        rep = scale_graph(sp, ScaleParams(F(999, 1000), 8), int_window(lo, 9))
        assert rep.spanning


@pytest.mark.parametrize(
    "factory", [standard_space, ratio_minmax_space, reciprocal_product_space,
                pathological_space, ultrametric_space, _clusters_space])
@pytest.mark.parametrize("r,t", [(F(1, 3), 1), (F(1, 2), 2), (F(4, 5), 1)])
def test_scale_graph_matches_brute(factory, r, t):
    """On a run window, on every third point and on the Fibonacci numbers;
    the cluster table on its own points, where components are two runs."""
    sp = factory()
    if sp.universe.name == "finite":
        windows = [Window(sp.metric.points)]
    else:
        lo = 1 if sp.universe.name == "naturals" else -7
        windows = [int_window(lo, 14), Window(range(1, 120, 3)),
                   Window([1, 2, 3, 5, 8, 13, 21, 34, 55, 89])]
    params = ScaleParams(r, t)
    for w in windows:
        assert scale_graph(sp, params, w).components == brute_components(sp, params, w)


def test_scale_graph_uses_the_coordinate_decreasing_flag_not_a_formula():
    """M = 1/max(x, y) off the diagonal is coordinate-decreasing but not
    1/(xy): declared ``_Prefix``, at r = 3/4 the points 2, 3 and 4 are
    joined, although no product of two of them is at most 4."""
    from fuzzycoarse import PRODUCT
    from fuzzycoarse.space import NATURALS, FuzzyMetricSpace, _Kind, _Prefix

    class InverseMax(_Kind):
        name = "inverse_max"
        t_dependent = False
        order = _Prefix()

        def pair(self, x, y, t):
            return (1, 1) if x == y else (1, max(x, y))

    space = FuzzyMetricSpace(InverseMax(), PRODUCT, NATURALS)
    params, w = ScaleParams(F(3, 4), 1), int_window(2, 14)
    graph = scale_graph(space, params, w)
    assert graph.components == brute_components(space, params, w)
    assert graph.components[0] == (2, 3, 4)


@pytest.mark.parametrize("factory", [ratio_minmax_space, reciprocal_product_space])
def test_scale_graph_refuses_points_outside_the_universe(factory):
    with pytest.raises(DomainError, match="point -1 is outside the naturals universe"):
        scale_graph(factory(), ScaleParams(F(1, 2), 1), int_window(-1, 0))


@pytest.mark.parametrize("factory, order", [(ratio_minmax_space, "_Radial"),
                                            (reciprocal_product_space, "_Prefix"),
                                            (_clusters_space, "_Unordered")],
                         ids=["radial", "prefix", "unordered"])
def test_scale_graph_of_the_empty_window_has_no_component(factory, order):
    """On no point each order's edges test nothing, so the graph has no
    component, its minimum is 1 and it names no pair."""
    space = factory()
    assert type(space.order).__name__ == order
    graph = scale_graph(space, ScaleParams(F(1, 2), 1), Window([]))
    assert (graph.components, graph.min_internal, graph.min_internal_pair) == ((), 1, None)


# ---------------------------------------------------------------------------
# the oracle, and the set-partition oracle it is checked against
# ---------------------------------------------------------------------------


def _partitions(items):
    """All set partitions of a list, deterministically ordered."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _chromatic_number(n_nodes: int, conflicts) -> int:
    """Exact chromatic number of a tiny conflict graph."""
    if n_nodes == 0:
        return 0

    def colorable(k):
        colors = [-1] * n_nodes

        def assign(i):
            if i == n_nodes:
                return True
            used = {colors[j] for j in range(i) if conflicts[i][j]}
            for c in range(min(k, i + 1)):
                if c not in used:
                    colors[i] = c
                    if assign(i + 1):
                        return True
            colors[i] = -1
            return False

        return assign(0)

    for k in range(1, n_nodes + 1):
        if colorable(k):
            return k
    return n_nodes


def _partition_oracle(space, params, bound_params, window) -> int:
    """Minimum number of separated families by brute force: every set
    partition of the window into internally bounded blocks (at
    bound_params), and for each the chromatic number of the graph joining
    blocks with a cross pair at or above 1 - r."""
    pts = list(window.points)
    n = len(pts)
    sep_level, t_sep = params.threshold, params.t
    bnd_level, t_bnd = bound_params.threshold, bound_params.t
    m_sep = [[space.value(x, y, t_sep) for y in pts] for x in pts]
    m_bnd = [[space.value(x, y, t_bnd) for y in pts] for x in pts]
    index = {p: i for i, p in enumerate(pts)}

    bounded_cache = {}

    def block_bounded(block):
        key = tuple(block)
        if key not in bounded_cache:
            idxs = [index[p] for p in block]
            bounded_cache[key] = all(
                m_bnd[i][j] > bnd_level
                for a, i in enumerate(idxs)
                for j in idxs[a + 1:]
            )
        return bounded_cache[key]

    def blocks_conflict(b1, b2):
        return any(m_sep[index[x]][index[y]] >= sep_level for x in b1 for y in b2)

    best = n  # singleton blocks always exist and need at most n families
    for part in _partitions(pts):
        blocks = [tuple(sorted(b)) for b in part]
        if not all(block_bounded(b) for b in blocks):
            continue
        k = len(blocks)
        conflicts = [[False] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                if blocks_conflict(blocks[i], blocks[j]):
                    conflicts[i][j] = conflicts[j][i] = True
        best = min(best, _chromatic_number(k, conflicts))
        if best == 1:
            break
    return best


ORACLE_KINDS = [standard_space, reciprocal_product_space, ratio_minmax_space,
                pathological_space, ultrametric_space]
ORACLE_SCALES = st.builds(ScaleParams, st.integers(1, 15).map(lambda i: F(i, 16)),
                          st.sampled_from([F(1, 2), 1, 2, 5, 20]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_oracle_matches_the_partition_oracle(data):
    """The colouring search and the set-partition enumeration agree on
    windows of up to 8 points: the built-in kinds on integer windows and
    random table metrics under each built-in t-norm, at random scales."""
    pts = sorted(data.draw(st.sets(st.integers(1, 24), min_size=1, max_size=8)))
    if data.draw(st.booleans()):
        space = data.draw(st.sampled_from(ORACLE_KINDS))()
    else:
        n = len(pts)
        d = {(i, j): data.draw(st.integers(1, 12)) for i in range(n) for j in range(i + 1, n)}
        matrix = [[0 if i == j else d[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        space = standard_space(TableMetric(pts, matrix),
                               tnorm=data.draw(st.sampled_from([PRODUCT, MINIMUM, LUKASIEWICZ])))
    params, bound = data.draw(ORACLE_SCALES), data.draw(ORACLE_SCALES)
    w = Window(pts)
    assert oracle_min_families(space, params, bound, w) == _partition_oracle(space, params, bound, w)


def test_oracle_evaluates_m_only_through_value(monkeypatch):
    """The oracle stays independent of every fast path: two n x n matrices
    of ``value`` and nothing else."""
    from fuzzycoarse.space import FuzzyMetricSpace

    calls = dict.fromkeys(("value", "_raw", "_pair", "balls", "ball_level"), 0)
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(FuzzyMetricSpace, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(FuzzyMetricSpace, name, counted)
    for space, w in [(ratio_minmax_space(), int_window(1, 10)),
                     (ultrametric_space(), Window([2, 3, 5, 7, 11])),
                     (_clusters_space(), Window(range(1, 7)))]:
        calls.update(dict.fromkeys(calls, 0))
        oracle_min_families(space, ScaleParams(F(1, 2), 1), ScaleParams(F(1, 4), 2), w)
        assert calls == {"value": 2 * len(w) ** 2, "_raw": 0, "_pair": 0, "balls": 0,
                         "ball_level": 0}


def test_oracle_examples():
    rec = reciprocal_product_space()
    assert oracle_min_families(rec, ScaleParams(F(1, 2), 1), ScaleParams(F(3, 4), 1),
                               int_window(1, 3)) == 1
    ratio = ratio_minmax_space()
    assert oracle_min_families(ratio, ScaleParams(F(1, 2), 1), ScaleParams(F(1, 2), 1),
                               int_window(2, 4)) == 2
    assert oracle_min_families(ratio, ScaleParams(F(1, 2), 1), ScaleParams(F(1, 2), 1),
                               int_window(5, 5)) == 1


def test_oracle_size_guard():
    with pytest.raises(OracleSizeError):
        oracle_min_families(ratio_minmax_space(), ScaleParams(F(1, 2), 1),
                            ScaleParams(F(1, 2), 1), int_window(1, 11))


def test_oracle_scale_graph_obstruction():
    """A component whose internal minimum is at or below the bound level
    forces more than one family."""
    ratio = ratio_minmax_space()
    w = int_window(2, 8)
    params = ScaleParams(F(1, 2), 1)
    graph = scale_graph(ratio, params, w)
    assert graph.spanning
    s_level = 1 - graph.min_internal  # bound with 1 - s = min_internal
    bound = ScaleParams(s_level, 1)
    assert graph.min_internal <= bound.threshold
    assert oracle_min_families(ratio, params, bound, w) > 1


def test_oracle_consistency_with_constructors():
    params = ScaleParams(F(1, 2), 1)
    rec = reciprocal_product_space()
    w = int_window(1, 7)
    wit = witness_reciprocal_product(params, w)
    assert verify_witness(rec, wit).passed
    assert oracle_min_families(rec, params, wit.bound_params, w) <= wit.n + 1

    ratio = ratio_minmax_space()
    wit2 = witness_ratio_minmax(params, w)
    assert verify_witness(ratio, wit2).passed
    assert oracle_min_families(ratio, params, wit2.bound_params, w) <= wit2.n + 1


def test_oracle_equals_one_iff_components_boundable():
    """k = 1 exactly when every scale-graph component is internally bounded."""
    cases = [
        (reciprocal_product_space(), ScaleParams(F(1, 2), 1), ScaleParams(F(3, 4), 1), int_window(1, 5)),
        (ratio_minmax_space(), ScaleParams(F(1, 2), 1), ScaleParams(F(1, 2), 1), int_window(2, 6)),
        (ratio_minmax_space(), ScaleParams(F(1, 2), 1), ScaleParams(F(15, 16), 1), int_window(2, 6)),
        (ultrametric_space(), ScaleParams(F(1, 2), 10), ScaleParams(F(1, 2), 10), int_window(1, 6)),
        (standard_space(), ScaleParams(F(1, 2), 1), ScaleParams(F(1, 2), 2), int_window(0, 6)),
    ]
    from fuzzycoarse import is_bounded

    for space, params, bound, w in cases:
        graph = scale_graph(space, params, w)
        all_bounded = all(is_bounded(space, comp, bound) for comp in graph.components)
        k = oracle_min_families(space, params, bound, w)
        assert (k == 1) == all_bounded, (space.describe(), k, all_bounded)


# ---------------------------------------------------------------------------
# bound parameter derivation
# ---------------------------------------------------------------------------


def test_derive_bound_params_grid_then_fallback():
    rec = reciprocal_product_space()
    got = derive_bound_params(rec, [[1, 2]], 1)
    # worst pair value 1/2: level 1/2 fails strictness, level 1/3 passes
    assert got == ScaleParams(F(2, 3), 1)
    ratio = ratio_minmax_space()
    got2 = derive_bound_params(ratio, [[1, 200]], 1)
    assert got2.threshold == F(1, 400)  # fallback: half the worst pair 1/200


def test_derive_bound_params_vacuous():
    got = derive_bound_params(standard_space(), [[3]], 1)
    assert got.r == F(1, 2)


def test_verify_witness_checks_points_against_the_universe(monkeypatch):
    """Window points once per (window, universe); set points outside the
    window only when there are some."""
    ratio = ratio_minmax_space()
    params = ScaleParams(Fraction(1, 2), 1)
    ok = DimensionWitness(0, params, params, (Family.of([[2], [4, 5, 6]]),), Window([2, 4, 5]))
    assert not verify_witness(ratio, ok).passed  # 2 and 4 are too close: a verdict
    stray = DimensionWitness(0, params, params, (Family.of([[0], [4, 5]]),), Window([4, 5]))
    with pytest.raises(DomainError, match="point 0 is outside the naturals"):
        verify_witness(ratio, stray)

    def counting(contains):
        return lambda p: calls.append(p) or contains(p)

    odd = list(range(1, 60, 2))
    sub = subspace(ratio, odd)
    calls = []
    monkeypatch.setattr(sub.universe, "_contains", counting(sub.universe._contains))
    w = witness_whole_window(sub, Window(odd), params)
    for _ in range(3):
        verify_witness(sub, w)
    assert calls == odd


def test_verify_witness_names_the_points_a_point_scan_names():
    """Range members are judged from their ends, and the report still names
    the first uncovered window point and the first member point, in member
    order, that lies outside both the window and the universe."""
    ratio = ratio_minmax_space()
    params = ScaleParams(F(1, 2), 1)

    def witness(members, w):
        return DimensionWitness(0, params, params, (Family.of(members),), w)

    lines = verify_witness(ratio, witness([range(1, 4), (5, 7), range(8, 12)],
                                          int_window(1, 10))).lines()
    assert "FAIL cover missing=2 witness=4" in lines
    for space, members, w, message in [
        (ratio, [(9,), range(-1, 5), (0,)], int_window(3, 6), "point -1 is outside the naturals"),
        (ratio, [range(3, 7), (0, 4)], int_window(3, 6), "point 0 is outside the naturals"),
        (subspace(ratio, range(1, 8)), [range(1, 4), range(2, 10)], int_window(1, 3),
         "point 8 is outside the finite"),
    ]:
        with pytest.raises(DomainError, match=message):
            verify_witness(space, witness(members, w))


def test_range_members_outside_the_window_are_checked_at_their_ends(monkeypatch):
    """A range member's points outside a window of consecutive integers
    cost two universe calls per part, not one per point, and a part that
    starts below 1 on the naturals is refused at its first point, as a
    point scan refuses it."""
    from fuzzycoarse.space import NATURALS

    params = ScaleParams(F(1, 2), 1)
    ratio = ratio_minmax_space()
    calls = []
    contains = NATURALS._contains
    monkeypatch.setattr(NATURALS, "_contains", lambda p: calls.append(p) or contains(p))
    wide = DimensionWitness(0, params, params, (Family.of([range(1, 10**6)]),), int_window(1, 10))
    assert not verify_witness(ratio, wide).passed  # 1 and 10**6 - 1 are far apart: a verdict
    assert calls == [1, 10, 11, 10**6 - 1]
    low = DimensionWitness(0, params, params, (Family.of([range(-5, 5), (8,)]),),
                           int_window(3, 10))
    with pytest.raises(DomainError, match="point -5 is outside the naturals"):
        verify_witness(ratio, low)


def test_check_of_the_ratio_witness_reads_member_ends(monkeypatch):
    """On 1..10**5 the ratio witness's families are hull-ordered runs: the
    worst cross pair costs (members - 1) evaluations per family and distinct
    t, the worst intra pair one per member of two or more points, and no
    member is spelled out."""
    from fuzzycoarse import FuzzyMetricSpace
    from fuzzycoarse.asdim import verify_witness_scales

    ratio = ratio_minmax_space()
    wit = witness_ratio_minmax(ScaleParams(F(1, 2), 1), int_window(1, 10**5))
    scales = [ScaleParams(F(1, 4), 1), ScaleParams(F(1, 2), 1), ScaleParams(F(3, 4), 1),
              ScaleParams(F(1, 3), 2)]
    times = []
    for name in ("_raw", "_pair"):  # a value is evaluated as a Fraction or an integer pair
        evaluate = getattr(FuzzyMetricSpace, name)
        monkeypatch.setattr(FuzzyMetricSpace, name, lambda self, x, y, t, evaluate=evaluate:
                            times.append(t) or evaluate(self, x, y, t))
    verify_witness_scales(ratio, wit, scales)
    cross = sum(len(fam) - 1 for fam in wit.families)
    runs = sum(len(s) > 1 for s in wit.as_cover().all_sets())
    assert wit.bound_params.t == 1
    assert (times.count(1), times.count(2), len(times)) == (cross + runs, cross, 2 * cross + runs)
    monkeypatch.undo()

    tracemalloc.start()
    try:
        reports = verify_witness_scales(ratio, wit, scales)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [rep.passed for rep in reports] == [True, True, False, True]
    assert peak < 2 ** 20


def test_a_window_of_consecutive_integers_is_checked_at_its_ends(monkeypatch):
    """The integers outside a built-in universe form a prefix, so a window of
    consecutive integers costs two universe calls and a failure names the
    same point as a scan; a lattice or finite universe scans every point."""
    from fuzzycoarse.space import NATURALS, EuclideanLattice

    params = ScaleParams(Fraction(1, 2), 1)
    ratio = ratio_minmax_space()
    calls = []
    contains = NATURALS._contains
    monkeypatch.setattr(NATURALS, "_contains", lambda p: calls.append(p) or contains(p))
    big = int_window(1, 10**5)
    verify_witness(ratio, witness_ratio_minmax(params, big))
    assert calls == [1, 10**5]

    def whole(w):
        return DimensionWitness(0, params, params, (Family.of([w.points]),), w)

    for space, w, name, point in [
        (ratio, int_window(-3, 5), "naturals", -3),
        (standard_space(EuclideanLattice(2)), int_window(-3, 5), "lattice2", -3),
        (subspace(ratio, [1, 2, 4, 5]), int_window(1, 5), "finite", 3),
    ]:
        with pytest.raises(DomainError, match=f"point {point} is outside the {name} universe"):
            verify_witness(space, whole(w))
