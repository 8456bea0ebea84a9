import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzycoarse import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    ClosenessCert,
    CoarseMap,
    DimensionWitness,
    Family,
    ModulusEntry,
    ScaleParams,
    TableMetric,
    Window,
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
    pathological_space,
    ratio_minmax_space,
    reciprocal_product_space,
    standard_space,
    table_map,
    transport_witness,
    ultrametric_space,
    verify_witness,
)
from fuzzycoarse.coarse import EPS_GRID, _check_modulus, _finite_table_note, _separation_scan
from fuzzycoarse.errors import (
    CertificationError,
    DerivationError,
    DomainError,
    PreconditionError,
)
from fuzzycoarse.report import CertReport, fmt_pair, fmt_value
from fuzzycoarse.space import RATIONALS, FuzzyMetricSpace

F = Fraction
STD = standard_space()
STDQ = standard_space(universe=RATIONALS)


def entry(level_in, t_in, level_out, t_out):
    return ModulusEntry(F(level_in), F(t_in), F(level_out), F(t_out))


# ---------------------------------------------------------------------------
# expansive / proper / onto / close
# ---------------------------------------------------------------------------


def test_identity_modulus_passes():
    f = identity_map(expansive=(entry("1/2", 1, "1/2", 1),),
                     proper=(entry("1/2", 1, "1/2", 1),))
    assert check_uniformly_expansive(STD, STD, f, int_window(-10, 10)).passed
    assert check_effectively_proper(STD, STD, f, int_window(-10, 10)).passed


def test_inclusion_into_rationals_passes():
    f = inclusion_map(expansive=(entry("1/2", 1, "1/2", 1),))
    assert check_uniformly_expansive(STD, STDQ, f, int_window(-10, 10)).passed


def test_doubling_map_moduli():
    """d(2x, 2y) = 2 d(x, y), so doubling time exactly compensates."""
    f = affine_map(2, 0,
                   expansive=(entry("1/2", 1, "1/2", 2),),
                   proper=(entry("1/2", 2, "1/2", 1),))
    w = int_window(-25, 25)
    assert check_uniformly_expansive(STD, STD, f, w).passed
    assert check_effectively_proper(STD, STD, f, w).passed
    # the same entry without the time doubling fails
    bad = affine_map(2, 0, expansive=(entry("1/2", 1, "1/2", 1),))
    rep = check_uniformly_expansive(STD, STD, bad, w)
    assert not rep.passed


def test_constant_map_fails_properness():
    from fuzzycoarse import Window

    const = table_map({0: 0, 100: 0}, proper=(entry("1/2", 1, "1/2", 1),))
    rep = check_effectively_proper(STD, STD, const, Window([0, 100]))
    assert not rep.passed
    fail = rep.failures()[0]
    assert dict(fail.details)["witness"] == "0~100"


def test_empty_modulus_rejected():
    with pytest.raises(PreconditionError):
        check_uniformly_expansive(STD, STD, identity_map(), int_window(0, 3))
    with pytest.raises(PreconditionError):
        check_effectively_proper(STD, STD, identity_map(), int_window(0, 3))


def test_onto_examples():
    w_ints = int_window(-5, 5)
    ident = identity_map(domain=w_ints)
    assert check_coarsely_onto(STD, ident, ScaleParams(F(1, 10), 1), w_ints).passed

    grid = grid_window(-5, 5, F(1, 2))
    incl = inclusion_map(domain=w_ints)
    assert check_coarsely_onto(STDQ, incl, ScaleParams(F(1, 2), 1), grid).passed

    doubling = affine_map(2, 0, domain=int_window(-5, 5))
    rep = check_coarsely_onto(STD, doubling, ScaleParams(F(1, 2), 1), int_window(-9, 9))
    assert not rep.passed  # threshold 1 cannot reach odd points
    rep2 = check_coarsely_onto(STD, doubling, ScaleParams(F(1, 2), 2), int_window(-9, 9))
    assert rep2.passed  # threshold 2 reaches the odd points

    with pytest.raises(PreconditionError):
        check_coarsely_onto(STD, identity_map(), ScaleParams(F(1, 2), 1), w_ints)


def test_close_examples():
    w = int_window(-10, 10)
    f = identity_map()
    assert check_close(STD, f, f, ScaleParams(F(1, 100), 1), w).passed
    g = affine_map(1, 1)
    assert check_close(STD, f, g, ScaleParams(F(1, 2), 2), w).passed
    rep = check_close(STD, f, g, ScaleParams(F(1, 2), 1), w)
    assert not rep.passed  # boundary: 1/2 is not strictly above 1/2
    # the relation is symmetric at identical parameters
    for params in (ScaleParams(F(1, 2), 2), ScaleParams(F(1, 2), 1)):
        assert check_close(STD, f, g, params, w).passed == \
            check_close(STD, g, f, params, w).passed


# ---------------------------------------------------------------------------
# closeness composition
# ---------------------------------------------------------------------------


def test_compose_closeness_arithmetic():
    cert_fg = ClosenessCert(ScaleParams(F(1, 2), 1))
    cert_gg = ClosenessCert(ScaleParams(F(1, 2), 1))
    got = compose_closeness(STD, cert_fg, cert_gg, entry("1/2", 1, "1/2", 4))
    assert got.params.threshold == F(1, 4)
    assert got.params.t == 5

    ult = ultrametric_space()  # minimum t-norm
    got2 = compose_closeness(ult, cert_fg, cert_gg, entry("1/2", 1, "1/3", 4))
    assert got2.params.threshold == F(1, 3)


def test_compose_closeness_validation():
    cert = ClosenessCert(ScaleParams(F(1, 2), 1))
    with pytest.raises(DerivationError):
        compose_closeness(STD, cert, cert, entry("1/2", 2, "1/2", 4))  # wrong time
    with pytest.raises(DerivationError):
        compose_closeness(STD, cert, cert, entry("3/4", 1, "1/2", 4))  # level too high
    with pytest.raises(CertificationError):
        compose_closeness(STD, cert, cert, entry("1/2", 1, "0", 4))  # dead output


def test_compose_closeness_recheck_on_window():
    """The certificate arithmetic, re-verified pointwise on a window."""
    w = int_window(-10, 10)
    f, f2 = identity_map(), affine_map(1, 1)
    g = affine_map(2, 0, expansive=(entry("1/2", 2, "1/2", 4),))
    cert_fg_params = ScaleParams(F(1, 2), 2)
    assert check_close(STD, f, f2, cert_fg_params, w).passed
    cert = compose_closeness(STD, ClosenessCert(cert_fg_params),
                             ClosenessCert(ScaleParams(F(1, 2), 1)),
                             entry("1/2", 2, "1/2", 4))
    gf = compose_maps(f, g, w)
    gf2 = compose_maps(f2, g, w)
    assert check_close(STD, gf, gf2, cert.params, w).passed


# ---------------------------------------------------------------------------
# metric agreement at the canonical level
# ---------------------------------------------------------------------------


def test_checks_match_metric_formulation_at_half():
    """Level-1/2 entries say exactly 'd <= t implies image d <= t-out',
    and the onto check at r = 1/2 is 'every target point strictly within
    t of the image'; verified against direct metric scans."""
    w = int_window(-12, 12)
    maps = [identity_map(), affine_map(2, 0), affine_map(3, 1), table_map({x: 0 for x in w})]
    times = [(1, 1), (1, 2), (2, 1), (3, 7)]
    for m in maps:
        for t_in, t_out in times:
            e = entry("1/2", t_in, "1/2", t_out)
            fuzzy_exp = check_uniformly_expansive(
                STD, STD, CoarseMap(m.rule, m.fn, expansive=(e,)), w).passed
            metric_exp = all(
                abs(m.fn(x) - m.fn(y)) <= t_out
                for x in w for y in w if abs(x - y) <= t_in
            )
            assert fuzzy_exp == metric_exp, (m.rule, t_in, t_out)
            fuzzy_prop = check_effectively_proper(
                STD, STD, CoarseMap(m.rule, m.fn, proper=(e,)), w).passed
            metric_prop = all(
                abs(x - y) <= t_out
                for x in w for y in w if abs(m.fn(x) - m.fn(y)) <= t_in
            )
            assert fuzzy_prop == metric_prop, (m.rule, t_in, t_out)
    wy = int_window(-12, 12)
    for m in maps:
        for t in (1, 2, 5, 40):
            carrier = CoarseMap(m.rule, m.fn, domain=w)
            fuzzy_onto = check_coarsely_onto(
                STD, carrier, ScaleParams(F(1, 2), t), wy).passed
            image = {m.fn(x) for x in w}
            metric_onto = all(
                any(abs(a - y) < t for a in image) for y in wy
            )
            assert fuzzy_onto == metric_onto, (m.rule, t)


# ---------------------------------------------------------------------------
# coarse inverse
# ---------------------------------------------------------------------------


def test_inverse_of_identity():
    w = int_window(-6, 6)
    f = identity_map(domain=w, proper=(entry("1/2", 1, "1/2", 1),))
    g, rep = coarse_inverse(STD, STD, f, ScaleParams(F(1, 2), 1), w, w)
    assert rep.passed
    assert all(g.apply(x) == x for x in w)


def test_inverse_of_inclusion_picks_smallest():
    wx = int_window(-5, 5)
    wy = grid_window(-5, 5, F(1, 2))
    f = inclusion_map(domain=wx, proper=(entry("1/2", 1, "1/2", 1),))
    g, rep = coarse_inverse(STD, STDQ, f, ScaleParams(F(1, 2), 1), wy, wx)
    assert rep.passed
    assert g.apply(F(1, 2)) == 0  # both 0 and 1 qualify; smallest wins
    assert g.apply(F(-1, 2)) == -1
    assert g.apply(3) == 3


def test_inverse_requires_onto():
    f = affine_map(2, 0, domain=int_window(-5, 5), proper=(entry("1/2", 1, "1/2", 1),))
    with pytest.raises(PreconditionError):
        coarse_inverse(STD, STD, f, ScaleParams(F(1, 2), 1), int_window(-9, 9),
                       int_window(-5, 5))


def test_inverse_requires_matching_proper_entry():
    w = int_window(-4, 4)
    f = identity_map(domain=w, proper=(entry("1/2", 7, "1/2", 7),))
    with pytest.raises(DerivationError):
        coarse_inverse(STD, STD, f, ScaleParams(F(1, 2), 1), w, w)


# ---------------------------------------------------------------------------
# witness transport
# ---------------------------------------------------------------------------


def block_witness_factory(space, window):
    """Two families of 100-blocks on 0..399, lifted at the requested scale."""
    fam_a = Family.of([tuple(range(0, 100)), tuple(range(200, 300))], "A")
    fam_b = Family.of([tuple(range(100, 200)), tuple(range(300, 400))], "B")

    def factory(scale):
        s = (1 + scale.r) / 2
        sep = s * scale.t / (1 - s) + 1
        return lift_metric_families(space, [fam_a, fam_b], sep, scale, window)

    return factory


TRANSPORT_MODULI = dict(
    expansive=(entry("1/2", 128, "1/2", 128),),
    proper=(entry("1/8", 3, "1/2", 21),),
    onto_params=ScaleParams(F(1, 2), 1),
)


def test_transport_through_identity():
    wx = int_window(0, 399)
    f = identity_map(domain=wx, **TRANSPORT_MODULI)
    out, rep = transport_witness(
        STD, STD, f, None, ScaleParams(F(1, 3), 1), wx,
        witness_factory=block_witness_factory(STD, wx),
    )
    assert rep.passed
    assert out.n == 1
    assert verify_witness(STD, out).passed
    # threshold 1 on integers fattens by nothing: families unchanged
    src = block_witness_factory(STD, wx)(ScaleParams(F(1, 2), 21))
    assert tuple(f_.sets for f_ in out.families) == tuple(f_.sets for f_ in src.families)


def test_transport_inclusion_into_sampled_rationals():
    wx = int_window(0, 399)
    wy = grid_window(0, 399, F(1, 2))
    f = inclusion_map(domain=wx, **TRANSPORT_MODULI)
    out, rep = transport_witness(
        STD, STDQ, f, None, ScaleParams(F(1, 3), 1), wy,
        witness_factory=block_witness_factory(STD, wx),
    )
    assert rep.passed
    assert out.n == 1
    assert verify_witness(STDQ, out).passed
    assert F(1, 2) in out.families[0].sets[0]  # fattened blocks pick up half-points


def test_transport_singletons_through_doubling():
    wx = int_window(0, 200)
    sparse = [0, 100, 200]
    wy = int_window(-1, 1).points + int_window(199, 201).points + int_window(399, 401).points
    from fuzzycoarse import Window

    wy = Window(wy)
    f = affine_map(
        2, 0, domain=Window(sparse),
        expansive=(entry("1/2", 1, "1/2", 2),),
        proper=(entry("1/8", 7, "1/2", 24),),
        onto_params=ScaleParams(F(1, 2), 3),
    )

    def factory(scale):
        fam = Family.of([[p] for p in sparse], "points")
        return DimensionWitness(0, scale, ScaleParams(F(1, 2), 1), (fam,), Window(sparse))

    out, rep = transport_witness(STD, STD, f, None, ScaleParams(F(1, 3), 1), wy,
                                 witness_factory=factory)
    assert rep.passed
    assert out.n == 0
    assert out.families[0].sets == (range(-1, 2), range(199, 202), range(399, 402))
    assert [tuple(s) for s in out.families[0].sets] == [(-1, 0, 1), (199, 200, 201),
                                                        (399, 400, 401)]
    assert verify_witness(STD, out).passed


def test_transport_missing_entries_raise():
    wx = int_window(0, 399)
    no_proper = identity_map(domain=wx, expansive=TRANSPORT_MODULI["expansive"],
                             onto_params=ScaleParams(F(1, 2), 1))
    with pytest.raises(DerivationError) as err:
        transport_witness(STD, STD, no_proper, None, ScaleParams(F(1, 3), 1), wx,
                          witness_factory=block_witness_factory(STD, wx))
    assert "properness" in str(err.value)

    no_onto = identity_map(domain=wx, expansive=TRANSPORT_MODULI["expansive"],
                           proper=TRANSPORT_MODULI["proper"])
    with pytest.raises(DerivationError):
        transport_witness(STD, STD, no_onto, None, ScaleParams(F(1, 3), 1), wx)


def test_transport_degenerate_scan_refused():
    """Under the Lukasiewicz norm the scan chain is constant zero."""
    from fuzzycoarse.space import EuclideanLine, INTEGERS, _StandardKind

    luk_space = FuzzyMetricSpace(_StandardKind(EuclideanLine()), LUKASIEWICZ, INTEGERS)
    wx = int_window(0, 20)
    f = identity_map(domain=wx, **TRANSPORT_MODULI)
    with pytest.raises(DerivationError) as err:
        transport_witness(STD, luk_space, f, None, ScaleParams(F(1, 3), 1), wx,
                          witness_factory=block_witness_factory(STD, wx))
    assert "constant" in str(err.value)


def test_transport_refuses_a_fattened_bound_that_collapses():
    """Under Lukasiewicz with onto level 9/10 the scan separates, but the
    image bound level 1/8 fattens to T(T(9/10, 1/8), 9/10) = max(0, 1/40
    - 1/10) = 0."""
    luk_space = standard_space(tnorm=LUKASIEWICZ)
    wx = int_window(0, 399)
    f = identity_map(domain=wx, expansive=(entry("1/2", 128, "1/4", 128),),
                     proper=TRANSPORT_MODULI["proper"], onto_params=ScaleParams(F(1, 10), 1))
    with pytest.raises(DerivationError, match="fattened bound level collapsed to 0"):
        transport_witness(STD, luk_space, f, None, ScaleParams(F(1, 3), 1), wx,
                          witness_factory=block_witness_factory(STD, wx))


def separation_scan_by_grid(space_y, onto, thresholds):
    """The scan as a loop over every level k/EPS_GRID, k = 0..EPS_GRID: per
    target threshold, ``(s_star, epsilon)`` or the word of the refusal."""
    lvl = onto.threshold

    def chain(s):
        return space_y.tnorm(space_y.tnorm(lvl, s), lvl)

    grid = [F(k, EPS_GRID) for k in range(EPS_GRID + 1)]
    values = [chain(s) for s in grid]
    for threshold in thresholds:
        below = [k for k, s in enumerate(grid) if s < threshold]
        if values[0] == values[-1]:
            yield "constant"
        elif not below:
            yield "no level below"
        else:
            yield (grid[below[-1]], values[below[-1]]) if values[below[-1]] > 0 else "is 0"


@pytest.mark.parametrize("tnorm", [PRODUCT, MINIMUM, LUKASIEWICZ], ids=lambda t: t.name)
def test_separation_scan_matches_the_grid_loop(tnorm):
    """Three chain evaluations pick the level and value of the loop over
    every grid level, or refuse where it does, at every target threshold
    k/1000."""
    space_y = standard_space(tnorm=tnorm, universe=RATIONALS)
    targets = [ScaleParams(1 - F(k, 1000), 1) for k in range(1, 1000)]
    for onto in (ScaleParams(F(1, 10), 1), ScaleParams(F(1, 2), 1), ScaleParams(F(9, 10), 1)):
        expected = separation_scan_by_grid(space_y, onto, [p.threshold for p in targets])
        for target, want in zip(targets, expected):
            try:
                got = _separation_scan(space_y, onto, target)
            except DerivationError as err:
                got = next(w for w in ("constant", "is 0") if w in str(err))
            assert got == want, (onto, target)


def test_transport_wrong_scale_witness_rejected():
    wx = int_window(0, 399)
    f = identity_map(domain=wx, **TRANSPORT_MODULI)
    wrong = block_witness_factory(STD, wx)(ScaleParams(F(1, 2), 5))
    with pytest.raises(DerivationError):
        transport_witness(STD, STD, f, wrong, ScaleParams(F(1, 3), 1), wx)


def test_transport_refuses_each_failed_step():
    """Each step of the transport derivation refuses with its own message:
    a target window the image does not reach, a factory witness at another
    scale or failing verification, moduli false on the source window, and
    no expansiveness entry at the source bound scale (t = 128)."""
    wx = int_window(0, 399)
    factory = block_witness_factory(STD, wx)

    def refusal(error, match, window_y=wx, build=factory, **changed):
        f = identity_map(domain=wx, **{**TRANSPORT_MODULI, **changed})
        with pytest.raises(error, match=match):
            transport_witness(STD, STD, f, None, ScaleParams(F(1, 3), 1), window_y,
                              witness_factory=build)

    refusal(PreconditionError, "map is not coarsely onto at its stated scale",
            window_y=int_window(0, 400))
    refusal(DerivationError, "witness factory returned a witness at the wrong scale",
            build=lambda scale: factory(ScaleParams(F(1, 2), 5)))

    def uncovering(scale):
        w = factory(scale)
        return DimensionWitness(w.n, w.params, w.bound_params, w.families, int_window(0, 400))

    refusal(PreconditionError, "source witness fails verification: FAIL cover missing=1",
            build=uncovering)
    refusal(PreconditionError, "map moduli fail verification on the source window",
            expansive=TRANSPORT_MODULI["expansive"] + (entry("1/2", 1, 1, 1),))
    refusal(DerivationError, "missing expansiveness entry: need t_in=128",
            expansive=(entry("1/2", 127, "1/2", 127),))


# ---------------------------------------------------------------------------
# integer-pair checks against value-based brute force
# ---------------------------------------------------------------------------


def brute_modulus(title, predicate, entries, space_x, space_y, f, window_x, proper):
    """The modulus check as one validated ``value`` call per tested pair."""
    rep = CertReport(title, map=f.describe(), window=window_x.label())
    pts = window_x.points
    sides = [(space_x, pts), (space_y, [f.apply(x) for x in pts])]
    (space_in, pts_in), (space_out, pts_out) = sides[::-1] if proper else sides
    n = len(pts)
    for e in entries:
        bad = next(((pts[i], pts[j], space_out.value(pts_out[i], pts_out[j], e.t_out))
                    for i in range(n) for j in range(i, n)
                    if space_in.value(pts_in[i], pts_in[j], e.t_in) >= e.level_in
                    and space_out.value(pts_out[i], pts_out[j], e.t_out) < e.level_out),
                   None)
        rep.add_verdict(bad is None, predicate, entry=e.describe(),
                        witness=fmt_pair(bad[:2]) if bad else None,
                        value=bad[2] if bad else None)
    _finite_table_note(rep)
    return rep


def brute_onto(space_y, f, params, window_y):
    """Onto as a scan of every target point against every image point."""
    rep = CertReport("coarsely-onto", map=f.describe(), window=window_y.label(),
                     r=params.r, t=params.t)
    img = f.image(f.domain)
    b, t = params.threshold, params.t
    bad = next((y for y in window_y if not any(space_y.value(a, y, t) > b for a in img)), None)
    rep.add_verdict(bad is None, "onto", image_size=len(img), witness=bad)
    _finite_table_note(rep)
    return rep


def brute_close(space_y, f, g, params, window_x):
    rep = CertReport("close", f=f.describe(), g=g.describe(),
                     window=window_x.label(), r=params.r, t=params.t)
    bad = next(((x, space_y.value(f.apply(x), g.apply(x), params.t)) for x in window_x
                if space_y.value(f.apply(x), g.apply(x), params.t) <= params.threshold), None)
    rep.add_verdict(bad is None, "pointwise", witness=bad[0] if bad else None,
                    value=bad[1] if bad else None)
    return rep


def brute_inverse_table(space_y, f, params, window_y, window_x):
    """For each target point the smallest source point whose image is
    strictly within 1 - r of it; ``PreconditionError`` when there is none."""
    table = {}
    for y in window_y:
        chosen = next((x for x in window_x
                       if space_y.value(f.apply(x), y, params.t) > params.threshold), None)
        if chosen is None:
            raise PreconditionError(
                f"map is not coarsely onto at r={fmt_value(params.r)}, "
                f"t={fmt_value(params.t)}: no preimage candidate for {fmt_value(y)}")
        table[y] = chosen
    return table


DIFF_TABLE = TableMetric([0, 3, 4, 10, 11], [[0, 3, 4, 10, 11], [3, 0, 1, 7, 8],
                                             [4, 1, 0, 6, 7], [10, 7, 6, 0, F(1, 2)],
                                             [11, 8, 7, F(1, 2), 0]])
levels = st.fractions(F(1, 12), 1, max_denominator=12)
times = st.sampled_from([F(1, 2), 1, 2, 3, F(7, 2)])
modulus_entries = st.lists(st.builds(ModulusEntry, levels, times,
                                     st.fractions(0, 1, max_denominator=12), times),
                           min_size=1, max_size=3)
scales = st.builds(ScaleParams, st.fractions(F(1, 12), F(11, 12), max_denominator=12), times)


@st.composite
def coarse_cases(draw):
    """(space_x, space_y, map, window_x, window_y): an affine map into the
    rationals, or a table map from a radial (ratio) or coordinate-decreasing
    (reciprocal) source into the naturals (ratio, pathological,
    reciprocal) or into the points of a table metric, whose balls are
    window scans.  About half of the table maps have sorted targets, with
    repeats, so that both flagged sides meet non-decreasing images."""
    kind = draw(st.sampled_from(["affine", "ratio", "pathological", "reciprocal", "table"]))
    lo = draw(st.integers(-6, 6)) if kind == "affine" else 1
    window_x = int_window(lo, lo + draw(st.integers(0, 39)))
    if kind == "affine":
        a = draw(st.fractions(-3, 3, max_denominator=4))
        b = draw(st.fractions(-3, 3, max_denominator=4))
        step = draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2), 1]))
        window_y = grid_window(-12, 12, step)
        return STD, STDQ, affine_map(a, b, domain=window_x), window_x, window_y
    if kind == "table":
        targets = st.sampled_from(DIFF_TABLE.points)
        space_y = standard_space(DIFF_TABLE)
        window_y = Window(DIFF_TABLE.points)
    else:
        targets = st.integers(1, 16)
        space_y = {"ratio": ratio_minmax_space, "pathological": pathological_space,
                   "reciprocal": reciprocal_product_space}[kind]()
        window_y = int_window(1, 16)
    space_x = draw(st.sampled_from([ratio_minmax_space(), reciprocal_product_space()]))
    images = draw(st.lists(targets, min_size=len(window_x), max_size=len(window_x)))
    if draw(st.booleans()):
        images.sort()
    f = table_map(dict(zip(window_x, images)))
    return space_x, space_y, f, window_x, window_y


@given(case=coarse_cases(), entries=modulus_entries, proper=st.booleans())
@settings(max_examples=150, deadline=None)
def test_modulus_check_matches_brute(case, entries, proper):
    space_x, space_y, f, window_x, _ = case
    args = ("t", "p", entries, space_x, space_y, f, window_x, proper)
    assert _check_modulus(*args).lines() == brute_modulus(*args).lines()


@given(case=coarse_cases(), params=scales)
@settings(max_examples=150, deadline=None)
def test_onto_matches_brute(case, params):
    _, space_y, f, _, window_y = case
    assert check_coarsely_onto(space_y, f, params, window_y).lines() == \
        brute_onto(space_y, f, params, window_y).lines()


@given(case=coarse_cases(), params=scales)
@settings(max_examples=100, deadline=None)
def test_close_matches_brute(case, params):
    _, space_y, f, window_x, _ = case
    g = table_map({x: f.apply(window_x.points[-1 - k]) for k, x in enumerate(window_x)})
    assert check_close(space_y, f, g, params, window_x).lines() == \
        brute_close(space_y, f, g, params, window_x).lines()


@given(case=coarse_cases(), params=scales)
@settings(max_examples=150, deadline=None)
def test_inverse_matches_brute(case, params):
    space_x, space_y, f, window_x, window_y = case
    f = CoarseMap(f.rule, f.fn, proper=(ModulusEntry(params.threshold, params.t,
                                                     F(1, 2), 1),))
    # g is tabulated on window_y, and g(f(x)) is re-verified, so the
    # target window holds the image
    window_y = Window([*window_y, *f.image(window_x)])
    try:
        want = brute_inverse_table(space_y, f, params, window_y, window_x)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as info:
            coarse_inverse(space_x, space_y, f, params, window_y, window_x)
        assert str(info.value) == str(exc)
        return
    g, _ = coarse_inverse(space_x, space_y, f, params, window_y, window_x)
    assert {y: g.apply(y) for y in window_y} == want


@st.composite
def unsorted_image_cases(draw):
    """(space_y, f, window_x, window_y) whose images meet the sorted sweep
    in another order than the source window: an affine map of either slope
    into the rationals, or a table map from a sparse source window whose
    images repeat and are shuffled, into the naturals (radial and prefix
    orders) or into the points of a table metric."""
    window_x = Window(draw(st.lists(st.integers(-20, 20), min_size=1, max_size=25,
                                    unique=True)))
    kind = draw(st.sampled_from(["affine", "ratio", "reciprocal", "table"]))
    if kind == "affine":
        a = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
        b = draw(st.fractions(-3, 3, max_denominator=4))
        f = affine_map(a, b, domain=window_x)
        step = draw(st.sampled_from([F(1, 4), F(1, 2), 1]))
        return STDQ, f, window_x, Window([*grid_window(-12, 12, step), *f.image(window_x)])
    if kind == "table":
        space_y, targets = standard_space(DIFF_TABLE), DIFF_TABLE.points
    else:
        space_y = {"ratio": ratio_minmax_space, "reciprocal": reciprocal_product_space}[kind]()
        targets = range(1, 17)
    images = draw(st.lists(st.sampled_from(targets), min_size=len(window_x),
                           max_size=len(window_x)))
    images[-1] = images[0]  # a repeat, once there are two source points
    images = draw(st.permutations(images))
    f = table_map(dict(zip(window_x, images)))
    window_y = Window([*draw(st.lists(st.sampled_from(targets), max_size=8)), *images])
    return space_y, f, window_x, window_y


@given(case=unsorted_image_cases(), params=scales)
@settings(max_examples=200, deadline=None)
def test_inverse_from_one_sweep_matches_the_definition(case, params):
    """g(y) is the smallest x in source-window order with
    M(f(x), y, t) > 1 - r, although the balls come from one sweep over the
    sorted distinct images; a target with no such x is refused by name."""
    space_y, f, window_x, window_y = case
    f = CoarseMap(f.rule, f.fn, proper=(ModulusEntry(params.threshold, params.t,
                                                     F(1, 2), 1),))
    try:
        want = brute_inverse_table(space_y, f, params, window_y, window_x)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as info:
            coarse_inverse(STD, space_y, f, params, window_y, window_x)
        assert str(info.value) == str(exc)
        return
    g, _ = coarse_inverse(STD, space_y, f, params, window_y, window_x)
    assert {y: g.apply(y) for y in window_y} == want


def test_inverse_pair_calls_grow_linearly_with_the_target(monkeypatch):
    """The inverse's one ball sweep and its two closeness checks make at
    most 4 ``pair`` calls per source and target point, and the calls from
    targets 0..299 to 0..599 grow with a log-log slope of at most 1.2."""
    space_y = standard_space(universe=RATIONALS)
    calls = []
    pair = type(space_y._kind).pair
    monkeypatch.setattr(type(space_y._kind), "pair",
                        lambda self, *args: calls.append(0) or pair(self, *args))
    counts = []
    for top in (299, 599):
        wx, wy = int_window(0, top), grid_window(0, top, F(1, 2))
        f = inclusion_map(domain=wx, proper=(entry("1/2", 1, "1/2", 1),))
        calls.clear()
        assert coarse_inverse(STD, space_y, f, ScaleParams(F(1, 2), 1), wy, wx)[1].passed
        assert len(calls) <= 4 * (len(wx) + len(wy))
        counts.append(len(calls))
    assert math.log(counts[1] / counts[0]) / math.log(600 / 300) <= 1.2


def test_onto_and_inverse_make_no_value_calls_and_few_pair_calls(monkeypatch):
    """On a 600-point grid target the onto check sweeps the sorted image in
    O(|image| + |W_y|) ``pair`` calls and the inverse gallops one ball per
    image in O(log |W_y|) each; neither calls the validated ``value``."""
    wx = int_window(0, 299)
    wy = grid_window(0, F(599, 2), F(1, 2))
    assert len(wy) == 600
    space_y = standard_space(universe=RATIONALS)
    f = inclusion_map(domain=wx, proper=(entry("1/2", 1, "1/2", 1),))
    calls = {"value": 0, "pair": 0}
    value = FuzzyMetricSpace.value
    pair = type(space_y._kind).pair

    def counted_value(self, *args):
        calls["value"] += 1
        return value(self, *args)

    def counted_pair(self, *args):
        calls["pair"] += 1
        return pair(self, *args)

    monkeypatch.setattr(FuzzyMetricSpace, "value", counted_value)
    monkeypatch.setattr(type(space_y._kind), "pair", counted_pair)
    params = ScaleParams(F(1, 2), 1)
    assert check_coarsely_onto(space_y, f, params, wy).passed
    assert calls["value"] == 0 and calls["pair"] <= 3 * (300 + 600)
    calls["pair"] = 0
    g, rep = coarse_inverse(STD, space_y, f, params, wy, wx)
    assert rep.passed
    # the two closeness checks of the report make one pair call per point
    assert calls["value"] == 0 and calls["pair"] <= 3 * 300 * math.log2(600)
    assert g.apply(F(1, 2)) == 0 and g.apply(F(599, 2)) == 299


def test_modulus_checks_make_no_value_calls(monkeypatch):
    calls = []
    value = FuzzyMetricSpace.value
    monkeypatch.setattr(FuzzyMetricSpace, "value",
                        lambda self, *args: calls.append(args) or value(self, *args))
    f = affine_map(2, 0, expansive=(entry("1/2", 1, "1/2", 2),),
                   proper=(entry("1/2", 2, "1/2", 1),))
    assert check_uniformly_expansive(STD, STD, f, int_window(-40, 40)).passed
    assert check_effectively_proper(STD, STD, f, int_window(-40, 40)).passed
    assert calls == []


def test_image_outside_the_universe_raises_before_any_verdict():
    """Points are checked before the scan, so an image outside the
    universe raises even where the scan would stop at an earlier failure."""
    ratio = ratio_minmax_space()
    w = int_window(1, 6)
    f = table_map({1: 1, 2: 9, 3: 1, 4: 1, 5: 1, 6: 0},
                  expansive=(entry(F(1, 12), 1, 1, 1),), proper=(entry(1, 1, 1, 1),))
    with pytest.raises(DomainError, match="point 0 is outside the naturals"):
        check_uniformly_expansive(ratio, ratio, f, w)
    with pytest.raises(DomainError, match="point 0 is outside the naturals"):
        check_effectively_proper(ratio, ratio, f, w)
    with pytest.raises(DomainError, match="point 0 is outside the naturals"):
        check_coarsely_onto(ratio, f, ScaleParams(F(1, 2), 1), w)


def test_modulus_and_close_stop_at_their_first_counterexample(monkeypatch):
    """x -> -3x fails the expansive entry first at the pair 0~1, after the
    pairs 0~0 and 0~1 on each side, and x -> x + 10 is far from the
    identity at every point; each check stops at its first failure.  Its
    images decrease, so the modulus check tests every pair in order."""
    calls = []
    pair = type(STD._kind).pair
    monkeypatch.setattr(type(STD._kind), "pair",
                        lambda self, *args: calls.append(args) or pair(self, *args))
    w = int_window(0, 10)
    f = affine_map(-3, 0, expansive=(entry("1/2", 1, "1/2", 1),))
    rep = check_uniformly_expansive(STD, STD, f, w)
    assert [v.line() for v in rep.failures()] == [
        "FAIL expansive-entry entry=(1/2@1)->(1/2@1) witness=0~1 value=1/4"]
    assert [args[:2] for args in calls] == [(0, 0), (0, 0), (0, 1), (0, -3)]
    calls.clear()
    rep = check_close(STD, identity_map(), affine_map(1, 10), ScaleParams(F(1, 2), 1), w)
    assert [v.line() for v in rep.failures()] == ["FAIL pointwise witness=0 value=1/11"]
    assert len(calls) == 1


def test_modulus_run_scan_stops_at_the_first_counterexample(monkeypatch):
    """x -> 3x has increasing images, so row 0 gallops its premise run
    from 1 (M(0, 1) = 1/2 holds, M(0, 2) = 1/3 does not), tests the run's
    last pair 0~1 on the output side, (0, 3), and finds it failing; the
    first failing pair is that one, and its value is read once more."""
    calls = []
    pair = type(STD._kind).pair
    monkeypatch.setattr(type(STD._kind), "pair",
                        lambda self, *args: calls.append(args) or pair(self, *args))
    f = affine_map(3, 0, expansive=(entry("1/2", 1, "1/2", 1),))
    rep = check_uniformly_expansive(STD, STD, f, int_window(0, 10))
    assert [v.line() for v in rep.failures()] == [
        "FAIL expansive-entry entry=(1/2@1)->(1/2@1) witness=0~1 value=1/4"]
    assert [args[:2] for args in calls] == [(0, 1), (0, 2), (0, 3), (0, 3)]


def count_pair_calls(monkeypatch, *spaces) -> list:
    """A one-item list counting the ``pair`` calls of the spaces' kinds."""
    calls = [0]
    for cls in {type(s._kind) for s in spaces}:
        def counted(self, *args, pair=cls.pair):
            calls[0] += 1
            return pair(self, *args)
        monkeypatch.setattr(cls, "pair", counted)
    return calls


LOOSE = entry("1/2", 1, "1/12", 1)


@pytest.mark.parametrize("space_x, space_y, f, window, runs", [
    pytest.param(STD, STDQ, inclusion_map(), int_window(0, 39), True, id="demo-inclusion"),
    pytest.param(STD, STD, affine_map(-1, 0), int_window(0, 39), False,
                 id="decreasing-images"),
    pytest.param(ratio_minmax_space(), standard_space(DIFF_TABLE),
                 table_map({x: DIFF_TABLE.points[(x - 1) // 8] for x in range(1, 41)}),
                 int_window(1, 40), False, id="table-metric-target"),
])
def test_modulus_run_scan_is_taken_only_on_ordered_sides(monkeypatch, space_x, space_y,
                                                          f, window, runs):
    """Both checks of a passing entry test every pair, n(n + 1)/2 premises
    at least, unless both kinds carry a flag and the images do not
    decrease; then each row gallops, under 2 n log2 n calls in all."""
    n = len(window)
    for proper in (False, True):
        args = ("t", "p", (LOOSE,), space_x, space_y, f, window, proper)
        want = brute_modulus(*args).lines()
        calls = count_pair_calls(monkeypatch, space_x, space_y)
        rep = _check_modulus(*args)
        assert rep.passed and rep.lines() == want
        if runs:
            assert calls[0] <= 2 * n * math.ceil(math.log2(n))
        else:
            assert calls[0] >= n * (n + 1) // 2


# non-decreasing images with repeats, into 1..22
ORDERED_IMAGES = [1 + k * k // 40 for k in range(30)]


@pytest.mark.parametrize("space_x, space_y", [
    (ratio_minmax_space(), pathological_space()),
    (ratio_minmax_space(), reciprocal_product_space()),
    (reciprocal_product_space(), ratio_minmax_space()),
    (reciprocal_product_space(), reciprocal_product_space()),
], ids=["radial-radial", "radial-decreasing", "decreasing-radial", "decreasing-decreasing"])
@pytest.mark.parametrize("proper", [False, True])
def test_modulus_run_scan_matches_brute_on_flagged_sides(space_x, space_y, proper):
    """Every entry of a level grid reports the same verdict, first bad
    pair and value as the pair-by-pair scan, on each pairing of flags."""
    window = int_window(1, 30)
    f = table_map(dict(zip(window, ORDERED_IMAGES)))
    grid = [F(1, 12), F(1, 3), F(1, 2), F(3, 4), 1]
    entries = [ModulusEntry(a, t, b, t) for a in grid for b in [F(1, 1000), *grid]
               for t in (1, 3)]
    args = ("t", "p", entries, space_x, space_y, f, window, proper)
    rep = _check_modulus(*args)
    assert rep.lines() == brute_modulus(*args).lines()
    assert 0 < len(rep.failures()) < len(entries)


DEMO_ENTRIES = [(check_uniformly_expansive, entry("1/2", 1, "1/2", 1)),
                (check_uniformly_expansive, entry("1/2", 128, "1/2", 128)),
                (check_effectively_proper, entry("1/2", 1, "1/2", 1)),
                (check_effectively_proper, entry("1/8", 3, "1/2", 21))]


def test_radial_modulus_sweep_moves_each_run_end_right(monkeypatch):
    """On the radial input side of the demo map a premise run never ends
    earlier for a later row, so each row gallops from the last end: the
    (1/2@1) and (1/2@128) entries take at most 3n ``pair`` calls per
    check at 2,000 points, expansive and proper (32,705 for (1/2@128)
    when each row galloped from i + 1)."""
    n = 2000
    window = int_window(0, n - 1)
    calls = count_pair_calls(monkeypatch, STD, STDQ)
    for check in (check_uniformly_expansive, check_effectively_proper):
        for e in (entry("1/2", 1, "1/2", 1), entry("1/2", 128, "1/2", 128)):
            calls[0] = 0
            assert check(STD, STDQ, inclusion_map(expansive=(e,), proper=(e,)), window).passed
            assert calls[0] <= 3 * n


@pytest.mark.parametrize("n", [300, 2000])
def test_modulus_work_on_the_demo_map_is_n_log_n(monkeypatch, n):
    """The inclusion of the demo config, the standard line into the
    rational standard line, makes at most 2 n ceil(log2 n) ``pair`` calls
    per entry of either modulus, where testing every pair takes
    n(n + 1)/2 premises: 45,150 per entry at 300 points."""
    window = int_window(0, n - 1)
    calls = count_pair_calls(monkeypatch, STD, STDQ)
    for check, e in DEMO_ENTRIES:
        calls[0] = 0
        assert check(STD, STDQ, inclusion_map(expansive=(e,), proper=(e,)), window).passed
        assert calls[0] <= 2 * n * math.ceil(math.log2(n))
