"""Dimension witnesses at explicit scales, and everything that moves them.

A witness packages n+1 families of point sets together with the scale
(r, t) at which the families are pairwise-separated and the scale
(r', t') at which the union is uniformly bounded, all relative to a
finite window.  ``verify_witness`` decides the three defining conditions
exactly and reports the extremal pairs.

Nothing here claims anything about a whole infinite space: a witness
certifies a dimension bound at its stated scales on its stated window,
and the bound parameters of growing windows are expected to degrade
when no uniform choice exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .covers import (
    CallContext,
    Cover,
    Family,
    _check_outside_points,
    _fattened_bound,
    _first_shared_point,
    _is_bounded,
    _level_neighborhood,
    coverage,
    family_max_cross,
    family_min_intra,
    first_lebesgue_violation,
    first_refinement_violation,
    min_intra_pair,
    missing_points,
    multiplicity,
    scale_multiplicity,
)
from .errors import (
    CertificationError,
    DomainError,
    NonArchimedeanViolationError,
    OracleSizeError,
    PreconditionError,
    SearchFailureError,
    UnsupportedOperationError,
)
from .rationals import as_fraction, smallest_int_gt
from .report import CertReport, fmt_pair, fmt_value
from .space import (FuzzyMetricSpace, ScaleParams, Window, _first_chain_violation,
                    _value_matrices)
from .tnorm import builtin_name

ONE = Fraction(1)
ORACLE_MAX_POINTS = 10  # the colouring search is exponential in the worst case and has no budget


@dataclass(frozen=True)
class DimensionWitness:
    """n+1 families certifying a dimension bound at fixed scales."""

    n: int
    params: ScaleParams
    bound_params: ScaleParams
    families: tuple
    window: Window

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("dimension bound must be non-negative")
        if len(self.families) != self.n + 1:
            raise DomainError(
                f"witness for n={self.n} needs {self.n + 1} families, "
                f"got {len(self.families)}"
            )

    def as_cover(self) -> Cover:
        return Cover(self.families, self.window)


@dataclass(frozen=True)
class ScaleGraphReport:
    """Connected components of the closed-threshold graph at one scale.

    Points are joined when M(x, y, t) >= 1 - r, exactly the pairs a
    separated family may never split across distinct sets.  Every
    component must therefore sit inside a single member set of any
    separated family covering the window, which makes the minimum of M
    inside the largest component a lower-bound obstruction: no bound
    level s with that minimum <= 1 - s can certify a one-family witness.
    """

    params: ScaleParams
    components: tuple
    min_internal: Fraction
    min_internal_pair: tuple

    @property
    def spanning(self) -> bool:
        return len(self.components) == 1

    @property
    def largest(self) -> tuple:
        return max(self.components, key=len) if self.components else ()


# The fixed search grid for bound parameters: levels 1 - r' = 1/k for
# k = 2..64, strongest first, and times t' = 2^j for j = 0..10.
BOUND_LEVELS = tuple(Fraction(1, k) for k in range(2, 65))
BOUND_TIMES = tuple(Fraction(2) ** j for j in range(11))


def derive_bound_params(space: FuzzyMetricSpace, sets, reference_t,
                        ctx: CallContext = None) -> ScaleParams:
    """Find a scale at which every given set is internally bounded.

    Scans the grid first (deterministically, strongest level first, at
    the grid times for a t-dependent space and at ``reference_t``
    otherwise); if the grid has no admissible point, the exact worst
    intra pair m yields the derived level 1 - r' = m/2.  Member points
    are checked against the universe first, unless ``ctx`` holds
    ``sets`` as checked (see ``CallContext``).
    """
    members = Family.of(sets, "bound-search").sets
    (ctx or CallContext(space)).check_members(sets, members)
    times = BOUND_TIMES if space.t_dependent else (as_fraction(reference_t),)
    worst_by_t = {}
    for t in times:
        worst = family_min_intra(space, members, t)
        if worst is None:
            return ScaleParams(Fraction(1, 2), times[0])
        worst_by_t[t] = worst[0]
    for level in BOUND_LEVELS:
        for t in times:
            if worst_by_t[t] > level:
                return ScaleParams(1 - level, t)
    t_best = max(worst_by_t, key=lambda t: (worst_by_t[t], -t))
    return ScaleParams(1 - worst_by_t[t_best] / 2, t_best)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_witness(space: FuzzyMetricSpace, w: DimensionWitness) -> CertReport:
    """Decide the three witness conditions exactly, with extremal pairs.

    Conditions: the families jointly cover the window, each family is
    separated at w.params (cross sup strictly below 1 - r), and every
    member set is internally bounded at w.bound_params (intra values
    strictly above 1 - r').  Every point is first checked against the
    universe: the window once per universe, the member set points only
    when some of them lie outside the window.
    """
    return verify_witness_scales(space, w, (w.params,))[0]


def verify_witness_scales(space: FuzzyMetricSpace, w: DimensionWitness,
                          scales) -> list[CertReport]:
    """``verify_witness`` with w.params replaced by each scale in turn, one
    report per scale, from one pass over the witness.

    The universe, cover and bounded checks do not depend on the scale and
    run once; the worst cross pair of a family depends only on t, so it is
    found once per family and distinct t.  Each scale's verdicts compare
    those exact extremal values against its own threshold.
    """
    window, sets = w.window, w.as_cover().all_sets()
    space._check_window(window)
    missing, inside = coverage(sets, window)
    if not inside:
        _check_outside_points(space, sets, window)
    dropped = sum(f.dropped_empty for f in w.families)
    labels = [fam.label or f"family{idx}" for idx, fam in enumerate(w.families)]
    cross = {}  # t -> the worst cross pair of each family at t
    worst_intra = None
    reports = []
    for params in scales:
        rep = CertReport("verify-witness", space=space.describe(), window=window.label(),
                         n=w.n, r=params.r, t=params.t)
        rep.add_pass("families", count=len(w.families))
        if dropped:
            rep.add_note("empty-sets-dropped", count=dropped)
        rep.add_verdict(not missing, "cover", missing=len(missing),
                        witness=missing[0] if missing else None)

        if params.t not in cross:
            cross[params.t] = [family_max_cross(space, fam, params.t) for fam in w.families]
        for label, worst in zip(labels, cross[params.t]):
            if worst is None:
                rep.add_pass("disjoint", family=label, sup=None, note="vacuous")
            else:
                val, pair, _ = worst
                rep.add_verdict(val < params.threshold, "disjoint", family=label,
                                sup=val, pair=fmt_pair(pair), bound=params.threshold)

        if not reports:  # once, after the first scale's cross pairs, as verify_witness
            worst_intra = family_min_intra(space, sets, w.bound_params.t)
        if worst_intra is None:
            rep.add_pass("bounded", min=None, note="vacuous",
                         r=w.bound_params.r, t=w.bound_params.t)
        else:
            val, pair, _ = worst_intra
            rep.add_verdict(val > w.bound_params.threshold, "bounded", min=val,
                            pair=fmt_pair(pair), bound=w.bound_params.threshold,
                            r=w.bound_params.r, t=w.bound_params.t)
        rep.add_note("scope", statement="certified-at-stated-scales-on-window-only")
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def witness_whole_window(space: FuzzyMetricSpace, window: Window,
                         params: ScaleParams) -> DimensionWitness:
    """The one-family witness {window}: any window bounded somewhere has
    dimension 0 at every scale.  Bound parameters are searched (grid,
    then exact fallback)."""
    space._check_window(window)
    fam = Family.of([window.run_set([(0, len(window))])], "whole")
    ctx = CallContext(space)
    ctx.check_members(fam.sets, ())  # the window's points, checked above
    bound = derive_bound_params(space, fam.sets, params.t, ctx=ctx)
    return DimensionWitness(0, params, bound, (fam,), window)


def is_initial_segment(window: Window) -> bool:
    """Whether the window is 1..W for some W, as the kind constructors need."""
    return window.is_contiguous_ints() and window.index_of(1) == 0


def _require_initial_segment(window: Window):
    if not is_initial_segment(window):
        raise DomainError("this construction needs a window 1..W of integers")
    return len(window)


def witness_reciprocal_product(params: ScaleParams, window: Window) -> DimensionWitness:
    """Head-plus-singletons witness for the reciprocal-product space.

    N is the smallest positive integer with 1/(N+1) < 1 - r; the single
    family is {1..N} together with every later point as a singleton.
    Any cross pair multiplies to at most 1/(N+1), so the family is
    separated at (r, t); the head is internally bounded at level 1/(2N^2)
    and the singletons vacuously.
    """
    top = _require_initial_segment(window)
    n_head = reciprocal_head_size(params.r)
    sets = [range(1, min(n_head, top) + 1)]
    sets.extend(zip(range(n_head + 1, top + 1)))
    fam = Family.of(sets, "head-singletons")
    bound = ScaleParams(1 - Fraction(1, 2 * n_head * n_head), params.t)
    return DimensionWitness(0, params, bound, (fam,), window)


def reciprocal_head_size(r) -> int:
    """Smallest N with 1/(N+1) strictly below 1 - r."""
    return math.floor(1 / (1 - as_fraction(r)))


@dataclass(frozen=True)
class RatioBlocks:
    """The alternating block/gap structure on 1..W at level 1 - r.

    starts[i] is the first point of block i and widths[i] its extra
    length; blocks are {starts[i] .. starts[i] + widths[i]}, gaps are
    what lies between consecutive blocks.
    """

    starts: tuple
    widths: tuple


def ratio_block_structure(r, top: int) -> RatioBlocks:
    """Greedy minimal blocks for the ratio space, by exact arithmetic.

    With b = 1 - r: the next block start is the smallest integer a
    beyond the previous block with prev/a < b, and the block width is
    the smallest m >= 0 with (a - 1)/(a + m + 1) < b.  Strictness
    matters on both: equality at the ratio must not count.
    """
    b = 1 - as_fraction(r)
    starts, widths = [], []
    prev_top = 1
    a = max(2, smallest_int_gt(Fraction(prev_top) / b))
    while a <= top:
        m = max(0, smallest_int_gt(Fraction(a - 1) / b) - a - 1)
        starts.append(a)
        widths.append(m)
        prev_top = a + m
        if prev_top >= top:
            break
        a = smallest_int_gt(Fraction(prev_top) / b)
    return RatioBlocks(tuple(starts), tuple(widths))


def witness_ratio_minmax(params: ScaleParams, window: Window) -> DimensionWitness:
    """Two-family block/gap witness for the ratio space.

    Blocks are chosen greedily so consecutive blocks have boundary ratio
    strictly below 1 - r while each block's own span stays strictly
    above it; the gaps between blocks inherit the same two facts.
    Blocks and gaps each form one family, jointly covering 1..W, with
    the union bounded at the very same (r, t).  Truncation at the window
    edge keeps the final partial set in its family.
    """
    top = _require_initial_segment(window)
    blocks = ratio_block_structure(params.r, top)
    u_sets = [(1,)]
    v_sets = []
    prev_top = 1
    for a, m in zip(blocks.starts, blocks.widths):
        if a > prev_top + 1:
            v_sets.append(range(prev_top + 1, min(a - 1, top) + 1))
        u_sets.append(range(a, min(a + m, top) + 1))
        prev_top = a + m
    if prev_top < top:
        v_sets.append(range(prev_top + 1, top + 1))
    fam_u = Family.of(u_sets, "blocks")
    fam_v = Family.of(v_sets, "gaps")
    return DimensionWitness(1, params, params, (fam_u, fam_v), window)


def witness_ball_partition(space: FuzzyMetricSpace, params: ScaleParams,
                           epsilon, window: Window) -> DimensionWitness:
    """Ball-partition witness for non-Archimedean spaces under min.

    The balls at the slightly enlarged scale (r + eps, t) are pairwise
    equal or disjoint, so the distinct ones partition the window into a
    single family: separated at (r, t) and bounded at (r + eps, t).
    First every window point is checked against the universe, and then
    the non-Archimedean inequality over all window triples.  A standard
    space whose d is an ultrametric on the window
    (``FuzzyMetricSpace.is_ultrametric_on``) satisfies it at every t, read
    from d one row at a time in O(n) memory.  Any other window takes the
    matrix path: under min the inequality is the chain inequality with the
    one matrix at t in all three places, and the full cubic scan names the
    first bad triple in scan order.  The equal-or-disjoint fact is
    verified, not assumed.
    """
    eps = as_fraction(epsilon) if epsilon is not None else (1 - params.r) / 2
    rho = params.r + eps
    if not (0 < rho < 1):
        raise DomainError(f"r + eps must stay in (0,1), got {rho}")
    if builtin_name(space.tnorm) != "min":
        raise UnsupportedOperationError(
            "the ball-partition construction needs the minimum t-norm"
        )
    pts = window.points
    space._check_window(window)
    if not space.is_ultrametric_on(pts):
        mat = _value_matrices(space, pts, [params.t])[params.t]
        found = _first_chain_violation(space.tnorm, mat, mat, mat)
        if found:
            bad = tuple(pts[i] for i in found)
            raise NonArchimedeanViolationError(
                f"M(x,y,t)*M(y,z,t) <= M(x,z,t) fails at {bad} (t={params.t})"
            )
    enlarged = ScaleParams(rho, params.t)
    swept = space.ball_level(enlarged.threshold, params.t, window)
    balls = list(map(window.run_set, sorted(dict.fromkeys(map(tuple, swept)))))
    shared = _first_shared_point(balls)
    if shared is not None:
        raise NonArchimedeanViolationError(
            f"distinct balls at (r+eps,t)=({fmt_value(rho)},{fmt_value(params.t)}) "
            f"share the point {shared[1][0]}; they must be equal or disjoint"
        )
    fam = Family.of(balls, "ball-partition")
    return DimensionWitness(0, params, enlarged, (fam,), window)


# space kind name -> witness constructor(space, params, window, epsilon)
WITNESS_CONSTRUCTORS = {
    "reciprocal_product": lambda space, params, window, epsilon:
        witness_reciprocal_product(params, window),
    "ratio_minmax": lambda space, params, window, epsilon: witness_ratio_minmax(params, window),
    "ultrametric_standard": lambda space, params, window, epsilon:
        witness_ball_partition(space, params, epsilon, window),
}


def construct_witness(space: FuzzyMetricSpace, params: ScaleParams, window: Window,
                      epsilon=None) -> DimensionWitness:
    """The witness from the space kind's constructor, or the whole-window
    witness for a kind without one.  ``epsilon`` is the ball enlargement of
    the ``ultrametric_standard`` ball partition, the one construction that
    reads it; given for any other kind, it is refused."""
    if epsilon is not None and space.kind_name != "ultrametric_standard":
        raise PreconditionError(f"epsilon is the ball enlargement of the ultrametric_standard "
                                f"witness; the {space.kind_name} witness takes none")
    build = WITNESS_CONSTRUCTORS.get(space.kind_name)
    if build is None:
        return witness_whole_window(space, window, params)
    return build(space, params, window, epsilon)


def lift_metric_families(space: FuzzyMetricSpace, families, metric_sep,
                         params: ScaleParams, window: Window) -> DimensionWitness:
    """Re-certify metrically separated families inside a standard space.

    With the canonical intermediate level s = (1+r)/2, a cross distance
    of at least s*t/(1-s) forces M(x, y, t) <= 1 - s < 1 - r, so
    families whose distinct sets keep metric distance >= metric_sep are
    separated at (r, t) as soon as metric_sep >= s*t/(1-s).  Both the
    threshold arithmetic and the claimed separation are verified, after
    the member points are checked against the universe, once: the bound
    search reads the check from the same ``CallContext``.  As t/(t + d)
    falls strictly in d, a cross distance is below metric_sep exactly
    when M exceeds t/(t + metric_sep), so each family's separation is
    read from its strongest cross pair (``family_max_cross``).
    """
    if space.metric is None:
        raise UnsupportedOperationError("a standard-metric space is required")
    sep = as_fraction(metric_sep)
    s = (1 + params.r) / 2
    needed = s * params.t / (1 - s)
    if sep < needed:
        raise CertificationError(
            f"separation {fmt_value(sep)} is below the threshold "
            f"{fmt_value(needed)} required at s={fmt_value(s)}"
        )
    fams = tuple(f if isinstance(f, Family) else Family.of(f) for f in families)
    members = [s for fam in fams for s in fam.sets]
    ctx = CallContext(space)
    ctx.check_members(members, members)
    near = params.t / (params.t + sep)
    for fam in fams:
        worst = family_max_cross(space, fam, params.t)
        if worst is not None and worst[0] > near:
            pair, (i, j) = worst[1:]
            raise CertificationError(
                f"sets {i} and {j} of family {fam.label or 'family'} "
                f"are only {fmt_value(space.metric.distance(*pair))} apart at "
                f"{fmt_pair(pair)}, below the claimed {fmt_value(sep)}"
            )
    bound = derive_bound_params(space, members, params.t, ctx)
    return DimensionWitness(len(fams) - 1, params, bound, fams, window)


def restrict_witness(w: DimensionWitness, subset) -> DimensionWitness:
    """Intersect every member set with a subset; separation and
    boundedness are hereditary, so certification survives."""
    keep = set(subset)
    if not w.window.holds(keep):
        raise DomainError("subset must lie inside the witness window")
    fams = tuple(
        Family.of([tuple(p for p in s if p in keep) for s in fam.sets], fam.label)
        for fam in w.families
    )
    return DimensionWitness(w.n, w.params, w.bound_params, fams,
                            Window(p for p in w.window if p in keep))


# ---------------------------------------------------------------------------
# The implication pipeline
# ---------------------------------------------------------------------------


def derived_scale(space: FuzzyMetricSpace, params: ScaleParams) -> ScaleParams:
    """Canonical derived scale: t' = 2t and 1 - r' = ((1-r)*(1-r))/2,
    the t-norm square halved to land strictly inside the constraint."""
    level = space.tnorm(params.threshold, params.threshold) / 2
    if level <= 0:
        raise UnsupportedOperationError(
            f"derived level collapsed to 0 under t-norm {space.tnorm.name}"
        )
    return ScaleParams(1 - level, 2 * params.t)


def multiplicity_cover_from_witness(space: FuzzyMetricSpace, w: DimensionWitness,
                                    params: ScaleParams, ctx: CallContext = None):
    """Witness at the derived scale -> cover with scale multiplicity <= n+1.

    A ball at (r, t) meeting two sets of one family produces a pair at
    (r', t') = derived_scale(r, t) above the separation bound, which the
    witness forbids; so any ball meets at most one set per family.  The
    witness must be supplied at exactly the derived scale and is
    re-verified before use; the multiplicity is then measured, not
    assumed, by ``scale_multiplicity`` with ``ctx`` (see ``CallContext``),
    which also records that the verified cover's points lie in the
    universe.
    """
    ctx = ctx or CallContext(space)
    want = derived_scale(space, params)
    if (w.params.r, w.params.t) != (want.r, want.t):
        raise PreconditionError(
            f"witness must be at the derived scale r={fmt_value(want.r)}, "
            f"t={fmt_value(want.t)}; got r={fmt_value(w.params.r)}, "
            f"t={fmt_value(w.params.t)}"
        )
    vrep = verify_witness(space, w)
    if not vrep.passed:
        raise PreconditionError(
            f"witness fails verification: {vrep.failures()[0].line()}"
        )
    cover = w.as_cover()
    ctx.check_members(cover, ())  # verify_witness checked every member point
    measured = scale_multiplicity(space, cover, params, ctx)
    rep = CertReport("multiplicity-cover", space=space.describe(),
                     window=w.window.label(), r=params.r, t=params.t)
    rep.add_pass("witness-verified", r=w.params.r, t=w.params.t)
    rep.add_verdict(measured <= w.n + 1, "scale-multiplicity",
                    measured=measured, bound=w.n + 1)
    return cover, rep


def lebesgue_cover_from_multiplicity(space: FuzzyMetricSpace, cover: Cover,
                                     params: ScaleParams, input_bound: ScaleParams,
                                     ctx: CallContext = None):
    """Low-multiplicity cover at the derived scale -> Lebesgue cover at (r, t).

    Fattening every member set by its derived-scale neighborhood turns a
    ball at (r, t) that meets a set into a subset of that set's
    fattening, so (r, t) becomes a Lebesgue pair; the plain multiplicity
    of the output is at most the input's scale multiplicity.  Both facts
    are verified on the window, and so is boundedness: of the input at
    ``input_bound``, and of the output at the scale that bound gives
    fattened members (see ``neighborhood_family``).  The input's scale
    multiplicity and the output's Lebesgue verdict come from
    ``scale_multiplicity`` and ``first_lebesgue_violation`` with ``ctx``
    (see ``CallContext``), so a fact a stage before decided is read, not
    decided again.
    """
    ctx = ctx or CallContext(space)
    window = cover.window
    want = derived_scale(space, params)
    wanted = ctx.level(want.threshold, want.t, window)
    if missing_points(cover.all_sets(), window):
        raise PreconditionError("input must cover the window")
    measured_in = scale_multiplicity(space, cover, want, ctx)

    fat_families = tuple(
        Family.of([_level_neighborhood(space, s, want, window, wanted) for s in fam.sets],
                  f"N({fam.label})" if fam.label else "N")
        for fam in cover.families
    )
    out = Cover(fat_families, window)
    ctx.check_members(out, ())  # runs of the window, which the level build checked
    rep = CertReport("lebesgue-cover", space=space.describe(),
                     window=window.label(), r=params.r, t=params.t)
    rep.add_pass("input-scale-multiplicity", measured=measured_in,
                 r=want.r, t=want.t)
    bad_point = first_lebesgue_violation(space, out, params, ctx)
    rep.add_verdict(bad_point is None, "lebesgue-pair", r=params.r, t=params.t,
                    witness=bad_point)
    out_mult = multiplicity(out)
    rep.add_verdict(out_mult <= measured_in, "multiplicity",
                    measured=out_mult, bound=measured_in)

    rep.add_verdict(_is_bounded(space, cover.all_sets(), input_bound),
                    "input-bounded", r=input_bound.r, t=input_bound.t)
    level, t_out = _fattened_bound(space, want, input_bound)
    out_bound = ScaleParams(1 - level, t_out)
    rep.add_verdict(_is_bounded(space, out.all_sets(), out_bound),
                    "output-bounded", r=out_bound.r, t=out_bound.t)
    return out, rep


def refinement_via_lebesgue(space: FuzzyMetricSpace, cover_u: Cover, cover_v: Cover,
                            params: ScaleParams, ctx: CallContext = None) -> CertReport:
    """Bounded cover refines Lebesgue cover, verified set by set.

    Hypotheses checked first: every member of U is internally bounded at
    (r, t) (so each U-set sits inside a ball around any of its points),
    and V has (r, t) as a Lebesgue pair.  The conclusion, that every
    U-set is contained in some V-set, is then verified directly.  The
    points of U, then those of V, are checked against the universe before
    M is evaluated.  Checks and V's Lebesgue verdict go through ``ctx``
    (see ``CallContext``), so what a stage before decided is read.
    """
    ctx = ctx or CallContext(space)
    ctx.check_members(cover_u, cover_u.all_sets())
    ctx.check_members(cover_v, cover_v.all_sets())
    rep = CertReport("refinement", space=space.describe(),
                     window=cover_u.window.label(), r=params.r, t=params.t)
    worst = family_min_intra(space, cover_u.all_sets(), params.t)
    if worst is not None and worst[0] <= params.threshold:
        raise CertificationError(
            "hypothesis failure: refining cover is not uniformly bounded at "
            f"r={fmt_value(params.r)}, t={fmt_value(params.t)} "
            f"(worst pair {fmt_pair(worst[1])} at {fmt_value(worst[0])})"
        )
    rep.add_pass("refining-cover-bounded", r=params.r, t=params.t)
    if first_lebesgue_violation(space, cover_v, params, ctx) is not None:
        raise CertificationError(
            "hypothesis failure: target cover lacks the Lebesgue pair "
            f"r={fmt_value(params.r)}, t={fmt_value(params.t)}"
        )
    rep.add_pass("target-lebesgue-pair", r=params.r, t=params.t)
    loose = first_refinement_violation(cover_u, cover_v)
    rep.add_verdict(loose is None, "refines",
                    refining_sets=len(cover_u.all_sets()),
                    target_sets=len(cover_v.all_sets()),
                    witness=None if loose is None else
                    f"{fmt_value(loose[0])}..{fmt_value(loose[-1])}(#{len(loose)})")
    return rep


@dataclass(frozen=True)
class PipelineResult:
    witness: DimensionWitness
    lebesgue_cover: Cover
    reports: tuple

    @property
    def multiplicity_cover(self) -> Cover:
        return self.witness.as_cover()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def refinement_ball_level(space: FuzzyMetricSpace, params: ScaleParams) -> Fraction:
    """Deterministic ball radius rho, the first of the bound-search levels
    with (1-rho)*(1-rho) above 1 - r, so balls at rho are internally
    bounded at (r, t) for t-independent spaces (pairs inside such a ball
    chain through the center)."""
    for rho in BOUND_LEVELS:
        if space.tnorm(1 - rho, 1 - rho) > params.threshold:
            return rho
    raise SearchFailureError(
        f"no ball level with squared complement above {fmt_value(params.threshold)}"
    )


def run_dimension_pipeline(space: FuzzyMetricSpace, params: ScaleParams,
                           witness_factory) -> PipelineResult:
    """Drive the full implication chain down to a refinement certificate.

    The multiplicity step consumes a witness at the scale derived from
    its own target, so the chain derives twice: the final target (r, t)
    needs the multiplicity cover at derived(r, t), which needs the
    witness at derived(derived(r, t)).  ``witness_factory`` is called
    with that scale.  The refining cover is the cover of balls at a
    deterministically chosen smaller radius, which is bounded at (r, t)
    only for t-independent spaces; a t-dependent space is refused before
    the factory or any step runs.  Every stage works on the witness's
    window.  On a window of consecutive integers each ball that is one
    run is kept as a step-1 ``range``, so the cover costs O(N) memory
    although its sets hold about N^2/2 points.

    The stages are the public ones, called with one ``CallContext`` made
    for the call: each ball level is swept once, the second step reads
    the witness cover's scale multiplicity that the first measured, the
    refinement step reads the Lebesgue verdict the second found on the
    same cover and scale, and no cover's points are checked twice.  A
    multiplicity cover whose scale multiplicity exceeds the witness's
    n + 1 is refused before the second step.
    """
    if space.t_dependent:
        raise UnsupportedOperationError(
            "the refining ball cover is only bounded at (r, t) for "
            "t-independent spaces"
        )
    scale1 = derived_scale(space, params)
    scale2 = derived_scale(space, scale1)
    w = witness_factory(scale2)
    window = w.window
    ctx = CallContext(space)
    c1, rep1 = multiplicity_cover_from_witness(space, w, scale1, ctx)
    measured = scale_multiplicity(space, c1, scale1, ctx)
    if measured > w.n + 1:
        raise PreconditionError(
            f"input scale multiplicity {measured} exceeds the expected "
            f"{w.n + 1} at r={fmt_value(scale1.r)}, t={fmt_value(scale1.t)}"
        )
    c2, rep2 = lebesgue_cover_from_multiplicity(space, c1, params, w.bound_params, ctx)
    rho = refinement_ball_level(space, params)
    ball_sets = list(dict.fromkeys(map(window.run_set, ctx.level(1 - rho, params.t, window))))
    ball_cover = Cover((Family.of(ball_sets, f"balls@{fmt_value(rho)}"),), window)
    ctx.check_members(ball_cover, ())  # runs of the window, which the level build checked
    rep3 = refinement_via_lebesgue(space, ball_cover, c2, params, ctx)
    return PipelineResult(w, c2, (rep1, rep2, rep3))


# ---------------------------------------------------------------------------
# Scale graph and the oracle
# ---------------------------------------------------------------------------


def _components(n: int, edges) -> list:
    """Connected components of the graph on indices 0..n-1 with the given
    index pairs as edges: increasing index lists, ordered by first index."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def scale_graph(space: FuzzyMetricSpace, params: ScaleParams, window: Window) -> ScaleGraphReport:
    """Components of the graph joining x, y when M(x, y, t) >= 1 - r: the
    space's closed threshold test picks, through its order, the index
    pairs i < j of the window points that give them.  Only pairs i < j
    are evaluated, so this relies on M being symmetric."""
    space._check_window(window)
    pts = window.points
    edges = space.order.edges(pts, space._threshold(pts, params.threshold, params.t, False))
    components = tuple(tuple(pts[i] for i in comp) for comp in _components(len(pts), edges))
    largest = max(components, key=len) if components else ()
    worst = min_intra_pair(space, largest, params.t) if len(largest) >= 2 else None
    if worst is None:
        min_internal, pair = ONE, (largest[0], largest[0]) if largest else None
    else:
        min_internal, pair = worst
    return ScaleGraphReport(params, components, min_internal, pair)


def oracle_min_families(space: FuzzyMetricSpace, params: ScaleParams,
                        bound_params: ScaleParams, window: Window) -> int:
    """Exact minimum number of separated families covering a tiny window.

    Two points with M >= 1 - r at the separation scale can never sit in
    distinct members of one family, and boundedness is hereditary, so a
    set of points forms one family exactly when every component of its
    separation graph is bounded at bound_params.  The answer is the least
    k for which a backtracking search colours the window points with k
    such classes.  The result speaks only about the fixed scales given;
    it is deliberately independent of every fast path in the library and
    evaluates M directly.
    """
    n = len(window)
    if n == 0:
        raise DomainError("oracle window must be non-empty")
    if n > ORACLE_MAX_POINTS:
        raise OracleSizeError(
            f"oracle window limited to {ORACLE_MAX_POINTS} points, got {n}"
        )
    pts = list(window.points)
    for p in pts:
        space._check_point(p)

    sep_level, t_sep = params.threshold, params.t
    bnd_level, t_bnd = bound_params.threshold, bound_params.t
    m_sep = [[space.value(x, y, t_sep) for y in pts] for x in pts]
    m_bnd = [[space.value(x, y, t_bnd) for y in pts] for x in pts]

    def is_family(members):
        edges = [(a, b) for a, b in combinations(range(len(members)), 2)
                 if m_sep[members[a]][members[b]] >= sep_level]
        return all(m_bnd[members[a]][members[b]] > bnd_level
                   for comp in _components(len(members), edges)
                   for a, b in combinations(comp, 2))

    classes = []

    def colour(i, k):
        """Whether points i.. extend the colour classes to at most k valid ones."""
        if i == n:
            return True
        for members in classes:
            members.append(i)
            if is_family(members) and colour(i + 1, k):
                return True
            members.pop()
        if len(classes) < k:
            classes.append([i])
            if colour(i + 1, k):
                return True
            classes.pop()
        return False

    return next(k for k in range(1, n + 1) if colour(0, k))
