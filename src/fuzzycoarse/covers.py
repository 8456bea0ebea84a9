"""Families and covers of point sets, with scale predicates.

All sets are finite and live inside a window, so suprema and infima are
maxima and minima and every predicate is decided exactly.

The extremal helpers (``family_max_cross``, ``family_min_intra``) take
their pairs from the space's order (see ``space``), which reads a few
points per member where a scan reads every pair.

The scale predicates (multiplicity, scale multiplicity, Lebesgue pairs,
refinement) look at member sets and balls on the window only, as runs of
window indices (see ``Window``), and decide most questions from run
endpoints with a bisect.  Member sets may be tuples or step-1 ranges.
Multiplicity is the largest depth of the members' runs; M is symmetric,
so scale multiplicity is the depth of the unions of the members' balls.
A ``CallContext`` carries what the stages of one call share.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, compress, filterfalse, islice, repeat
from operator import eq, is_, is_not, itemgetter, lt, ne

from .errors import PreconditionError, UnsupportedOperationError
from .report import CertReport
from .space import FuzzyMetricSpace, ScaleParams, Window, _coalesce_runs, _int_range

ONE = Fraction(1)


def _clean_set(s):
    """The canonical form of a member set: a step-1 ``range`` for two or
    more consecutive ``int``s, a 1-tuple for one point, and a sorted,
    duplicate-free tuple otherwise.

    A tuple or list whose points already strictly increase is not sorted
    again.  Points that merely compare equal to consecutive integers (a
    ``Fraction`` or ``bool`` among them) keep the member a tuple.
    """
    if isinstance(s, (tuple, list)):
        if len(s) < 2:
            return tuple(s)
        pts = s if all(map(lt, s, islice(s, 1, None))) else sorted(set(s))
    elif isinstance(s, range) and s.step == 1 and len(s) > 1:
        return s
    else:
        pts = sorted(set(s))
    return _int_range(pts) or tuple(pts)


_SEQUENCES = (tuple, list)


@dataclass(frozen=True)
class Family:
    """A labeled list of non-empty finite point sets.

    Construction gives each member one form (see ``_clean_set``): a run
    of two or more consecutive integers becomes a step-1 ``range``, a
    single point a 1-tuple, anything else a sorted, duplicate-free tuple.
    So ``Family([(1, 2, 3)]) == Family([range(1, 4)])``, and on a window
    of consecutive integers a range member is one run, read from its two
    ends.  Empty member sets are dropped on construction; how many were
    dropped is kept so reports can say so.  A one-point tuple or list is
    made a 1-tuple inline, without a ``_clean_set`` call, so a family of
    many singletons is built in bulk.
    """

    sets: tuple
    label: str = ""
    dropped_empty: int = field(default=0, init=False)

    def __post_init__(self):
        cleaned = [tuple(s) if type(s) in _SEQUENCES and len(s) == 1 else _clean_set(s)
                   for s in self.sets]
        kept = tuple(filter(None, cleaned))
        object.__setattr__(self, "sets", kept)
        object.__setattr__(self, "dropped_empty", len(cleaned) - len(kept))

    @classmethod
    def of(cls, sets, label: str = "") -> "Family":
        return cls(sets, label)

    def __len__(self):
        return len(self.sets)


@dataclass(frozen=True)
class Cover:
    """Families whose union is meant to cover a window."""

    families: tuple
    window: Window

    @classmethod
    def of(cls, families, window: Window) -> "Cover":
        return cls(tuple(families), window)

    def all_sets(self) -> tuple:
        out = []
        for fam in self.families:
            out.extend(fam.sets)
        return tuple(out)


def coverage(sets, window: Window) -> tuple:
    """``(missing, inside)``: the window points that no member set holds,
    in window order, and whether every member point lies in the window.

    On a window of consecutive integers a range member is decided as runs
    of window indices, a step-1 one from its two ends.  So are the
    one-point members, as one run, when their points in member order are
    the window points from some place on (see ``Window.one_run``); the
    points of every other member are gathered in one set.  ``sets`` is a
    sequence; it is split into ranges, one-point members and other
    members without a list per member."""
    ranges, runs = [], []
    if window.is_contiguous_ints():
        sizes = list(map(len, sets))
        run = 1 in sizes and window.one_run(
            list(chain.from_iterable(compress(sets, map(eq, sizes, repeat(1))))))
        if run:
            runs.append(run)
            sets = list(compress(sets, map(ne, sizes, repeat(1))))
        ranges = list(compress(sets, map(is_, map(type, sets), repeat(range))))
        sets = compress(sets, map(is_not, map(type, sets), repeat(range)))
        runs.extend(chain.from_iterable(map(window.runs_of, ranges)))
    seen = set(chain.from_iterable(sets))
    gaps, k = [], 0
    for i, j in _coalesce_runs(runs):
        if k < i:
            gaps.append((k, i))
        k = j
    if k < len(window):
        gaps.append((k, len(window)))
    missing = tuple(filterfalse(seen.__contains__, window.points_of(gaps)))
    inside = window.holds(seen) and all(window.holds((s[0], s[-1])) for s in ranges if s)
    return missing, inside


def missing_points(sets, window: Window) -> tuple:
    """The window points that no member set holds, in window order."""
    return coverage(sets, window)[0]


def outside_points(sets, window: Window):
    """The member points outside the window, in member order."""
    return chain.from_iterable(_outside_parts(sets, window))


def _outside_parts(sets, window: Window):
    """``outside_points`` part by part: a step-1 range on a window of
    consecutive integers holds some only beyond its ends, as up to two
    step-1 ranges; any other member gives its points outside the window."""
    runs = window.is_contiguous_ints()
    for s in sets:
        if runs and type(s) is range and s.step == 1:
            yield range(s.start, min(s.stop, window.points[0]))
            yield range(max(s.start, window.points[-1] + 1), s.stop)
        else:
            yield filterfalse(window.__contains__, s)


def _check_outside_points(space: FuzzyMetricSpace, sets, window: Window):
    """Check the member points outside the window against the universe,
    in member order; an out-of-window part of a range member is checked
    at its ends (see ``FuzzyMetricSpace._check_points``)."""
    for part in _outside_parts(sets, window):
        space._check_points(part)


# ---------------------------------------------------------------------------
# Extremal pair machinery
# ---------------------------------------------------------------------------


def min_intra_pair(space: FuzzyMetricSpace, s: tuple, t: Fraction):
    """(value, pair) minimizing M over the pairs of one sorted, duplicate-free
    set, once its points pass the universe check; None if |s| < 2."""
    space._check_points(s)
    worst = family_min_intra(space, (s,), t)
    return worst and worst[:2]


def family_min_intra(space: FuzzyMetricSpace, sets, t: Fraction):
    """(value, pair, set_index) minimizing M within any one of a sequence
    of sorted, duplicate-free member sets, such as ``Family.sets``, whose
    points the caller has checked against the universe.  The first
    minimum is found on integer values; only it becomes a Fraction.
    One-point members hold no pair and are skipped in bulk."""
    best = None
    for idx, s in compress(enumerate(sets), map(lt, repeat(1), map(len, sets))):
        (num, den), pr = space.order.min_intra(s, space._pair, t)
        if best is None or num * best[1] < best[0] * den:
            best = (num, den, pr, idx)
    return None if best is None else (Fraction(best[0], best[1]), best[2], best[3])


def _first_shared_point(sets):
    """``(1, (p, p), (i, j))`` for the smallest point p held by two distinct
    members, with the two smallest indices of the members that hold it,
    or None."""
    if sum(map(len, sets)) == len(set().union(*sets)):
        return None  # no point is listed twice
    owner, shared = {}, {}
    for i, s in enumerate(sets):
        for p in s:
            k = owner.setdefault(p, i)
            if k != i and p not in shared:
                shared[p] = (k, i)
    p = min(shared, default=None)
    return None if p is None else (ONE, (p, p), shared[p])


def _hull_ordered(sets) -> bool:
    """Whether each member's last point lies below the next member's first:
    then no point is shared."""
    return all(map(lt, map(itemgetter(-1), sets), map(itemgetter(0), islice(sets, 1, None))))


def family_max_cross(space: FuzzyMetricSpace, family: Family, t: Fraction):
    """(value, pair, (i, j)) maximizing M across distinct member sets, for
    members whose points the caller has checked against the universe.  A
    point held by two members gives the smallest such point and the two
    smallest indices of its members (a hull-ordered family holds none and
    is not scanned for one); otherwise the space's order names the pair."""
    sets = family.sets
    if len(sets) < 2:
        return None
    hull_ordered = _hull_ordered(sets)
    shared = None if hull_ordered else _first_shared_point(sets)
    return shared or space.order.max_cross(sets, space._raw, t, hull_ordered)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def _is_bounded(space: FuzzyMetricSpace, sets, params: ScaleParams) -> bool:
    """Every pair within one member set strictly above 1 - r at time t."""
    worst = family_min_intra(space, sets, params.t)
    return worst is None or worst[0] > params.threshold


def _check_members(space: FuzzyMetricSpace, sets):
    """``FuzzyMetricSpace._check_points`` on each member, in member order:
    a range member is checked at its ends."""
    for s in sets:
        space._check_points(s)


class CallContext:
    """What the stages of one call share: the space, its ball levels, the
    facts already decided and the covers whose member points have passed
    the universe check.

    A stage given no context makes a fresh one and decides everything
    itself.  ``run_dimension_pipeline`` makes one and hands it to every
    stage, so each ball level is swept once, each fact decided once and
    each cover's points checked once.  Levels are kept by (bound, t,
    window); facts by name, cover, scale and window, with the cover
    known by its ``id``.  The context holds every cover it keys, so no
    ``id`` is reused while it lives.
    """

    def __init__(self, space: FuzzyMetricSpace):
        self.space = space
        self.level = cache(space.ball_level)
        self._facts = {}  # (name, id(cover), params, window) -> (cover, value)

    def once(self, name, cover, params, window, decide):
        """``decide()``, or what it gave for the same fact on the same
        cover, scale and window in this context."""
        key = name, id(cover), params, window
        if key not in self._facts:
            self._facts[key] = cover, decide()
        return self._facts[key][1]

    def check_members(self, owner, sets):
        """``_check_members`` on ``sets``, the member sets of ``owner`` (a
        cover or a sequence of member sets) still to be checked, once per
        owner.  Empty ``sets`` record that the caller has checked them."""
        self.once("members", owner, None, None, lambda: _check_members(self.space, sets))


def is_uniformly_bounded_family(space: FuzzyMetricSpace, family: Family,
                                params: ScaleParams) -> bool:
    """Every intra-set pair strictly above 1 - r at time t."""
    _check_members(space, family.sets)
    return _is_bounded(space, family.sets, params)


def scale_neighborhood(space: FuzzyMetricSpace, u, params: ScaleParams,
                       window: Window) -> tuple:
    """Window points within strict threshold of some point of u: the union
    of the balls around the points of u, swept in increasing order."""
    u = _clean_set(u)
    space._check_points(u)
    runs = [run for ball in space.balls(u, params.threshold, params.t, window) for run in ball]
    return window.points_of(_coalesce_runs(runs))


def _level_neighborhood(space: FuzzyMetricSpace, u, params: ScaleParams, window: Window,
                        level):
    """``scale_neighborhood`` of a canonical member set u whose points the
    caller has checked against the universe, with the balls of its window
    points read from ``level``, the ``ball_level`` of the window at the
    scale, as a member set (see ``Window.run_set``).  Only the points of u
    outside the window are galloped."""
    runs = window.runs_of(u)
    union = _ball_union(level, runs)
    if sum(j - i for i, j in runs) < len(u):
        union = _coalesce_runs(chain(union, *space.balls(
            outside_points((u,), window), params.threshold, params.t, window)))
    return window.run_set(union)


def _ball_union(level, runs) -> list:
    """The union of the balls ``level[k]`` of the window indices k in
    ``runs``, as sorted, coalesced runs."""
    return _coalesce_runs(chain.from_iterable(level[k] for i, j in runs for k in range(i, j)))


def _fattened_bound(space: FuzzyMetricSpace, fatten: ScaleParams, bound: ScaleParams) -> tuple:
    """``(level, t)`` at which members bounded at ``bound`` stay bounded
    once fattened by their neighbourhoods at ``fatten``: a pair of a
    fattened member chains through a pair of the member, so M is above
    T(T(1 - r, 1 - r'), 1 - r) at time 2t + t'."""
    level = space.tnorm(space.tnorm(fatten.threshold, bound.threshold), fatten.threshold)
    return level, 2 * fatten.t + bound.t


def neighborhood_family(space: FuzzyMetricSpace, family: Family, params: ScaleParams,
                        window: Window, input_bound: ScaleParams):
    """Fatten every member set by its strict-threshold neighborhood.

    If the input family is uniformly bounded at ``input_bound``, the
    output is uniformly bounded at the derived scale:
    1 - s = (1-r) * (1-r') * (1-r) at time 2t + t', evaluated with the
    space's t-norm.  Both facts are re-verified, not assumed.  Covering
    is preserved because each set sits inside its own neighborhood.
    """
    if space.tnorm.positivity_preserving is not True:
        raise UnsupportedOperationError(
            f"t-norm {space.tnorm.name} is not positivity-preserving; "
            "the fattening bound degenerates"
        )
    rep = CertReport("neighborhood-family", space=space.describe(),
                     window=window.label(), r=params.r, t=params.t)
    ok_in = is_uniformly_bounded_family(space, family, input_bound)
    rep.add_verdict(ok_in, "input-bounded", r=input_bound.r, t=input_bound.t)

    fat = Family.of(
        [scale_neighborhood(space, s, params, window) for s in family.sets],
        label=f"N({family.label})" if family.label else "N",
    )
    level, t_out = _fattened_bound(space, params, input_bound)
    if level <= 0:
        raise UnsupportedOperationError("derived boundedness level collapsed to 0")
    derived = ScaleParams(1 - level, t_out)
    ok_out = _is_bounded(space, fat.sets, derived)  # window points, checked by the sweeps
    rep.add_verdict(ok_out, "output-bounded", level=level, t_out=t_out)

    if not missing_points(family.sets, window):
        rep.add_verdict(not missing_points(fat.sets, window), "cover-preserved")
    return fat, rep


def multiplicity(cover: Cover, window: Window) -> int:
    """Largest number of member sets containing any one window point."""
    return _max_depth(map(window.runs_of, cover.all_sets()))


def _max_depth(run_lists) -> int:
    """The largest number of run lists, each of disjoint runs, holding one
    index: the largest prefix sum of +1 at each run start and -1 at each
    run end, sorted so that an end at k comes before a start at k."""
    events = sorted(chain.from_iterable(((i, 1), (j, -1)) for runs in run_lists for i, j in runs))
    return max(accumulate(step for _, step in events), default=0)


def scale_multiplicity(space: FuzzyMetricSpace, cover: Cover, params: ScaleParams,
                       window: Window, ctx: CallContext = None) -> int:
    """Largest number of member sets met by any ball at scale (r, t), once
    the member points pass the universe check.

    Balls and member sets are compared on the window, with the balls of
    the window points read from the ball level of ``ctx``.  M(x, y, t) =
    M(y, x, t), so the ball of x meets a member exactly when x lies in
    the union of the balls of the member's window points, and the answer
    is the largest depth of those unions.  Every built-in kind's ``pair``
    is symmetric by its formula, and ``TableMetric`` refuses an
    asymmetric table.  The answer is kept in ``ctx`` (see ``CallContext``).
    """
    ctx = ctx or CallContext(space)
    sets = cover.all_sets()
    ctx.check_members(cover, sets)
    level = ctx.level(params.threshold, params.t, window)
    return ctx.once("scale-multiplicity", cover, params, window,
                    lambda: _max_depth(_ball_union(level, window.runs_of(s)) for s in sets))


def first_lebesgue_violation(space: FuzzyMetricSpace, cover: Cover,
                             params: ScaleParams, window: Window, ctx: CallContext = None):
    """First window point whose ball fits in no member set, or None; a
    member point outside the universe raises ``DomainError``, then a cover
    that misses window points ``PreconditionError``.

    Given a context, the balls are read from its ball level and the
    answer is kept in it (see ``CallContext``).  Without one, the balls
    are swept lazily, so a failing check stops at its first bad ball.
    """
    sweep = ctx.level if ctx else partial(space.balls, window.points)
    ctx = ctx or CallContext(space)
    sets = cover.all_sets()
    ctx.check_members(cover, sets)

    def decide():
        missing = missing_points(sets, window)
        if missing:
            raise PreconditionError(f"cover misses window points, e.g. {missing[:3]}")
        holds = _run_containment([window.runs_of(s) for s in sets])
        for x, runs in zip(window, sweep(params.threshold, params.t, window)):
            if runs and not holds(runs):
                return x
        return None

    return ctx.once("lebesgue", cover, params, window, decide)


def _run_containment(set_runs):
    """The test of whether some member set holds a run list, for the window
    runs of each member set: ``holds(runs)`` for a sorted, non-empty run
    list.

    A run list lies in a set exactly when each of its runs lies in one of
    the set's runs.  All runs are sorted by start with a prefix maximum of
    their ends, so a list whose hull lies in one run is found by one
    bisect.  Otherwise only a set of several runs can hold the list, and
    one of its runs holds the list's first index: going back from the
    bisect while the prefix maximum passes that index reads every such run.
    """
    runs = sorted((i, j, sid) for sid, own in enumerate(set_runs) for i, j in own)
    starts = [i for i, _, _ in runs]
    reach = list(accumulate((j for _, j, _ in runs), max))

    def holds(lst):
        first = lst[0][0]
        k = bisect_right(starts, first)
        if k and reach[k - 1] >= lst[-1][1]:
            return True
        while len(lst) > 1 and k and reach[k - 1] > first:
            k -= 1
            _, end, sid = runs[k]
            own = set_runs[sid]
            if end > first and len(own) > 1 and all(
                    own[bisect_right(own, i, key=itemgetter(0)) - 1][1] >= j for i, j in lst):
                return True
        return False

    return holds


def first_refinement_violation(refining: Cover, target: Cover):
    """First member set of the refining cover contained in no member set of
    the target cover, or None.

    The set is returned as the refining cover holds it: a tuple or a
    step-1 range.  A set whose points all lie in the target's window is
    decided on window runs (see ``_run_containment``); any other is
    compared point by point with each target member.
    """
    window = target.window
    targets = target.all_sets()
    holds = _run_containment([window.runs_of(u) for u in targets])
    for s in refining.all_sets():
        runs = window.runs_of(s)
        # one run is read without a generator: a refining ball cover is mostly one-run sets
        in_window = runs[0][1] - runs[0][0] if len(runs) == 1 else sum(j - i for i, j in runs)
        if in_window == len(s):
            if not holds(runs):
                return s
        elif not any(map(set(s).issubset, targets)):
            return s
    return None
