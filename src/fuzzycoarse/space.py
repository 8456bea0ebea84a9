"""Fuzzy metric spaces with exact rational evaluation.

A space couples a point universe, a continuous t-norm and a closeness
rule M(x, y, t) in (0, 1], read as the degree of certainty that x and y
are within t of each other.  All evaluation is exact; every predicate in
the library reduces to strict or non-strict comparisons of Fractions, so
a certificate can never be an artifact of rounding.

Infinite universes are handled by explicit finite windows supplied per
call.  A verdict is always "on window W", never "on the whole space".

Built-in space kinds
--------------------
standard              t / (t + d(x, y)) for a metric d (product t-norm)
reciprocal_product    1/(xy) off the diagonal, on the positive integers
ratio_minmax          min(x, y)/max(x, y) on the positive integers
pathological          1/2 off the diagonal except 1/x against the point 1
                      (a space where bounded sets do not union well)
ultrametric_standard  t / (t + max(x, y)) off the diagonal, min t-norm
                      (non-Archimedean)

Each kind states M once, as an integer pair ``(num, den)``, and declares
one order (``_Radial``, ``_Prefix`` or ``_Unordered``) that every fast
path rests on; every Fraction value and every ball is built from them.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import nsmallest
from itertools import accumulate, chain, combinations, filterfalse, islice, repeat
from operator import add, and_, eq, itemgetter, le, lt, mul, ne
from typing import Optional

from .errors import DomainError, ExactnessError, UnsupportedOperationError
from .rationals import as_fraction
from .report import CertReport, fmt_pair, fmt_value
from .tnorm import LUKASIEWICZ, MINIMUM, PRODUCT, TNorm, builtin_name, is_positivity_preserving


@dataclass(frozen=True)
class ScaleParams:
    """A scale (r, t) with r in (0, 1) and t > 0."""

    r: Fraction
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", as_fraction(self.r))
        object.__setattr__(self, "t", as_fraction(self.t))
        if not (0 < self.r < 1):
            raise DomainError(f"r must lie in (0,1), got {self.r}")
        if self.t <= 0:
            raise DomainError(f"t must be positive, got {self.t}")

    @property
    def threshold(self) -> Fraction:
        """The level 1 - r that strict closeness comparisons run against."""
        return 1 - self.r


_COLLECTIONS = (set, frozenset, tuple, list)  # sized and iterable more than once


class Window:
    """A finite, sorted, duplicate-free sequence of points.

    Windows are how infinite universes are made enumerable: every scan,
    ball and certificate is relative to one.

    A window stores one of two forms.  Evenly spaced ``int`` points, however
    they were given, are a ``range`` of positive step, read by integer
    arithmetic and spelled out only when ``points`` is read.  Any other
    points, and no points, are a sorted tuple and, as its membership set,
    the key view of the dict that removed its duplicates.

    A set of window points is also described by its *runs*: sorted,
    disjoint, non-adjacent half-open index ranges ``(i, j)`` standing for
    ``points[i:j]``.
    """

    def __init__(self, points):
        if type(points) is range and points.step < 0:
            points = points[::-1]
        keys = None
        if type(points) is not range or len(points) < 2:
            # dict.fromkeys keeps the input order, so sorted input sorts in O(n)
            keys = dict.fromkeys(points).keys()
            points = tuple(sorted(keys))
            if points and all(type(p) is int for p in points):  # evenly spaced: a range
                step = points[1] - points[0] if len(points) > 1 else 1
                r = range(points[0], points[0] + step * len(points), step)
                if all(map(eq, r, points)):
                    points = r
        self._seq = points
        self._set = None if type(points) is range else keys
        self._checked_in = set()  # universes that hold every point

    @cached_property
    def points(self) -> tuple:
        """The points as a tuple, built on first use: hot loops index and
        bisect a tuple several times faster than a range."""
        return tuple(self._seq)

    def __iter__(self):
        return iter(self._seq)

    def __len__(self):
        return len(self._seq)

    def __contains__(self, p):
        if self._set is not None:
            return p in self._set
        return p in self._seq if type(p) is int else self.index_of(p) is not None

    def __eq__(self, other):
        if not isinstance(other, Window):
            return False
        a, b = self._seq, other._seq
        return a == b if type(a) is type(b) else len(a) == len(b) and all(map(eq, a, b))

    def __hash__(self):
        return hash((len(self), self._seq[0], self._seq[-1]) if self._seq else 0)

    def is_contiguous_ints(self) -> bool:
        return type(self._seq) is range and self._seq.step == 1

    def holds(self, points) -> bool:
        """Whether every one of the points is a window point.  On a step-1
        range window a non-empty collection of ``int``s is decided in bulk,
        by its least and greatest point."""
        if self._set is not None:
            return all(map(self._set.__contains__, points))
        s = self._seq
        if (s.step == 1 and type(points) in _COLLECTIONS and points
                and set(map(type, points)) == {int}):
            return s.start <= min(points) and max(points) < s.stop
        return all(p in s if type(p) is int else p in self for p in points)

    def index_of(self, p):
        """Index of a window point, or None for a point outside the window."""
        s = self._seq
        if self._set is not None:
            return bisect_left(s, p) if p in self._set else None
        try:  # a range holds 2.0, True and Fraction(2) as a frozenset holding 2 does
            q = int(p)
        except (TypeError, ValueError, OverflowError):
            return None
        return (q - s.start) // s.step if q == p and q in s else None

    def runs_of(self, points) -> list:
        """Runs of the window points among a sequence of points, in any
        order and possibly with repeats.

        A step-1 ``range`` on a window of consecutive integers is clipped
        in O(1).  A sequence equal point by point to the window points from
        the place of its first point on is one run; on a range window that
        place is integer arithmetic.
        """
        if not points:
            return []
        s = self._seq
        if type(points) is range and points.step == 1 and self.is_contiguous_ints():
            i = max(0, points.start - s.start)
            j = min(len(s), points.stop - s.start)
            return [(i, j)] if i < j else []
        # the test of ``one_run``, written out: the cover checks call runs_of
        # once per member, and one more call costs as much as the test
        i = self.index_of(points[0])
        if i is not None:
            j = i + len(points)
            if j == i + 1 or j <= len(s) and all(map(eq, islice(points, 1, None), s[i + 1:j])):
                return [(i, j)]
        return _coalesce_runs((k, k + 1) for k in map(self.index_of, points)
                              if k is not None)

    def one_run(self, points):
        """``(i, j)`` when a non-empty sequence of points is equal point by
        point to the window points ``self.points[i:j]``, else None: one
        lookup of the first point, then one pass of ``==`` over the rest."""
        i = self.index_of(points[0])
        if i is not None:
            j = i + len(points)
            s = self._seq
            if j == i + 1 or j <= len(s) and all(map(eq, islice(points, 1, None), s[i + 1:j])):
                return i, j
        return None

    def points_of(self, runs) -> tuple:
        """The window points of a run list, in window order."""
        return tuple(chain.from_iterable(self.points[i:j] for i, j in runs))

    def run_set(self, runs):
        """A member set holding the points of a run list, in the form a
        ``Family`` keeps: a step-1 ``range`` for two or more consecutive
        ``int``s (on a window of consecutive integers, one run of two or
        more points, sliced in O(1)), otherwise a tuple."""
        if len(runs) == 1 and runs[0][1] - runs[0][0] > 1 and self.is_contiguous_ints():
            return self._seq[slice(*runs[0])]
        pts = self.points_of(runs)
        return _int_range(pts) or pts

    def label(self) -> str:
        s = self._seq
        if not s:
            return "empty"
        if self.is_contiguous_ints():
            return f"{s[0]}..{s[-1]}"
        if len(s) <= 8:
            return "{" + ",".join(map(fmt_value, s)) + "}"
        return f"{fmt_value(s[0])}..{fmt_value(s[-1])}(#{len(s)})"

    def __repr__(self):
        return f"Window({self.label()})"


def _int_range(pts):
    """``range(pts[0], pts[-1] + 1)`` when the sorted, duplicate-free points
    are two or more consecutive ``int``s, else None: points that merely
    compare equal to integers (a ``Fraction`` or ``bool`` among them) give
    None."""
    if (len(pts) > 1 and type(pts[0]) is int and type(pts[-1]) is int
            and pts[-1] - pts[0] == len(pts) - 1 and set(map(type, pts)) == {int}):
        return range(pts[0], pts[-1] + 1)
    return None


def _coalesce_runs(runs) -> list:
    """Sort half-open index runs and merge the overlapping or adjacent ones."""
    out = []
    for i, j in sorted(runs):
        if i >= j:
            continue
        if out and i <= out[-1][1]:
            if j > out[-1][1]:
                out[-1] = (out[-1][0], j)
        else:
            out.append((i, j))
    return out


class _Level:
    """The balls of a ``_Radial`` or ``_Prefix`` level over the window
    points (see ``FuzzyMetricSpace.ball_level``): ball k is the run
    ``[lo[k], hi[k])``, plus the centre run (k, k + 1) when that run stops
    short of k.  A radial ball is one run that holds its centre, as
    M(x, x, t) = 1 is above the bound; a prefix ball never ends at its
    centre, and the centre is added."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: array, hi: array):
        self.lo, self.hi = lo, hi

    def __len__(self):
        return len(self.lo)

    def __getitem__(self, k) -> list:
        i, j = self.lo[k], self.hi[k]
        runs = [(i, j)] if i < j else []
        if j < k:
            runs.append((k, k + 1))
        return runs


def _gallop(pred, lo: int, hi: int) -> int:
    """The first k in [lo, hi) with ``pred(k)`` true, or hi, for a predicate
    that is false and then true on [lo, hi), read by truth value: probes
    lo, lo + 1, lo + 3, ... until one holds, then bisects, so
    O(log(k - lo)) calls."""
    start, step = lo, 1
    while lo < hi:
        probe = min(start + step, hi) - 1
        if pred(probe):
            return bisect_left(range(probe), True, lo, probe, key=lambda k: bool(pred(k)))
        lo, step = probe + 1, 2 * step
    return hi


# ---------------------------------------------------------------------------
# Orders: what M does along the sorted line
# ---------------------------------------------------------------------------


class _Unordered:
    """No order fact: each primitive tests every point or pair of the sorted
    points it is given, through the test or M function passed in.  The
    threshold primitives take one test shape, that of
    ``FuzzyMetricSpace._threshold`` over ``pts``: ``misses = test(x)`` is
    the test of a point x, and ``misses(k)`` is true when M(x, pts[k])
    misses the level."""

    def balls(self, pts, centers, test):
        """Per increasing centre x, the runs of the k where ``test(x)(k)`` is false."""
        n = len(pts)
        for x in centers:
            misses = test(x)
            yield _coalesce_runs((k, k + 1) for k in range(n) if not misses(k))

    def level(self, pts, test):
        """The balls of every point of ``pts``, item k that of ``pts[k]``."""
        return list(self.balls(pts, pts, test))

    def edges(self, pts, test):
        """Pairs i < j that give the components of the graph joining pts[i]
        and pts[j] when ``test(pts[i])(j)`` is false: here every such pair."""
        for i, x in enumerate(pts):
            misses = test(x)
            yield from ((i, j) for j in range(i + 1, len(pts)) if not misses(j))

    def min_intra(self, s, pair, t):
        """``((num, den), (x, y))``, the first least ``pair(x, y, t)`` in s."""
        best = None
        for i, x in enumerate(s):
            for y in s[i + 1:]:
                num, den = pair(x, y, t)
                if best is None or num * best[0][1] < best[0][0] * den:
                    best = ((num, den), (x, y))
        return best

    def max_cross(self, sets, value, t, hull_ordered):
        """``(value, (p, q), (i, j))`` for members i < j sharing no point (each
        ending below the next if ``hull_ordered``): the first largest."""
        return max(((value(p, q, t), (p, q), (i, j)) for i, j in combinations(range(len(sets)), 2)
                    for p in sets[i] for q in sets[j]), key=itemgetter(0))

    def rows_fall_on(self, points) -> bool:  # is M(a_i, a_j) known not to grow in j >= i?
        return False


class _Line(_Unordered):
    """M(a_i, a_j) does not grow as j moves right of i on sorted points, so
    under either threshold test a ball is a run plus its centre (kept as a
    ``_Level``), an edge over a span joins its left end to every point
    inside, making each threshold component a run that a_j joins iff
    joined to the earlier point with the largest M, and the j >= i that a
    closed premise test passes on row i form a run [i, b)."""

    def level(self, pts, test):
        lo, hi = array("q"), array("q")
        for k, runs in enumerate(self.balls(pts, pts, test)):
            i, j = runs[0] if runs else (k, k)
            lo.append(i)
            hi.append(j)
        return _Level(lo, hi)

    def rows_fall_on(self, points) -> bool:
        return all(map(le, points, islice(points, 1, None)))


class _Radial(_Line):
    """x < y < z implies M(x, z) <= min(M(x, y), M(y, z)) at every t
    (``ratio_minmax``, ``pathological``, a line metric's standard space),
    so M(a_i, a_j) does not grow as i moves left of j either.  A ball is
    one run whose ends move right with its centre: ``balls`` gallops each
    end from where the last left it, O(log n) tests a centre, and
    ``level`` walks both ends one point at a time over the whole window.
    A premise run's end is galloped as a ball's.  The earlier point with
    the largest M is a_(j-1), so an edge is (j - 1, j) from one test per
    point, the weakest pair of a set its ends, and the strongest cross
    pair of members that share no point adjacent in their union:
    (s_k[-1], s_k+1[0]) if hull-ordered."""

    def balls(self, pts, centers, test):
        n = len(pts)
        left = right = 0
        for x in centers:
            c = bisect_left(pts, x)
            misses = test(x)
            left = _gallop(lambda k: not misses(k), left, c)
            right = _gallop(misses, max(right, c), n)
            yield [(left, right)] if left < right else []

    def level(self, pts, test):
        """The balls of every point of ``pts`` in one linear walk: each end
        moves at most n in all, and each centre adds at most one stopping
        test per end, so at most 4n tests."""
        n = len(pts)
        lo, hi = array("q", [0]) * n, array("q", [0]) * n
        left = right = 0
        for c, x in enumerate(pts):
            misses = test(x)
            while left < c and misses(left):
                left += 1
            if right < c:
                right = c
            while right < n and not misses(right):
                right += 1
            lo[c], hi[c] = left, right
        return _Level(lo, hi)

    def edges(self, pts, test):
        return ((j - 1, j) for j in range(1, len(pts)) if not test(pts[j - 1])(j))

    def min_intra(self, s, pair, t):
        return pair(s[0], s[-1], t), (s[0], s[-1])

    def max_cross(self, sets, value, t, hull_ordered):
        if hull_ordered:
            adjacent = (((u[-1], k), (v[0], k + 1)) for k, (u, v) in enumerate(zip(sets, sets[1:])))
        else:
            labeled = sorted((p, i) for i, s in enumerate(sets) for p in s)
            adjacent = zip(labeled, labeled[1:])
        return max(((value(p, q, t), (p, q), (min(i, j), max(i, j)))
                    for (p, i), (q, j) in adjacent if i != j), key=itemgetter(0))

    def run_ends(self, pts, test):
        """Per row i, the end b of the run [i, b) of the j where
        ``test(pts[i])(j)`` is false, for a closed premise test."""
        b, n = 0, len(pts)
        for i, x in enumerate(pts):
            b = _gallop(test(x), max(b, i + 1), n)
            yield b


class _Prefix(_Line):
    """M(x, y) does not grow in either coordinate off the diagonal, at
    every t (``reciprocal_product``).  A ball is a window prefix plus its
    centre, the earlier point with the largest M is a_0, so an edge is
    (j - 1, j) from the one test of a_0, the weakest pair of a set its
    last two points, and the strongest pair across members that share no
    point their two smallest minima.  A premise run of a later row can
    end earlier, so each row gallops from i + 1."""

    def balls(self, pts, centers, test):
        n = len(pts)
        for x in centers:
            c = bisect_left(pts, x)
            misses = test(x)
            at_x = c < n and pts[c] == x
            end = _gallop(misses, 0, c)
            if end == c:  # the whole prefix is inside: go on past the centre
                end = _gallop(misses, c + at_x, n)
            runs = [(0, end)] if end else []
            if at_x and end < c:
                runs.append((c, c + 1))
            yield runs

    def edges(self, pts, test):
        if pts:  # no point, no test of a_0
            misses = test(pts[0])
            yield from ((j - 1, j) for j in range(1, len(pts)) if not misses(j))

    def min_intra(self, s, pair, t):
        return pair(s[-2], s[-1], t), (s[-2], s[-1])

    def max_cross(self, sets, value, t, hull_ordered):
        if hull_ordered:
            p, q = sets[0][0], sets[1][0]
            return (value(p, q, t), (p, q), (0, 1))
        (p, i), (q, j) = nsmallest(2, ((s[0], i) for i, s in enumerate(sets)))
        return (value(p, q, t), (min(p, q), max(p, q)), (min(i, j), max(i, j)))

    def run_ends(self, pts, test):
        return (_gallop(test(x), i + 1, len(pts)) for i, x in enumerate(pts))


def int_window(lo: int, hi: int) -> Window:
    if lo > hi:
        raise DomainError(f"empty integer window {lo}..{hi}")
    return Window(range(lo, hi + 1))


def grid_window(lo, hi, step) -> Window:
    """Rational sample points lo, lo+step, ..., up to hi."""
    lo, hi, step = as_fraction(lo), as_fraction(hi), as_fraction(step)
    if step <= 0 or lo > hi:
        raise DomainError("grid window needs step > 0 and lo <= hi")
    pts = accumulate(repeat(step, (hi - lo) // step), initial=lo)
    return Window([int(p) if p.denominator == 1 else p for p in pts])


# ---------------------------------------------------------------------------
# Point universes
# ---------------------------------------------------------------------------


class Universe:
    """Membership rule for the points a space is defined on."""

    def __init__(self, name: str, contains):
        self.name = name
        self._contains = contains

    def __contains__(self, p):
        return self._contains(p)

    def __repr__(self):
        return f"Universe({self.name})"


def _is_scalar(p):
    return isinstance(p, int) and not isinstance(p, bool) or isinstance(p, Fraction)


NATURALS = Universe("naturals",
                    lambda p: isinstance(p, int) and not isinstance(p, bool) and p >= 1)
INTEGERS = Universe("integers", lambda p: isinstance(p, int) and not isinstance(p, bool))
RATIONALS = Universe("rationals", _is_scalar)


def lattice_universe(dim: int) -> Universe:
    if dim < 1:
        raise DomainError("lattice dimension must be positive")
    return Universe(
        f"lattice{dim}",
        lambda p: isinstance(p, tuple) and len(p) == dim
        and all(isinstance(c, int) and not isinstance(c, bool) for c in p),
    )


def finite_universe(points) -> Universe:
    pts = frozenset(points)
    return Universe("finite", pts.__contains__)


UNIVERSES = {"naturals": NATURALS, "integers": INTEGERS, "rationals": RATIONALS}


# ---------------------------------------------------------------------------
# Metrics (for standard spaces)
# ---------------------------------------------------------------------------


_RATIONAL_TYPES = (int, Fraction)


class Metric:
    """An exact metric; ``line_compatible`` means the distance respects the
    point order (d grows as pairs nest outward on the sorted line), and
    ``universe`` is the point set it is a metric on, which a standard space
    takes when it is given none, and ``universe_names`` are the built-in
    universes it is a metric on.  A distance is an exact rational: an int
    or a Fraction; any other value raises ``DomainError``."""

    name = "metric"
    line_compatible = False
    universe = INTEGERS
    universe_names = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "distance" in vars(cls) and "distance_pair" not in vars(cls):
            cls.distance_pair = Metric.distance_pair  # read a restated d as it is stated

    def distance(self, x, y):
        raise NotImplementedError

    def distance_pair(self, x, y) -> tuple:
        """d(x, y) as integers ``(num, den)`` in lowest terms, ``den > 0``:
        here those of ``distance``, for any class that states ``distance``
        without ``distance_pair``."""
        d = self.distance(x, y)
        return d.numerator, d.denominator


class EuclideanLine(Metric):
    """|x - y| on a totally ordered rational line."""

    name = "euclidean"
    line_compatible = True
    universe_names = frozenset(UNIVERSES)

    def distance(self, x, y):
        d = abs(x - y)
        return d if type(d) is int else as_fraction(d)

    def distance_pair(self, x, y) -> tuple:
        """From the points' own integer ratios, reduced by their gcd, with
        no Fraction built; a point that is neither an ``int`` nor a
        ``Fraction`` takes ``distance``, which refuses a float."""
        tx, ty = type(x), type(y)
        if tx is int and ty is int:
            return (x - y if x > y else y - x), 1
        if tx in _RATIONAL_TYPES and ty in _RATIONAL_TYPES:
            xn, xd = x.as_integer_ratio()
            yn, yd = y.as_integer_ratio()
            num, den = abs(xn * yd - yn * xd), xd * yd
            g = math.gcd(num, den)
            return num // g, den // g
        return super().distance_pair(x, y)


class EuclideanLattice(Metric):
    """Euclidean distance on integer tuples.

    Only distances whose squared value is a perfect square are exact
    rationals; any other pair raises ``ExactnessError``.  In dimension 1
    every distance is exact.
    """

    name = "euclidean_lattice"
    line_compatible = False

    def __init__(self, dim: int):
        if dim < 1:
            raise DomainError("lattice dimension must be positive")
        self.dim = dim
        self.universe = lattice_universe(dim)

    def distance(self, x, y) -> Fraction:
        if len(x) != self.dim or len(y) != self.dim:
            raise DomainError(f"points must be {self.dim}-tuples")
        sq = sum((a - b) * (a - b) for a, b in zip(x, y))
        root = math.isqrt(sq)
        if root * root != sq:
            raise ExactnessError(
                f"distance between {x} and {y} is irrational (squared distance {sq}); "
                "exact certification needs rational distances"
            )
        return root


class MaxUltrametric(Metric):
    """d(x, y) = max(x, y) for distinct points of the positive line.

    Satisfies the strong triangle inequality d(x,z) <= max(d(x,y), d(y,z)).
    """

    name = "max_ultrametric"
    line_compatible = True
    universe = NATURALS
    universe_names = frozenset({"naturals"})

    def distance(self, x, y):
        d = x if x > y else y if y > x else 0  # comparisons cost less than a max call
        return d if type(d) is int else as_fraction(d)


class TableMetric(Metric):
    """Explicit symmetric table of rational distances over fixed points."""

    name = "table"
    line_compatible = False

    def __init__(self, points, matrix):
        pts = list(points)
        if len(set(pts)) != len(pts):
            raise DomainError("table points must be distinct")
        n = len(pts)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise DomainError("distance matrix shape must match the point list")
        vals = [[as_fraction(v) for v in row] for row in matrix]
        for i in range(n):
            if vals[i][i] != 0:
                raise DomainError(f"d(x,x) must be 0, got {vals[i][i]} at {pts[i]}")
            for j in range(i + 1, n):
                if vals[i][j] != vals[j][i]:
                    raise DomainError(f"table not symmetric at ({pts[i]},{pts[j]})")
                if vals[i][j] <= 0:
                    raise DomainError(f"d must be positive off the diagonal at ({pts[i]},{pts[j]})")
        self.points = tuple(pts)
        self.universe = finite_universe(pts)
        self._index = {p: i for i, p in enumerate(pts)}
        self._vals = vals

    def distance(self, x, y) -> Fraction:
        try:
            return self._vals[self._index[x]][self._index[y]]
        except KeyError:
            raise DomainError(f"point outside the table: {x if x not in self._index else y}") from None


# ---------------------------------------------------------------------------
# Space kinds
# ---------------------------------------------------------------------------


class _Kind:
    """One space kind: M as an integer pair, and the one ``order`` that its
    fast paths rest on, checked against brute force in the test suite."""

    name = "kind"
    t_dependent = True
    order = _Unordered()
    metric: Optional[Metric] = None

    def pair(self, x, y, t: Fraction) -> tuple:
        """M(x, y, t) as integers ``(num, den)`` with ``den > 0``: the one
        statement of M, from which every Fraction value is built."""
        raise NotImplementedError

    def matrices(self, pts, t_values) -> dict:
        """``{t: (nums, dens)}``: row x of ``nums`` and ``dens`` holds the
        two integers of ``pair(x, y, t)`` for each y of the points, both
        argument orders evaluated."""
        mats = {}
        for t in t_values:
            rows = [[self.pair(x, y, t) for y in pts] for x in pts]
            mats[t] = ([[p[0] for p in row] for row in rows], [[p[1] for p in row] for row in rows])
        return mats

    def line_combine(self, pts):
        """``add`` when M comes from a metric d that is a path metric along
        the sorted points, ``max`` when d is an ultrametric there, and
        None otherwise: a kind with no metric says None."""
        return None

    def certifies_axioms(self, pts) -> bool:
        """Whether facts checked on the sorted points prove every verdict
        of ``check_axioms`` a pass under a built-in t-norm, without a
        matrix: here, whether ``line_combine`` names a combine."""
        return self.line_combine(pts) is not None


class _StandardKind(_Kind):
    def __init__(self, metric: Metric, name="standard"):
        self.metric = metric
        self.name = name
        self.order = _Radial() if metric.line_compatible else _Unordered()

    def pair(self, x, y, t):
        # t/(t+d) = tn*dd / (tn*dd + dn*td)
        dn, dd = self.metric.distance_pair(x, y)
        tn, td = t.as_integer_ratio()
        a = tn * dd
        return a, a + dn * td

    def matrices(self, pts, t_values):
        """As ``pair``, from one ``distance_pair`` read per ordered pair."""
        dn, dd = [], []
        for x in pts:
            nr, dr = zip(*map(self.metric.distance_pair, repeat(x), pts))
            dn.append(nr)
            dd.append(dr)
        mats = {}
        for t in t_values:
            tn, td = t.numerator, t.denominator
            nums = [list(map(tn.__mul__, row)) for row in dd]
            mats[t] = (nums, [list(map(add, nr, map(td.__mul__, row)))
                              for nr, row in zip(nums, dn)])
        return mats

    def line_combine(self, pts):
        """The combine under which d composes along the sorted points of a
        ``line_compatible`` metric, read one row of distances at a time:
        O(n^2) ``distance`` calls, O(n) memory.

        The gaps g[m] = d(a_(m-1), a_m) must be positive, and each row i
        must have d(a_i, a_i) = 0 and, moving away from i,
        d(a_i, a_k) = combine(d(a_i, a_(k-1)), g[k]) to the right and
        combine(d(a_i, a_(k+1)), g[k+1]) to the left, where combine is
        ``add`` if d(a_0, a_2) = g[1] + g[2] and ``max`` otherwise (also
        when n < 3, where the two agree).  Then d(a_i, a_k) is the sum or
        the largest of the gaps between them, so d is symmetric, positive
        off the diagonal and satisfies the triangle inequality on the
        points, as every gap between a_i and a_k lies between a_i and a_j
        or between a_j and a_k; under ``max`` it is an ultrametric."""
        if not self.metric.line_compatible:
            return None
        distance = self.metric.distance
        gaps = list(map(distance, pts, pts[1:]))  # gaps[m] = g[m + 1]
        if not all(g > 0 for g in gaps):
            return None
        combine = max
        for i, x in enumerate(pts):
            row = list(map(distance, repeat(x), pts))
            if i == 0 and len(pts) > 2 and row[2] == gaps[0] + gaps[1]:
                combine = add
            if not (row[i] == 0
                    and all(map(eq, row[i + 1:], map(combine, row[i:-1], gaps[i:])))
                    and all(map(eq, row[:i], map(combine, row[1:i + 1], gaps[:i])))):
                return None
        return combine


class _ReciprocalKind(_Kind):
    name = "reciprocal_product"
    t_dependent = False
    order = _Prefix()

    def pair(self, x, y, t):
        return (1, 1) if x == y else (1, x * y)


class _RatioKind(_Kind):
    name = "ratio_minmax"
    t_dependent = False
    order = _Radial()

    def pair(self, x, y, t):
        return (1, 1) if x == y else (x, y) if x < y else (y, x)


class _PathologicalKind(_Kind):
    name = "pathological"
    t_dependent = False
    order = _Radial()

    def pair(self, x, y, t):
        if x == y:
            return 1, 1
        if x == 1:
            return 1, y
        if y == 1:
            return 1, x
        return 1, 2


# ---------------------------------------------------------------------------
# The space itself
# ---------------------------------------------------------------------------


class FuzzyMetricSpace:
    """Immutable triple of universe, closeness rule and t-norm."""

    def __init__(self, kind: _Kind, tnorm: TNorm, universe: Universe):
        self._kind = kind
        self.order = kind.order  # the fast paths, as primitives of one order object
        self.tnorm = tnorm
        self.universe = universe

    @property
    def kind_name(self) -> str:
        return self._kind.name

    @property
    def t_dependent(self) -> bool:
        return self._kind.t_dependent

    @property
    def metric(self) -> Optional[Metric]:
        return self._kind.metric

    def describe(self) -> str:
        return f"{self.kind_name}[{self.tnorm.name};{self.universe.name}]"

    def __repr__(self):
        return f"FuzzyMetricSpace({self.describe()})"

    def _check_point(self, p):
        if p not in self.universe:
            raise DomainError(f"point {p!r} is outside the {self.universe.name} universe")

    def _check_points(self, points):
        """Raise ``DomainError`` for the first point outside the universe.

        The integers of a built-in universe that fail it form a prefix
        (those below 1 for the naturals, none for the others), so a
        ``range`` of positive step is checked at its two ends only."""
        if type(points) is range and points.step > 0 and self.universe in UNIVERSES.values():
            points = (points[0], points[-1]) if points else ()
        for p in filterfalse(self.universe._contains, points):
            self._check_point(p)

    def _check_window(self, window: Window):
        """``_check_points`` on the window points, once per window and
        universe: a window remembers the universes that hold it, and a
        range window is checked as a range."""
        if self.universe not in window._checked_in:
            self._check_points(window._seq)
            window._checked_in.add(self.universe)

    def value(self, x, y, t) -> Fraction:
        """M(x, y, t), exactly."""
        ft = as_fraction(t)
        if ft <= 0:
            raise DomainError(f"t must be positive, got {ft}")
        self._check_point(x)
        self._check_point(y)
        return Fraction(*self._kind.pair(x, y, ft))

    def _raw(self, x, y, t) -> Fraction:
        # hot path, arguments already validated
        return Fraction(*self._kind.pair(x, y, t))

    def _pair(self, x, y, t) -> tuple:
        """M as integers ``(num, den)`` with ``den > 0``, so a threshold
        test is one cross-multiplication and no Fraction is built."""
        return self._kind.pair(x, y, t)

    def _threshold(self, pts, level: Fraction, t: Fraction, strict: bool):
        """The one threshold test, over a sequence of points already checked
        against the universe: ``test(x)(k)`` is M(x, pts[k], t) as its
        integer pair when that misses the level, and None when it clears
        it, by one integer cross-multiplication.  A ``strict`` level is
        cleared by M > level, as balls and closeness are; a closed one by
        M >= level, as modulus premises and scale-graph edges are (George
        and Veeramani, 1994).  The orders' ``balls``, ``level``, ``edges``
        and ``run_ends`` all take a test of this shape."""
        pair, ln, ld = self._kind.pair, level.numerator, level.denominator
        below = le if strict else lt  # what misses a strict level, and a closed one

        def test(x):
            def misses(k):
                m = num, den = pair(x, pts[k], t)
                return m if below(num * ld, ln * den) else None
            return misses

        return test

    def balls(self, centers, bound: Fraction, t: Fraction, window: Window):
        """The window runs of each ball {y : M(x, y, t) > bound}, for centres
        x of the universe in increasing order, swept by the kind's order:
        a sparse centre set costs O(log n) tests a centre on a line order.
        A window point outside the universe raises ``DomainError`` before M
        is evaluated."""
        self._check_window(window)
        pts = window.points
        return self.order.balls(pts, centers, self._threshold(pts, bound, t, True))

    def ball_level(self, bound: Fraction, t: Fraction, window: Window):
        """The balls of every window point at one (bound, t), from the
        order's whole-window sweep (at most 4n tests on a radial kind), as
        the order keeps them: item k is the run list of the ball of
        ``window.points[k]``, equal to what ``balls`` yields for it."""
        self._check_window(window)
        pts = window.points
        return self.order.level(pts, self._threshold(pts, bound, t, True))

    def ball_points(self, x, bound: Fraction, t: Fraction, window: Window) -> tuple:
        """Window points y with M(x, y, t) > bound, strictly."""
        return window.points_of(next(self.balls((x,), bound, t, window)))

    def is_ultrametric_on(self, points) -> bool:
        """Whether M is t/(t + d) for a metric d that is an ultrametric on
        the sorted points, certified from d one row at a time (the kind's
        ``line_combine`` is ``max``): O(n^2) ``distance`` reads, O(n)
        memory.  Then, as t/(t + d) falls as d grows,
        min(M(x, y, t), M(y, z, t)) <= M(x, z, t) on every triple of the
        points at every t > 0."""
        return self._kind.line_combine(points) is max

    def with_universe(self, universe: Universe) -> "FuzzyMetricSpace":
        return FuzzyMetricSpace(self._kind, self.tnorm, universe)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def standard_space(metric: Optional[Metric] = None, tnorm: TNorm = PRODUCT,
                   universe: Optional[Universe] = None) -> FuzzyMetricSpace:
    """The space t/(t + d) induced by a metric (default |x - y| on the
    integers), on the metric's universe unless another is given.  A given
    universe must be the metric's own or a built-in one it names in
    ``universe_names``; on any other (``MaxUltrametric`` on the integers)
    t + d can be 0, and ``DomainError`` is raised before any value is."""
    m = metric if metric is not None else EuclideanLine()
    if universe is None:
        universe = m.universe
    elif universe is not m.universe and all(universe is not UNIVERSES[name]
                                            for name in m.universe_names):
        raise DomainError(f"{m.name} is not a metric on the {universe.name} universe")
    return FuzzyMetricSpace(_StandardKind(m), tnorm, universe)


def reciprocal_product_space(tnorm: TNorm = PRODUCT) -> FuzzyMetricSpace:
    return FuzzyMetricSpace(_ReciprocalKind(), tnorm, NATURALS)


def ratio_minmax_space(tnorm: TNorm = PRODUCT) -> FuzzyMetricSpace:
    return FuzzyMetricSpace(_RatioKind(), tnorm, NATURALS)


def pathological_space(tnorm: TNorm = LUKASIEWICZ) -> FuzzyMetricSpace:
    return FuzzyMetricSpace(_PathologicalKind(), tnorm, NATURALS)


def ultrametric_space(tnorm: TNorm = MINIMUM) -> FuzzyMetricSpace:
    return FuzzyMetricSpace(_StandardKind(MaxUltrametric(), name="ultrametric_standard"),
                            tnorm, NATURALS)


def subspace(space: FuzzyMetricSpace, subset) -> FuzzyMetricSpace:
    """Restrict the universe; values agree with the parent on the subset."""
    pts = sorted(set(subset))
    for p in pts:
        if p not in space.universe:
            raise DomainError(f"point {p!r} is outside the parent universe")
    return space.with_universe(finite_universe(pts))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def threshold_split(d_value, params: ScaleParams) -> tuple:
    """Evaluate both sides of the standard-space closeness threshold.

    Returns (fuzzy_side, metric_side) where fuzzy_side is
    t/(t+d) > 1-r and metric_side is d < rt/(1-r).  The two are provably
    equal; the pair is returned so the equality can be tested.
    """
    d = as_fraction(d_value)
    if d < 0:
        raise DomainError(f"distances are non-negative, got {d}")
    fuzzy = params.t / (params.t + d) > params.threshold
    metric = d < params.r * params.t / (1 - params.r)
    return (fuzzy, metric)


def ball(space: FuzzyMetricSpace, x, params: ScaleParams, window: Window) -> tuple:
    """Window points y with M(x, y, t) > 1 - r."""
    space._check_point(x)
    return space.ball_points(x, params.threshold, params.t, window)


def is_bounded(space: FuzzyMetricSpace, subset, params: ScaleParams) -> bool:
    """Whether every pair of the finite subset is strictly above 1 - r at t."""
    pts = sorted(set(subset))
    space._check_points(pts)
    return len(pts) < 2 or (Fraction(*space.order.min_intra(pts, space._pair, params.t)[0])
                            > params.threshold)


def union_bound(space: FuzzyMetricSpace, params_a: ScaleParams, params_b: ScaleParams,
                a, b) -> tuple:
    """Bound parameters for the union of two bounded sets.

    Given sets bounded at (rA, tA) and (rB, tB) with anchor points a, b,
    any cross pair satisfies M(x, y, 2tA + tB) >= (1-rA) * M(a,b,tA) * (1-rB)
    computed with the space's t-norm.  Returns (s, t_out) with
    1 - s equal to that lower bound.  Requires a positivity-preserving
    t-norm; otherwise the bound can collapse to 0 and certifies nothing.
    """
    if space.tnorm.positivity_preserving is not True:
        raise UnsupportedOperationError(
            f"t-norm {space.tnorm.name} is not positivity-preserving; "
            "the union bound degenerates"
        )
    mid = space.value(a, b, params_a.t)
    low = space.tnorm(space.tnorm(1 - params_a.r, mid), 1 - params_b.r)
    return (1 - low, 2 * params_a.t + params_b.t)


# -- axiom certification -----------------------------------------------------


def _value_matrices(space, pts, t_values):
    """``{t: (numerators, denominators)}``: full n x n integer matrices of
    M over the window points, equal entry by entry to ``_pair``, built by
    the space's kind (a standard kind reads each distance once for all
    t); ``_entry`` reads one value as a Fraction."""
    return space._kind.matrices(pts, t_values)


def _entry(mat, i, j) -> Fraction:
    return Fraction(mat[0][i][j], mat[1][i][j])


# Each scanner returns the first (i, j, k) with T(A[i][j], B[k][j]) > C[i][k]
# over the ``(i, k, js)`` that ``pairs`` yields, in that order, j running
# over js, reading the matrices as ``_value_matrices`` entries with
# positive denominators.  ``_every_pair`` gives the full scan, i <= k in
# (i, k, j) order; ``_uncrossed_pairs`` its radial part.


def _every_pair(n):
    js = range(n)
    return ((i, k, js) for i in range(n) for k in range(i, n))


def _uncrossed_pairs(nA, dA, nB, dB, nC, dC):
    """The ``(i, k, range(i, k + 1))``, i <= k in order, whose crossing
    bound does not clear them, on A and B certified radial (``_radial``,
    entries in (0, 1], unit diagonals).

    For i <= j <= k, A[i][j] does not rise and B[k][j] does not fall as j
    moves right, so for any p in [i, k], max(A[i][p], B[k][p - 1]) (the
    second term only when p > i) is at least every min(A[i][j], B[k][j])
    with j in [i, k], and at the crossing p = j*, the first j >= i with
    A[i][j] <= B[k][j] (j* <= k, as B[k][k] = 1), it is the largest.
    When it is at most C[i][k] no j in [i, k] fails, since
    T(a, b) <= min(a, b).

    j* is kept in one pointer per i: every j before it has A > B as long
    as the entry just before it does, since B[k][j] falls as j moves
    left.  On a symmetric B, B[k][j] = B[j][k] falls as k grows, so the
    pointer only moves right and the bounds cost O(n^2); on other rows a
    failed check restarts it at i."""
    n = len(nA)
    for i in range(n):
        nAi, dAi, nCi, dCi = nA[i], dA[i], nC[i], dC[i]
        p = i
        for k in range(i, n):
            nBk, dBk = nB[k], dB[k]
            if p > i and nAi[p - 1] * dBk[p - 1] <= nBk[p - 1] * dAi[p - 1]:
                p = i
            while nAi[p] * dBk[p] > nBk[p] * dAi[p]:
                p += 1
            nc, dc = nCi[k], dCi[k]
            if nAi[p] * dc > nc * dAi[p] or p > i and nBk[p - 1] * dc > nc * dBk[p - 1]:
                yield i, k, range(i, k + 1)


def _scan_product(nA, dA, nB, dB, nC, dC, pairs):
    for i, k, js in pairs:
        nAi, dAi, nBk, dBk = nA[i], dA[i], nB[k], dB[k]
        nc, dc = nC[i][k], dC[i][k]
        for j in js:
            if nAi[j] * nBk[j] * dc > nc * dAi[j] * dBk[j]:
                return i, j, k
    return None


def _scan_min(nA, dA, nB, dB, nC, dC, pairs):
    for i, k, js in pairs:
        nAi, dAi, nBk, dBk = nA[i], dA[i], nB[k], dB[k]
        nc, dc = nC[i][k], dC[i][k]
        for j in js:
            if nAi[j] * dc > nc * dAi[j] and nBk[j] * dc > nc * dBk[j]:
                return i, j, k
    return None


def _scan_lukasiewicz(nA, dA, nB, dB, nC, dC, pairs):
    for i, k, js in pairs:
        nAi, dAi, nBk, dBk = nA[i], dA[i], nB[k], dB[k]
        nc, dc = nC[i][k], dC[i][k]
        if nc < 0:  # T >= 0 > C[i][k]: every j fails
            return i, 0, k
        for j in js:
            da, db = dAi[j], dBk[j]
            lhs_num = nAi[j] * db + nBk[j] * da - da * db
            if lhs_num > 0 and lhs_num * dc > nc * da * db:
                return i, j, k
    return None


_SCANNERS = {"product": _scan_product, "min": _scan_min, "lukasiewicz": _scan_lukasiewicz}


def _first_chain_violation(tnorm: TNorm, mat_a, mat_b, mat_c, radial=False):
    """The first index triple (i, j, k), i <= k, in (i, k, j) order with
    T(A[i][j], B[k][j]) > C[i][k], or None.

    Each matrix is an entry of ``_value_matrices``.  Built-in t-norm
    objects (``builtin_name``) compare by integer cross-multiplication;
    any other rule, a user rule under a built-in name included, is
    evaluated on Fractions built from the entries, over every triple.

    A built-in t-norm skips only triples that a proof shows cannot come
    first, and only when ``radial`` says that A and B are certified:
    entries in (0, 1], unit diagonals, and rows non-increasing moving away
    from the diagonal (``_radial``).  As T(a, b) <= min(a, b) and
    T(a, 1) = a, a middle point j > k gives at most A[i][j] <= A[i][k],
    the value of the triple j = k, and j < i at most B[k][j] <= B[k][i],
    the value of the triple j = i.  So only j in [i, k] is scanned, and
    only on the pairs (i, k) that the crossing bound of ``_uncrossed_pairs``
    does not clear, O(n^2) bounds on symmetric matrices; when the triple
    j = i fails, the j <= i that fails first is looked up again from 0.
    Under min the bound is exact, so every pair scanned fails.  Any other
    matrices get the full scan of ``_every_pair``, cubic under every
    t-norm.
    """
    scanner = _SCANNERS.get(builtin_name(tnorm))
    if scanner is not None:
        pairs = _uncrossed_pairs(*mat_a, *mat_b, *mat_c) if radial else _every_pair(len(mat_a[0]))
        found = scanner(*mat_a, *mat_b, *mat_c, pairs)
        if radial and found and found[0] == found[1]:
            i, _, k = found
            c = _entry(mat_c, i, k)
            found = next((i, j, k) for j in range(i + 1)
                         if tnorm.rule(_entry(mat_a, i, j), _entry(mat_b, k, j)) > c)
        return found
    vA, vB = ([[Fraction(p, q) for p, q in zip(nr, dr)] for nr, dr in zip(*mat)]
              for mat in (mat_a, mat_b))
    n, rule = len(vA), tnorm.rule
    for i in range(n):
        rowA = vA[i]
        for k in range(i, n):
            rowB, c = vB[k], _entry(mat_c, i, k)
            for j in range(n):
                if rule(rowA[j], rowB[j]) > c:
                    return i, j, k
    return None


def _radial(mat) -> bool:
    """Whether every row of one ``_value_matrices`` entry, read with
    positive denominators, is non-increasing moving away from the
    diagonal: 2(n - 1) cross-multiplications per row."""
    nums, dens = mat
    for i, (nr, dr) in enumerate(zip(nums, dens)):
        rise = list(map(mul, nr[1:], dr))  # M[j] >= M[j - 1] iff rise >= fall at j - 1
        fall = list(map(mul, nr, dr[1:]))
        if not (all(map(le, fall[:i], rise[:i])) and all(map(le, rise[i:], fall[i:]))):
            return False
    return True


def _first_bad_pair(keys, n, row_ok, diagonal=False):
    """The first ``(key, i, j)`` at which ``row_ok(key, i, start)``, one
    bool per j from start = i (with ``diagonal``) or i + 1, is false,
    scanning keys, then i, then j; or None.  A row is tested by ``map``
    over the matrix rows, and j is looked up only in a row that fails."""
    for key in keys:
        for i in range(n):
            start = i if diagonal else i + 1
            if not all(row_ok(key, i, start)):
                return key, i, start + list(row_ok(key, i, start)).index(False)
    return None


def check_axioms(space: FuzzyMetricSpace, window: Window, t_grid) -> CertReport:
    """Certify the space axioms exactly over a window and a grid of times.

    Checked over all window pairs/triples and all (t, s) from the grid:
    positivity and range of M, the identity-of-indiscernibles in both
    directions, symmetry, and the chain inequality
    M(x,y,t) * M(y,z,s) <= M(x,z,t+s).  Monotonicity of M in t can only
    be sampled on the grid, and continuity in t not at all; both carry
    NOTE lines saying so.

    Under a built-in t-norm, a kind whose ``certifies_axioms`` holds on
    the window passes every verdict with no matrix built: a standard kind
    whose d is a path metric or an ultrametric along the window, read one
    row of distances at a time.  For t > 0, t/(t + d) is in (0, 1],
    equals 1 exactly where d = 0, is symmetric with d and does not fall
    as t grows, since d >= 0.  The chain holds under min, and so under
    every built-in t-norm, each being at most min: if
    t/(t + a) <= s/(s + b), that is tb <= sa, then
    t(t + s + a + b) <= (t + s)(t + a), so
    t/(t + a) <= (t + s)/(t + s + a + b) <= (t + s)/(t + s + c) whenever
    c <= a + b (George and Veeramani, 1994).  The PASS lines are those of
    the matrix check, whose ``triples=`` and ``time_pairs=`` depend on the
    window size and the grid alone.

    Every other window, and a certificate that fails, gets the matrix
    check of ``_axioms_on_matrices``, which names the first failure.
    """
    pts = window.points
    if not pts:
        raise DomainError("window must be non-empty")
    t_list = sorted({as_fraction(t) for t in t_grid})
    if not t_list:
        raise DomainError("t grid must be non-empty")
    if t_list[0] <= 0:
        raise DomainError("t grid values must be positive")
    space._check_window(window)

    rep = CertReport(
        "space-axioms",
        space=space.describe(),
        window=window.label(),
        t_grid="{" + ",".join(fmt_value(t) for t in t_list) + "}",
    )
    rep.add_note(
        "tnorm-positivity",
        tnorm=space.tnorm.name,
        positivity_preserving=is_positivity_preserving(space.tnorm),
    )
    if builtin_name(space.tnorm) and space._kind.certifies_axioms(pts):
        n = len(pts)
        rep.add_pass("range", witness=None, t=None, value=None)
        rep.add_pass("identity-of-indiscernibles", witness=None, t=None)
        rep.add_pass("symmetry", witness=None, t=None)
        rep.add_pass("chain-inequality", triples=n * n * (n + 1) // 2,
                     time_pairs=len(t_list) ** 2)
        rep.add_pass("monotone-in-t", witness=None, t_low=None, t_high=None)
    else:
        _axioms_on_matrices(space, pts, t_list, rep)
    rep.add_note("monotone-in-t", status="sampled-only", grid_points=len(t_list))
    rep.add_note("continuity-in-t", status="sampled-only")
    return rep


def _axioms_on_matrices(space, pts, t_list, rep) -> None:
    """Add the range, identity, symmetry, chain and monotonicity verdicts
    of ``check_axioms`` to ``rep``, each naming its first failure, from the
    matrices of ``_value_matrices``, one per grid time and sum, over the
    window points and the sorted grid times.

    The chain scan skips only the triples that ``_first_chain_violation``
    proves cannot come first.  On a window certified radial here that is
    every pair (i, k) but those its crossing bound leaves, so the chain
    costs O(n^2) bounds per (t, s) for every built-in t-norm on symmetric
    matrices, plus a scan of [i, k] for each pair left; under min none is
    left on a pass.  On any other window every t-norm scans every
    triple."""
    sums = sorted({t + s for t in t_list for s in t_list})
    mats = _value_matrices(space, pts, sorted(set(t_list) | set(sums)))
    # Matrices that compare equal share one object, so that each chain
    # scan below runs once per distinct (A, B, C) triple of objects.
    distinct = []
    for t, mat in mats.items():
        mats[t] = next((d for d in distinct if d == mat), mat)
        if mats[t] is mat:
            distinct.append(mat)
    n = len(pts)

    # Every value is num/den with den > 0, so each comparison below is one
    # integer cross-multiplication.  The scans below index times by their
    # position k in t_list: hashing a Fraction t per pair costs more than
    # the comparison.  Each row test reads row i from column j on.
    nums = [mats[t][0] for t in t_list]
    dens = [mats[t][1] for t in t_list]

    def pair_at(bad):
        return fmt_pair((pts[bad[1]], pts[bad[2]])) if bad else None

    def t_at(bad):
        return t_list[bad[0]] if bad else None

    # (1) range: 0 < M <= 1
    bad = _first_bad_pair(range(len(t_list)), n, lambda k, i, j: map(
        and_, map((0).__lt__, nums[k][i][j:]), map(le, nums[k][i][j:], dens[k][i][j:])),
        diagonal=True)
    rep.add_verdict(bad is None, "range", witness=pair_at(bad), t=t_at(bad),
                    value=_entry(mats[t_at(bad)], *bad[1:]) if bad else None)
    in_range = bad is None

    # (2) M = 1 exactly on the diagonal
    bad = _first_bad_pair(range(len(t_list)), n, lambda k, i, j: chain(
        (nums[k][i][j] == dens[k][i][j],), map(ne, nums[k][i][j + 1:], dens[k][i][j + 1:])),
        diagonal=True)
    rep.add_verdict(bad is None, "identity-of-indiscernibles", witness=pair_at(bad), t=t_at(bad))
    # the radial fact that prunes the chain scan, certified on the grid
    radial = in_range and bad is None and all(_radial(mats[t]) for t in t_list)

    # (3) symmetry: the full matrices hold both argument orders; row i
    # against column i
    bad = _first_bad_pair(range(len(t_list)), n, lambda k, i, j: map(
        eq, map(mul, nums[k][i][j:], map(itemgetter(i), dens[k][j:])),
        map(mul, map(itemgetter(i), nums[k][j:]), dens[k][i][j:])))
    rep.add_verdict(bad is None, "symmetry", witness=pair_at(bad), t=t_at(bad))

    # (4) chain inequality over all triples and (t, s) pairs.  The scan
    # iterates x <= z only; swapping (x, z) and (t, s) together covers the
    # rest by symmetry of M and commutativity of the t-norm.  The report
    # names the first violation in scan order, so the scan stops there.
    # A triple of matrix objects is scanned once.
    found_in = {}

    def scan(t, s):
        key = (id(mats[t]), id(mats[s]), id(mats[t + s]))
        if key not in found_in:
            found_in[key] = _first_chain_violation(
                space.tnorm, mats[t], mats[s], mats[t + s], radial)
        return found_in[key]

    scans = ((t, s, scan(t, s)) for t in t_list for s in t_list)
    first = next(((t, s, found) for t, s, found in scans if found), None)
    if first:
        t, s, (i, j, k) = first
        lhs = space.tnorm.rule(_entry(mats[t], i, j), _entry(mats[s], j, k))
        rep.add_fail("chain-inequality",
                     witness=f"{fmt_value(pts[i])}~{fmt_value(pts[j])}~{fmt_value(pts[k])}",
                     t=t, s=s, lhs=lhs, rhs=_entry(mats[t + s], i, k))
    else:
        rep.add_pass("chain-inequality", triples=n * n * (n + 1) // 2,
                     time_pairs=len(t_list) ** 2)

    # monotonicity in t, on the sampled grid only
    bad = _first_bad_pair(range(len(t_list) - 1), n, lambda k, i, j: map(
        le, map(mul, nums[k][i][j:], dens[k + 1][i][j:]),
        map(mul, nums[k + 1][i][j:], dens[k][i][j:])))
    rep.add_verdict(bad is None, "monotone-in-t", witness=pair_at(bad), t_low=t_at(bad),
                    t_high=t_list[bad[0] + 1] if bad else None)


# -- threshold bridge suite ---------------------------------------------------


def threshold_bridge_suite(seed: int = 0, cases: int = 1000) -> CertReport:
    """Randomized agreement suite for the two threshold formulations.

    Draws seeded rational triples (d, r, t), checks that the fuzzy side
    t/(t+d) > 1-r and the metric side d < rt/(1-r) agree exactly, and
    forces exact boundary cases d = rt/(1-r), which must come out
    (false, false) under strictness.
    """
    rng = random.Random(seed)
    rep = CertReport("threshold-bridge", seed=seed, cases=cases)
    disagreements = 0
    first = None
    boundary_bad = None
    for k in range(cases):
        r = Fraction(rng.randint(1, 199), 200)
        t = Fraction(rng.randint(1, 400), rng.randint(1, 20))
        params = ScaleParams(r, t)
        if k % 10 == 0:
            d = params.r * params.t / (1 - params.r)
            got = threshold_split(d, params)
            if got != (False, False):
                boundary_bad = (d, r, t, got)
        else:
            d = Fraction(rng.randint(0, 400), rng.randint(1, 20))
            fuzzy, metric = threshold_split(d, params)
            if fuzzy != metric:
                disagreements += 1
                if first is None:
                    first = (d, r, t)
    rep.add_verdict(disagreements == 0, "agreement", cases=cases,
                    disagreements=disagreements,
                    witness=f"d={fmt_value(first[0])},r={fmt_value(first[1])},t={fmt_value(first[2])}" if first else None)
    rep.add_verdict(boundary_bad is None, "boundary-strictness",
                    witness=None if boundary_bad is None else
                    f"d={fmt_value(boundary_bad[0])},got={boundary_bad[3]}")
    return rep
