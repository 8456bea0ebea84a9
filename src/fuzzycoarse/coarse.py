"""Coarse maps between fuzzy metric spaces.

The large-scale map vocabulary at desk scale: a map carries finite
tables of expansiveness and properness modulus entries, an optional
onto scale, and a point rule.  The universally quantified definitions
("for all A, t there exist B, t'") are not finitely checkable, so each
check verifies exactly the supplied entries over the supplied window
and every report says so in a NOTE line.

Witness transport re-derives the scales it needs from the moduli, calls
back for a source witness at those scales, fattens the image families
at the onto scale, and re-verifies the result on the target window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional

from .asdim import DimensionWitness, verify_witness
from .covers import Family, _fattened_bound, scale_neighborhood
from .errors import (
    CertificationError,
    DerivationError,
    DomainError,
    PreconditionError,
)
from .rationals import as_fraction
from .report import CertReport, fmt_pair, fmt_value
from .space import FuzzyMetricSpace, ScaleParams, Window, _gallop

EPS_GRID = 256  # granularity of the exact scan used in transport derivation


@dataclass(frozen=True)
class ModulusEntry:
    """One row of a modulus table: level_in at t_in implies level_out at t_out."""

    level_in: Fraction
    t_in: Fraction
    level_out: Fraction
    t_out: Fraction

    def __post_init__(self):
        object.__setattr__(self, "level_in", as_fraction(self.level_in))
        object.__setattr__(self, "t_in", as_fraction(self.t_in))
        object.__setattr__(self, "level_out", as_fraction(self.level_out))
        object.__setattr__(self, "t_out", as_fraction(self.t_out))
        if not (0 < self.level_in <= 1) or not (0 <= self.level_out <= 1):
            raise DomainError("modulus levels must lie in (0,1] / [0,1]")
        if self.t_in <= 0 or self.t_out <= 0:
            raise DomainError("modulus times must be positive")

    def describe(self) -> str:
        return (f"({fmt_value(self.level_in)}@{fmt_value(self.t_in)})->"
                f"({fmt_value(self.level_out)}@{fmt_value(self.t_out)})")


@dataclass(frozen=True)
class CoarseMap:
    """A point mapping with its moduli tables and onto scale."""

    rule: str
    fn: Callable = field(compare=False)
    domain: Optional[Window] = None
    expansive: tuple = ()
    proper: tuple = ()
    onto_params: Optional[ScaleParams] = None

    def apply(self, x):
        return self.fn(x)

    def image(self, window: Window) -> tuple:
        return tuple(sorted({self.fn(x) for x in window}))

    def describe(self) -> str:
        return self.rule


def identity_map(**kwargs) -> CoarseMap:
    return CoarseMap("identity", lambda x: x, **kwargs)


def inclusion_map(**kwargs) -> CoarseMap:
    return CoarseMap("inclusion", lambda x: x, **kwargs)


def affine_map(a, b, **kwargs) -> CoarseMap:
    fa, fb = as_fraction(a), as_fraction(b)

    def fn(x):
        v = fa * x + fb
        return int(v) if v.denominator == 1 else v

    return CoarseMap(f"affine {fmt_value(fa)},{fmt_value(fb)}", fn, **kwargs)


def table_map(table: dict, **kwargs) -> CoarseMap:
    frozen = dict(table)

    def fn(x):
        try:
            return frozen[x]
        except KeyError:
            raise DomainError(f"map table has no entry for {x!r}") from None

    kwargs.setdefault("domain", Window(frozen))
    return CoarseMap("table", fn, **kwargs)


@dataclass(frozen=True)
class ClosenessCert:
    """Scale at which two maps were certified pointwise close."""

    params: ScaleParams


def _finite_table_note(rep: CertReport):
    rep.add_note("moduli", statement="finite-table-only; entries checked verbatim")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _check_modulus(title: str, predicate: str, entries, space_x: FuzzyMetricSpace,
                   space_y: FuzzyMetricSpace, f: CoarseMap, window_x: Window,
                   proper: bool) -> CertReport:
    """One verdict per entry (level_in @ t_in) -> (level_out @ t_out) over
    the window pairs x <= y, naming the first bad pair in (x, y) order.

    The input side of a pair is (x, y) in ``space_x`` and the output side
    (f(x), f(y)) in ``space_y``; ``proper`` swaps the two sides.  Every
    point is checked against its universe once, before the scan.  Both
    sides are tested against their closed levels by the space's one
    threshold test (``FuzzyMetricSpace._threshold``), which hands back the
    integer pair of a failing output; only a reported value is built as a
    Fraction.

    When each side's order says M does not grow along the rows of its
    points (``rows_fall_on``; images are checked, not read from the map's
    rule), the pairs of row i meeting the closed premise form a run [i, b)
    whose end the input order gives (``run_ends``), with the failing pairs
    a suffix: row i tests b - 1 and, if that fails, gallops to the first,
    whose value is read once more.  Otherwise every pair is tested.
    """
    rep = CertReport(title, map=f.describe(), window=window_x.label())
    pts = window_x.points
    images = [f.apply(x) for x in pts]
    space_x._check_window(window_x)
    space_y._check_points(images)
    sides = [(space_x, pts), (space_y, images)]
    (space_in, pts_in), (space_out, pts_out) = sides[::-1] if proper else sides
    runs = space_in.order.rows_fall_on(pts_in) and space_out.order.rows_fall_on(pts_out)
    n = len(pts)

    def first_bad(entry):
        test_in = space_in._threshold(pts_in, entry.level_in, entry.t_in, False)
        test_out = space_out._threshold(pts_out, entry.level_out, entry.t_out, False)
        if runs:
            for i, b in enumerate(space_in.order.run_ends(pts_in, test_in)):
                misses = test_out(pts_out[i])
                if b - 1 > i and misses(b - 1):
                    j = _gallop(misses, i + 1, b - 1)
                    return (pts[i], pts[j]), Fraction(*misses(j))
            return None
        for i in range(n):
            premise_misses, misses = test_in(pts_in[i]), test_out(pts_out[i])
            for j in range(i, n):
                if not premise_misses(j) and (m := misses(j)):
                    return (pts[i], pts[j]), Fraction(*m)
        return None

    for entry in entries:
        bad = first_bad(entry)
        rep.add_verdict(bad is None, predicate, entry=entry.describe(),
                        witness=fmt_pair(bad[0]) if bad else None,
                        value=bad[1] if bad else None)
    _finite_table_note(rep)
    return rep


def check_uniformly_expansive(space_x: FuzzyMetricSpace, space_y: FuzzyMetricSpace,
                              f: CoarseMap, window_x: Window) -> CertReport:
    """Verify every expansiveness entry over every window pair.

    Entry (A, t) -> (B, t'): whenever M1(x, y, t) >= A, it must hold
    that M2(f(x), f(y), t') >= B.
    """
    if not f.expansive:
        raise PreconditionError("expansiveness modulus table is empty")
    return _check_modulus("uniformly-expansive", "expansive-entry", f.expansive,
                          space_x, space_y, f, window_x, False)


def check_effectively_proper(space_x: FuzzyMetricSpace, space_y: FuzzyMetricSpace,
                             f: CoarseMap, window_x: Window) -> CertReport:
    """Verify every properness entry over every window pair.

    Entry (C, t) -> (D, t'): whenever M2(f(x), f(y), t) >= C, it must
    hold that M1(x, y, t') >= D.
    """
    if not f.proper:
        raise PreconditionError("properness modulus table is empty")
    return _check_modulus("effectively-proper", "proper-entry", f.proper,
                          space_x, space_y, f, window_x, True)


def check_coarsely_onto(space_y: FuzzyMetricSpace, f: CoarseMap,
                        params: ScaleParams, window_y: Window) -> CertReport:
    """Every target window point strictly within 1 - r of the image at t.
    ``scale_neighborhood`` sweeps the balls of the sorted image, and the
    first window point outside them is the witness."""
    if f.domain is None:
        raise PreconditionError("map needs a domain window to enumerate its image")
    rep = CertReport("coarsely-onto", map=f.describe(), window=window_y.label(),
                     r=params.r, t=params.t)
    img = f.image(f.domain)
    space_y._check_points(img)
    space_y._check_window(window_y)
    covered = set(scale_neighborhood(space_y, img, params, window_y))
    bad = next((y for y in window_y if y not in covered), None)
    rep.add_verdict(bad is None, "onto", image_size=len(img), witness=bad)
    _finite_table_note(rep)
    return rep


def check_close(space_y: FuzzyMetricSpace, f: CoarseMap, g: CoarseMap,
                params: ScaleParams, window_x: Window) -> CertReport:
    """Pointwise strict closeness of two maps over a window, naming the
    first point in window order where it fails."""
    rep = CertReport("close", f=f.describe(), g=g.describe(),
                     window=window_x.label(), r=params.r, t=params.t)
    images = [(f.apply(x), g.apply(x)) for x in window_x]
    space_y._check_points(chain.from_iterable(images))
    test = space_y._threshold([gx for _, gx in images], params.threshold, params.t, True)
    bad = next(((x, Fraction(*m)) for k, (x, (fx, _)) in enumerate(zip(window_x, images))
                if (m := test(fx)(k))), None)
    rep.add_verdict(bad is None, "pointwise", witness=bad[0] if bad else None,
                    value=bad[1] if bad else None)
    return rep


# ---------------------------------------------------------------------------
# Composition arithmetic and inverses
# ---------------------------------------------------------------------------


def compose_closeness(space_z: FuzzyMetricSpace, cert_fg: ClosenessCert,
                      cert_gg: ClosenessCert, g_entry: ModulusEntry) -> ClosenessCert:
    """Closeness certificate for composed maps from the two input certs.

    Given f ~ f' at (r, t), g ~ g' at (r', t'), and an expansiveness
    entry of g' applicable at level 1 - r and time t with output
    (B, t''), the compositions satisfy
    M3(g f x, g' f' x, t' + t'') >= (1 - r') * B with the target
    t-norm; the returned certificate has 1 - s equal to that value.
    """
    if g_entry.t_in != cert_fg.params.t:
        raise DerivationError(
            f"expansiveness entry is at t={fmt_value(g_entry.t_in)}, "
            f"but the first closeness certificate is at t={fmt_value(cert_fg.params.t)}"
        )
    if g_entry.level_in > cert_fg.params.threshold:
        raise DerivationError(
            f"entry needs level >= {fmt_value(g_entry.level_in)}, but closeness "
            f"only guarantees > {fmt_value(cert_fg.params.threshold)}"
        )
    if g_entry.level_out == 0:
        raise CertificationError("entry output level 0 certifies nothing")
    level = space_z.tnorm(cert_gg.params.threshold, g_entry.level_out)
    if level <= 0:
        raise CertificationError(
            f"composed level collapsed to 0 under t-norm {space_z.tnorm.name}"
        )
    return ClosenessCert(ScaleParams(1 - level, cert_gg.params.t + g_entry.t_out))


def compose_maps(f: CoarseMap, g: CoarseMap, window: Window) -> CoarseMap:
    """g after f, tabulated over a window."""
    return table_map({x: g.apply(f.apply(x)) for x in window}, domain=window)


def coarse_inverse(space_x: FuzzyMetricSpace, space_y: FuzzyMetricSpace,
                   f: CoarseMap, params: ScaleParams, window_y: Window,
                   window_x: Window):
    """Construct the canonical coarse inverse over finite windows.

    g(y) is the smallest x in the source window whose image lands
    strictly within 1 - r of y at t; the onto property at (r, t) is the
    checked precondition.  The balls of the distinct images come from one
    sweep over them in increasing order (window runs, galloped where the
    kind's order allows).  The source window is then walked in order, and
    each x is given to the points of its image's ball that have no
    preimage yet; a repeated image adds nothing and is skipped.  The
    composite f(g(y)) is close to the identity at (r, t) by construction
    and is re-verified; closeness of g(f(x)) to the identity comes through
    a properness entry applicable at (1 - r, t), at the halved output
    level for strictness.
    """
    b, t = params.threshold, params.t
    images = [f.apply(x) for x in window_x]
    space_y._check_window(window_y)
    space_y._check_points(images)
    ys = window_y.points
    chosen = [None] * len(ys)
    # free[k] leads, through later indices, to the first index >= k with no
    # preimage yet (len(ys) when there is none); paths are compressed.
    free = list(range(len(ys) + 1))

    def first_free(k):
        path = []
        while free[k] != k:
            path.append(k)
            k = free[k]
        for p in path:
            free[p] = k
        return k

    centres = sorted(set(images))
    ball_of = dict(zip(centres, space_y.balls(centres, b, t, window_y)))
    for x, fx in zip(window_x, images):
        for i, j in ball_of.pop(fx, ()):
            k = first_free(i)
            while k < j:
                chosen[k] = x
                free[k] = k + 1
                k = first_free(k + 1)
        if first_free(0) == len(ys):
            break
    k = first_free(0)
    if k < len(ys):
        raise PreconditionError(
            f"map is not coarsely onto at r={fmt_value(params.r)}, "
            f"t={fmt_value(t)}: no preimage candidate for {fmt_value(ys[k])}"
        )
    g = table_map(dict(zip(ys, chosen)), domain=window_y)

    rep = CertReport("coarse-inverse", map=f.describe(), r=params.r, t=params.t,
                     window_y=window_y.label(), window_x=window_x.label())
    fg = compose_maps(g, f, window_y)  # y -> f(g(y))
    rep.absorb(check_close(space_y, fg, identity_map(), params, window_y))

    entry = next(
        (e for e in f.proper if e.t_in == t and e.level_in <= b and e.level_out > 0),
        None,
    )
    if entry is None:
        raise DerivationError(
            f"no properness entry applicable at level <= {fmt_value(b)} and "
            f"t={fmt_value(t)}; cannot derive closeness of the reverse composite"
        )
    derived = ScaleParams(1 - entry.level_out / 2, entry.t_out)
    gf = compose_maps(f, g, window_x)  # x -> g(f(x))
    rep.absorb(check_close(space_x, gf, identity_map(), derived, window_x))
    rep.add_note("reverse-composite-scale", r=derived.r, t=derived.t,
                 via_entry=entry.describe())
    return g, rep


# ---------------------------------------------------------------------------
# Witness transport
# ---------------------------------------------------------------------------


def _separation_scan(space_y: FuzzyMetricSpace, onto: ScaleParams,
                     target: ScaleParams):
    """Exact chain s -> (1-r1) * s * (1-r1) on the uniform grid k/EPS_GRID.

    Returns (s_star, epsilon): the largest grid level strictly below the
    target threshold and the chain value there.  Image pairs kept at or
    below epsilon force fattened cross pairs strictly below s_star.
    Refuses degenerate scans: a chain equal at the grid ends 0 and 1 is
    constant on the grid, as t-norms are monotone, and separates nothing.
    The threshold 1 - r lies in (0, 1), so s_star is a level in [0, 1).
    """
    lvl = onto.threshold

    def chain(s):
        return space_y.tnorm(space_y.tnorm(lvl, s), lvl)

    if chain(Fraction(0)) == chain(Fraction(1)):
        raise DerivationError(
            "separation scan is constant on the grid; the chain cannot "
            "distinguish levels under this t-norm"
        )
    s_star = Fraction(math.ceil(EPS_GRID * target.threshold) - 1, EPS_GRID)
    epsilon = chain(s_star)
    if epsilon <= 0:
        raise DerivationError(
            f"chain value at level {fmt_value(s_star)} is 0; no properness "
            "entry can sit below it"
        )
    return s_star, epsilon


def transport_witness(space_x: FuzzyMetricSpace, space_y: FuzzyMetricSpace,
                      f: CoarseMap, witness: Optional[DimensionWitness],
                      target_params: ScaleParams, window_y: Window,
                      witness_factory=None):
    """Carry a dimension witness through a coarse equivalence.

    Derivation, all recorded in the report: the onto scale (r1, t1)
    fattens image families; an exact scan picks the level s* and chain
    value epsilon; a properness entry at time 2*t1 + t with input level
    at most epsilon dictates the source scale (R, T) = (1 - D, t2); an
    expansiveness entry applicable at the source bound scale gives the
    image bound.  The source witness must be at (R, T) (the factory is
    called when supplied); source and derived target witness are both
    re-verified.
    """
    if f.onto_params is None:
        raise DerivationError("map carries no onto scale (r1, t1)")
    r1t1 = f.onto_params
    rep = CertReport("transport", map=f.describe(), target_r=target_params.r,
                     target_t=target_params.t, window=window_y.label())
    rep.absorb(check_coarsely_onto(space_y, f, r1t1, window_y))
    if not rep.passed:
        raise PreconditionError("map is not coarsely onto at its stated scale")

    s_star, epsilon = _separation_scan(space_y, r1t1, target_params)
    rep.add_note("separation-scan", s_star=s_star, epsilon=epsilon,
                 granularity=f"1/{EPS_GRID}")

    t_need = 2 * r1t1.t + target_params.t
    entry = next(
        (e for e in f.proper
         if e.t_in == t_need and e.level_in <= epsilon and 0 < e.level_out < 1),
        None,
    )
    if entry is None:
        raise DerivationError(
            f"missing properness entry: need t_in={fmt_value(t_need)} and "
            f"level_in <= {fmt_value(epsilon)} with output level in (0,1)"
        )
    source = ScaleParams(1 - entry.level_out, entry.t_out)
    rep.add_note("derived-source-scale", r=source.r, t=source.t,
                 via_entry=entry.describe())

    if witness is None or (witness.params.r, witness.params.t) != (source.r, source.t):
        if witness_factory is None:
            raise DerivationError(
                f"source witness must be at r={fmt_value(source.r)}, "
                f"t={fmt_value(source.t)}; supply one or a witness factory"
            )
        witness = witness_factory(source)
    if (witness.params.r, witness.params.t) != (source.r, source.t):
        raise DerivationError("witness factory returned a witness at the wrong scale")

    window_x = witness.window
    src_rep = verify_witness(space_x, witness)
    rep.add_verdict(src_rep.passed, "source-witness-verified",
                    r=source.r, t=source.t, window=window_x.label())
    if not src_rep.passed:
        raise PreconditionError(
            f"source witness fails verification: {src_rep.failures()[0].line()}"
        )
    rep.absorb(check_effectively_proper(space_x, space_y, f, window_x))
    rep.absorb(check_uniformly_expansive(space_x, space_y, f, window_x))
    if not rep.passed:
        raise PreconditionError("map moduli fail verification on the source window")

    bnd = witness.bound_params
    exp_entry = next(
        (e for e in f.expansive
         if e.t_in == bnd.t and e.level_in <= bnd.threshold and e.level_out > 0),
        None,
    )
    if exp_entry is None:
        raise DerivationError(
            f"missing expansiveness entry: need t_in={fmt_value(bnd.t)} and "
            f"level_in <= {fmt_value(bnd.threshold)} with positive output"
        )
    image_bound = ScaleParams(1 - exp_entry.level_out / 2, exp_entry.t_out)
    level, t_out = _fattened_bound(space_y, r1t1, image_bound)
    if level <= 0:
        raise DerivationError("fattened bound level collapsed to 0")
    out_bound = ScaleParams(1 - level / 2, t_out)
    rep.add_note("derived-target-bound", r=out_bound.r, t=out_bound.t,
                 via_entry=exp_entry.describe())

    fat_families = tuple(
        Family.of(
            [scale_neighborhood(space_y, {f.apply(p) for p in s},
                                r1t1, window_y)
             for s in fam.sets],
            f"N(f({fam.label}))" if fam.label else "N(f)",
        )
        for fam in witness.families
    )
    out = DimensionWitness(witness.n, target_params, out_bound, fat_families, window_y)
    out_rep = verify_witness(space_y, out)
    rep.add_verdict(out_rep.passed, "target-witness-verified",
                    r=target_params.r, t=target_params.t)
    rep.absorb(out_rep)
    return out, rep
