"""Continuous t-norms with exact rational evaluation.

A t-norm is an associative, commutative, monotone binary operation on
[0, 1] with identity 1.  The three classical ones are built in: product
a*b, minimum min(a, b), and the Lukasiewicz norm max(0, a + b - 1).
Continuity itself is not checkable from samples and is out of scope; the
built-in norms are continuous by their closed forms.

Positivity preservation (a*b != 0 whenever a, b != 0) is the property
that makes finite unions of bounded sets bounded; it holds for product
and minimum and fails for Lukasiewicz.  The built-in flags are trusted
at run time; tests/test_tnorm.py cross-checks each one against the grid
search of ``positivity_counterexample``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Optional

from .errors import DomainError
from .rationals import as_fraction
from .report import CertReport

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class TNorm:
    """A named t-norm with an exact evaluation rule.

    ``positivity_preserving`` is the analytic fact for the built-in
    kinds; ``None`` means unknown (user-supplied rule), in which case
    only grid evidence is available.
    """

    name: str
    rule: Callable[[Fraction, Fraction], Fraction] = field(compare=False)
    positivity_preserving: Optional[bool] = None

    def __call__(self, a, b) -> Fraction:
        return tnorm_eval(self, a, b)


def _product(a: Fraction, b: Fraction) -> Fraction:
    return a * b


def _minimum(a: Fraction, b: Fraction) -> Fraction:
    return a if a <= b else b


def _lukasiewicz(a: Fraction, b: Fraction) -> Fraction:
    c = a + b - 1
    return c if c > 0 else ZERO


PRODUCT = TNorm("product", _product, True)
MINIMUM = TNorm("min", _minimum, True)
LUKASIEWICZ = TNorm("lukasiewicz", _lukasiewicz, False)

BUILTIN_TNORMS = {t.name: t for t in (PRODUCT, MINIMUM, LUKASIEWICZ)}


def builtin_name(tnorm: TNorm) -> Optional[str]:
    """The name of a built-in t-norm object, or None for any other one.

    ``TNorm`` equality ignores the rule, so a user rule under a built-in
    name compares equal to the built-in; only the object itself may take
    a built-in's proofs and integer scans."""
    return tnorm.name if BUILTIN_TNORMS.get(tnorm.name) is tnorm else None


def tnorm_from_name(name: str) -> TNorm:
    try:
        return BUILTIN_TNORMS[name]
    except KeyError:
        raise DomainError(
            f"unknown t-norm tag {name!r}; expected one of {sorted(BUILTIN_TNORMS)}"
        ) from None


def tnorm_eval(tnorm: TNorm, a, b) -> Fraction:
    """Evaluate the t-norm on two exact rationals in [0, 1]."""
    fa, fb = as_fraction(a), as_fraction(b)
    if not (ZERO <= fa <= ONE) or not (ZERO <= fb <= ONE):
        raise DomainError(f"t-norm arguments must lie in [0,1], got {fa}, {fb}")
    return tnorm.rule(fa, fb)


def check_tnorm_axioms(tnorm: TNorm, grid) -> CertReport:
    """Certify the t-norm axioms exactly over a finite grid.

    The grid must contain 0 and 1.  Associativity runs over all grid
    triples, monotonicity over all comparable argument pairs; every
    comparison is exact, no tolerance anywhere.
    """
    pts = sorted({as_fraction(g) for g in grid})
    if not pts:
        raise DomainError("grid must be non-empty")
    if pts[0] != 0 or pts[-1] != 1:
        raise DomainError("grid must contain 0 and 1")
    if any(p < 0 or p > 1 for p in pts):
        raise DomainError("grid points must lie in [0,1]")

    rep = CertReport("tnorm-axioms", tnorm=tnorm.name, grid_size=len(pts))
    ev = tnorm.rule

    bad = next((a for a in pts if ev(a, ONE) != a), None)
    rep.add_verdict(bad is None, "identity", witness=bad)

    bad = next((a for a in pts if ev(a, ZERO) != 0), None)
    rep.add_verdict(bad is None, "annihilator", witness=bad)

    comm = next(((a, b) for a, b in combinations_with_replacement(pts, 2) if ev(a, b) != ev(b, a)), None)
    rep.add_verdict(comm is None, "commutative", witness=comm)

    vals = [[ev(a, b) for b in pts] for a in pts]
    assoc = next(((a, b, c) for a, row in zip(pts, vals) for b, ab in zip(pts, row) for c in pts
                  if ev(ab, c) != ev(a, ev(b, c))), None)
    rep.add_verdict(assoc is None, "associative", witness=assoc)

    pairs = list(combinations_with_replacement(range(len(pts)), 2))
    mono = next(((pts[i], pts[j], pts[k], pts[m]) for i, k in pairs for j, m in pairs
                 if vals[i][j] > vals[k][m]), None)
    rep.add_verdict(mono is None, "monotone", witness=mono)

    rep.add_verdict(
        all(ZERO <= v <= ONE for row in vals for v in row), "range", low=ZERO, high=ONE
    )
    rep.add_note("continuity", status="not-checkable-from-samples")
    return rep


def positivity_counterexample(tnorm: TNorm):
    """Search the grid i/128, i = 1..128, for a, b > 0 with a*b = 0."""
    grid = [Fraction(i, 128) for i in range(1, 129)]
    for a in grid:
        for b in grid:
            if tnorm.rule(a, b) == 0:
                return (a, b)
    return None


def is_positivity_preserving(tnorm: TNorm) -> bool:
    """Whether a*b != 0 whenever a, b != 0.

    A declared flag is returned as it is: for the built-in kinds it is the
    analytic fact, which tests/test_tnorm.py cross-checks against
    ``positivity_counterexample``.  Only an undeclared (custom) rule runs
    the grid search, and then the answer is best-effort.
    """
    if tnorm.positivity_preserving is not None:
        return tnorm.positivity_preserving
    return positivity_counterexample(tnorm) is None
