from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzycoarse import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    check_tnorm_axioms,
    is_positivity_preserving,
    tnorm_eval,
    tnorm_from_name,
)
from fuzzycoarse.errors import DomainError
from fuzzycoarse.report import fmt_value
from fuzzycoarse.tnorm import TNorm, builtin_name, positivity_counterexample

F = Fraction
ALL = [PRODUCT, MINIMUM, LUKASIEWICZ]
units = st.fractions(min_value=0, max_value=1, max_denominator=64)


def test_builtin_name_is_decided_by_identity():
    """Each built-in object is named; a user rule is not, even under a
    built-in name, where ``TNorm`` equality calls it equal."""
    assert [builtin_name(t) for t in ALL] == ["product", "min", "lukasiewicz"]
    for t in ALL:
        twin = TNorm(t.name, t.rule, t.positivity_preserving)
        assert twin == t and builtin_name(twin) is None


def test_eval_examples():
    assert tnorm_eval(PRODUCT, F(1, 2), F(1, 3)) == F(1, 6)
    assert tnorm_eval(MINIMUM, F(1, 2), F(1, 3)) == F(1, 3)
    assert tnorm_eval(LUKASIEWICZ, F(1, 2), F(1, 3)) == 0
    assert tnorm_eval(LUKASIEWICZ, F(3, 4), F(1, 2)) == F(1, 4)


@pytest.mark.parametrize("tnorm", ALL)
def test_identity_axiom(tnorm):
    assert tnorm_eval(tnorm, F(3, 7), 1) == F(3, 7)
    assert tnorm_eval(tnorm, 1, 1) == 1
    assert tnorm_eval(tnorm, 0, 1) == 0


def test_eval_rejects_out_of_range():
    with pytest.raises(DomainError):
        tnorm_eval(PRODUCT, F(3, 2), F(1, 2))
    with pytest.raises(DomainError):
        tnorm_eval(PRODUCT, F(-1, 2), F(1, 2))


@pytest.mark.parametrize("tnorm", ALL)
@given(a=units, b=units, c=units, d=units)
@settings(max_examples=60, deadline=None)
def test_axiom_properties(tnorm, a, b, c, d):
    ev = tnorm.rule
    assert ev(a, b) == ev(b, a)
    assert ev(a, ev(b, c)) == ev(ev(a, b), c)
    lo_a, hi_a = min(a, c), max(a, c)
    lo_b, hi_b = min(b, d), max(b, d)
    assert ev(lo_a, lo_b) <= ev(hi_a, hi_b)
    assert 0 <= ev(a, b) <= 1


@pytest.mark.parametrize(
    "tnorm,grid",
    [
        (PRODUCT, [0, F(1, 2), 1]),
        (MINIMUM, [0, F(1, 3), F(2, 3), 1]),
        (LUKASIEWICZ, [0, F(1, 4), F(1, 2), 1]),
    ],
)
def test_axiom_reports_pass(tnorm, grid):
    rep = check_tnorm_axioms(tnorm, grid)
    assert rep.passed
    assert any("continuity" in c.predicate for c in rep.checks)


@pytest.mark.parametrize("rule", [
    lambda a, b: (a + b) / 2,
    lambda a, b: max(a - b, F(0)),
    lambda a, b: F(1, 16) if a == b == F(3, 4) else a * b,
    PRODUCT.rule,
], ids=["average", "truncated-difference", "dented-product", "product"])
def test_axiom_report_names_the_first_failing_triple_and_quadruple(rule):
    """Associativity and monotonicity report the first counterexample of a
    plain nested scan in argument order."""
    grid = [0, F(1, 4), F(1, 2), F(3, 4), 1]
    n = len(grid)
    assoc = next(((a, b, c) for a in grid for b in grid for c in grid
                  if rule(rule(a, b), c) != rule(a, rule(b, c))), None)
    mono = next(((grid[i], grid[j], grid[k], grid[m])
                  for i in range(n) for k in range(i, n) for j in range(n) for m in range(j, n)
                  if rule(grid[i], grid[j]) > rule(grid[k], grid[m])), None)
    rep = check_tnorm_axioms(TNorm("custom", rule), grid)
    got = {c.predicate: dict(c.details).get("witness") for c in rep.checks}
    assert (got["associative"], got["monotone"]) == (fmt_value(assoc), fmt_value(mono))


def test_axiom_report_rejects_bad_grid():
    with pytest.raises(DomainError):
        check_tnorm_axioms(PRODUCT, [F(1, 2), 1])
    with pytest.raises(DomainError):
        check_tnorm_axioms(PRODUCT, [])


def test_positivity_flags():
    assert is_positivity_preserving(PRODUCT) is True
    assert is_positivity_preserving(MINIMUM) is True
    assert is_positivity_preserving(LUKASIEWICZ) is False
    # a declared flag is trusted; only an undeclared rule is searched
    assert is_positivity_preserving(TNorm("declared", LUKASIEWICZ.rule, True)) is True


@pytest.mark.parametrize("tnorm", ALL)
def test_builtin_positivity_flag_matches_grid_search(tnorm):
    """The run-time trust in the built-in flags rests on this check."""
    assert (positivity_counterexample(tnorm) is None) is tnorm.positivity_preserving
    assert is_positivity_preserving(TNorm("custom", tnorm.rule)) is tnorm.positivity_preserving


def test_lukasiewicz_counterexample_on_grid():
    pair = positivity_counterexample(LUKASIEWICZ)
    a, b = pair
    assert a > 0 and b > 0
    assert LUKASIEWICZ.rule(a, b) == 0
    # the named pair from the closed form
    assert LUKASIEWICZ.rule(F(1, 2), F(1, 3)) == 0


def test_from_name():
    assert tnorm_from_name("product") is PRODUCT
    assert tnorm_from_name("min") is MINIMUM
    assert tnorm_from_name("lukasiewicz") is LUKASIEWICZ
    with pytest.raises(DomainError):
        tnorm_from_name("drastic")
