"""Acceptance suite.

One test per acceptance criterion, each printing a single line
``[criterion-N] PASS/FAIL ...`` (run with ``pytest -s`` to see them all).
Every tolerance is exact: the checks are strict rational comparisons,
and the only numeric budgets are the stated wall-clock limits.
"""

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction

from fuzzycoarse import (
    LUKASIEWICZ,
    PRODUCT,
    ClosenessCert,
    Family,
    ModulusEntry,
    ScaleParams,
    check_axioms,
    check_close,
    check_coarsely_onto,
    check_effectively_proper,
    check_uniformly_expansive,
    coarse_inverse,
    compose_closeness,
    grid_window,
    identity_map,
    inclusion_map,
    int_window,
    is_bounded,
    is_positivity_preserving,
    lift_metric_families,
    multiplicity,
    oracle_min_families,
    pathological_space,
    ratio_block_structure,
    ratio_minmax_space,
    reciprocal_head_size,
    reciprocal_product_space,
    run_dimension_pipeline,
    scale_graph,
    scale_multiplicity,
    standard_space,
    threshold_bridge_suite,
    threshold_split,
    transport_witness,
    ultrametric_space,
    verify_witness,
    witness_ball_partition,
    witness_ratio_minmax,
    witness_reciprocal_product,
    witness_whole_window,
)
from fuzzycoarse.cli import main as cli_main
from fuzzycoarse.space import RATIONALS

F = Fraction
R_GRID = [F(1, 4), F(1, 2), F(3, 4), F(9, 10)]
T_GRID = [F(1, 2), 1, 2, 7]


class budget:
    """Assert the criterion finishes inside its stated wall-clock limit."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.name}] {status} elapsed={elapsed:.2f}s budget={self.seconds}s")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"
            )
        return False


def test_criterion_1_axiom_suite():
    with budget("criterion-1", 10):
        cases = [
            (standard_space(), int_window(-25, 24)),
            (reciprocal_product_space(), int_window(1, 50)),
            (ratio_minmax_space(), int_window(1, 50)),
            (pathological_space(), int_window(1, 50)),
            (ultrametric_space(), int_window(1, 50)),
        ]
        for space, window in cases:
            assert len(window) == 50
            rep = check_axioms(space, window, T_GRID)
            assert rep.passed, f"{space.describe()}: {rep.failures()}"

        pat = pathological_space()
        assert pat.tnorm is LUKASIEWICZ
        assert is_positivity_preserving(pat.tnorm) is False
        rep = check_axioms(pat, int_window(1, 50), T_GRID)
        flag = next(c for c in rep.checks if c.predicate == "tnorm-positivity")
        assert ("positivity_preserving", "false") in flag.details

        bad = check_axioms(pathological_space(PRODUCT), int_window(1, 50), T_GRID)
        assert not bad.passed
        fail = next(c for c in bad.failures() if c.predicate == "chain-inequality")
        assert "~" in dict(fail.details)["witness"]


def test_criterion_2_threshold_bridge():
    with budget("criterion-2", 1):
        rep = threshold_bridge_suite(seed=0, cases=1000)
        assert rep.passed
        agreement = dict(rep.checks[0].details)
        assert agreement["cases"] == "1000"
        assert agreement["disagreements"] == "0"
        params = ScaleParams(F(2, 5), F(7, 3))
        boundary = params.r * params.t / (1 - params.r)
        assert threshold_split(boundary, params) == (False, False)


def test_criterion_3_head_singletons_reproduction():
    with budget("criterion-3", 30):
        assert reciprocal_head_size(F(1, 2)) == 2
        assert reciprocal_head_size(F(9, 10)) == 10
        rec = reciprocal_product_space()
        for r in R_GRID:
            for top in (100, 10_000):
                w = int_window(1, top)
                wit = witness_reciprocal_product(ScaleParams(r, 1), w)
                rep = verify_witness(rec, wit)
                assert rep.passed, f"r={r} top={top}: {rep.failures()}"


def test_criterion_4_block_gap_reproduction():
    with budget("criterion-4", 60):
        blocks = ratio_block_structure(F(1, 2), 100)
        assert blocks.starts[0] == 3 and blocks.widths[0] == 1
        assert blocks.starts[1] == 9 and blocks.widths[1] == 7
        assert blocks.starts[2] == 33
        wit100 = witness_ratio_minmax(ScaleParams(F(1, 2), 1), int_window(1, 100))
        u, v = wit100.families
        assert u.sets[1] == range(3, 5) and u.sets[2] == range(9, 17)
        assert v.sets[0] == (2,) and v.sets[1] == range(5, 9)
        assert tuple(u.sets[1]) == (3, 4) and tuple(v.sets[1]) == (5, 6, 7, 8)

        ratio = ratio_minmax_space()
        top = 10_000
        w = int_window(1, top)
        for r in R_GRID:
            wit = witness_ratio_minmax(ScaleParams(r, 1), w)
            rep = verify_witness(ratio, wit)
            assert rep.passed, f"r={r}: {rep.failures()}"

        graph = scale_graph(ratio, ScaleParams(F(1, 2), 1), w)
        assert graph.spanning
        assert graph.min_internal == F(1, top)
        # obstruction: at any bound level s with 1 - s >= 1/N, the spanning
        # component must sit inside one member set of a single covering
        # family, and that set cannot be internally bounded
        for s_level in (F(1, 2), 1 - F(1, top)):
            bound = ScaleParams(s_level, 1)
            assert graph.min_internal <= bound.threshold
            assert not is_bounded(ratio, graph.largest, bound)


def test_criterion_5_implication_pipeline():
    with budget("criterion-5", 60):
        ratio = ratio_minmax_space()
        w = int_window(1, 2000)
        for r in (F(1, 4), F(1, 2)):
            target = ScaleParams(r, 1)
            result = run_dimension_pipeline(
                ratio, target, w, lambda scale: witness_ratio_minmax(scale, w)
            )
            assert result.passed, [rep.failures() for rep in result.reports]
            assert scale_multiplicity(ratio, result.multiplicity_cover, target, w) <= 2
            assert multiplicity(result.lebesgue_cover, w) <= 2
            lebesgue_line = next(
                c for c in result.reports[1].checks if c.predicate == "lebesgue-pair"
            )
            assert lebesgue_line.verdict == "PASS"
            refine_line = next(
                c for c in result.reports[2].checks if c.predicate == "refines"
            )
            assert refine_line.verdict == "PASS"


def test_criterion_6_ball_partition_reproduction():
    with budget("criterion-6", 10):
        ult = ultrametric_space()
        w = int_window(1, 200)
        # the concrete partition at (r+eps, t) = (1/2, 10)
        wit = witness_ball_partition(ult, ScaleParams(F(1, 4), 10), F(1, 4), w)
        fam = wit.families[0]
        assert type(fam.sets[0]) is range and tuple(fam.sets[0]) == tuple(range(1, 10))
        assert fam.sets[1:] == tuple((m,) for m in range(10, 201))
        assert verify_witness(ult, wit).passed
        # equal-or-disjoint, verified exhaustively point by point
        counts = {}
        for s in fam.sets:
            for p in s:
                counts[p] = counts.get(p, 0) + 1
        assert all(c == 1 for c in counts.values()) and len(counts) == 200
        # the construction verifies across the r-grid with the default eps
        for r in R_GRID:
            wit_r = witness_ball_partition(ult, ScaleParams(r, 10), None, w)
            assert wit_r.n == 0
            assert verify_witness(ult, wit_r).passed, f"r={r}"


def test_criterion_7_coarse_suite():
    with budget("criterion-7", 30):
        std = standard_space()
        stdq = standard_space(universe=RATIONALS)
        e = ModulusEntry(F(1, 2), 1, F(1, 2), 1)
        wx = int_window(-5, 5)
        wy = grid_window(-5, 5, F(1, 2))

        ident = identity_map(domain=wx, expansive=(e,), proper=(e,),
                             onto_params=ScaleParams(F(1, 2), 1))
        assert check_uniformly_expansive(std, std, ident, wx).passed
        assert check_effectively_proper(std, std, ident, wx).passed
        assert check_coarsely_onto(std, ident, ident.onto_params, wx).passed

        incl = inclusion_map(domain=wx, expansive=(e,), proper=(e,),
                             onto_params=ScaleParams(F(1, 2), 1))
        assert check_uniformly_expansive(std, stdq, incl, wx).passed
        assert check_effectively_proper(std, stdq, incl, wx).passed
        assert check_coarsely_onto(stdq, incl, incl.onto_params, wy).passed

        g, inv_rep = coarse_inverse(std, stdq, incl, ScaleParams(F(1, 2), 1), wy, wx)
        assert inv_rep.passed
        from fuzzycoarse import compose_maps

        fg = compose_maps(g, incl, wy)
        assert check_close(stdq, fg, identity_map(), ScaleParams(F(1, 2), 1), wy).passed
        gf = compose_maps(incl, g, wx)
        assert check_close(std, gf, identity_map(), ScaleParams(F(3, 4), 1), wx).passed

        cert = compose_closeness(
            std,
            ClosenessCert(ScaleParams(F(1, 2), 1)),
            ClosenessCert(ScaleParams(F(1, 2), 1)),
            ModulusEntry(F(1, 2), 1, F(1, 2), 4),
        )
        assert 1 - cert.params.r == F(1, 4)

        # block witness transported through the sampled inclusion
        wx_big = int_window(0, 399)
        wy_big = grid_window(0, 399, F(1, 2))
        carrier = inclusion_map(
            domain=wx_big,
            expansive=(ModulusEntry(F(1, 2), 128, F(1, 2), 128),),
            proper=(ModulusEntry(F(1, 8), 3, F(1, 2), 21),),
            onto_params=ScaleParams(F(1, 2), 1),
        )
        fam_a = Family.of([tuple(range(0, 100)), tuple(range(200, 300))], "A")
        fam_b = Family.of([tuple(range(100, 200)), tuple(range(300, 400))], "B")

        def factory(scale):
            s = (1 + scale.r) / 2
            sep = s * scale.t / (1 - s) + 1
            return lift_metric_families(std, [fam_a, fam_b], sep, scale, wx_big)

        out, rep = transport_witness(std, stdq, carrier, None,
                                     ScaleParams(F(1, 3), 1), wy_big,
                                     witness_factory=factory)
        assert rep.passed
        assert verify_witness(stdq, out).passed


def test_criterion_8_oracle_equivalence():
    with budget("criterion-8", 60):
        rec = reciprocal_product_space()
        ratio = ratio_minmax_space()
        ult = ultrametric_space()
        pat = pathological_space()
        std = standard_space()
        w8 = int_window(1, 8)

        cases = []
        for r in (F(1, 4), F(1, 2), F(3, 4)):
            p = ScaleParams(r, 1)
            cases.append((rec, p, witness_reciprocal_product(p, w8), w8))
            cases.append((ratio, p, witness_ratio_minmax(p, w8), w8))
            p10 = ScaleParams(r, 10)
            cases.append((ult, p10, witness_ball_partition(ult, p10, None, w8), w8))
            cases.append((pat, p, witness_whole_window(pat, w8, p), w8))
        wz = int_window(0, 7)
        blocks = [Family.of([(0, 1), (4, 5)], "A"), Family.of([(2, 3), (6, 7)], "B")]
        cases.append((std, ScaleParams(F(1, 4), 1),
                      lift_metric_families(std, blocks, 3, ScaleParams(F(1, 4), 1), wz),
                      wz))

        for space, params, wit, w in cases:
            assert verify_witness(space, wit).passed, space.describe()
            k = oracle_min_families(space, params, wit.bound_params, w)
            assert k <= wit.n + 1, (space.describe(), params, k, wit.n)
            graph = scale_graph(space, params, w)
            components_boundable = all(
                is_bounded(space, comp, wit.bound_params) for comp in graph.components
            )
            assert (k == 1) == components_boundable, (space.describe(), params)


def _run_cli_suite(tmp_path, tag):
    witness_path = tmp_path / f"w-{tag}.json"
    commands = [
        ["verify-axioms", "--space", "ratio_minmax", "--window", "1..20",
         "--t-grid", "1/2,1,2,7", "--bridge-cases", "200", "--seed", "0"],
        ["witness", "--space", "reciprocal_product", "--scale", "1/2:1",
         "--window", "1..1000", "--witness-out", str(witness_path)],
        ["check", "--space", "reciprocal_product", "--witness", str(witness_path),
         "--scale", "1/4:1", "--scale", "1/2:1"],
        ["pipeline", "--space", "ratio_minmax", "--scale", "1/2:1",
         "--window", "1..300"],
        ["oracle", "--space", "ratio_minmax", "--scale", "1/2:1",
         "--bound", "1/2:1", "--window", "2..9"],
    ]
    streams = []
    for argv in commands:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        streams.append((argv[0], code, buf.getvalue()))
    return streams, witness_path.read_bytes()


def test_criterion_9_determinism(tmp_path):
    with budget("criterion-9", 60):
        first, wit_a = _run_cli_suite(tmp_path, "a")
        second, wit_b = _run_cli_suite(tmp_path, "b")
        assert [s[1] for s in first] == [0] * len(first)
        assert first == second
        assert wit_a == wit_b
