import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzycoarse import Family, ScaleParams, int_window, grid_window
from fuzzycoarse.asdim import DimensionWitness, witness_ratio_minmax
from fuzzycoarse.config import (
    dump_json,
    family_from_json,
    family_to_json,
    map_from_config,
    parse_scale,
    parse_window_spec,
    space_from_config,
    window_to_spec,
    witness_from_json,
    witness_to_json,
)
from fuzzycoarse.errors import ParseError

F = Fraction


def test_parse_scale():
    assert parse_scale("1/2:1") == ScaleParams(F(1, 2), 1)
    assert parse_scale("9/10:7/2") == ScaleParams(F(9, 10), F(7, 2))
    for bad in ["1/2", "0.5:1", "1/2:0", "2:1"]:
        with pytest.raises(Exception):
            parse_scale(bad)


def test_window_specs_roundtrip():
    w = int_window(-3, 9)
    assert parse_window_spec(window_to_spec(w)) == w
    g = grid_window(0, 3, F(1, 2))
    assert parse_window_spec(window_to_spec(g)) == g
    assert parse_window_spec({"grid": {"lo": "0", "hi": "3", "step": "1/2"}}) == g
    with pytest.raises(ParseError):
        parse_window_spec("5..1")
    with pytest.raises(ParseError):
        parse_window_spec("1.5..2")


def test_space_from_config():
    assert space_from_config("ratio_minmax").kind_name == "ratio_minmax"
    sp = space_from_config({"kind": "pathological", "tnorm": "product"})
    assert sp.tnorm.name == "product"
    std = space_from_config({"kind": "standard", "universe": "rationals"})
    assert std.universe.name == "rationals"
    tbl = space_from_config({
        "kind": "standard",
        "metric": {"rule": "table", "points": [1, 2], "matrix": [["0", "1/2"], ["1/2", "0"]]},
    })
    assert tbl.value(1, 2, 1) == F(2, 3)
    with pytest.raises(ParseError):
        space_from_config("unknown_kind")
    with pytest.raises(ParseError):
        space_from_config({"kind": "ratio_minmax", "metric": "euclidean"})


def test_space_config_survives_rebound_builder_names(monkeypatch):
    """A tool that wraps the library's functions, as the benchmark tracer
    does, rebinds the builder names in ``config`` but not the kind table;
    the standard kind still takes a metric and a universe."""
    from fuzzycoarse import config

    for builder in config.SPACE_BUILDERS.values():
        monkeypatch.setattr(config, builder.__name__,
                            functools.wraps(builder)(lambda *a, b=builder, **k: b(*a, **k)))
    std = space_from_config({"kind": "standard", "universe": "rationals", "metric": "euclidean"})
    assert std.universe.name == "rationals"
    with pytest.raises(ParseError):
        space_from_config({"kind": "ultrametric_standard", "universe": "rationals"})


def test_space_config_defaults_and_unhashable_tags():
    """A kind named without a t-norm gets its builder's default, and a
    list where a tag belongs is a parse error, not a TypeError."""
    defaults = {"standard": "product", "reciprocal_product": "product",
                "ratio_minmax": "product", "pathological": "lukasiewicz",
                "ultrametric_standard": "min"}
    for kind, tnorm in defaults.items():
        assert space_from_config(kind).tnorm.name == tnorm
    for cfg in ({"kind": ["standard"]}, {"kind": "standard", "universe": ["integers"]}):
        with pytest.raises(ParseError):
            space_from_config(cfg)


def test_family_roundtrip():
    fam = Family.of([[1, 2], [5]], "demo")
    assert family_from_json(family_to_json(fam)) == fam


def test_family_from_json_reads_every_point_form():
    """String points and lattice lists go through point_from_json; integer
    members are cleaned by Family, as every member is."""
    fam = family_from_json({"label": "mixed",
                            "sets": [["3", "7/2"], [[1, 2], [0, 1]], [5, 3, 5, 1], [7], []]})
    assert fam.sets == ((3, F(7, 2)), ((0, 1), (1, 2)), (1, 3, 5), (7,))
    assert fam.dropped_empty == 1
    assert family_from_json({"sets": [[4, 2, 2], [9]]}).sets == ((2, 4), (9,))


@pytest.mark.parametrize("sets", [[[True]], [[1, 2], [True]], [[1, False]]])
def test_family_from_json_refuses_boolean_points(sets):
    with pytest.raises(ParseError, match="booleans are not points"):
        family_from_json({"sets": sets})


_INTS = st.integers() | st.integers(min_value=-10**40, max_value=10**40)
_SCALARS = (st.none() | st.booleans() | _INTS | st.floats()
            | st.text() | st.sampled_from(["", "7/2", "caf\u00e9", "\u2192", "a\"b\\c\n\t\x00"]))
_INT_LISTS = st.lists(_INTS)
_LEAVES = (_SCALARS | _INT_LISTS
           | st.lists(_INTS | st.sampled_from([True, False, None]))
           | st.lists(_INT_LISTS)
           | st.lists(st.lists(_INTS | st.none() | st.booleans())))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES,
                    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                    max_leaves=20))
def test_dump_json_matches_json_dumps(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


_RUNS = st.builds(range, st.integers(-60, 60), st.integers(-60, 60))


_POINT_RUNS = st.lists(_INTS.map(lambda p: [p]) | _INTS.map(lambda p: (p,))
                      | _INTS.map(lambda p: range(p, p + 1)) | st.sampled_from([[], (), range(0)]),
                      min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_RUNS | _INT_LISTS | _INT_LISTS.map(tuple), min_size=1, max_size=1)
                | _POINT_RUNS).map(lambda runs: [s for run in runs for s in run]),
       st.text())
def test_dump_json_writes_tuples_and_ranges_as_arrays(members, label):
    """A family of integer members, as ``family_to_json`` leaves it, is
    written as ``json.dumps`` writes the same members as lists; runs of
    one-point and empty members among them are written in bulk."""
    as_lists = {"label": label, "sets": [list(s) for s in members]}
    assert (dump_json({"label": label, "sets": members})
            == json.dumps(as_lists, indent=2, sort_keys=True) + "\n")
    assert dump_json(tuple(members)) == json.dumps(as_lists["sets"], indent=2) + "\n"


_LONG_RUNS = {
    "start": [*zip(range(-15, -3)), range(0, 4), (6, 9), [10, 12], [], (), *zip(range(13, 16))],
    "middle": [range(-30, -20), (-18, -16, -11), *zip(range(-9, 0)),
               *(range(p, p + 1) for p in range(0, 5)), *([p] for p in range(5, 9)), (),
               [12, 14, 15], range(20, 40)],
    "end": [(1, 3), range(4, 4), [7, 8], *(range(p, p + 1) for p in range(-40, -30)),
            *zip(range(50, 61))],
}


@pytest.mark.parametrize("where", sorted(_LONG_RUNS))
def test_dump_json_writes_long_one_point_runs_as_json_dumps(where):
    """Runs of more than eight one-point members (tuples, lists and
    one-point ranges, negative points among them) at the start, middle or
    end of a family, beside empty members and multi-point tuples, lists and
    ranges, are written as ``json.dumps`` writes the list form and read
    back as the same family."""
    members = _LONG_RUNS[where]
    as_lists = {"label": where, "sets": [list(s) for s in members]}
    assert (dump_json({"label": where, "sets": members})
            == json.dumps(as_lists, indent=2, sort_keys=True) + "\n")
    wit = DimensionWitness(0, ScaleParams(F(1, 2), 1), ScaleParams(F(1, 2), 1),
                           (Family.of(members, where),), int_window(-40, 60))
    text = dump_json(dict(witness_to_json(wit), families=[{"label": where, "sets": members}]))
    assert witness_from_json(json.loads(text)) == wit


def test_integer_members_are_written_as_they_are():
    """No member of an integer family is copied: ranges and tuples go to
    ``dump_json`` as they are, and are read back as the same family."""
    wit = witness_ratio_minmax(ScaleParams(F(1, 2), 1), int_window(1, 300))
    for fam in wit.families:
        out = family_to_json(fam)
        assert all(a is b for a, b in zip(out["sets"], fam.sets))
        assert family_from_json(json.loads(dump_json(out))) == family_from_json(out) == fam


def test_witness_roundtrip():
    wit = witness_ratio_minmax(ScaleParams(F(1, 2), 1), int_window(1, 60))
    back = witness_from_json(witness_to_json(wit))
    assert back == wit


def test_witness_with_rational_points_roundtrip():
    fam = Family.of([[F(1, 2), 1], [F(5, 2)]], "q")
    wit = DimensionWitness(0, ScaleParams(F(1, 3), 1), ScaleParams(F(1, 2), 1),
                           (fam,), grid_window(0, 3, F(1, 2)))
    back = witness_from_json(witness_to_json(wit))
    assert back == wit


def test_map_from_config():
    m = map_from_config({
        "rule": {"affine": {"a": "2", "b": "0"}},
        "domain": "0..5",
        "expansive": [{"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "2"}],
        "onto": "1/2:2",
    })
    assert m.apply(3) == 6
    assert m.onto_params == ScaleParams(F(1, 2), 2)
    assert m.expansive[0].t_out == 2
    ident = map_from_config({"rule": "identity"})
    assert ident.apply(7) == 7
    tab = map_from_config({"rule": {"table": [[1, 10], [2, 20]]}})
    assert tab.apply(2) == 20
    with pytest.raises(ParseError):
        map_from_config({"rule": "teleport"})
