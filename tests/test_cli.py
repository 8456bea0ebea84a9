import io
import json
import os
from contextlib import redirect_stdout

import pytest

from fuzzycoarse.cli import main


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# verify-axioms
# ---------------------------------------------------------------------------


def test_verify_axioms_pass():
    code, out = run_cli(["verify-axioms", "--space", "ratio_minmax",
                         "--window", "1..20", "--t-grid", "1,2"])
    assert code == 0
    assert "PASS chain-inequality" in out


def test_verify_axioms_pathological_product_fails():
    code, out = run_cli(["verify-axioms", "--space", "pathological",
                         "--window", "1..5", "--t-grid", "1", "--config", "/dev/null"])
    # /dev/null is not valid JSON -> parse error path
    assert code == 2


def test_verify_axioms_pathological_product_certified_failure():
    import json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"space": {"kind": "pathological", "tnorm": "product"}}, fh)
        path = fh.name
    code, out = run_cli(["verify-axioms", "--window", "1..5", "--t-grid", "1",
                         "--config", path])
    assert code == 1
    assert "FAIL chain-inequality" in out


def test_verify_axioms_malformed_rational():
    code, out = run_cli(["verify-axioms", "--space", "ratio_minmax",
                         "--window", "1..5", "--t-grid", "1.5"])
    assert code == 2
    assert "ERROR ParseError" in out


def test_verify_axioms_bridge_cases():
    code, out = run_cli(["verify-axioms", "--space", "standard", "--window=-5..5",
                         "--t-grid", "1", "--bridge-cases", "50", "--seed", "3"])
    assert code == 0
    assert "threshold-bridge" in out


@pytest.mark.parametrize("metric, universe", [
    ("max_ultrametric", "integers"),
    ("max_ultrametric", "rationals"),
    ({"rule": "euclidean_lattice", "dim": 1}, "integers"),
], ids=["max-on-integers", "max-on-rationals", "lattice-on-integers"])
def test_verify_axioms_refuses_a_universe_the_metric_is_not_a_metric_on(
        tmp_path, metric, universe):
    """max(x, y) on -3..3 is negative, and t + d is 0 at d(-3, -2) = -2
    and t = 2; a lattice metric cannot measure an integer.  Each space is
    refused before any value is evaluated, with exit 2 and no report."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"space": {"kind": "standard", "metric": metric,
                                          "universe": universe}}))
    name = metric if isinstance(metric, str) else metric["rule"]
    assert run_cli(["verify-axioms", "--window", "-3..3", "--t-grid", "1,2",
                    "--config", str(path)]) == (
        2, f"ERROR DomainError: {name} is not a metric on the {universe} universe\n")


def test_verify_axioms_takes_a_universe_the_metric_is_a_metric_on(tmp_path):
    for metric, universe, window in (("max_ultrametric", "naturals", "1..6"),
                                     ("euclidean", "rationals", "-3..3"),
                                     ("euclidean", "naturals", "1..6")):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"space": {"kind": "standard", "metric": metric,
                                              "universe": universe}}))
        code, out = run_cli(["verify-axioms", "--window", window, "--t-grid", "1,2",
                             "--config", str(path)])
        assert code == 0 and "PASS chain-inequality" in out


def test_verify_axioms_config_reads_a_t_grid_list(tmp_path):
    path = tmp_path / "axioms.json"
    path.write_text(json.dumps({"space": "ratio_minmax", "window": "1..6",
                                "t_grid": ["1/2", 1]}))
    got, out = run_cli(["verify-axioms", "--config", str(path)])
    want = run_cli(["verify-axioms", "--space", "ratio_minmax", "--window", "1..6",
                    "--t-grid", "1/2,1"])
    assert (got, out) == want
    assert "t_grid={1/2,1}" in out


@pytest.mark.parametrize("key, value", [("bridge_cases", 2.5), ("seed", 1.5)])
def test_verify_axioms_config_refuses_floats_where_integers_go(tmp_path, key, value):
    """``int()`` would truncate these without a word."""
    path = tmp_path / "axioms.json"
    path.write_text(json.dumps({"space": "standard", "window": "0..3", "t_grid": "1",
                                "bridge_cases": 3, key: value}))
    got, out = run_cli(["verify-axioms", "--config", str(path)])
    assert (got, out) == (2, f"ERROR ParseError: {key} must be an integer, got {value}\n")


def test_witness_file_refuses_a_float_n(tmp_path):
    w_path = tmp_path / "w.json"
    w_path.write_text(json.dumps({
        "n": 0.5, "params": {"r": "1/2", "t": 1}, "bound_params": {"r": "3/4", "t": 1},
        "window": "1..3", "families": [{"label": "f", "sets": [[1, 2, 3]]}]}))
    got, out = run_cli(["check", "--space", "ratio_minmax", "--witness", str(w_path),
                        "--scale", "1/2:1"])
    assert (got, out) == (2, "ERROR ParseError: witness n must be an integer, got 0.5\n")


def test_negative_window_in_both_argument_forms():
    argv = ["verify-axioms", "--space", "standard", "--t-grid", "1"]
    spaced = run_cli(argv + ["--window", "-30..29"])
    joined = run_cli(argv + ["--window=-30..29"])
    assert spaced == joined
    assert spaced[0] == 0
    assert "window=-30..29" in spaced[1]


# ---------------------------------------------------------------------------
# witness / check
# ---------------------------------------------------------------------------


def test_witness_reciprocal_writes_file(tmp_path):
    out_path = tmp_path / "w.json"
    code, out = run_cli(["witness", "--space", "reciprocal_product",
                         "--scale", "1/2:1", "--window", "1..1000",
                         "--witness-out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["families"][0]["sets"][0] == [1, 2]  # head for r = 1/2
    assert data["n"] == 0


def test_witness_ball_partition_rejects_points_outside_the_universe():
    # max(x, y) is no metric on -8..8: M(-8,-7,10) = 10/3 > 1
    code, out = run_cli(["witness", "--space", "ultrametric_standard",
                         "--scale", "1/4:10", "--window=-8..8"])
    assert code == 2
    assert out == "ERROR DomainError: point -8 is outside the naturals universe\n"


def test_witness_unknown_kind():
    code, out = run_cli(["witness", "--space", "galaxy", "--scale", "1/2:1",
                         "--window", "1..10"])
    assert code == 2
    assert "ERROR ParseError" in out


def test_check_witness_at_grid(tmp_path):
    w_path = tmp_path / "w.json"
    code, _ = run_cli(["witness", "--space", "ratio_minmax", "--scale", "1/2:1",
                       "--window", "1..1000", "--witness-out", str(w_path)])
    assert code == 0
    code, out = run_cli(["check", "--space", "ratio_minmax", "--witness", str(w_path),
                         "--scale", "1/4:1", "--scale", "1/2:1"])
    assert code == 0
    assert out.count("SCALE") == 2


def test_check_finds_each_cross_pair_once_per_time(tmp_path, monkeypatch):
    """k scales at d distinct times: the worst cross pair of each family is
    found d times, the worst intra pair once, and each scale still gets
    its own report."""
    from fuzzycoarse import asdim

    calls = {"cross": 0, "intra": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(asdim, "family_max_cross", counted("cross", asdim.family_max_cross))
    monkeypatch.setattr(asdim, "family_min_intra", counted("intra", asdim.family_min_intra))
    w_path = tmp_path / "w.json"
    run_cli(["witness", "--space", "ratio_minmax", "--scale", "1/2:1",
             "--window", "1..200", "--witness-out", str(w_path)])
    assert calls == {"cross": 2, "intra": 1}  # two families, one scale
    for scales, times in ((["1/4:1"], 1), (["1/4:1", "1/2:2", "3/4:1", "1/3:2"], 2),
                          (["1/4:1", "1/2:2", "3/4:3"], 3)):
        calls.update(cross=0, intra=0)
        argv = ["check", "--space", "ratio_minmax", "--witness", str(w_path)]
        code, out = run_cli(argv + [arg for s in scales for arg in ("--scale", s)])
        assert calls == {"cross": 2 * times, "intra": 1}
        assert [line for line in out.splitlines() if line.startswith("SCALE")] == [
            f"SCALE {s}" for s in scales]
        assert out.count("REPORT verify-witness") == len(scales)


def test_check_corrupted_witness_fails(tmp_path):
    w_path = tmp_path / "w.json"
    run_cli(["witness", "--space", "ratio_minmax", "--scale", "1/2:1",
             "--window", "1..200", "--witness-out", str(w_path)])
    data = json.loads(w_path.read_text())
    # merge the two families into one: adjacent sets break separation
    merged = {"label": "merged",
              "sets": data["families"][0]["sets"] + data["families"][1]["sets"]}
    data["families"] = [merged]
    data["n"] = 0
    w_path.write_text(json.dumps(data))
    code, out = run_cli(["check", "--space", "ratio_minmax", "--witness", str(w_path),
                         "--scale", "1/2:1"])
    assert code == 1
    assert "FAIL disjoint" in out


def test_check_refuses_window_points_outside_the_universe(tmp_path):
    """A hand-built ratio_minmax witness on -3..3: one partition used to
    divide by zero, the other printed a FAIL built on M(-2,-1) = 2."""
    w_path = tmp_path / "w.json"
    for sets in ([[-3, -2, -1], [0], [1, 2, 3]], [[-3], [-2], [-1, 0, 1, 2, 3]]):
        w_path.write_text(json.dumps({
            "n": 0, "params": {"r": "1/2", "t": "1"}, "bound_params": {"r": "1/2", "t": "1"},
            "window": "-3..3", "families": [{"label": "f", "sets": sets}]}))
        code, out = run_cli(["check", "--space", "ratio_minmax", "--witness", str(w_path),
                             "--scale", "1/2:1"])
        assert (code, out) == (2, "ERROR DomainError: point -3 is outside the naturals universe\n")


def test_check_reads_int_and_string_rationals_and_refuses_floats(tmp_path):
    """JSON floats are binary fractions: 0.1 is not 1/10, so it is refused."""
    w_path = tmp_path / "w.json"
    for bound, code, echo in (({"r": "3/4", "t": 1}, 0, "r=3/4 t=1"),
                              ({"r": 0.1, "t": 1}, 2, "ERROR DomainError")):
        w_path.write_text(json.dumps({
            "n": 0, "params": {"r": "1/2", "t": 1}, "bound_params": bound,
            "window": "1..3", "families": [{"label": "f", "sets": [[1, 2, 3]]}]}))
        got, out = run_cli(["check", "--space", "ratio_minmax", "--witness", str(w_path),
                            "--scale", "1/2:1"])
        assert got == code
        assert echo in out


def test_table_metric_reads_int_and_string_rationals_and_refuses_floats(tmp_path):
    path = tmp_path / "axioms.json"
    for entry, code in ((1, 0), ("1/10", 0), (0.1, 2)):
        path.write_text(json.dumps({
            "space": {"kind": "standard", "metric": {
                "rule": "table", "points": [0, 1], "matrix": [[0, entry], [entry, 0]]}},
            "window": [0, 1]}))
        got, out = run_cli(["verify-axioms", "--config", str(path)])
        assert got == code
        if code == 2:
            assert out == "ERROR DomainError: 0.1 is not an exact rational\n"


def test_check_missing_file():
    code, out = run_cli(["check", "--space", "ratio_minmax",
                         "--witness", "/nonexistent/w.json", "--scale", "1/2:1"])
    assert code == 2


# ---------------------------------------------------------------------------
# pipeline / oracle / coarse
# ---------------------------------------------------------------------------


def test_pipeline_ratio():
    code, out = run_cli(["pipeline", "--space", "ratio_minmax", "--scale", "1/2:1",
                         "--window", "1..300"])
    assert code == 0
    assert "PASS lebesgue-pair" in out
    assert "PASS refines" in out


def test_oracle_consistent():
    code, out = run_cli(["oracle", "--space", "reciprocal_product",
                         "--scale", "1/2:1", "--bound", "3/4:1", "--window", "1..8"])
    assert code == 0
    assert "ORACLE min_families=1" in out
    assert "PASS oracle-vs-constructor" in out


def test_oracle_ratio_two_families():
    code, out = run_cli(["oracle", "--space", "ratio_minmax", "--scale", "1/2:1",
                         "--bound", "1/2:1", "--window", "2..9"])
    assert code == 0
    assert "ORACLE min_families=2" in out


def test_oracle_size_guard():
    code, out = run_cli(["oracle", "--space", "ratio_minmax", "--scale", "1/2:1",
                         "--window", "1..11"])
    assert code == 2
    assert "ERROR OracleSizeError" in out


def test_coarse_config(tmp_path):
    cfg = {
        "source_space": "standard",
        "target_space": {"kind": "standard", "universe": "rationals"},
        "map": {
            "rule": "inclusion",
            "domain": "-5..5",
            "expansive": [{"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"}],
            "proper": [{"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"}],
            "onto": "1/2:1",
        },
        "window_x": "-5..5",
        "window_y": {"grid": {"lo": "-5", "hi": "5", "step": "1/2"}},
        "scale": "1/2:1",
        "inverse": True,
    }
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["coarse", "--config", str(path)])
    assert code == 0
    assert "uniformly-expansive" in out
    assert "coarse-inverse" in out


def test_coarse_map_table_must_be_a_list_of_pairs(tmp_path):
    path = tmp_path / "coarse.json"
    for table in ({"0": 1, "1": 2}, [[0, 1], [1, 2, 3]]):
        path.write_text(json.dumps({
            "source_space": "standard", "target_space": "standard",
            "map": {"rule": {"table": table}},
            "window_x": "0..1", "window_y": "0..3", "scale": "1/2:1"}))
        code, out = run_cli(["coarse", "--config", str(path)])
        assert (code, out) == (2, "ERROR ParseError: table rule needs a list of [x, image] pairs\n")


RATIO_IDENTITY = {"source_space": "ratio_minmax", "target_space": "ratio_minmax",
                  "map": {"rule": "identity", "domain": "1..10"},
                  "window_x": "1..10", "window_y": "1..10", "scale": "1/2:1"}


@pytest.mark.parametrize("change,message", [
    ({"transport": True}, "transport must be an object, got True"),
    ({"map": {"rule": "identity", "expansive": "1/2"}},
     "map expansive must be a list of modulus entries, got '1/2'"),
    ({"map": {"rule": "identity", "proper": {"level_in": "1/2"}}},
     "map proper must be a list of modulus entries, got {'level_in': '1/2'}"),
], ids=["transport-bool", "expansive-string", "proper-object"])
def test_coarse_sub_objects_are_type_checked(tmp_path, change, message):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(dict(RATIO_IDENTITY, **change)))
    assert run_cli(["coarse", "--config", str(path)]) == (2, f"ERROR ParseError: {message}\n")


@pytest.mark.parametrize("value", ["false", "no", 0, 1])
def test_coarse_inverse_must_be_a_boolean(tmp_path, value):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(dict(RATIO_IDENTITY, inverse=value)))
    assert run_cli(["coarse", "--config", str(path)]) == (
        2, f"ERROR ParseError: inverse must be true, false or null, got {value!r}\n")


@pytest.mark.parametrize("change,runs", [
    ({"inverse": True}, True),
    ({"inverse": False}, False),
    ({"inverse": None}, False),
    ({}, False),
], ids=["true", "false", "null", "absent"])
def test_coarse_inverse_runs_only_when_true(tmp_path, change, runs):
    proper = [{"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"}]
    cfg = dict(RATIO_IDENTITY, map={"rule": "identity", "domain": "1..10", "proper": proper})
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(dict(cfg, **change)))
    code, out = run_cli(["coarse", "--config", str(path)])
    assert code == 0
    assert ("coarse-inverse" in out) == runs


def test_a_witness_path_must_be_a_string_and_no_descriptor_is_read(tmp_path):
    """A JSON integer where a witness path belongs is refused, not taken as
    a file descriptor, although the open descriptor holds a valid witness."""
    witness = tmp_path / "witness.json"
    assert run_cli(["witness", "--space", "ratio_minmax", "--scale", "1/2:1",
                    "--window", "1..10", "--witness-out", str(witness)])[0] == 0
    path = tmp_path / "config.json"
    fd = os.open(witness, os.O_RDONLY)
    try:
        check = {"space": "ratio_minmax", "scales": ["1/2:1"]}
        for argv, cfg, bad in (
            (["coarse"], dict(RATIO_IDENTITY, transport={"witness": fd}), fd),
            (["check"], dict(check, witness=fd), fd),
            (["check"], dict(check, witness=["a"]), ["a"]),
        ):
            path.write_text(json.dumps(cfg))
            assert run_cli(argv + ["--config", str(path)]) == (
                2, f"ERROR ParseError: a file path must be a string, got {bad!r}\n")
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0
    finally:
        os.close(fd)


def test_coarse_requires_config():
    code, out = run_cli(["coarse"])
    assert code == 2


def test_coarse_transport_with_builtin_constructor(tmp_path):
    cfg = {
        "source_space": "ratio_minmax",
        "target_space": "ratio_minmax",
        "map": {
            "rule": "identity",
            "domain": "1..200",
            "expansive": [{"level_in": "1/8", "t_in": "1", "level_out": "1/8", "t_out": "1"}],
            "proper": [{"level_in": "1/8", "t_in": "3", "level_out": "1/8", "t_out": "1"}],
            "onto": "1/2:1",
        },
        "window_x": "1..200",
        "window_y": "1..200",
        "scale": "1/3:1",
        "transport": {},
    }
    path = tmp_path / "transport.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["coarse", "--config", str(path)])
    assert code == 0
    assert "PASS target-witness-verified" in out
    assert "NOTE derived-source-scale r=7/8 t=1" in out


@pytest.mark.parametrize("argv, config, code", [
    (["pipeline", "--space", "ratio_minmax", "--scale", "1/2:1", "--window", "1..300"],
     None, 0),
    (["verify-axioms", "--window", "1..5", "--t-grid", "1"],
     {"space": {"kind": "pathological", "tnorm": "product"}}, 1),
], ids=["pass", "certified-fail"])
def test_out_copies_the_stream_to_a_file(tmp_path, argv, config, code):
    """``--out`` writes the bytes of stdout to its file and leaves the exit
    code as it is without the flag."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    plain = run_cli(argv)
    out_file = tmp_path / "stream.txt"
    copied = run_cli(argv + ["--out", str(out_file)])
    assert plain[0] == copied[0] == code
    assert copied[1] == plain[1]
    assert out_file.read_bytes() == copied[1].encode("utf-8")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_report_streams_are_byte_identical(tmp_path):
    commands = [
        ["verify-axioms", "--space", "ratio_minmax", "--window", "1..15",
         "--t-grid", "1/2,1", "--bridge-cases", "100"],
        ["witness", "--space", "ratio_minmax", "--scale", "1/2:1", "--window", "1..300"],
        ["oracle", "--space", "ratio_minmax", "--scale", "1/2:1",
         "--bound", "1/2:1", "--window", "2..8"],
        ["pipeline", "--space", "reciprocal_product", "--scale", "1/2:1",
         "--window", "1..120"],
    ]
    first = [run_cli(argv) for argv in commands]
    second = [run_cli(argv) for argv in commands]
    assert first == second


def test_witness_files_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        run_cli(["witness", "--space", "ratio_minmax", "--scale", "1/2:1",
                 "--window", "1..500", "--witness-out", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# every scale through parse_scale; defaults only for absent values
# ---------------------------------------------------------------------------

ORACLE = ["oracle", "--space", "ratio_minmax", "--scale", "1/2:1", "--window", "1..6"]
WITNESS = ["witness", "--space", "ratio_minmax", "--window", "1..10"]


@pytest.mark.parametrize("argv, config, message", [
    (ORACLE, {"bound": 5}, "scale must look like p/q:p/q, got 5"),
    (ORACLE, {"bound": {"r": "1/4", "t": "1"}},
     "scale must look like p/q:p/q, got {'r': '1/4', 't': '1'}"),
    (WITNESS + ["--scale", "1/2:1", "--scale", "3/4:1"], None,
     "this command runs at one scale, got 2"),
    (["pipeline", "--space", "ratio_minmax", "--window", "1..10",
      "--scale", "1/2:1", "--scale", "3/4:1"], None, "this command runs at one scale, got 2"),
    (ORACLE + ["--scale", "3/4:1"], None, "this command runs at one scale, got 2"),
    (WITNESS, {"scales": "1/2:1"}, "scales must be a list of r:t strings, got '1/2:1'"),
], ids=["oracle-bound-int", "oracle-bound-object", "witness-two-scales",
        "pipeline-two-scales", "oracle-two-scales", "scales-string"])
def test_every_scale_is_read_as_one_r_t_string(tmp_path, argv, config, message):
    """A bound that is not an r:t string is refused, not replaced by the
    scale; a second scale is refused, not dropped; a scales string is not
    read one character at a time."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert run_cli(argv) == (2, f"ERROR ParseError: {message}\n")


@pytest.mark.parametrize("argv, config, line", [
    (["verify-axioms", "--space", "ratio_minmax", "--window", "1..5"], {"t_grid": []},
     "DomainError: t grid must be non-empty"),
    (["verify-axioms", "--space", "ratio_minmax", "--window", "1..5"], {"t_grid": 0},
     "DomainError: t grid values must be positive"),
    (["verify-axioms", "--space", "ratio_minmax", "--window", "1..5"], {"t_grid": ""},
     "ParseError: malformed rational '' (decimals are not accepted)"),
    (["witness", "--space", "ratio_minmax", "--scale", "1/2:1"], {"window": ""},
     "ParseError: window range must look like a..b, got ''"),
], ids=["t-grid-empty-list", "t-grid-zero", "t-grid-empty-string", "witness-window-empty"])
def test_a_falsy_config_value_is_checked_not_defaulted(tmp_path, argv, config, line):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(argv + ["--config", str(path)]) == (2, f"ERROR {line}\n")


def test_a_window_of_incomparable_points_is_a_parse_error(tmp_path):
    """Window points that cannot be ordered are a config error (exit 2),
    not a certified failure."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"space": "ratio_minmax", "window": [1, [1, 2]],
                                "scales": ["1/2:1"]}))
    assert run_cli(["witness", "--config", str(path)]) == (
        2, "ERROR ParseError: window points must be mutually comparable, got [1, [1, 2]]\n")


def test_main_parses_with_one_parser_per_process(monkeypatch, capsys):
    """The parser does not depend on the argv, so ``main`` builds it once:
    a repeated call builds no parser and writes the same bytes with the
    same exit code, for a verdict run, a usage error and ``--help``."""
    import argparse

    from fuzzycoarse import cli

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kw: built.append(0) or init(self, *args, **kw))
    for argv, code in [(["pipeline", "--space", "ratio_minmax", "--scale", "1/2:1",
                         "--window", "1..40"], 0),
                       (["pipeline", "--no-such-flag"], 2), (["--help"], 0)]:
        first = main(argv), capsys.readouterr()
        built.clear()
        assert (main(argv), capsys.readouterr()) == first and first[0] == code
        assert built == []
    assert cli.build_parser() is cli.build_parser()
