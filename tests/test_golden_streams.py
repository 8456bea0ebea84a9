"""Golden report streams: the sha256 of stdout and the exit code of fixed
CLI runs, so a refactor that must leave every stream byte-identical is
checked against recorded bytes, not only against itself.

Re-record a digest only with a change that explains why its stream moved.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from fuzzycoarse import MINIMUM, ScaleParams, Window, standard_space, witness_ball_partition
from fuzzycoarse.cli import main
from fuzzycoarse.errors import NonArchimedeanViolationError

GRID = ["--t-grid", "1/2,1,2,7"]

# A coarse run through every check: both moduli, onto, the inverse and a
# transport with the built-in ratio_minmax witness constructor.
INVERSE_AND_TRANSPORT = {
    "source_space": "ratio_minmax",
    "target_space": "ratio_minmax",
    "map": {
        "rule": "identity",
        "domain": "1..120",
        "expansive": [{"level_in": "1/8", "t_in": "1", "level_out": "1/8", "t_out": "1"}],
        "proper": [{"level_in": "1/8", "t_in": "3", "level_out": "1/8", "t_out": "1"},
                   {"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"}],
        "onto": "1/2:1",
    },
    "window_x": "1..120",
    "window_y": "1..120",
    "scale": "1/3:1",
    "inverse": True,
    "transport": {},
}

# x -> 3x + 1 triples distances: one expansive entry and one proper entry
# fail, each next to one that passes.
MODULUS_FAILURES = {
    "source_space": "standard",
    "target_space": "standard",
    "map": {
        "rule": {"affine": {"a": "3", "b": "1"}},
        "domain": "0..30",
        "expansive": [{"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"},
                      {"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "6"}],
        "proper": [{"level_in": "1/4", "t_in": "1", "level_out": "1/2", "t_out": "1"},
                   {"level_in": "1/8", "t_in": "1", "level_out": "1/2", "t_out": "1"}],
    },
    "window_x": "0..30",
    "window_y": "0..91",
    "scale": "1/2:1",
}

# x -> 5x/2 + 1/2 on 0..8 into the rationals: the images leave gaps in a
# grid of step 1/4, so the onto check fails at 3/2, the first grid point
# outside every image point's region.
ONTO_FAILURE = {
    "source_space": "standard",
    "target_space": {"kind": "standard", "universe": "rationals"},
    "map": {
        "rule": {"affine": {"a": "5/2", "b": "1/2"}},
        "domain": "0..8",
        "expansive": [{"level_in": "1/2", "t_in": "1", "level_out": "1/4", "t_out": "1"},
                      {"level_in": "1/2", "t_in": "1", "level_out": "1/3", "t_out": "1"}],
        "proper": [{"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"}],
        "onto": "1/2:1",
    },
    "window_x": "0..8",
    "window_y": {"grid": {"lo": "0", "hi": "20", "step": "1/4"}},
    "scale": "1/2:1",
}

# The same map asked for an inverse: 3/2 has no preimage candidate.
NO_PREIMAGE = dict(ONTO_FAILURE, inverse=True,
                   map={k: v for k, v in ONTO_FAILURE["map"].items() if k != "onto"})

# A target with a table metric has no closed-form region, so every check
# runs its pairwise fallback.
TABLE_POINTS = [0, 10, 20, 30, 40, 50]
TABLE_TARGET = {
    "source_space": "standard",
    "target_space": {"kind": "standard", "metric": {
        "rule": "table", "points": TABLE_POINTS,
        "matrix": [[min(abs(p - q) // 10, 2) for q in TABLE_POINTS] for p in TABLE_POINTS]}},
    "map": {
        "rule": {"table": [[x, 10 * min(x // 2, 4)] for x in range(12)]},
        "domain": "0..11",
        "expansive": [{"level_in": "1/2", "t_in": "1", "level_out": "1/3", "t_out": "1"},
                      {"level_in": "1/4", "t_in": "1", "level_out": "1/2", "t_out": "1"}],
        "proper": [{"level_in": "1/3", "t_in": "1", "level_out": "1/4", "t_out": "1"}],
        "onto": "2/3:1",
    },
    "window_x": "0..11",
    "window_y": TABLE_POINTS,
    "scale": "2/3:1",
    "inverse": True,
}

PATHOLOGICAL_PRODUCT = {"space": {"kind": "pathological", "tnorm": "product"}}

# A transport from a source kind with no witness constructor and no
# witness file: the derivation stops where it needs the source witness.
TRANSPORT_WITHOUT_CONSTRUCTOR = {
    "source_space": "standard",
    "target_space": {"kind": "standard", "universe": "rationals"},
    "map": {
        "rule": "inclusion",
        "domain": "0..39",
        "expansive": [{"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"}],
        "proper": [{"level_in": "1/16", "t_in": "3", "level_out": "1/2", "t_out": "21"}],
        "onto": "1/2:1",
    },
    "window_x": "0..39",
    "window_y": {"grid": {"lo": "0", "hi": "39", "step": "1/2"}},
    "scale": "1/2:1",
    "transport": {},
}

METRIC_ON_RATIO = {"space": {"kind": "ratio_minmax", "metric": "euclidean"}}

# The chain-inequality scanners under the minimum and Lukasiewicz
# t-norms: pathological min fails at the first triple, pathological
# Lukasiewicz passes, and a three-point table metric with d(0, 2) = 100
# fails under Lukasiewicz at the largest s.
PATHOLOGICAL_MIN = {"space": {"kind": "pathological", "tnorm": "min"}}
LUKASIEWICZ_TABLE = {
    "space": {"kind": "standard", "tnorm": "lukasiewicz",
              "metric": {"rule": "table", "points": [0, 1, 2],
                         "matrix": [[0, 1, 100], [1, 0, 1], [100, 1, 0]]}},
    "window": [0, 1, 2],
}

# The chain-inequality scan on and off certified radial windows: the rows
# of reciprocal_product grow away from the diagonal on their left, so its
# chain scans every middle point; the product twin of LUKASIEWICZ_TABLE is
# radial and fails at 0~1~2; the ultrametric passes under the product.
PRODUCT_TABLE = {
    "space": {"kind": "standard", "tnorm": "product",
              "metric": LUKASIEWICZ_TABLE["space"]["metric"]},
    "window": [0, 1, 2],
}
ULTRAMETRIC_PRODUCT = {"space": {"kind": "ultrametric_standard", "tnorm": "product"}}

# A table ultrametric under min whose clusters are not runs of the line:
# d(p, q) is the bit length of CODES[p] ^ CODES[q], so d(0, 2) = 1 and
# d(0, 1) = d(1, 2) = 2.  No row falls away from the diagonal, so the chain
# is decided off radial windows, and every triple passes.
CODES = [0, 2, 1, 5, 3, 8, 11, 4, 9, 6, 10, 7]
MIN_TABLE_ULTRAMETRIC = {
    "space": {"kind": "standard", "tnorm": "min",
              "metric": {"rule": "table", "points": list(range(12)),
                         "matrix": [[(a ^ b).bit_length() for b in CODES] for a in CODES]}},
    "window": "0..11",
}


def identity_onto_inverse(kind, window_y, scale):
    """The identity on 1..60 into the same kind, checked onto at the scale
    and inverted there, with the one proper entry the inverse needs.  A
    listed ``window_y`` gets the source window of its points up to 60."""
    r, t = scale.split(":")
    level = str(1 - F(r))
    return {
        "source_space": kind,
        "target_space": kind,
        "map": {"rule": "identity", "domain": "1..60",
                "proper": [{"level_in": level, "t_in": t, "level_out": level, "t_out": t}],
                "onto": scale},
        "window_x": window_y if isinstance(window_y, str) else [p for p in window_y if p <= 60],
        "window_y": window_y,
        "scale": scale,
        "inverse": True,
    }


# name -> (argv, config written to a file and passed as --config, exit code,
#          sha256 of stdout)
CASES = {
    "axioms-ratio": (
        ["verify-axioms", "--space", "ratio_minmax", "--window", "1..20"] + GRID, None, 0,
        "cdd9f0a14a6383f14609d51b0da349b219fd2f2fc3cdbacec94095767f5e5007"),
    "axioms-ultrametric": (
        ["verify-axioms", "--space", "ultrametric_standard", "--window", "1..20"] + GRID, None, 0,
        "7841098e568097695fca45ef03fca058cde52ad3e8579b09ee9f82777cef60e1"),
    "axioms-standard": (
        ["verify-axioms", "--space", "standard", "--window=-5..5"] + GRID, None, 0,
        "45fac5dd006373facacb59cdee2f2f9c7468026a95389102d9bce84ea77db25b"),
    "axioms-pathological-product": (
        ["verify-axioms", "--window", "1..20"] + GRID, PATHOLOGICAL_PRODUCT, 1,
        "b66d5e7c1e0fe29e2f5c034c4a4ec2588320ef5ca11053410c657f64d469f5b1"),
    "witness-ultrametric": (
        ["witness", "--space", "ultrametric_standard", "--scale", "1/4:10", "--window", "1..60"],
        None, 0,
        "3342416c259f33f6fbc03b236803934f4b3263181431a3b9fbe6fa9bf3a865dc"),
    "coarse-inverse-transport": (
        ["coarse"], INVERSE_AND_TRANSPORT, 0,
        "27af823ff320f84385f1451bb981d1255b296eaa51f1fcea7af51278f61b0d7b"),
    "coarse-modulus-failures": (
        ["coarse"], MODULUS_FAILURES, 1,
        "01886cb71e35ac7896e7649f7c6aea7dcc3424bbbc7e3729f802a48b7d97cb52"),
    "coarse-onto-failure": (
        ["coarse"], ONTO_FAILURE, 1,
        "968c6fdc8cd60a8eb18e5e036e5a25a3de4ddf1342793b894b52a9b7b7d4060a"),
    "coarse-no-preimage": (
        ["coarse"], NO_PREIMAGE, 2,
        "1cf5dbcee20e78d59f6b59adb2833149307ee55340f036cd259f9621a988426c"),
    "coarse-table-target": (
        ["coarse"], TABLE_TARGET, 1,
        "609340d9b2e3484433fc19e38b619b91919b39c46f6813df02d942b20678784e"),
    # Streams decided by which kinds have a witness constructor.
    "pipeline-pathological-refused": (
        ["pipeline", "--space", "pathological", "--scale", "1/2:1", "--window", "1..20"],
        None, 2,
        "256cfad2dab0f47008162c7cc040ca6d859a201aa07b8b46b2a2ebd50e56f6b4"),
    "pipeline-reciprocal": (
        ["pipeline", "--space", "reciprocal_product", "--scale", "1/2:1", "--window", "1..40"],
        None, 0,
        "b51aeccf87495c963f4550ab82a6ee14acefb7fad514426a8b67d79256dc0c06"),
    "oracle-ratio": (
        ["oracle", "--space", "ratio_minmax", "--scale", "1/2:1", "--window", "1..6"],
        None, 0,
        "229a454b87a4baca6de4b9eca8107df47bb044bfaf67128ad6d071f94d909b94"),
    "oracle-ultrametric": (
        ["oracle", "--space", "ultrametric_standard", "--scale", "1/2:1", "--window", "1..6"],
        None, 0,
        "25f0903540e2b09c86ab4de053c3c92e1feec56ab9b774cb2bcd4c2e2f9b6a0c"),
    "oracle-pathological": (
        ["oracle", "--space", "pathological", "--scale", "1/2:1", "--window", "1..6"],
        None, 0,
        "5e6b04666afc600ad7db467ce5ed7021e10f595b1ad9eeaa7113cd922550321f"),
    "witness-pathological": (
        ["witness", "--space", "pathological", "--scale", "1/2:1", "--window", "1..30"],
        None, 0,
        "dfd4ec15d0baadb853bb8a4d2c1fc50a1679922cebd1bebf236d26cd589b9e56"),
    "witness-standard": (
        ["witness", "--space", "standard", "--scale", "1/2:1", "--window", "0..20"],
        None, 0,
        "b8cb369803ef611fc2d8f0d8c0dabd523bdcdd93cce71cd9a7bc129cbe972dbb"),
    "witness-reciprocal": (
        ["witness", "--space", "reciprocal_product", "--scale", "3/4:1", "--window", "1..30"],
        None, 0,
        "f5431005b91ec0f8c5f7402cf889a1fc93a946a69f0e54e7739bed2dd235e1d0"),
    "witness-ratio": (
        ["witness", "--space", "ratio_minmax", "--scale", "1/2:1", "--window", "1..60"],
        None, 0,
        "79a5dc809f0b357ed915aba146a81f75d6ed7554b174d91e40ef4041bc0b75fe"),
    "coarse-transport-without-constructor": (
        ["coarse"], TRANSPORT_WITHOUT_CONSTRUCTOR, 2,
        "f1863d688a2953e1ca1c6939698a9acef03839621c05ce0c80367edae49ee844"),
    "config-unknown-kind": (
        ["verify-axioms", "--space", "nosuch", "--window", "1..5"], None, 2,
        "cb00ef4e667a78de3264e845f731f9e9368d1c2108b4f85ed312266cbfdc0546"),
    "config-metric-on-ratio": (
        ["verify-axioms", "--window", "1..5"], METRIC_ON_RATIO, 2,
        "492b382612a867c118eda60aacde8e52f7010d80494e8564eb0ec76c026f10a6"),
    # Streams decided by balls: the refining ball cover of the pipeline, and
    # onto and the inverse on targets with two-run balls (reciprocal_product),
    # a special centre 1 (pathological) and a t-dependent ultrametric, each on
    # a run window and a sparse one.
    "pipeline-ratio-300": (
        ["pipeline", "--space", "ratio_minmax", "--scale", "1/2:1", "--window", "1..300"],
        None, 0,
        "787e171fce7604b8cf8c13c3b02032549bc2ccbf7215420383d3990149717276"),
    # The two pipeline ops of the benchmark at their base windows.
    "pipeline-ratio-4000": (
        ["pipeline", "--space", "ratio_minmax", "--scale", "1/2:1", "--window", "1..4000"],
        None, 0,
        "975a4dc73788870892bcf5cc217b4e5c82f5c062115833fbc7eda5c187fd8651"),
    "pipeline-reciprocal-1000": (
        ["pipeline", "--space", "reciprocal_product", "--scale", "1/2:1", "--window", "1..1000"],
        None, 0,
        "45141a7ddc3a24bf936d999e14ed1e2f89c68dfd853f6dc15ba409cb8751c787"),
    "coarse-inverse-reciprocal-run": (
        ["coarse"], identity_onto_inverse("reciprocal_product", "1..60", "9/10:1"), 0,
        "9bfb6aecdb89c2e7af783cd874d94c42d180f6542ed0dad79cdc5764add50783"),
    "coarse-inverse-reciprocal-sparse": (
        ["coarse"], identity_onto_inverse("reciprocal_product",
                                          [1, 3, 7, 15, 31, 45, 60, 75, 90], "99/100:1"), 0,
        "1beb2925930c3355bfdd1eb86fe7d9311336894855b8b1f200ce8e489ca9257a"),
    "coarse-inverse-pathological-run": (
        ["coarse"], identity_onto_inverse("pathological", "1..60", "3/4:1"), 0,
        "786c235b927defc257b6560852e1a8adaeb390a36e1b7fbdb9e07b11bfd37751"),
    "coarse-inverse-pathological-sparse": (
        ["coarse"], identity_onto_inverse("pathological", [1, 2, 5, 9, 30, 61, 80], "3/4:1"), 0,
        "8a3ac9c3b93067e7a06b164ed3c05e9996d213de15e48732eb3bc3ab11552bfe"),
    "coarse-inverse-ultrametric-run": (
        ["coarse"], identity_onto_inverse("ultrametric_standard", "1..60", "1/2:30"), 0,
        "a177b141639d3ba8f051f98faf25472f428babc742aa04c0f4be94e63389862f"),
    "coarse-inverse-ultrametric-sparse": (
        ["coarse"], identity_onto_inverse("ultrametric_standard",
                                          [1, 4, 9, 16, 25, 29, 36, 49], "1/2:30"), 0,
        "fa4db175591f5938769a0b9b65801ffb43b818437e912d454f55993f09ba9cec"),
    # Streams decided by the min and Lukasiewicz chain scanners.
    "axioms-pathological-min": (
        ["verify-axioms", "--window", "1..20"] + GRID, PATHOLOGICAL_MIN, 1,
        "bc322e3f0025495f412775c0fcf85f63d3961b8a7621749c26920b4703c6c6f8"),
    "axioms-pathological-lukasiewicz": (
        ["verify-axioms", "--space", "pathological", "--window", "1..20"] + GRID, None, 0,
        "acff848c72b12a0694fc3caf8b89a8d19c859242329d8ab7a0f243bc4b78b255"),
    "axioms-lukasiewicz-table": (
        ["verify-axioms"] + GRID, LUKASIEWICZ_TABLE, 1,
        "d7cee553030eb5caa79e616d2734d0910e8a95fa9d6baf109223d67be67a79c3"),
    "axioms-reciprocal": (
        ["verify-axioms", "--space", "reciprocal_product", "--window", "1..20"] + GRID, None, 0,
        "42d182716aa524429abfc6730ccdb926a2c85851c35f5a969e19d54666b387f3"),
    "axioms-product-table": (
        ["verify-axioms"] + GRID, PRODUCT_TABLE, 1,
        "c70ec301e91025cc9695fd064189289424bc23e3974160f62d89e36272ad80f6"),
    "axioms-ultrametric-product": (
        ["verify-axioms", "--window", "1..20"] + GRID, ULTRAMETRIC_PRODUCT, 0,
        "2b8684f6b7c735a03e863859b0b1126e03c8e66221f7b143ae10bd5d91967afb"),
    "axioms-min-table-ultrametric": (
        ["verify-axioms"] + GRID, MIN_TABLE_ULTRAMETRIC, 0,
        "349ce39b7fc26be3399554b67e49ea5e049034210f8a0acf063413c585887c6b"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stream(name, tmp_path):
    argv, config, code, digest = CASES[name]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = main(argv)
    assert (got, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()) == (code, digest)


def test_golden_non_archimedean_message():
    with pytest.raises(NonArchimedeanViolationError) as info:
        witness_ball_partition(standard_space(tnorm=MINIMUM), ScaleParams(F(1, 2), 4),
                               F(1, 4), Window(range(0, 12)))
    assert str(info.value) == "M(x,y,t)*M(y,z,t) <= M(x,z,t) fails at (0, 1, 2) (t=4)"


# A standard space on a 5-point table metric has no fast extremal path, so
# the disjointness check scans every cross pair of the family's two sets in
# set order.  Two cross pairs, 2~1 and 3~4, tie for the top value 1/2; the
# stream pins the first one in that order.
TIED_POINTS = [0, 1, 2, 3, 4]
TIED_PAIRS = {(1, 2), (3, 4)}
TIED_WITNESS = {
    "n": 0,
    "params": {"r": "1/4", "t": "1"},
    "bound_params": {"r": "3/4", "t": "1"},
    "window": "0..4",
    "families": [{"label": "tied", "sets": [[2, 3], [0, 1, 4]]}],
}


def test_golden_check_tied_cross_pair_on_a_table_metric(tmp_path):
    matrix = [[0 if p == q else 1 if (min(p, q), max(p, q)) in TIED_PAIRS else 2
               for q in TIED_POINTS] for p in TIED_POINTS]
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(TIED_WITNESS))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "space": {"kind": "standard",
                  "metric": {"rule": "table", "points": TIED_POINTS, "matrix": matrix}},
        "witness": str(witness),
        "scales": ["1/4:1", "3/4:1"],
    }))
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = main(["check", "--config", str(config)])
    assert (got, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()) == (
        1, "344f3283686ff41bdb284fd1aed7f07889010c252c6b9a7df7dcf8eab9693138")


# Witness files: the sha256 of the --witness-out file next to the stdout
# of the run that wrote it, then of `check` runs that read the file back.
# The ultrametric witness is the ball-partition one; the grid window pins
# "p/q" string points next to integer points in one member list.
GRID_WITNESS = {
    "space": {"kind": "standard", "universe": "rationals"},
    "window": {"grid": {"lo": "-2", "hi": "3", "step": "1/3"}},
    "scales": ["1/2:1"],
}

def window_witness(window):
    """A whole-window witness on the standard line over a config window:
    stdout pins the window's label and the file the window as written
    back."""
    return {"space": {"kind": "standard"}, "window": window, "scales": ["1/2:1"]}


# name -> (argv, config, exit code, sha256 of stdout, sha256 of the file)
WITNESS_FILES = {
    "ratio": (
        ["witness", "--space", "ratio_minmax", "--scale", "1/2:1", "--window", "1..3000"],
        None, 0,
        "2d3008a14957c5d1875eb16362dea4053beb2d19c5bef95e7c2c81cad4c0bad0",
        "c411237ad7ad8e04efb25e8054b99db605044e0598fba3b7788c1d626ff80428"),
    "reciprocal": (
        ["witness", "--space", "reciprocal_product", "--scale", "1/2:1", "--window", "1..2000"],
        None, 0,
        "55f18966508731d3420838557545ae2e6aa806ea84a354fec8f4f9dc65f77163",
        "80823ce0d32c3d7cdb1ee4b8772aad34948ca2b46e048067017fb9d46cdfbc37"),
    "ultrametric": (
        ["witness", "--space", "ultrametric_standard", "--scale", "1/4:10", "--window", "1..120"],
        None, 0,
        "883166f05490949a2a887a89cd65d65b46a763843cae5accc2658be1dcd2a1a2",
        "130d49c047312512dd3c469590aef1701431843c8213aacd3e967069a24e4337"),
    "grid": (
        ["witness"], GRID_WITNESS, 0,
        "1ddb5756aad4943b8cf3d3d0c15e3695b95a9c88cb561a9c3d57fc1ac091d416",
        "2bb10798bf0cbdc861a8a4ad619b48207e94068e7ace1087eadfb246f9007523"),
    # Integer windows given as a list in any order with repeats, as evenly
    # spaced lists of step 2, as one point and as a grid of integer step.
    "window-unsorted": (
        ["witness"], window_witness([3, 1, 2, 2]), 0,
        "e5eb37b01f4b1f93d2b21b7a41cab00962d6c264c7ff7bef73977b45f7970d99",
        "5a4e2e7bc93ee28ec52cbf493886812b60e17d6d233991fe3b114bba004f30a7"),
    "window-step-2": (
        ["witness"], window_witness([1, 3, 5, 7]), 0,
        "53ef1342d8c3ba2b38415b98c9926dbc04ebe6514a7e0579a732bb80ac85e07e",
        "bf1b2b9b5c3605c89bb82fd0341e6c08efbf9889a1dce587b75d3580438d59f1"),
    "window-negative-step-2": (
        ["witness"], window_witness([-6, -4, -2]), 0,
        "1344b5dc0a16ff20fa894a1c197b4414ec65a52edbce162eb8415ede21631a59",
        "d9bbe4bde8d4e211b03f8bf31c1f9f1a5273310d6c52a2c03a847a7dd36cf021"),
    "window-one-point": (
        ["witness"], window_witness([5]), 0,
        "953c14461ccebab7bc43ca5c43cf1abbf15f38c8163e0ce5644c2e35faa2cf22",
        "e1bccc35068e256058dd7ba9f549c555d026a0ffb6d6bd0a6d9d300440d5e620"),
    "window-integer-grid": (
        ["witness"], window_witness({"grid": {"lo": "0", "hi": "20", "step": "2"}}), 0,
        "b7637d8e3eb6bf83ce791077422a68557ab9ac0f2abdaf8ff563a9c1c3f8da04",
        "01cee9379e1ead9afdda72e377ea117e6c38529bf70b3db96f65b45ede2a3360"),
}

# name -> (witness file, check argv, config, exit code, sha256 of stdout);
# each check mixes scales at two distinct times.
WITNESS_CHECKS = {
    "ratio": (
        "ratio", ["check", "--space", "ratio_minmax",
                  "--scale", "1/4:1", "--scale", "1/2:2", "--scale", "3/4:1"], None, 1,
        "e84a07530deef0d48f31b6f7d6df628661f4cfef583a84f86fa669ee366beb97"),
    "reciprocal": (
        "reciprocal", ["check", "--space", "reciprocal_product",
                       "--scale", "1/4:1", "--scale", "1/2:2", "--scale", "3/4:1"], None, 1,
        "7012730b1d502549b55ff9381a226d6d7f06e0666c948c8744815e676a07c67a"),
    "ultrametric": (
        "ultrametric", ["check", "--space", "ultrametric_standard",
                        "--scale", "1/4:10", "--scale", "1/2:20", "--scale", "3/4:10"],
        None, 1,
        "a05b7c6ab23079c8cdddd91eef66fdc86758c58549601e0f954337a0750e6657"),
    "grid": (
        "grid", ["check"], dict(GRID_WITNESS, scales=["1/4:1", "1/2:2", "3/4:1"]), 0,
        "fd9b7ae753c818b7465839df23d0df6ac3b03e25aa7bc8fab3d5b48398e9dd6a"),
}


def _run(argv, config, tmp_path):
    """(exit code, sha256 of stdout) of one CLI run."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = main(argv)
    return got, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _write_witness(name, tmp_path):
    argv, config, _, _, _ = WITNESS_FILES[name]
    path = tmp_path / f"{name}.witness.json"
    return _run(argv + ["--witness-out", str(path)], config, tmp_path), path


@pytest.mark.parametrize("name", sorted(WITNESS_FILES))
def test_golden_witness_file(name, tmp_path):
    _, _, code, digest, file_digest = WITNESS_FILES[name]
    got, path = _write_witness(name, tmp_path)
    assert got == (code, digest)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_digest


@pytest.mark.parametrize("name", sorted(WITNESS_CHECKS))
def test_golden_witness_check(name, tmp_path):
    source, argv, config, code, digest = WITNESS_CHECKS[name]
    _, path = _write_witness(source, tmp_path)
    assert _run(argv + ["--witness", str(path)], config, tmp_path) == (code, digest)
