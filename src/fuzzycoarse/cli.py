"""Command-line front end.

Subcommands: verify-axioms, witness, check, pipeline, coarse, oracle.
Reports stream as one predicate verdict per line; the stream is
byte-identical across runs for identical configs.  Exit codes: 0 all
certified, 1 certified failure, 2 usage, parse or size errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import asdim, coarse
from .config import (
    _RANGE_RE,
    dump_json,
    format_scale,
    int_from_json,
    load_json_file,
    map_from_config,
    parse_scale,
    parse_window_spec,
    space_from_config,
    witness_from_json,
    witness_to_json,
)
from .errors import FuzzyCoarseError, ParseError
from .rationals import as_fraction, parse_rational
from .space import check_axioms, threshold_bridge_suite

EXIT_PASS = 0
EXIT_CERTIFIED_FAIL = 1
EXIT_USAGE = 2


def _render(args, items) -> int:
    """Write the lines of the reports and strings to stdout and to
    ``--out``; exit 1 exactly when one of them is a failed verdict."""
    lines = [line for item in items
             for line in ([item] if isinstance(item, str) else item.lines())]
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_CERTIFIED_FAIL if any(line.startswith("FAIL ") for line in lines) else EXIT_PASS


def _merged(args, config_keys):
    """Flag values overridden by config-file entries when present, without
    the keys whose value is None (an unset flag or a JSON null), so that a
    default applies only to those; ``""``, ``0`` and ``[]`` are kept for
    their parsers to check."""
    merged = dict(config_keys)
    if getattr(args, "config", None):
        cfg = load_json_file(args.config)
        if not isinstance(cfg, dict):
            raise ParseError("config file must hold a JSON object")
        merged.update(cfg)
    return {key: value for key, value in merged.items() if value is not None}


def _space_of(merged):
    spec = merged.get("space")
    if spec is None:
        raise ParseError("a space is required (--space or config)")
    return space_from_config(spec)


def _scales_of(merged):
    raw = merged.get("scales", [])
    if not isinstance(raw, list):
        raise ParseError(f"scales must be a list of r:t strings, got {raw!r}")
    if not raw:
        raise ParseError("at least one --scale r:t is required")
    return [parse_scale(s) for s in raw]


def _scale_of(merged):
    """The one scale of a command that runs at a single scale."""
    scales = _scales_of(merged)
    if len(scales) > 1:
        raise ParseError(f"this command runs at one scale, got {len(scales)}")
    return scales[0]


def cmd_verify_axioms(args) -> int:
    merged = _merged(args, {"space": args.space, "window": args.window,
                            "t_grid": args.t_grid, "seed": args.seed,
                            "bridge_cases": args.bridge_cases})
    space = _space_of(merged)
    window = parse_window_spec(merged.get("window", "1..20"))
    grid = merged.get("t_grid", "1/2,1,2,7")
    if isinstance(grid, str):
        grid = grid.split(",")
    elif not isinstance(grid, list):
        grid = [grid]
    t_grid = [as_fraction(t) for t in grid]
    cases = int_from_json(merged.get("bridge_cases", 0), "bridge_cases")
    seed = int_from_json(merged.get("seed", 0), "seed")
    reports = [check_axioms(space, window, t_grid)]
    if cases > 0:
        reports.append(threshold_bridge_suite(seed=seed, cases=cases))
    return _render(args, reports)


def _has_t_free_constructor(space) -> bool:
    """Pipeline and oracle: the kind has a witness constructor and is t-independent."""
    return space.kind_name in asdim.WITNESS_CONSTRUCTORS and not space.t_dependent


def cmd_witness(args) -> int:
    merged = _merged(args, {"space": args.space, "window": args.window,
                            "scales": args.scale, "epsilon": args.epsilon})
    space = _space_of(merged)
    window = parse_window_spec(merged.get("window", "1..100"))
    params = _scale_of(merged)
    epsilon = merged.get("epsilon")
    if isinstance(epsilon, str):
        epsilon = parse_rational(epsilon)
    w = asdim.construct_witness(space, params, window, epsilon)
    code = _render(args, [asdim.verify_witness(space, w)])
    if args.witness_out:
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(witness_to_json(w)))
    return code


def cmd_check(args) -> int:
    merged = _merged(args, {"space": args.space, "scales": args.scale,
                            "witness": args.witness})
    space = _space_of(merged)
    path = merged.get("witness")
    if not path:
        raise ParseError("a witness file is required (--witness or config)")
    w = witness_from_json(load_json_file(path))
    scales = _scales_of(merged)
    reports = asdim.verify_witness_scales(space, w, scales)
    return _render(args, [item for params, rep in zip(scales, reports)
                          for item in (f"SCALE {format_scale(params)}", rep)])


def cmd_pipeline(args) -> int:
    merged = _merged(args, {"space": args.space, "window": args.window,
                            "scales": args.scale})
    space = _space_of(merged)
    window = parse_window_spec(merged.get("window", "1..500"))
    params = _scale_of(merged)
    if not _has_t_free_constructor(space):
        kinds = [k for k in asdim.WITNESS_CONSTRUCTORS
                 if _has_t_free_constructor(space_from_config(k))]
        raise ParseError(f"pipeline has built-in witness constructors for "
                         f"{' and '.join(kinds)}, not {space.kind_name!r}")

    def factory(scale):
        return asdim.construct_witness(space, scale, window)

    return _render(args, asdim.run_dimension_pipeline(space, params, factory).reports)


def cmd_coarse(args) -> int:
    if not args.config:
        raise ParseError("the coarse command is config-driven; pass --config FILE")
    cfg = load_json_file(args.config)
    if not isinstance(cfg, dict):
        raise ParseError("config file must hold a JSON object")
    for key in ("source_space", "target_space", "map", "window_x", "window_y", "scale"):
        if key not in cfg:
            raise ParseError(f"coarse config needs {key!r}")
    space_x = space_from_config(cfg["source_space"])
    space_y = space_from_config(cfg["target_space"])
    fmap = map_from_config(cfg["map"])
    window_x = parse_window_spec(cfg["window_x"])
    window_y = parse_window_spec(cfg["window_y"])
    params = parse_scale(cfg["scale"])
    inverse = cfg.get("inverse")
    if inverse is not None and not isinstance(inverse, bool):
        raise ParseError(f"inverse must be true, false or null, got {inverse!r}")
    reports = []
    if fmap.expansive:
        reports.append(coarse.check_uniformly_expansive(space_x, space_y, fmap, window_x))
    if fmap.proper:
        reports.append(coarse.check_effectively_proper(space_x, space_y, fmap, window_x))
    if fmap.onto_params is not None:
        reports.append(coarse.check_coarsely_onto(space_y, fmap, fmap.onto_params, window_y))
    if inverse:
        reports.append(coarse.coarse_inverse(space_x, space_y, fmap, params, window_y, window_x)[1])
    if "transport" in cfg:
        tcfg = cfg["transport"]
        if not isinstance(tcfg, dict):
            raise ParseError(f"transport must be an object, got {tcfg!r}")
        witness = witness_from_json(load_json_file(tcfg["witness"])) if "witness" in tcfg else None
        factory = None
        if witness is None and space_x.kind_name in asdim.WITNESS_CONSTRUCTORS:
            source_window = fmap.domain or window_x

            def factory(scale):
                return asdim.construct_witness(space_x, scale, source_window)

        reports.append(coarse.transport_witness(space_x, space_y, fmap, witness, params,
                                                window_y, witness_factory=factory)[1])
    return _render(args, reports)


def cmd_oracle(args) -> int:
    merged = _merged(args, {"space": args.space, "window": args.window,
                            "scales": args.scale, "bound": args.bound})
    space = _space_of(merged)
    window = parse_window_spec(merged.get("window", "1..6"))
    params = _scale_of(merged)
    bound_spec = merged.get("bound")
    bound = params if bound_spec is None else parse_scale(bound_spec)
    k = asdim.oracle_min_families(space, params, bound, window)
    lines = [f"ORACLE min_families={k} scale={format_scale(params)} "
             f"bound={format_scale(bound)} window={window.label()}"]
    if _has_t_free_constructor(space) and asdim.is_initial_segment(window):
        w = asdim.construct_witness(space, params, window)
        lines.append(f"{'PASS' if k <= w.n + 1 else 'FAIL'} oracle-vs-constructor "
                     f"oracle={k} constructor_families={w.n + 1}")
    return _render(args, lines)


@cache  # one parser per process: it does not depend on the argv
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzycoarse",
        description="Exact certification of coarse-geometry statements about "
                    "fuzzy metric spaces at explicit scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "space": dict(help="space tag (see docs) or use --config"),
        "window": dict(help="integer window a..b"),
        "scale": dict(action="append", default=[],
                      help="scale r:t with rational parts, repeatable"),
        "config": dict(help="JSON config file; overrides flags"),
        "out": dict(help="also write the report stream to this file"),
    }

    def common(p, *names):
        """The shared options ``names`` that the command reads, then
        --config and --out, which every command reads."""
        for name in (*names, "config", "out"):
            p.add_argument(f"--{name}", **shared[name])

    p = sub.add_parser("verify-axioms", help="certify the space axioms on a window")
    common(p, "space", "window")
    p.add_argument("--t-grid", dest="t_grid", help="comma-separated rational times")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument("--bridge-cases", dest="bridge_cases", type=int, default=0,
                   help="also run the randomized threshold bridge suite")
    p.set_defaults(fn=cmd_verify_axioms)

    p = sub.add_parser("witness", help="construct and verify a dimension witness")
    common(p, "space", "window", "scale")
    p.add_argument("--epsilon", help="ball enlargement of the ultrametric_standard witness")
    p.add_argument("--witness-out", dest="witness_out", help="write the witness JSON here")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("check", help="re-verify a witness file at a scale grid")
    common(p, "space", "scale")  # the window is the witness file's
    p.add_argument("--witness", help="witness JSON file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("pipeline", help="run the multiplicity/Lebesgue/refinement chain")
    common(p, "space", "window", "scale")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("coarse", help="coarse-map checks, inverse, transport (config-driven)")
    common(p)  # the config names the spaces and windows
    p.set_defaults(fn=cmd_coarse)

    p = sub.add_parser("oracle", help="exact minimum family count on a tiny window")
    common(p, "space", "window", "scale")
    p.add_argument("--bound", help="bound scale r:t (defaults to --scale)")
    p.set_defaults(fn=cmd_oracle)
    return parser


def _join_negative_windows(argv) -> list:
    """Rewrite ``--window -30..29`` as ``--window=-30..29``.

    argparse takes a separate value that starts with '-' and is not a
    plain number for an option, and then reports --window as missing it.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--window" and arg.startswith("-") and _RANGE_RE.match(arg):
            out[-1] = f"--window={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_windows(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.fn(args)
    except FuzzyCoarseError as exc:
        sys.stdout.write(f"ERROR {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
