"""Structured-text ingestion: spaces, windows, scales, witnesses, maps.

Everything rational travels as a decimal-free "p/q" string, points as
ints, "p/q" strings or integer arrays (lattice tuples), windows as
"a..b" ranges, explicit lists, or {"grid": {lo, hi, step}} samples.
"""

from __future__ import annotations

import inspect
import json
import re
from fractions import Fraction
from itertools import chain, compress, groupby, repeat
from operator import is_not

from .coarse import CoarseMap, ModulusEntry, affine_map, identity_map, inclusion_map, table_map
from .asdim import DimensionWitness
from .covers import Family
from .errors import ParseError
from .rationals import _INT_RE, as_fraction, format_rational, parse_rational
from .space import (
    EuclideanLattice,
    EuclideanLine,
    FuzzyMetricSpace,
    MaxUltrametric,
    ScaleParams,
    TableMetric,
    Window,
    UNIVERSES,
    grid_window,
    int_window,
    pathological_space,
    ratio_minmax_space,
    reciprocal_product_space,
    standard_space,
    ultrametric_space,
)
from .tnorm import tnorm_from_name

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

# space kind tag -> builder; each builder has its own default t-norm
SPACE_BUILDERS = {
    "standard": standard_space,
    "reciprocal_product": reciprocal_product_space,
    "ratio_minmax": ratio_minmax_space,
    "pathological": pathological_space,
    "ultrametric_standard": ultrametric_space,
}


def parse_scale(text: str) -> ScaleParams:
    """Parse "r:t" with both parts rational, e.g. "1/2:1"."""
    if not isinstance(text, str) or ":" not in text:
        raise ParseError(f"scale must look like p/q:p/q, got {text!r}")
    r_s, _, t_s = text.partition(":")
    return ScaleParams(parse_rational(r_s), parse_rational(t_s))


def format_scale(params: ScaleParams) -> str:
    return f"{format_rational(params.r)}:{format_rational(params.t)}"


def scale_to_json(params: ScaleParams) -> dict:
    return {"r": format_rational(params.r), "t": format_rational(params.t)}


def scale_from_json(obj) -> ScaleParams:
    if isinstance(obj, str):
        return parse_scale(obj)
    try:
        return ScaleParams(obj["r"], obj["t"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"scale object needs r and t: {obj!r}") from exc


def point_to_json(p):
    if isinstance(p, tuple):
        return list(p)
    if isinstance(p, Fraction):
        return format_rational(p)
    return p


def int_from_json(obj, what: str) -> int:
    """An integer from a JSON integer or an integer string.  A float is
    refused rather than truncated."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if isinstance(obj, str) and _INT_RE.match(obj.strip()):
        return int(obj)
    raise ParseError(f"{what} must be an integer, got {obj!r}")


def point_from_json(obj):
    """A point from JSON, or from ``family_to_json``, which hands over
    Fractions and lattice tuples as they are."""
    if isinstance(obj, bool):
        raise ParseError("booleans are not points")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        obj = parse_rational(obj)
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else obj
    if isinstance(obj, (list, tuple)):
        return tuple(point_from_json(c) for c in obj)
    raise ParseError(f"cannot read point {obj!r}")


def window_to_spec(window: Window):
    if window.is_contiguous_ints():
        return window.label()  # lo..hi, the range spec
    return [point_to_json(p) for p in window.points]


def parse_window_spec(spec) -> Window:
    if isinstance(spec, str):
        m = _RANGE_RE.match(spec.strip())
        if not m:
            raise ParseError(f"window range must look like a..b, got {spec!r}")
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ParseError(f"empty window range {spec!r}")
        return int_window(lo, hi)
    if isinstance(spec, list):
        if not spec:
            raise ParseError("window list must be non-empty")
        points = [point_from_json(p) for p in spec]
        try:
            return Window(points)
        except TypeError:
            raise ParseError(f"window points must be mutually comparable, got {spec!r}") from None
    if isinstance(spec, dict) and "grid" in spec:
        g = spec["grid"]
        try:
            return grid_window(parse_rational(str(g["lo"])), parse_rational(str(g["hi"])),
                               parse_rational(str(g["step"])))
        except KeyError as exc:
            raise ParseError("grid window needs lo, hi, step") from exc
    raise ParseError(f"cannot read window spec {spec!r}")


def _metric_from_config(cfg):
    """A metric from a rule tag or a {rule, ...} object; None is euclidean."""
    if cfg is None:
        return EuclideanLine()
    spec = {"rule": cfg} if isinstance(cfg, str) else cfg
    rule = spec.get("rule") if isinstance(spec, dict) else None
    if rule == "euclidean":
        return EuclideanLine()
    if rule == "max_ultrametric":
        return MaxUltrametric()
    if rule == "euclidean_lattice":
        try:
            return EuclideanLattice(int_from_json(spec["dim"], "euclidean_lattice dim"))
        except KeyError as exc:
            raise ParseError("euclidean_lattice metric needs an integer dim") from exc
    if rule == "table":
        try:
            points = [point_from_json(p) for p in spec["points"]]
            matrix = [[as_fraction(v) for v in row] for row in spec["matrix"]]
        except (KeyError, TypeError) as exc:
            raise ParseError("table metric needs points and matrix") from exc
        return TableMetric(points, matrix)
    raise ParseError(f"unknown metric config {cfg!r}")


def space_from_config(cfg) -> FuzzyMetricSpace:
    """Build a space from a tag or a {kind, tnorm, metric, universe} object.

    A t-norm, metric or universe is passed only when the config names
    one, and only the builders with those parameters (the standard kind's)
    take a metric or a universe.  ``standard_space`` refuses a universe on
    which the metric is not a metric (``max_ultrametric`` on
    ``"integers"``) with ``DomainError``."""
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    if not isinstance(cfg, dict):
        raise ParseError(f"space config must be a tag or object, got {cfg!r}")
    kind = cfg.get("kind")
    build = SPACE_BUILDERS.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise ParseError(f"unknown space kind {kind!r}; expected one of {list(SPACE_BUILDERS)}")
    kwargs = {"tnorm": tnorm_from_name(cfg["tnorm"])} if "tnorm" in cfg else {}
    if not {"metric", "universe"} & cfg.keys() <= inspect.signature(build).parameters.keys():
        raise ParseError(f"space kind {kind!r} takes no metric/universe overrides")
    if "metric" in cfg:
        kwargs["metric"] = _metric_from_config(cfg["metric"])
    if "universe" in cfg:
        try:
            kwargs["universe"] = UNIVERSES[cfg["universe"]]
        except (KeyError, TypeError):
            raise ParseError(f"unknown universe tag {cfg['universe']!r}") from None
    return build(**kwargs)


def _int_lists(seq, types=None) -> bool:
    """Whether ``seq`` is a non-empty sequence of lists, tuples and ranges
    that hold integers only; ``types``, if given, is the set of its item
    types.  A range holds nothing else, so its points are not read."""
    types = set(map(type, seq)) if types is None else types
    if not types or not types <= {list, tuple, range}:
        return False
    lists = compress(seq, map(is_not, map(type, seq), repeat(range))) if range in types else seq
    return set(map(type, chain.from_iterable(lists))) <= {int}


def family_to_json(fam: Family) -> dict:
    """{label, sets}, with the members kept as they are: tuples and ranges
    that ``dump_json`` writes as arrays (``json.dumps`` cannot write a
    range), their points written by ``point_to_json``.  So no point is
    read here, and a write reads each point once, in ``dump_json``."""
    return {"label": fam.label, "sets": fam.sets}


def family_from_json(obj) -> Family:
    """A family from {label, sets}.  Members that hold integers only are
    passed to ``Family`` as they are; it makes them canonical."""
    try:
        sets = obj["sets"]
        if not _int_lists(sets):
            sets = [[point_from_json(p) for p in s] for s in sets]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"family object needs sets: {obj!r}") from exc
    return Family.of(sets, obj.get("label", ""))


def witness_to_json(w: DimensionWitness) -> dict:
    return {
        "n": w.n,
        "params": scale_to_json(w.params),
        "bound_params": scale_to_json(w.bound_params),
        "window": window_to_spec(w.window),
        "families": [family_to_json(f) for f in w.families],
    }


def witness_from_json(obj) -> DimensionWitness:
    try:
        return DimensionWitness(
            int_from_json(obj["n"], "witness n"),
            scale_from_json(obj["params"]),
            scale_from_json(obj["bound_params"]),
            tuple(family_from_json(f) for f in obj["families"]),
            parse_window_spec(obj["window"]),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"witness object is malformed: {exc}") from exc


def modulus_from_json(obj) -> ModulusEntry:
    try:
        return ModulusEntry(
            parse_rational(str(obj["level_in"])),
            parse_rational(str(obj["t_in"])),
            parse_rational(str(obj["level_out"])),
            parse_rational(str(obj["t_out"])),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"modulus entry is malformed: {obj!r}") from exc


def map_from_config(cfg) -> CoarseMap:
    """Build a coarse map from {rule, domain, expansive, proper, onto}."""
    if not isinstance(cfg, dict):
        raise ParseError(f"map config must be an object, got {cfg!r}")
    kwargs = {}
    if "domain" in cfg:
        kwargs["domain"] = parse_window_spec(cfg["domain"])
    for key in ("expansive", "proper"):
        if key in cfg:
            if not isinstance(cfg[key], list):
                raise ParseError(f"map {key} must be a list of modulus entries, got {cfg[key]!r}")
            kwargs[key] = tuple(modulus_from_json(e) for e in cfg[key])
    if "onto" in cfg:
        kwargs["onto_params"] = scale_from_json(cfg["onto"])
    rule = cfg.get("rule", "identity")
    if rule == "identity":
        return identity_map(**kwargs)
    if rule == "inclusion":
        return inclusion_map(**kwargs)
    if isinstance(rule, dict) and "affine" in rule:
        a = rule["affine"]
        try:
            return affine_map(parse_rational(str(a["a"])), parse_rational(str(a["b"])), **kwargs)
        except (KeyError, TypeError) as exc:
            raise ParseError("affine rule needs a and b") from exc
    if isinstance(rule, dict) and "table" in rule:
        rows = rule["table"]
        if not isinstance(rows, list) or not all(isinstance(row, list) and len(row) == 2
                                                 for row in rows):
            raise ParseError("table rule needs a list of [x, image] pairs")
        return table_map({point_from_json(x): point_from_json(y) for x, y in rows}, **kwargs)
    raise ParseError(f"unknown map rule {rule!r}")


def _int_list(seq, nl: str) -> str:
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(str, seq)) + nl + "]" if seq else "[]"


def _member_runs(members, nl: str):
    """The JSON of each integer member, or of each run of consecutive
    one-point members, at the indent of ``nl``: a run is one ``str.join``
    over its points, with the brackets of its members in the separator."""
    inner = nl + "  "
    for length, run in groupby(members, len):
        if length == 1:
            yield "[" + inner + (nl + "]," + nl + "[" + inner).join(
                map(str, chain.from_iterable(run))) + nl + "]"
        else:
            yield from (_int_list(s, nl) for s in run)


def _dump(obj, nl: str, out: list) -> None:
    """Append the indent-2, sorted-key JSON of ``obj`` to ``out``; ``nl`` is
    a newline followed by the indent of the line that holds ``obj``."""
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ")
            _dump(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple, range)):
        types = {int} if type(obj) is range else set(map(type, obj))
        if types == {int}:  # not a bool among them
            out.append(_int_list(obj, nl))
        elif _int_lists(obj, types):
            out.append("[" + inner + ("," + inner).join(_member_runs(obj, inner)) + nl + "]")
        elif not obj:
            out.append("[]")
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _dump(item, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    else:
        out.append(json.dumps(point_to_json(obj)))


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for
    byte.  With an indent ``json`` runs its pure-Python encoder, one chunk
    string per value; here a list, tuple or range of integers, such as a
    member set on an integer window, is one ``str.join``, and so is a list
    of such members, in which each run of consecutive one-point members is
    one more (see ``_member_runs``).  Tuples and ranges are written as
    arrays, and a Fraction as its "p/q" string (see ``point_to_json``)."""
    out = []
    _dump(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def load_json_file(path: str):
    if not isinstance(path, str):
        raise ParseError(f"a file path must be a string, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
