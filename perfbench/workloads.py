"""Workload op lists, generated from a seed.

Each workload is a fixed list of ``fuzzycoarse`` command lines.  The seed
only nudges window tops upward by less than ``NUDGE`` of their size; it
never changes the op list, the spaces or the scales.  Files the ops need
(the coarse config, the witness files) live in a per-run work directory.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

NUDGE = 0.01

# Base coarse config: demos/coarse_config.json shrunk from 0..399 to 0..299.
COARSE_BASE_TOP = 299


def _coarse_config(top: int) -> dict:
    return {
        "source_space": "standard",
        "target_space": {"kind": "standard", "universe": "rationals"},
        "map": {
            "rule": "inclusion",
            "domain": f"0..{top}",
            "expansive": [
                {"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"},
                {"level_in": "1/2", "t_in": "128", "level_out": "1/2", "t_out": "128"},
            ],
            "proper": [
                {"level_in": "1/2", "t_in": "1", "level_out": "1/2", "t_out": "1"},
                {"level_in": "1/8", "t_in": "3", "level_out": "1/2", "t_out": "21"},
            ],
            "onto": "1/2:1",
        },
        "window_x": f"0..{top}",
        "window_y": {"grid": {"lo": "0", "hi": str(top), "step": "1/2"}},
        "scale": "1/2:1",
        "inverse": True,
    }


class _Tops:
    """Seeded window tops: base + floor(size * NUDGE * u), u in [0, 1)."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def __call__(self, lo: int, hi: int) -> int:
        return hi + int((hi - lo + 1) * NUDGE * self._rng.random())


def _pipeline(top, work: Path):
    return [
        ["pipeline", "--space", "ratio_minmax", "--scale", "1/2:1",
         "--window", f"1..{top(1, 4000)}"],
        ["pipeline", "--space", "reciprocal_product", "--scale", "1/2:1",
         "--window", f"1..{top(1, 1000)}"],
    ]


def _witness_io(top, work: Path):
    ops = []
    for space, hi in (("ratio_minmax", 300000), ("reciprocal_product", 200000)):
        path = str(work / f"{space}.witness.json")
        ops.append(["witness", "--space", space, "--scale", "1/2:1",
                    "--window", f"1..{top(1, hi)}", "--witness-out", path])
        ops.append(["check", "--space", space, "--witness", path,
                    "--scale", "1/4:1", "--scale", "1/2:1", "--scale", "3/4:1"])
    return ops


def _exhaustive(top, work: Path):
    grid = ["--t-grid", "1/2,1,2,7"]
    config = work / "coarse.json"
    config.write_text(json.dumps(_coarse_config(top(0, COARSE_BASE_TOP)), indent=2),
                      encoding="utf-8")
    return [
        ["verify-axioms", "--space", "ratio_minmax", "--window", f"1..{top(1, 60)}", *grid],
        ["verify-axioms", "--space", "ultrametric_standard",
         "--window", f"1..{top(1, 60)}", *grid],
        # "--window -30..29" is read by argparse as an option and exits 2;
        # the "=" form is valid argparse syntax for a negative value.
        ["verify-axioms", "--space", "standard", f"--window=-30..{top(-30, 29)}", *grid],
        ["witness", "--space", "ultrametric_standard", "--scale", "1/4:10",
         "--window", f"1..{top(1, 250)}"],
        ["coarse", "--config", str(config)],
    ]


WORKLOADS = {
    "pipeline": _pipeline,
    "witness-io": _witness_io,
    "exhaustive": _exhaustive,
}


def build_ops(workload: str, seed: int, work: Path) -> list:
    """The workload's command lines for this seed; writes any input files."""
    return WORKLOADS[workload](_Tops(seed), work)
