"""Benchmark inputs, made from the run's seed.

The seed selects one of VARIANTS input variants (variant = seed mod
VARIANTS), so that every seed has golden outputs recorded for it. Variant 0
is the canonical input: the bundled scenarios verbatim, the size ladder at
its nominal amplitude, and suite seed 0. The other variants scale the
amplitudes of the initial data by factors drawn from [0.9, 1.1], which
keeps the ordered pairs ordered (u0 <= v0) and the map-invariant initial
states invariant. The work per pass stays within about 1% of variant 0's,
so the pass time depends on the code and not on the seed.

The program sees only what an operation passes to `wedflow.cli.main`: a
bundled scenario name, the path of a generated scenario file, or a suite
name and seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8
WORKLOADS = ("scenarios", "large_grid", "verify")
SUITES = ("rearrangement", "submodularity", "gradients", "invariance",
          "energetic", "wide")

# The ROADMAP's spatial ladder at the weight schedule (0.2, 0.1, 0.05).
# 2D 32x32 at N=64 is left out: each sparse LU of it takes about 32 s.
LADDER = (
    # name, dim, nodes per axis, m-Laplace exponent, time knots N
    ("heat2d_32x32_m2_N16", 2, 32, 2.0, 16),
    ("heat2d_16x16_m3_N64", 2, 16, 3.0, 64),
    ("heat1d_512_m2_N64", 1, 512, 2.0, 64),
)
LADDER_SCHEDULE = [0.2, 0.1, 0.05]

# ri_ramp runs verbatim in every variant: the Newton work of its ordered
# pair swings between 8.5k and 16k gradient calls when its comparison
# state moves by 1-5%, which would make the pass time follow the seed.
VERBATIM = ("ri_ramp",)


@dataclass(frozen=True)
class Op:
    """One call into the program: `wedflow.cli.main(argv)`."""
    name: str
    argv: tuple

    @property
    def verb(self) -> str:
        return self.argv[0]


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _factor(rng: random.Random) -> float:
    return 1.0 + 0.1 * (2.0 * rng.random() - 1.0)


def _scale_initial(spec, rng: random.Random):
    """Scale every amplitude or value of an initial-data spec."""
    if isinstance(spec, (int, float)):
        return spec * _factor(rng)
    if isinstance(spec, list):
        return [v * _factor(rng) for v in spec]
    spec = dict(spec)
    if spec.get("kind") == "pair":
        spec["u"] = _scale_initial(spec["u"], rng)
        spec["v"] = _scale_initial(spec["v"], rng)
    for key in ("amplitude", "value"):
        if key in spec:
            spec[key] = spec[key] * _factor(rng)
    return spec


def bundled_scenarios(root: Path) -> dict:
    """Name -> parsed JSON of every scenario shipped with the package."""
    folder = root / "src" / "wedflow" / "scenarios"
    return {p.stem: json.loads(p.read_text())
            for p in sorted(folder.glob("*.json"))}


def _write_scenario(dest: Path, cfg: dict) -> str:
    path = dest / f"{cfg['name']}.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return str(path)


def scenario_ops(root: Path, variant: int, dest: Path) -> list:
    """The seven bundled scenarios in name order. A scenario used verbatim
    is passed by its bundled name, which is what users type; the others
    are passed as files whose initial data (and comparison partner) are
    rescaled."""
    ops = []
    for name, cfg in bundled_scenarios(root).items():
        if variant == 0 or name in VERBATIM:
            ops.append(Op(name, ("run", name)))
            continue
        rng = random.Random(f"{name}:{variant}")
        cfg = dict(cfg)
        for key in ("initial", "compare_v0"):
            if cfg.get(key) is not None:
                cfg[key] = _scale_initial(cfg[key], rng)
        ops.append(Op(name, ("run", _write_scenario(dest, cfg))))
    return ops


def ladder_ops(variant: int, dest: Path) -> list:
    """Heat problems at the size ladder; the initial state is a cosine
    along the first axis on the unit interval or square."""
    ops = []
    for name, dim, nodes, m, steps in LADDER:
        rng = random.Random(f"{name}:{variant}")
        amplitude = 0.3 if variant == 0 else 0.3 * _factor(rng)
        cfg = {
            "name": name,
            "family": "doubly_nonlinear",
            "grid": {"dim": dim, "shape": [nodes] * dim,
                     "spacing": [1.0 / nodes] * dim, "boundary": "neumann",
                     "domain_kind": "rectangle" if dim == 2 else "interval"},
            "dissipation": {"p": 2.0},
            "energy": {"kind": "m_laplace", "m": m, "B": 1.0, "C": 0.0},
            "initial": {"kind": "cosine", "base": 1.0,
                        "amplitude": amplitude, "mode": 1.0},
            "T": 1.0,
            "steps": steps,
            "schedule": LADDER_SCHEDULE,
            "seed": 0,
        }
        ops.append(Op(name, ("run", _write_scenario(dest, cfg))))
    return ops


def verify_ops(variant: int) -> list:
    return [Op(suite, ("verify", suite, "--seed", str(variant)))
            for suite in SUITES]


def make_ops(workload: str, seed: int, root: Path, dest: Path) -> list:
    """The operations of one pass, in order; scenario files go to dest."""
    variant = variant_of(seed)
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "scenarios":
        return scenario_ops(root, variant, dest)
    if workload == "large_grid":
        return ladder_ops(variant, dest)
    if workload == "verify":
        return verify_ops(variant)
    raise ValueError(f"unknown workload {workload!r}")
