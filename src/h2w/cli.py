"""Command-line front end.

Subcommands: gen, constants, verify, decompose, poisson-test, sweep.
Every output embeds the run configuration and the package version, outputs
are byte-identical for identical configurations, and the environment
variable H2W_SEED overrides --seed.  Exit codes: 0 ok, 1 assertion failure,
2 parse error, 3 invalid input pair.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .constants import SCHEMA_VERSION, a2_constant, compute_report, testing_pair
from .corona import (
    build_stopping_data,
    calibrate_c0,
    corona_split,
    reduction_residual,
)
from .errors import CommonPointMass, EndpointCollision, H2WError, ParseError
from .grid import GridInterval, auto_grid, build_grid
from .haar import WeightedFunction, expand, good_projection, occupied_nodes
from .measure import (
    ALL_FAMILIES,
    Interval,
    dyadic,
    has_common_point_mass,
    pair_text,
    random_ensemble,
    read_pair_file,
)
from .params import (
    DEFAULT_A2_REFINEMENT,
    DEFAULT_C0,
    DEFAULT_REFINEMENT,
    SUITE_BELOW_GAP,
    SUITE_EPS,
    SUITE_R,
)
from .poisson import default_j_families, mu_measure, poisson_testing
from .verify import SUITE_NAMES, SuiteConfig, run_all, run_suite

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    """Everything a run needs; echoed into every output for reproducibility."""

    seed: int = 1
    count: int = 200
    max_atoms: int = 32
    depth: int = 12
    eps: float = SUITE_EPS
    r: int = SUITE_R
    below_gap: int = SUITE_BELOW_GAP
    c0: float = DEFAULT_C0
    refinement: int = DEFAULT_REFINEMENT
    a2_refinement: int = DEFAULT_A2_REFINEMENT
    family: str = "uniform"
    shift_num: int = 0
    shift_scale: int = 0
    format: str = "json"
    output: str | None = None
    jobs: int = 1
    strict: bool = False

    def stamp(self) -> dict:
        d = asdict(self)
        # where the output lands and how many workers wrote it do not
        # change the bytes, so they stay out of the embedded config
        d.pop("output")
        d.pop("jobs")
        d["version"] = __version__
        d["schema_version"] = SCHEMA_VERSION
        return d


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-atoms", type=int, default=32, dest="max_atoms")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--eps", type=float, default=SUITE_EPS)
    p.add_argument("--r", type=int, default=SUITE_R)
    p.add_argument("--below-gap", type=int, default=SUITE_BELOW_GAP, dest="below_gap")
    p.add_argument("--c0", type=float, default=DEFAULT_C0)
    p.add_argument("--refinement", type=int, default=DEFAULT_REFINEMENT)
    p.add_argument("--a2-refinement", type=int, default=DEFAULT_A2_REFINEMENT, dest="a2_refinement")
    p.add_argument("--family", choices=ALL_FAMILIES, default="uniform")
    p.add_argument("--shift-num", type=int, default=0, dest="shift_num")
    p.add_argument("--shift-scale", type=int, default=0, dest="shift_scale")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--strict", action="store_true")


def _config(args) -> RunConfig:
    cfg = RunConfig(
        seed=args.seed,
        count=args.count,
        max_atoms=args.max_atoms,
        depth=args.depth,
        eps=args.eps,
        r=args.r,
        below_gap=args.below_gap,
        c0=args.c0,
        refinement=args.refinement,
        a2_refinement=args.a2_refinement,
        family=args.family,
        shift_num=args.shift_num,
        shift_scale=args.shift_scale,
        format=args.format,
        output=args.output,
        jobs=args.jobs,
        strict=args.strict,
    )
    env_seed = os.environ.get("H2W_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed)
    return cfg


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _load_pair(path: str):
    try:
        sigma, w = read_pair_file(path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return sigma, w


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    cfg = _config(args)
    pairs = random_ensemble(
        cfg.seed, cfg.count, cfg.max_atoms, cfg.depth, family=cfg.family
    )
    header = (
        f"h2w {__version__} gen seed={cfg.seed} count={cfg.count} "
        f"max_atoms={cfg.max_atoms} depth={cfg.depth} family={cfg.family}"
    )
    if cfg.count == 1 and cfg.output is not None:
        _emit(pair_text(*pairs[0], header), cfg.output)
        return 0
    outdir = cfg.output or "pairs"
    os.makedirs(outdir, exist_ok=True)
    for i, (sigma, w) in enumerate(pairs):
        with open(os.path.join(outdir, f"pair_{i:04d}.txt"), "w") as fh:
            fh.write(pair_text(sigma, w, f"{header} index={i}"))
    print(f"wrote {len(pairs)} pair files under {outdir}", file=sys.stderr)
    return 0


def _report_csv(rep_dict: dict) -> str:
    flat = {k: v for k, v in rep_dict.items() if not isinstance(v, dict)}
    meta = rep_dict.get("meta", {})
    for k, v in meta.items():
        if not isinstance(v, dict):
            flat[f"meta_{k}"] = v
    for k, v in meta.get("paper_ratios", {}).items():
        flat[f"ratio_{k}"] = v
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat), lineterminator="\n")
    writer.writeheader()
    writer.writerow(flat)
    return buf.getvalue()


def cmd_constants(args) -> int:
    cfg = _config(args)
    sigma, w = _load_pair(args.pair_file)
    if has_common_point_mass(sigma, w):
        print("error: the pair shares a point mass", file=sys.stderr)
        return 3
    try:
        rep = compute_report(
            sigma,
            w,
            seed=cfg.seed,
            refinement=cfg.refinement,
            a2_refinement=cfg.a2_refinement,
            depth=cfg.depth,
            eps=cfg.eps,
            r=cfg.r,
            below_gap=cfg.below_gap,
            c0=cfg.c0,
        )
    except CommonPointMass:
        print("error: the pair shares a point mass", file=sys.stderr)
        return 3
    body = rep.to_json_dict()
    body["config"] = cfg.stamp()
    if cfg.format == "csv":
        _emit(_report_csv(body), cfg.output)
    else:
        _emit(json.dumps(body, sort_keys=True, indent=2) + "\n", cfg.output)
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    scfg = SuiteConfig(
        seed=cfg.seed,
        count=min(cfg.count, 60),
        max_atoms=cfg.max_atoms,
        depth=cfg.depth,
        eps=cfg.eps,
        r=cfg.r,
        below_gap=cfg.below_gap,
        c0=cfg.c0,
        refinement=cfg.refinement,
        family=cfg.family,
    )
    suites = run_all(scfg) if args.suite == "all" else [run_suite(args.suite, scfg)]
    failures = 0
    warnings = 0
    replay_dir = args.replay_dir
    for s in suites:
        for r in s.results:
            tag = "ok " if r.ok else ("FAIL" if r.kind == "exact" else "WARN")
            print(f"[{tag}] {s.name}.{r.name}: {r.detail}")
            if not r.ok:
                if r.kind == "exact" or cfg.strict:
                    failures += 1
                else:
                    warnings += 1
                if r.replay is not None and replay_dir:
                    os.makedirs(replay_dir, exist_ok=True)
                    path = os.path.join(replay_dir, f"replay_{s.name}_{r.name}.txt")
                    with open(path, "w") as fh:
                        fh.write(r.replay)
                    print(f"  replay written to {path}")
    print(f"verify: {failures} failures, {warnings} warnings")
    return 1 if failures else 0


def _grid_for_pair(cfg: RunConfig, sigma, w):
    """The unit-root grid at the configured shift; an explicit shift that
    collides is an error, while the default falls back to a covering grid."""
    shift = dyadic(cfg.shift_num, cfg.shift_scale)
    try:
        return build_grid(Interval(dyadic(0), dyadic(1)), cfg.depth, shift, sigma, w)
    except EndpointCollision:
        if cfg.shift_num != 0:
            raise
        return auto_grid(sigma, w, cfg.depth)


def cmd_decompose(args) -> int:
    cfg = _config(args)
    sigma, w = _load_pair(args.pair_file)
    if has_common_point_mass(sigma, w):
        print("error: the pair shares a point mass", file=sys.stderr)
        return 3
    grid = _grid_for_pair(cfg, sigma, w)
    rng = np.random.default_rng(cfg.seed)
    f = good_projection(
        WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, cfg.eps, cfg.r
    )
    g = good_projection(
        WeightedFunction(w, rng.standard_normal(w.n_atoms)), grid, cfg.eps, cfg.r
    )
    if f.norm() == 0:
        print("error: the projected test function vanishes; try another seed", file=sys.stderr)
        return 3
    a2 = a2_constant(sigma, w, cfg.a2_refinement)
    h_const = math.sqrt(a2) + max(testing_pair(sigma, w, cfg.refinement))
    c0 = calibrate_c0(grid.root_interval, sigma, w, h_const, grid, start=cfg.c0)
    sd = build_stopping_data(f, grid.root_interval, sigma, w, h_const, c0, grid)

    def node(F: GridInterval) -> dict:
        return {
            "interval": {
                "level": F.level,
                "index": F.index,
                "left": F.left_f,
                "right": F.right_f,
            },
            "alpha": sd.alpha[F.key],
            "reason": sd.reason.get(F.key, "root"),
            "children": [node(c) for c in sd.family_children(F)],
        }

    def coeff_dump(fun: WeightedFunction) -> dict:
        hc = expand(fun, grid)
        return {
            "root_mean": hc.root_mean,
            "coefficients": [
                {"level": lev, "index": idx, "value": val}
                for (lev, idx), val in sorted(hc.coeffs.items())
            ],
        }

    body = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.stamp(),
        "calibrated_c0": c0,
        "h_const": h_const,
        "tree": node(sd.root),
        "haar": {"sigma": coeff_dump(f), "w": coeff_dump(g) if g.norm() else None},
    }
    _emit(json.dumps(body, sort_keys=True, indent=2) + "\n", cfg.output)
    return 0


def cmd_poisson_test(args) -> int:
    cfg = _config(args)
    sigma, w = _load_pair(args.pair_file)
    if has_common_point_mass(sigma, w):
        print("error: the pair shares a point mass", file=sys.stderr)
        return 3
    grid = _grid_for_pair(cfg, sigma, w)
    rng = np.random.default_rng(cfg.seed)
    f = good_projection(
        WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, cfg.eps, cfg.r
    )
    if f.norm() == 0:
        print("error: the projected test function vanishes; try another seed", file=sys.stderr)
        return 3
    a2 = a2_constant(sigma, w, cfg.a2_refinement)
    h_const = math.sqrt(a2) + max(testing_pair(sigma, w, cfg.refinement))
    c0 = calibrate_c0(grid.root_interval, sigma, w, h_const, grid, start=cfg.c0)
    sd = build_stopping_data(f, grid.root_interval, sigma, w, h_const, c0, grid)
    j_fams = default_j_families(sd.members, w, grid, cfg.eps, cfg.r, cfg.below_gap)
    hp = mu_measure(sd.members, w, grid, j_fams)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "interval",
            "forward_lhs",
            "forward_rhs",
            "forward_ratio",
            "dual_lhs",
            "dual_rhs",
            "dual_ratio",
            "zero_denominator",
        ]
    )
    intervals = [
        GridInterval(grid, n.level, n.index)
        for n in occupied_nodes(sigma, grid)
        if n.level <= 8
    ] + list(sd.members)
    seen = set()
    for gi in intervals:
        if gi.key in seen:
            continue
        seen.add(gi.key)
        res = poisson_testing(gi, sigma, hp, h_const, a2)
        writer.writerow(
            [
                f"L{gi.level}.{gi.index}",
                repr(res.forward_lhs),
                repr(res.forward_rhs),
                repr(res.forward_ratio),
                repr(res.dual_lhs),
                repr(res.dual_rhs),
                repr(res.dual_ratio),
                int(res.zero_denominator),
            ]
        )
    header = f"# h2w {__version__} poisson-test {json.dumps(cfg.stamp(), sort_keys=True)}\n"
    _emit(header + buf.getvalue(), cfg.output)
    return 0


SWEEP_COLUMNS = [
    "index",
    "seed",
    "family",
    "n_sigma",
    "n_w",
    "norm_N",
    "a2",
    "testing_fwd",
    "testing_bwd",
    "energy_E",
    "energy_E_dual",
    "h_const",
    "n_over_h",
    "e_over_h",
    "t_over_n",
    "fe_ratio",
    "local_ratio",
    "reduction_residual_ratio",
    "corona_residual_ratio",
]


def _sweep_row(task) -> list:
    index, sigma, w, cfg_dict = task
    cfg = RunConfig(**cfg_dict)
    rep = compute_report(
        sigma,
        w,
        seed=cfg.seed + index,
        refinement=cfg.refinement,
        a2_refinement=cfg.a2_refinement,
        depth=cfg.depth,
        eps=cfg.eps,
        r=cfg.r,
        below_gap=cfg.below_gap,
        c0=cfg.c0,
    )
    red_ratio = 0.0
    cross_ratio = 0.0
    grid = build_grid(Interval(dyadic(0), dyadic(1)), cfg.depth, dyadic(0), sigma, w)
    rng = np.random.default_rng(cfg.seed * 7 + index)
    f = good_projection(
        WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, cfg.eps, cfg.r
    )
    g = good_projection(
        WeightedFunction(w, rng.standard_normal(w.n_atoms)), grid, cfg.eps, cfg.r
    )
    if f.norm() > 0 and g.norm() > 0 and rep.h_const > 0:
        rr = reduction_residual(f, g, grid, rep.h_const, cfg.below_gap)
        red_ratio = rr.residual_ratio
        c0 = rep.meta.get("calibrated_c0", cfg.c0)
        sd = build_stopping_data(
            f, grid.root_interval, sigma, w, rep.h_const, c0, grid
        )
        _, residual = corona_split(f, g, sd, grid, cfg.below_gap)
        cross_ratio = abs(residual) / (rep.h_const * f.norm() * g.norm())
    ratios = rep.paper_ratios()
    values = [
        rep.norm_N,
        rep.a2,
        rep.testing_fwd,
        rep.testing_bwd,
        rep.energy_E,
        rep.energy_E_dual,
        rep.h_const,
        rep.n_over_h,
        ratios["e_over_h"],
        ratios["t_over_n"],
        rep.functional_energy_ratio_max,
        rep.local_ratio_max,
        red_ratio,
        cross_ratio,
    ]
    return [index, cfg.seed, cfg.family, sigma.n_atoms, w.n_atoms] + [
        repr(float(v)) for v in values
    ]


def cmd_sweep(args) -> int:
    cfg = _config(args)
    pairs = random_ensemble(
        cfg.seed, cfg.count, cfg.max_atoms, cfg.depth, family=cfg.family
    )
    skip = args.skip
    tasks = [
        (i, sigma, w, asdict(cfg))
        for i, (sigma, w) in enumerate(pairs)
        if i >= skip
    ]
    out = sys.stdout if cfg.output is None else open(cfg.output, "a" if skip else "w")
    try:
        writer = csv.writer(out, lineterminator="\n")
        if skip == 0:
            out.write(f"# h2w {__version__} sweep {json.dumps(cfg.stamp(), sort_keys=True)}\n")
            writer.writerow(SWEEP_COLUMNS)
        if cfg.jobs > 1:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                for row in pool.map(_sweep_row, tasks, chunksize=4):
                    writer.writerow(row)
                    out.flush()
        else:
            for task in tasks:
                writer.writerow(_sweep_row(task))
                out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="h2w",
        description="Two-weight Hilbert transform toolkit: constants, decompositions, and verification at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"h2w {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate seeded weight-pair files")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("constants", help="full constants report for one pair file")
    p.add_argument("pair_file")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="run a verification suite over a seeded ensemble")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument(
        "--replay-dir",
        default="replays",
        dest="replay_dir",
        help="where failing instances are serialized for bit-exact replay",
    )
    _add_common(p)
    # the verification ensembles default to the mixed family so that every
    # suite sees the structures it instruments
    p.set_defaults(func=cmd_verify, family="mixed")

    p = sub.add_parser("decompose", help="stopping tree and Haar coefficients as JSON")
    p.add_argument("pair_file")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("poisson-test", help="per-interval Poisson testing rows (CSV)")
    p.add_argument("pair_file")
    _add_common(p)
    p.set_defaults(func=cmd_poisson_test)

    p = sub.add_parser("sweep", help="per-pair constants over an ensemble (CSV)")
    p.add_argument("--skip", type=int, default=0, help="resume after this many rows")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except H2WError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
