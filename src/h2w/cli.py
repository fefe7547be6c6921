"""Command-line front end.

Subcommands: gen, constants, verify, decompose, poisson-test, sweep.  Each
takes only the options it uses (``OPTIONS``); any other is a usage error.
Every pair is analysed on ``auto_grid``'s grid, except that an explicit
``--shift-num`` puts decompose and poisson-test on the unit root at that
shift.  Every output embeds the run configuration, an option the subcommand
does not take standing at its default, and the package version; outputs are
byte-identical for identical configurations, and the environment variable
H2W_SEED overrides --seed.  Exit codes: 0 ok, 1 assertion failure (a
non-finite constant or T > N included), 2 parse error, 3 invalid input pair.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from . import __version__
from .constants import SCHEMA_VERSION, compute_report, pair_constants
from .corona import _form_columns, build_stopping_data, corona_split, reduction_residual
from .errors import (
    CommonPointMass,
    H2WError,
    NecessityViolation,
    ParseError,
    PreconditionViolation,
)
from .grid import DyadicGrid, GridInterval, auto_grid, build_grid
from .haar import WeightedFunction, expand, good_projection
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
from .poisson import (
    PoissonTestResult,
    default_j_families,
    mu_measure,
    poisson_test_intervals,
    poisson_testing,
)
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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        # where the output lands and how many workers wrote it do not
        # change the bytes, so they stay out of the embedded config
        del d["output"], d["jobs"]
        d["version"] = __version__
        d["schema_version"] = SCHEMA_VERSION
        return d


# The options of each subcommand, by RunConfig field.  Each subcommand gets
# its own argparse parent, so that a default set on one never leaks into
# another through a shared action.
_ANALYSIS = ("seed", "depth", "eps", "r", "c0", "refinement")
_ENSEMBLE = ("count", "max_atoms", "family")
_SHIFT = ("shift_num", "shift_scale")
OPTIONS = {
    "gen": ("seed", "depth", *_ENSEMBLE, "output"),
    "constants": (*_ANALYSIS, "below_gap", "a2_refinement", "format", "output"),
    "verify": (*_ANALYSIS, *_ENSEMBLE, "below_gap", "strict"),
    "decompose": (*_ANALYSIS, "a2_refinement", *_SHIFT, "output"),
    "poisson-test": (*_ANALYSIS, "a2_refinement", *_SHIFT, "output", "below_gap"),
    "sweep": (*_ANALYSIS, *_ENSEMBLE, "below_gap", "a2_refinement", "output", "jobs"),
}

_CHOICES = {"family": ALL_FAMILIES, "format": ("json", "csv")}

# The values each option accepts, where its type alone admits values that
# the analysis refuses; verify's count also, since an empty ensemble has no
# pair to report on, the ensemble commands' depth, since the slot centres
# (2s + 1) / 2^(depth + 1) of random_ensemble are doubles only up to depth
# 52, and the shift's scale, since 2^-1074 is the finest scale of a double.
_AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")
_AT_LEAST_ZERO = (lambda v: v >= 0, "at least 0")
_ENSEMBLE_DEPTH = (lambda v: 1 <= v <= 52, "in [1, 52]")
_DOMAINS = {
    "seed": _AT_LEAST_ZERO,
    "shift_scale": (lambda v: 0 <= v <= 1074, "in [0, 1074]"),
    "depth": _AT_LEAST_ONE,
    "max_atoms": _AT_LEAST_ONE,
    "r": _AT_LEAST_ONE,
    "below_gap": _AT_LEAST_ONE,
    "jobs": _AT_LEAST_ONE,
    "refinement": _AT_LEAST_ZERO,
    "a2_refinement": _AT_LEAST_ZERO,
    "eps": (lambda v: 0.0 < v < 0.5, "in (0, 1/2)"),
    "c0": (lambda v: math.isfinite(v) and v > 0.0, "finite and positive"),
}
_COMMAND_DOMAINS = {
    "gen": {"depth": _ENSEMBLE_DEPTH},
    "verify": {"count": _AT_LEAST_ONE, "depth": _ENSEMBLE_DEPTH},
    "sweep": {"depth": _ENSEMBLE_DEPTH},
}


def _checked(kind: type, domain: tuple):
    """An argparse ``type=`` that converts with ``kind`` and refuses values
    outside ``domain`` (a test and its description), so they exit 2."""
    test, description = domain

    def parse(text: str):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"{text} is not {description}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value" for a non-number
    return parse


def _parent(command: str) -> argparse.ArgumentParser:
    """A fresh argparse parent with the options of ``command``, each taking
    the default and the type of its RunConfig field, checked against its
    domain."""
    parent = argparse.ArgumentParser(add_help=False)
    domains = {**_DOMAINS, **_COMMAND_DOMAINS.get(command, {})}
    for name in OPTIONS[command]:
        flags = ["--" + name.replace("_", "-")] + (["-o"] if name == "output" else [])
        default = getattr(RunConfig, name)
        if isinstance(default, bool):
            parent.add_argument(*flags, dest=name, action="store_true")
        elif default is None or name in _CHOICES:
            parent.add_argument(*flags, dest=name, default=default, choices=_CHOICES.get(name))
        else:
            kind = type(default)
            if name in domains:
                kind = _checked(kind, domains[name])
            parent.add_argument(*flags, dest=name, default=default, type=kind)
    return parent


def _config(args) -> RunConfig:
    """The run configuration from the options the subcommand took; the rest
    keep their defaults.  An H2W_SEED that is not an integer of at least 0
    is a parse error."""
    cfg = RunConfig(
        **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    )
    env_seed = os.environ.get("H2W_SEED")
    if env_seed is not None:
        try:
            cfg.seed = _checked(int, _DOMAINS["seed"])(env_seed)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"error: H2W_SEED={env_seed!r} is not an integer of at least 0", file=sys.stderr)
            raise SystemExit(2) from None
    return cfg


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _load_pair(path: str):
    """The pair in ``path``; one that shares a point mass is refused."""
    try:
        sigma, w = read_pair_file(path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if has_common_point_mass(sigma, w):
        raise CommonPointMass("the pair shares a point mass")
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
    rep = compute_report(
        sigma,
        w,
        auto_grid(sigma, w, cfg.depth),
        seed=cfg.seed,
        refinement=cfg.refinement,
        a2_refinement=cfg.a2_refinement,
        eps=cfg.eps,
        r=cfg.r,
        below_gap=cfg.below_gap,
        c0=cfg.c0,
    )
    body = rep.to_json_dict()
    body["config"] = cfg.stamp()
    if cfg.format == "csv":
        _emit(_report_csv(body), cfg.output)
    else:
        try:
            text = json.dumps(body, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:
            raise NecessityViolation("the report holds a non-finite constant") from None
        _emit(text + "\n", cfg.output)
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    scfg = SuiteConfig(**{f.name: getattr(cfg, f.name) for f in fields(SuiteConfig)})
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


def _grid_for_pair(cfg: RunConfig, sigma, w) -> DyadicGrid:
    """``auto_grid``'s grid; an explicit shift puts the unit root at that
    shift instead, where a collision is an error."""
    if cfg.shift_num == 0:
        return auto_grid(sigma, w, cfg.depth)
    shift = dyadic(cfg.shift_num, cfg.shift_scale)
    return build_grid(Interval(dyadic(0), dyadic(1)), cfg.depth, shift, sigma, w)


def _stopping(cfg: RunConfig, path: str) -> tuple:
    """The pair in ``path``, its grid, the generator drawn past the seeded
    coefficients of f, the good projection f, the pair's
    :func:`pair_constants` record and the stopping data of f.  A vanishing
    f is refused, and so is a non-finite A2 or T."""
    sigma, w = _load_pair(path)
    grid = _grid_for_pair(cfg, sigma, w)
    rng = np.random.default_rng(cfg.seed)
    f = good_projection(
        WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, cfg.eps, cfg.r
    )
    if f.norm() == 0:
        raise PreconditionViolation("the projected test function vanishes; try another seed")
    rec = pair_constants(sigma, w, grid, cfg.refinement, cfg.a2_refinement, cfg.c0)
    a2, t_fwd, t_bwd = rec.a2, rec.testing_fwd, rec.testing_bwd
    # one test per value: max() would pass a NaN through
    if not (math.isfinite(a2) and math.isfinite(t_fwd) and math.isfinite(t_bwd)):
        raise NecessityViolation(f"a constant is not finite: A2 {a2}, T {t_fwd}, {t_bwd}")
    sd = build_stopping_data(f, grid.root_interval, w, rec.h_const, rec.c0)
    return sigma, w, grid, rng, f, rec, sd


def cmd_decompose(args) -> int:
    cfg = _config(args)
    _, w, grid, rng, f, rec, sd = _stopping(cfg, args.pair_file)
    g = good_projection(
        WeightedFunction(w, rng.standard_normal(w.n_atoms)), grid, cfg.eps, cfg.r
    )

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
        "calibrated_c0": rec.c0,
        "h_const": rec.h_const,
        "tree": node(sd.root),
        "haar": {"sigma": coeff_dump(f), "w": coeff_dump(g) if g.norm() else None},
    }
    _emit(json.dumps(body, sort_keys=True, indent=2) + "\n", cfg.output)
    return 0


def cmd_poisson_test(args) -> int:
    cfg = _config(args)
    sigma, w, grid, _, _, rec, sd = _stopping(cfg, args.pair_file)
    j_fams = default_j_families(sd.members, w, grid, cfg.eps, cfg.r, cfg.below_gap)
    hp = mu_measure(sd.members, w, grid, j_fams)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in fields(PoissonTestResult)]
    writer.writerow(["interval", *names])
    intervals = poisson_test_intervals(sigma, grid, sd.members)
    results = poisson_testing(intervals, sigma, hp, rec.h_const, rec.a2)
    for gi, res in zip(intervals, results):
        values = (getattr(res, name) for name in names)
        cells = [int(v) if isinstance(v, bool) else repr(v) for v in values]
        writer.writerow([f"L{gi.level}.{gi.index}", *cells])
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
    index, sigma, w, cfg = task
    grid = auto_grid(sigma, w, cfg.depth)
    rep = compute_report(
        sigma,
        w,
        grid,
        seed=cfg.seed + index,
        refinement=cfg.refinement,
        a2_refinement=cfg.a2_refinement,
        eps=cfg.eps,
        r=cfg.r,
        below_gap=cfg.below_gap,
        c0=cfg.c0,
    )
    red_ratio = 0.0
    cross_ratio = 0.0
    rng = np.random.default_rng(cfg.seed * 7 + index)
    f = good_projection(
        WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, cfg.eps, cfg.r
    )
    g = good_projection(
        WeightedFunction(w, rng.standard_normal(w.n_atoms)), grid, cfg.eps, cfg.r
    )
    if f.norm() > 0 and g.norm() > 0 and rep.h_const > 0:
        # one set of kernel column sums for both forms from sigma to w
        columns = _form_columns(sigma, w, grid)
        rr = reduction_residual(f, g, grid, rep.h_const, cfg.below_gap, columns=columns)
        red_ratio = rr.residual_ratio
        sd = build_stopping_data(f, grid.root_interval, w, rep.h_const, rep.meta["calibrated_c0"])
        _, residual = corona_split(f, g, sd, cfg.below_gap, above=rr.b_above, columns=columns)
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
    tasks = [(i, sigma, w, cfg) for i, (sigma, w) in enumerate(pairs) if i >= skip]
    # no more workers than tasks or processors, and no pool for one
    workers = min(cfg.jobs, len(tasks))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            rows = pool.map(_sweep_row, tasks, chunksize=4)
        else:
            rows = map(_sweep_row, tasks)
        # the first row comes before any output, so a refused pair writes nothing
        head = [next(rows)] if tasks else []
        out = sys.stdout if cfg.output is None else open(cfg.output, "a" if skip else "w")
        if out is not sys.stdout:
            stack.enter_context(out)
        writer = csv.writer(out, lineterminator="\n")
        if skip == 0:
            out.write(f"# h2w {__version__} sweep {json.dumps(cfg.stamp(), sort_keys=True)}\n")
            writer.writerow(SWEEP_COLUMNS)
        for row in itertools.chain(head, rows):
            writer.writerow(row)
            out.flush()
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="h2w",
        description="Two-weight Hilbert transform toolkit: constants, decompositions, and verification at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"h2w {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(command, parents=[_parent(command)], **kwargs)

    p = add("gen", help="generate seeded weight-pair files")
    p.set_defaults(func=cmd_gen)

    p = add("constants", help="full constants report for one pair file")
    p.add_argument("pair_file")
    p.set_defaults(func=cmd_constants)

    p = add("verify", help="run a verification suite over a seeded ensemble")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument(
        "--replay-dir",
        default="replays",
        dest="replay_dir",
        help="where failing instances are serialized for bit-exact replay",
    )
    # the verification ensembles default to 60 pairs of the mixed family so
    # that every suite sees the structures it instruments
    p.set_defaults(func=cmd_verify, family="mixed", count=60)

    p = add("decompose", help="stopping tree and Haar coefficients as JSON")
    p.add_argument("pair_file")
    p.set_defaults(func=cmd_decompose)

    p = add("poisson-test", help="per-interval Poisson testing rows (CSV)")
    p.add_argument("pair_file")
    p.set_defaults(func=cmd_poisson_test)

    p = add("sweep", help="per-pair constants over an ensemble (CSV)")
    p.add_argument(
        "--skip", type=_checked(int, _AT_LEAST_ZERO), default=0, help="resume after this many rows"
    )
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # random_ensemble draws 2 * max_atoms distinct slots of the depth lattice
    if hasattr(args, "max_atoms") and (2 * args.max_atoms - 1) >> args.depth:
        parser.error(
            f"--max-atoms {args.max_atoms} needs 2 * max_atoms <= 2^depth (depth {args.depth})"
        )
    try:
        # every non-finite constant meets a typed check and exits 1, so
        # numpy's overflow warnings would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except NecessityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except H2WError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
