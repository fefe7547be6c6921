"""Closed-loop benchmark of the h2w command line.

    python3 perfbench/run.py --workload sweep-32 --seed 1 --seconds 25 --trace 0

One caller runs h2w operations in-process through ``h2w.cli.main`` and sends
the next one only after the previous one returns.  Every input is derived
from ``--seed``.  With ``--trace 0`` the run loops for ``--seconds`` seconds
(and at least the workload's minimum number of operations) and reports the
end-to-end metrics of BENCHMARK.json, scaled to a reference host speed
(see speed.py).  With ``--trace 1`` it runs the
workload's fixed first operations twice, untraced and then traced, and
reports the per-layer metrics plus the tracing overhead; see README.md.

The last stdout line is the result object; the line before it is a record
with machine facts, stdout digests and sample counts.  Records and spans are
also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
SETUP_REFERENCE_LOOPS = 20
# a slow tree stops running the minimum operation count after this long
MIN_OPS_LIMIT_S = 100.0
TAIL_BEYOND = 10
SLACK = 1.0 + 1e-9
# README micro pair: N, forward T, A2 and H.  The README prints them rounded;
# they are compared to the relative tolerance the package's own tests use.
MICRO_EXPECTED = (2.0, 2.0, 10.24, 5.2)
MICRO_RTOL = 1e-12


class Op(NamedTuple):
    """One latency sample: CLI calls on one pair (or one verify ensemble)."""

    calls: list  # argv lists for h2w.cli.main
    pairs: int
    check: Callable  # their stdouts -> problem text or None


# -- output checks -------------------------------------------------------------


def _finite(values):
    return all(math.isfinite(float(v)) for v in values)


def check_sweep(outs):
    lines = outs[0].splitlines()
    if len(lines) != 3 or not lines[0].startswith("# h2w"):
        return f"sweep printed {len(lines)} lines"
    header, row = next(csv.reader([lines[1]])), next(csv.reader([lines[2]]))
    rec = dict(zip(header, row))
    if not _finite(row[5:]):
        return f"non-finite sweep row {row}"
    norm = float(rec["norm_N"])
    if max(float(rec["testing_fwd"]), float(rec["testing_bwd"])) > norm * SLACK:
        return f"testing above the norm in sweep row {row}"
    return None


def check_verify(outs):
    lines = outs[0].splitlines()
    if not lines or not lines[-1].startswith("verify: 0 failures,"):
        return f"verify summary {lines[-1] if lines else ''!r}"
    if any(line.startswith("[FAIL]") for line in lines):
        return "verify printed a FAIL line"
    return None


def check_pair_file(outs):
    const, decomp, poisson = outs
    rep = json.loads(const)
    if not _finite(rep[k] for k in ("norm_N", "a2", "testing_fwd", "testing_bwd", "h_const")):
        return "non-finite constants report"
    if max(rep["testing_fwd"], rep["testing_bwd"]) > rep["norm_N"] * SLACK:
        return "testing above the norm in constants report"
    tree = json.loads(decomp)
    if "tree" not in tree or not math.isfinite(tree["h_const"]):
        return "decompose report without a tree"
    rows = poisson.splitlines()
    if len(rows) < 3 or not rows[0].startswith("# h2w"):
        return f"poisson-test printed {len(rows)} lines"
    for row in csv.reader(rows[2:]):
        if not _finite(row[1:7]):
            return f"non-finite poisson-test row {row}"
    return None


# -- workloads -------------------------------------------------------------------


def stratified(groups, cells_per_group, seed):
    """A run's order of inputs, balanced for cost.

    ``groups`` maps a group name to ``[(size, item), ...]``.  Each group is
    split by size into ``cells_per_group`` cells of equal count, and the
    order is made of blocks holding one item of every cell, the cells in a
    seeded order.  Every run, however many operations fit in it, then sees
    the same mix of small and large inputs as the whole draw, and runs of
    different seeds differ by their inputs rather than by how many large
    ones they happened to start with.
    """
    rng = random.Random(seed)
    cells = []
    for name in sorted(groups):
        ranked = [item for _, item in sorted(groups[name], key=lambda pair: pair[0])]
        per_cell = len(ranked) // cells_per_group
        for c in range(cells_per_group):
            cell = ranked[c * per_cell:(c + 1) * per_cell]
            rng.shuffle(cell)
            cells.append(cell)
    order = []
    for block in range(min(len(cell) for cell in cells)):
        rng.shuffle(cells)
        order += [cell[block] for cell in cells]
    return order


class Sweep:
    """``h2w sweep`` one uniform pair at a time, each from its own seed.

    A pair's cost grows with its atom counts, which the sweep draws
    uniformly from 1..max_atoms.  Set-up draws the pairs of candidate seeds
    with ``random_ensemble``, as the sweep will, and orders the seeds by
    ``stratified`` on the total atom count.
    """

    trace_ops = 60
    min_ops = 160
    candidates = 1024
    cells = 16

    def __init__(self, max_atoms):
        self.max_atoms = max_atoms

    def prepare(self, seed, workdir):
        from h2w import random_ensemble

        sized = []
        for j in range(self.candidates):
            pair_seed = seed * 1_000_000 + j
            ((sigma, w),) = random_ensemble(pair_seed, 1, self.max_atoms, 12, family="uniform")
            sized.append((sigma.n_atoms + w.n_atoms, pair_seed))
        return stratified({"uniform": sized}, self.cells, seed)

    def op(self, seeds, k):
        argv = ["sweep", "--seed", str(seeds[k % len(seeds)]), "--count", "1",
                "--family", "uniform", "--max-atoms", str(self.max_atoms), "--depth", "12"]
        return Op([argv], 1, check_sweep)


class VerifyAll:
    """``h2w verify all`` with its defaults, one seeded ensemble per call."""

    trace_ops = 1
    min_ops = 2
    ensemble = 60  # cmd_verify caps --count at 60, its default ensemble

    def prepare(self, seed, workdir):
        replays = os.path.join(workdir, "replays")
        return seed, replays

    def op(self, state, k):
        seed, replays = state
        argv = ["verify", "all", "--seed", str(seed * 1000 + k), "--replay-dir", replays]
        return Op([argv], self.ensemble, check_verify)


class PairFiles:
    """``h2w gen`` writes mixed pair files at set-up; each operation runs
    constants, decompose and poisson-test on one file.

    ``gen --family mixed`` cycles the uniform, clusters and lacunary families
    with the file index.  The files are ordered by ``stratified`` on the
    total atom count within each family.
    """

    trace_ops = 40
    min_ops = 100
    files = 360
    cells = 8  # per family

    def prepare(self, seed, workdir):
        from h2w import read_pair_file
        from h2w.measure import FAMILIES

        pairs = os.path.join(workdir, "pairs")
        code, _, err = call_cli(["gen", "--seed", str(seed), "--count", str(self.files),
                                 "--family", "mixed", "--max-atoms", "32", "--depth", "12",
                                 "-o", pairs])
        if code != 0:
            raise RuntimeError(f"h2w gen failed: {err}")
        groups: dict[str, list] = {}
        for index in range(self.files):
            path = os.path.join(pairs, f"pair_{index:04d}.txt")
            sigma, w = read_pair_file(path)
            if _has_test_function(sigma, w):
                family = FAMILIES[index % len(FAMILIES)]
                groups.setdefault(family, []).append((sigma.n_atoms + w.n_atoms, path))
        return stratified(groups, self.cells, seed)

    def op(self, paths, k):
        path = paths[k % len(paths)]
        return Op([["constants", path], ["decompose", path], ["poisson-test", path]],
                  1, check_pair_file)


def _has_test_function(sigma, w):
    """Whether decompose and poisson-test accept the pair at their defaults.

    Both exit 3 by design when the good projection of their seeded test
    function on sigma vanishes (a one-atom sigma, or no good splitting
    interval), so such files are left out of the rotation.  This repeats
    their check: the unit-root grid at depth 12 (a covering grid on an
    endpoint collision) and the coefficients drawn from seed 1.
    """
    import numpy as np
    from h2w import (EndpointCollision, Interval, WeightedFunction, auto_grid,
                     build_grid, dyadic, good_projection)
    from h2w.params import SUITE_EPS, SUITE_R

    try:
        grid = build_grid(Interval(dyadic(0), dyadic(1)), 12, dyadic(0), sigma, w)
    except EndpointCollision:
        grid = auto_grid(sigma, w, 12)
    coeffs = np.random.default_rng(1).standard_normal(sigma.n_atoms)
    return good_projection(WeightedFunction(sigma, coeffs), grid, SUITE_EPS, SUITE_R).norm() > 0


WORKLOADS = {"sweep-32": Sweep(32), "verify-all": VerifyAll(), "pair-files": PairFiles()}


# -- running -----------------------------------------------------------------------


def call_cli(argv):
    from h2w.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the benchmark records the failure and goes on
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


class Loop:
    """Runs operations one after another, checking and timing each."""

    def __init__(self, probe=None):
        self.probe = probe  # a SpeedProbe whose samples are not the program's time
        self.latencies_ms: list[float] = []
        self.pairs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def fail(self, problem):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def run(self, op):
        outs = []
        ok = True
        probed = self.probe.spent if self.probe else 0.0
        start = time.perf_counter()
        for argv in op.calls:
            code, out, err = call_cli(argv)
            self.attempted += 1
            outs.append(out)
            if code != 0:
                ok = False
                self.fail(f"h2w {' '.join(argv)} exited {code}: {err.strip()[-300:]}")
        elapsed = time.perf_counter() - start
        if self.probe:
            elapsed -= self.probe.spent - probed
        for out in outs:
            self.digest.update(out.encode())
        if ok:
            try:
                problem = op.check(outs)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                self.fail(f"h2w {' '.join(op.calls[0])}: {problem}")
        self.pairs += op.pairs
        self.latencies_ms.append(1000.0 * elapsed / op.pairs)
        return elapsed


def precheck(loop: Loop):
    """The README micro pair must give its documented constants."""
    from h2w import AtomicMeasure, compute_report

    loop.attempted += 1
    rep = compute_report(AtomicMeasure.from_triples([(1, 2, 1.0)]),
                         AtomicMeasure.from_triples([(3, 2, 1.0)]))
    got = (rep.norm_N, rep.testing_fwd, rep.a2, rep.h_const)
    if not all(math.isclose(g, e, rel_tol=MICRO_RTOL) for g, e in zip(got, MICRO_EXPECTED)):
        loop.fail(f"micro pair gave {got}, expected {MICRO_EXPECTED}")


def clear_caches():
    """Empty the package's lru caches so each pass starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "h2w" or name.startswith("h2w."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def tail(values, count):
    """The highest percentile with at least TAIL_BEYOND samples above it in
    ``count`` samples, taken over all ``values`` by nearest rank, and that
    percentile; the maximum when ``count`` is at most TAIL_BEYOND."""
    ordered = sorted(values)
    if count > TAIL_BEYOND:
        rank = -(-(count - TAIL_BEYOND) * len(ordered) // count)
        return ordered[rank - 1], 100.0 * (count - TAIL_BEYOND) / count
    return ordered[-1], 100.0


def setup_times(workload, seed):
    """Wall time of fresh interpreters that import h2w and prepare the
    inputs, and the reference-loop times taken around them."""
    from speed import time_reference

    times, reference = [], time_reference(SETUP_REFERENCE_LOOPS)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, cwd=ROOT,
        )
        times.append(time.perf_counter() - start)
        reference += time_reference(SETUP_REFERENCE_LOOPS)
    return times, reference


# -- machine facts ------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts():
    import numpy as np

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = {k: cfg["Build Dependencies"]["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _single_blas_thread():
    """One BLAS thread; must run before numpy loads.  h2w's matrices are
    small, and on a 2-core machine a second thread costs more than it saves
    and widens the spread between runs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_h2w():
    init = ROOT / "src" / "h2w" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init.relative_to(ROOT)} not found; run from an h2w checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import h2w
    import h2w.cli  # noqa: F401  (the entry point every operation calls)

    if Path(h2w.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported h2w from {h2w.__file__}, not from this checkout")


def _definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- modes ----------------------------------------------------------------------------


def run_untraced(args, wl, state):
    from speed import REFERENCE_S, SpeedProbe

    probes, probes_reference = setup_times(args.workload, args.seed)
    setup_scale = REFERENCE_S / statistics.fmean(probes_reference)
    min_ops = args.ops if args.ops is not None else wl.min_ops
    digest_ops = args.ops if args.ops is not None else wl.trace_ops
    prefix = None
    k = 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with SpeedProbe() as probe:
        loop = Loop(probe)
        precheck(loop)
        spent = probe.spent
        start = time.perf_counter()
        while True:
            now = time.perf_counter() - start
            if now >= args.seconds and (k >= min_ops or now >= MIN_OPS_LIMIT_S):
                break
            loop.run(wl.op(state, k))
            k += 1
            if k == digest_ops:
                prefix = loop.digest.hexdigest()
            if k <= min_ops:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start - (probe.spent - spent)
    scale = probe.scale()
    # Every run makes min_ops operations.  The tail's percentile is set by
    # that count and the peak is taken after that many, so that neither
    # moves with the number of operations the host's speed let into the run
    # (h2w's lru caches grow with every new pair).
    tail_ms, tail_pct = tail(loop.latencies_ms, min_ops)
    raw = {
        "pairs_per_s": loop.pairs / elapsed,
        "pair_ms_p50": statistics.median(loop.latencies_ms),
        "pair_ms_tail": tail_ms,
        "setup_s": statistics.median(probes),
    }
    metrics = {
        "pairs_per_s": (raw["pairs_per_s"] / scale, "1/s"),
        "pair_ms_p50": (raw["pair_ms_p50"] * scale, "ms"),
        "pair_ms_tail": (raw["pair_ms_tail"] * scale, "ms"),
        "setup_s": (raw["setup_s"] * setup_scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "operations": k,
        "pairs": loop.pairs,
        "elapsed_s": elapsed,
        "pair_ms_tail_percentile": tail_pct,
        "samples": len(loop.latencies_ms),
        "latencies_ms": loop.latencies_ms,
        "setup_probes_s": probes,
        "unscaled": raw,
        "speed": {
            "reference_s": REFERENCE_S,
            "scale": scale,
            "setup_scale": setup_scale,
            "reference_samples": len(probe.samples),
            "reference_mean_s": statistics.fmean(probe.samples),
        },
        "stdout_sha256": {"ops": digest_ops, "sha256": prefix},
    }
    return loop, metrics, record, "end_to_end"


def run_traced(args, wl, state):
    from tracer import Tracer

    loop = Loop()
    precheck(loop)
    ops = args.ops if args.ops is not None else wl.trace_ops
    plain = Loop()
    clear_caches()
    untraced_s = sum(plain.run(wl.op(state, k)) for k in range(ops))
    tracer = Tracer()
    clear_caches()
    tracer.install()
    try:
        traced_s = sum(loop.run(wl.op(state, k)) for k in range(ops))
    finally:
        tracer.uninstall()
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.problems += plain.problems
    traced_sha, plain_sha = loop.digest.hexdigest(), plain.digest.hexdigest()
    if traced_sha != plain_sha:
        loop.fail("h2w stdout differs with tracing on")
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
    layers["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    record = {
        "operations": ops,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "stdout_sha256": {"ops": ops, "sha256": traced_sha, "untraced_sha256": plain_sha},
    }
    return loop, layers, record, "per_layer"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="override the workload's fixed operation count (smoke tests)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _single_blas_thread()
    _import_h2w()
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        state = wl.prepare(args.seed, workdir)
        if args.setup_only:
            return 0
        definition = _definition()
        mode = run_traced if args.trace else run_untraced
        loop, values, record, group = mode(args, wl, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for spec in definition[group]:
        value, unit = values.get(spec["name"], (0, spec["unit"]))
        metrics[spec["name"]] = {"value": value, "unit": unit}
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        attempted=loop.attempted,
        failed=loop.failed,
        failed_ratio=loop.failed / loop.attempted,
        problems=loop.problems,
        machine=machine_facts(),
    )
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for problem in loop.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
