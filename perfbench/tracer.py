"""In-memory span and count tracer for the h2w benchmark.

``Tracer.install`` wraps public h2w functions at every module binding: the
module that defines a function and every h2w module that imported it by
name.  Calls through any path are therefore seen without editing the
package.  Each wrapped call records a span ``[name, start, end, parent,
outer]`` where ``parent`` is the index of the enclosing span (or -1) and
``outer`` is false when a span of the same name is already open (recursion),
so busy time counts each interval once.  Some layers also add a count taken
from their return value (candidates, bytes, members, nodes).  Spans stay in
memory until ``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function, {count suffix: size of the returned value})
SPANNED = [
    ("constants", "norm_constant", {}),
    ("constants", "a2_constant", {}),
    ("constants", "testing_constant", {}),
    ("constants", "energy_constant", {}),
    ("constants", "functional_energy_ratio", {}),
    ("constants", "compute_report", {}),
    ("hilbert", "truncation_candidates", {"candidates": len}),
    ("hilbert", "kernel_stack", {"bytes": lambda a: int(a.nbytes)}),
    ("corona", "calibrate_c0", {}),
    ("corona", "energy_stopping_intervals", {}),
    ("corona", "build_stopping_data", {"members": lambda sd: len(sd.members)}),
    ("corona", "reduction_residual", {}),
    ("corona", "corona_split", {}),
    ("corona", "local_estimate_ratios", {}),
    ("corona", "carleson_check", {}),
    ("corona", "uniformity_check", {}),
    ("poisson", "poisson_testing", {}),
    ("poisson", "mu_measure", {}),
    ("poisson", "default_j_families", {}),
    ("haar", "expand", {}),
    ("haar", "good_projection", {}),
    ("haar", "splitting_nodes", {"nodes": len}),
    ("haar", "charged_nodes", {"nodes": len}),
    ("haar", "occupied_nodes", {"nodes": len}),
    ("grid", "build_grid", {}),
    ("grid", "auto_grid", {}),
    ("grid", "is_good", {}),
    ("measure", "random_ensemble", {}),
    ("measure", "parse_pair_text", {}),
    ("cli", "cmd_sweep", {}),
    ("cli", "cmd_verify", {}),
    ("cli", "cmd_constants", {}),
    ("cli", "cmd_decompose", {}),
    ("cli", "cmd_poisson_test", {}),
]
# run_suite gets one span name per suite: verify.run_suite.<suite>
SUITE_SPANNED = ("verify", "run_suite")
# called too often for a span each; only counted
COUNTED = [("poisson", "poisson_stationary")]
CONSTRUCTED = ("measure", "DyadicRational")


def _h2w_modules():
    return [m for n, m in list(sys.modules.items()) if n == "h2w" or n.startswith("h2w.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _spanning(self, fn, name, sizes, name_of=None):
        spans, stack, is_open, counts = self.spans, self._stack, self._open, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name_of(args) if name_of else name
            index = len(spans)
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, not is_open[label]]
            spans.append(record)
            stack.append(index)
            is_open[label] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                is_open[label] -= 1
                stack.pop()
            for suffix, size in sizes.items():
                counts[f"{label}.{suffix}"] += size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------

    def _rebind(self, module: str, attr: str, make):
        original = getattr(sys.modules[f"h2w.{module}"], attr)
        wrapper = make(original)
        for mod in _h2w_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self):
        import h2w.cli  # noqa: F401  (loads every module that binds a traced name)

        for module, attr, sizes in SPANNED:
            name = f"{module}.{attr}"
            self._rebind(module, attr, lambda fn, n=name, s=sizes: self._spanning(fn, n, s))
        module, attr = SUITE_SPANNED
        self._rebind(
            module,
            attr,
            lambda fn: self._spanning(fn, None, {}, lambda a: f"verify.run_suite.{a[0]}"),
        )
        for module, attr in COUNTED:
            key = f"{module}.{attr}.calls"
            self._rebind(module, attr, lambda fn, k=key: self._counting(fn, k))
        module, cls_name = CONSTRUCTED
        cls = getattr(sys.modules[f"h2w.{module}"], cls_name)
        original = cls.__post_init__
        cls.__post_init__ = self._counting(original, f"{module}.{cls_name}.constructed")
        self._undo.append((cls, "__post_init__", original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``{name: (value, unit)}`` with calls, busy_s and self_s per span
        name, plus every count.  Self time is a span's duration minus the
        durations of its direct children; busy time sums the outermost
        spans of a name only."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _, outer) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child_time[i]
            if outer:
                busy[name] += end - start
        out: dict[str, tuple[float, str]] = {}
        for name in calls:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
        for key, value in self.counts.items():
            out[key] = (value, "bytes" if key.endswith(".bytes") else "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
