"""Run one `hsseg` CLI job with each layer's public functions timed from outside.

Usage: python3 tracer.py SPANS_JSON HSSEG_ARG...

The wrappers replace every reference to the wrapped functions in the
loaded `hsseg` modules (the CLI imports them by name), so the traced job
follows whatever the CLI calls. Spans nest on a stack: a span's self time
is its duration minus the durations of the spans opened inside it, so the
self times of one job add up to the summed duration of its outermost
spans. Totals are kept in memory and written once, after the job.
`class_orderings` is a generator; each step of it is one span, so its
time is the time spent fully consuming it and the enclosing pass keeps
only its own work.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MIB = float(1 << 20)

# layer -> (module, public functions timed)
LAYERS = {
    "io": ("hsseg.io", ("read_cube", "read_graymap_stack", "write_labels",
                        "write_report", "append_sweep_row")),
    "metrics": ("hsseg.metrics", ("build_metric", "build_edge_weights")),
    "flatzones": ("hsseg.flatzones", ("lambda_flat_zones",)),
    "seeds": ("hsseg.seeds", ("class_orderings",)),
    "eta_regions": ("hsseg.eta_regions", ("eta_bounded_regions",)),
    "mu_balls": ("hsseg.mu_balls", ("mu_geodesic_balls",)),
}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Span stack plus per-function self time, call and work counters."""

    def __init__(self):
        self.stack: list[list] = []          # [name, start, time in children]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.outer_s = 0.0

    def open(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def close(self) -> None:
        end = perf_counter()
        name, start, inner = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - inner
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.outer_s += duration

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        count = getattr(self, "_count_" + fn.__name__, None)
        if fn.__name__ == "class_orderings":
            return self._wrap_generator(name, fn)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            before = _size(args[1]) if fn.__name__ == "append_sweep_row" else 0
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        def traced(flat, metric, *args, **kwargs):
            self.calls[name] += 1
            inner = fn(flat, metric, *args, **kwargs)
            while True:
                self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close()
                self.counts["seeds.pairs"] += len(item[1]) ** 2
                self.counts["seeds.computed_bytes"] += len(item[1]) ** 2 * metric.bands * 8
                yield item

        traced.__wrapped__ = fn
        return traced

    # Work counters, one per wrapped function that has one.
    def _count_read_cube(self, args, result, _):
        self.counts["io.read_bytes"] += _size(args[0])

    def _count_read_graymap_stack(self, args, result, _):
        self.counts["io.read_bytes"] += sum(_size(p) for p in args[0])

    def _count_write_labels(self, args, result, _):
        self.counts["io.write_bytes"] += _size(args[1])

    def _count_write_report(self, args, result, _):
        self.counts["io.write_bytes"] += _size(args[1])

    def _count_append_sweep_row(self, args, result, before):
        self.counts["io.write_bytes"] += _size(args[1]) - before

    def _count_lambda_flat_zones(self, args, result, _):
        self.counts["flatzones.classes"] += result.count
        largest = int(np.bincount(result.labels.ravel()).max())
        self.counts["flatzones.max_class_px"] = max(self.counts["flatzones.max_class_px"], largest)

    def _count_eta_bounded_regions(self, args, result, _):
        self.counts["eta_regions.regions"] += result.count

    def _count_mu_geodesic_balls(self, args, result, _):
        self.counts["mu_balls.regions"] += result.count

    def install(self) -> None:
        """Swap every loaded reference to a timed function for its wrapper."""
        import importlib
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self.wrap(layer, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "hsseg" or mod_name.startswith("hsseg."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "outer_s": self.outer_s}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import hsseg.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = hsseg.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
