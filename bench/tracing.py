"""In-memory spans around hierspec's public functions.

The benchmark never edits the library: in a traced worker it replaces
each named function by a timing wrapper, in the module or class that
defines it and under every other name that binds the same object (a
``from .x import f`` in another module, the package namespace).  Spans
are aggregated per function and per calling span as they close and are
handed to the caller as one dict at the end of the run.

Self time of a call is its duration minus the time covered by the
wrapped calls it made.
"""

import functools
import importlib
import sys
from time import perf_counter

#: (span name, defining module, attribute path in that module)
TARGETS = (
    ("cli.main", "hierspec.cli", "main"),
    ("bounds.bound_report", "hierspec.bounds", "bound_report"),
    ("schrodinger.positive_spectrum", "hierspec.schrodinger",
     "positive_spectrum"),
    ("schrodinger.count_above_threshold", "hierspec.schrodinger",
     "count_above_threshold"),
    ("schrodinger.secular_eigenvalue", "hierspec.schrodinger",
     "secular_eigenvalue"),
    ("schrodinger.volume_coupling_threshold", "hierspec.schrodinger",
     "volume_coupling_threshold"),
    ("annihilated.p1_diag", "hierspec.annihilated", "p1_diag"),
    ("annihilated.p1_small_t", "hierspec.annihilated", "p1_small_t"),
    ("annihilated.p1_tail_integral", "hierspec.annihilated",
     "p1_tail_integral"),
    ("annihilated.p1_weighted_tail_integral", "hierspec.annihilated",
     "p1_weighted_tail_integral"),
    ("annihilated.resolvent_annihilated", "hierspec.annihilated",
     "resolvent_annihilated"),
    ("closedform.heat_kernel", "hierspec.closedform", "heat_kernel"),
    ("closedform.heat_profile", "hierspec.closedform", "heat_profile"),
    ("closedform.resolvent", "hierspec.closedform", "resolvent"),
    ("closedform.green_tail_integral", "hierspec.closedform",
     "green_tail_integral"),
    ("hierops.apply_laplacian", "hierspec.hierops", "apply_laplacian"),
    ("hierops.assemble_dense", "hierspec.hierops", "assemble_dense"),
    ("hierops.dense_spectrum", "hierspec.hierops", "dense_spectrum"),
    ("hierops.lanczos_extreme", "hierspec.hierops", "lanczos_extreme"),
    ("hierops.expm_action", "hierspec.hierops", "expm_action"),
    ("hierops.HaarBasis.forward", "hierspec.hierops", "HaarBasis.forward"),
    ("hierops.HaarBasis.inverse", "hierspec.hierops", "HaarBasis.inverse"),
    ("lattice.sample_end_sites", "hierspec.lattice", "sample_end_sites"),
    # the scipy boundary: hierspec calls it as scipy.linalg.eigvalsh
    ("linalg.eigvalsh", "scipy.linalg", "eigvalsh"),
)

#: spans whose ``cache_info()`` gives a hit ratio
CACHED = ("annihilated.p1_tail_integral",
          "annihilated.p1_weighted_tail_integral",
          "closedform.green_tail_integral")

SPAN_NAMES = tuple(name for name, _, _ in TARGETS)
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))


def _field_bytes(result) -> int:
    """Bytes an apply reads and writes at the least: the input field
    once and the result once, both the size of the result array."""
    return 2 * int(getattr(result, "nbytes", 0))


class Tracer:
    """Span recorder; ``stats[name]`` holds calls, total and self time,
    bytes and the calls made from each enclosing span."""

    def __init__(self):
        self.stack = []
        self.stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                             "bytes": 0, "callers": {}}
                      for name in SPAN_NAMES}
        self.originals = {}

    def wrap(self, name, fn, count_bytes=None):
        stack, stat = self.stack, self.stats[name]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][1] if stack else "root"
            frame = [0.0, name]  # time covered by child spans, span name
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - frame[0]
                stat["callers"][parent] = stat["callers"].get(parent, 0) + 1
                if stack:
                    stack[-1][0] += elapsed
            if count_bytes is not None:
                stat["bytes"] += count_bytes(result)
            return result

        return span

    def install(self):
        """Wrap every target wherever it is bound by name."""
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)  # AttributeError: renamed target
            count = _field_bytes if name == "hierops.apply_laplacian" else None
            wrapper = self.wrap(name, original, count)
            self.originals[name] = original
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "hierspec"
                                          or mod_name.startswith("hierspec.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def report(self) -> dict:
        """Per-span stats plus cache hit ratios, ready for JSON."""
        out = {"spans": self.stats, "cache": {}}
        for name in CACHED:
            info = self.originals[name].cache_info()
            out["cache"][name] = {"hits": info.hits, "misses": info.misses}
        return out
