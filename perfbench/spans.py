"""Per-layer tracing from outside the program.

The tracer wraps the public functions listed in LAYERS and rebinds each
wrapper in every ``heisenmod`` module namespace that holds the original,
including names imported with ``from .x import f``, so that calls made inside
the package (for example from ``verify_suite``) are attributed too. Each call
records a span (function, parent span, op id, start, end) in flat in-memory
arrays; nothing is written until the caller dumps them.

heisenmod is single-threaded, so spans nest strictly: the child spans of a
span are disjoint and their summed duration is the time they cover. Self time
is a span's duration minus that sum.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

LAYERS = {
    "groups": ("subgroup_from_generators", "adjoint_subgroup"),
    "shifts": ("tf_shift_values", "tf_shift_matrix", "heisenberg_cocycle", "randn_window"),
    "twisted": ("twisted_convolve", "involution", "integrated_rep", "cstar_norm"),
    "gabor": (
        "shift_orbit", "frame_operator", "frame_bounds", "dual_window",
        "reconstruction_residual", "janssen_frame_operator",
    ),
    "module": (
        "left_inner", "right_inner", "left_act", "right_act", "theta_matrix",
        "figa_check", "module_frame_check", "module_expansion",
        "dual_lattice_norm_scaling", "verify_suite",
    ),
}
TRACED = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
CACHED = ("groups.adjoint_subgroup", "shifts.tf_shift_matrix")
CLI_MAIN = "cli.main"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.flops = 0.0
        self.cache = {name: [0, 0] for name in CACHED}
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        """Wrap every function in TRACED wherever a heisenmod module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "heisenmod" or n.startswith("heisenmod.")]
        for qual in TRACED:
            layer, fn_name = qual.split(".")
            original = getattr(sys.modules.get(f"heisenmod.{layer}"), fn_name, None)
            if original is None:
                continue  # a removed function reports zero calls
            if qual in CACHED:
                self._cached[qual] = original
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def harvest_caches(self) -> None:
        """Add the hits and misses of the cached public functions; call before clearing them."""
        for qual, fn in self._cached.items():
            info = fn.cache_info()
            self.cache[qual][0] += info.hits
            self.cache[qual][1] += info.misses

    def _wrap(self, qual: str, fn):
        nid = self.name_id(qual)
        name, parent, op, start, end, stack = self.name, self.parent, self.op, self.start, self.end, self._stack
        clock = time.perf_counter
        count_flops = qual == "gabor.frame_operator"

        # The span bookkeeping of open() and close() is inlined: this runs on every traced call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_flops:
                # Computed from operand shapes: per window one (|G| x |Delta|) @ (|Delta| x |G|)
                # complex product, 8 real flops per complex multiply-add.
                gsys = args[0]
                n = gsys.lattice.ambient.order
                self.flops += 8.0 * n * n * len(gsys.lattice) * len(gsys.windows)
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def dump(self) -> dict:
        """Spans and counters as plain lists, for a child process to hand to its parent."""
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "flops": self.flops,
            "cache": self.cache,
        }

    def absorb(self, dump: dict, op_id: int) -> None:
        """Append a child's spans under ``op_id``, renumbering names and parents."""
        base = len(self.start)
        ids = [self.name_id(n) for n in dump["names"]]
        for nid, par, s, e in zip(dump["name"], dump["parent"], dump["start"], dump["end"]):
            self.name.append(ids[nid])
            self.parent.append(par + base if par >= 0 else -1)
            self.op.append(op_id)
            self.start.append(s)
            self.end.append(e)
        self.flops += dump["flops"]
        for qual, (hits, misses) in dump["cache"].items():
            self.cache[qual][0] += hits
            self.cache[qual][1] += misses

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per span name."""
        import numpy as np

        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_sum[i])) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
