"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces the public functions of each ktower module
(and a few hot methods) with wrappers, patching every module that holds
the same function object under some name, because modules import names
directly (``fgab`` imports ``lattice_contains`` from ``intlin``).
``uninstall`` puts the originals back, so untraced rounds run the
unmodified program.

A span is recorded when a call crosses from one layer into another;
calls that stay inside a layer only count.  A layer's self time is the
time of its spans minus the time of the spans nested inside them.  The
wrapper's own bookkeeping after a call (bit lengths, factor counts) is
charged to no layer.  Spans are kept in flat arrays and written out by
``dump`` once the run has ended.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("bench", "cli", "intlin", "fgab", "towers", "ktwist", "cyclic")
MODULES = {name: f"ktower.{name}" for name in LAYERS[1:]}

# Counters reported per round.  Each maps to the wrapped callables it counts.
COUNTS = {
    "intlin.snf.calls": ["intlin._snf_core"],
    "intlin.lattice.calls": ["intlin.lattice_contains", "intlin.lattice_equal", "intlin.lattice_basis"],
    "intlin.matmul.calls": ["intlin.IntMatrix.__matmul__"],
    "fgab.hom.constructed": ["fgab.Homomorphism.__post_init__"],
    "fgab.compose.calls": ["fgab.Homomorphism.compose"],
    "fgab.present.calls": ["fgab.present"],
    "fgab.kernel.calls": ["fgab.kernel"],
    "fgab.image.calls": ["fgab.image"],
    "fgab.cokernel.calls": ["fgab.cokernel_data"],
    "towers.verdict.calls": [
        "towers.inverse_limit", "towers.lim1", "towers.direct_limit",
        "towers.milnor_assemble", "towers.is_mittag_leffler",
    ],
    "towers.map_at.calls": ["towers.InverseTower.map_at", "towers.DirectTower.map_at"],
    "ktwist.cyclic_order.calls": ["ktwist.cyclic_order"],
    "cyclic.graded_dims.calls": ["cyclic.graded_dims"],
}

# Methods wrapped besides the modules' public functions.
METHODS = (
    "intlin.IntMatrix.__matmul__",
    "fgab.FgAbGroup.from_orders",
    "fgab.Homomorphism.__post_init__",
    "fgab.Homomorphism.compose",
    "fgab.Homomorphism.apply",
    "towers.InverseTower.map_at",
    "towers.InverseTower.composite",
    "towers.DirectTower.map_at",
    "towers.DirectTower.composite",
)
PRIVATE = ("intlin._snf_core",)


def _max_bits(result):
    bits = 0
    for m in (result.u, result.s, result.v, result.u_inv, result.v_inv):
        for row in m.entries:
            for x in row:
                b = x.bit_length()
                if b > bits:
                    bits = b
    return bits


class Tracer:
    def __init__(self):
        self.saved = []  # (owner, attribute, original) to restore
        self.name_ids = {}
        self.reset()

    def reset(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counts.update({"towers.compose.calls": 0, "ktwist.power.factors": 0,
                            "intlin.snf.max_dim": 0, "intlin.snf.max_out_bits": 0})
        self.self_s = [0.0] * len(LAYERS)
        self.kernel_s = 0.0
        self.layer = [0]  # stack of open layers, bench at the bottom
        self.covered = [0.0]  # per open span: time covered by nested spans
        self.open = [-1]  # per open span: its index in the span arrays
        self.request = 0
        self.span_request = array("l")
        self.span_layer = array("b")
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    # --- installation -----------------------------------------------------------

    def targets(self):
        """(qualified name, layer index, owner, function as stored)."""
        out = []
        for li, layer in enumerate(LAYERS[1:], start=1):
            mod = sys.modules[MODULES[layer]]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    out.append((f"{layer}.{attr}", li, mod, fn))
        for qual in METHODS + PRIVATE:
            layer, *path = qual.split(".")
            owner = sys.modules[MODULES[layer]]
            for part in path[:-1]:
                owner = getattr(owner, part)
            raw = vars(owner)[path[-1]]
            out.append((qual, LAYERS.index(layer), owner, raw))
        return out

    def install(self):
        counted = {}
        for key, quals in COUNTS.items():
            for q in quals:
                counted.setdefault(q, []).append(key)
        for qual, layer, owner, raw in self.targets():
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(fn, qual, layer, counted.get(qual, ()))
            new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
            homes = [owner] if inspect.isclass(owner) else [
                m for name, m in sys.modules.items() if name == "ktower" or name.startswith("ktower.")
            ]
            for home in homes:
                for name, value in list(vars(home).items()):
                    if value is raw:
                        self.saved.append((home, name, raw))
                        setattr(home, name, new)

    def uninstall(self):
        for home, name, raw in reversed(self.saved):
            setattr(home, name, raw)
        self.saved = []

    # --- wrappers -------------------------------------------------------------------

    def _wrap(self, fn, qual, layer, keys):
        tr = self
        name_id = self.name_ids.setdefault(qual, len(self.name_ids))
        post = {
            "intlin._snf_core": self._post_snf,
            "fgab.power": self._post_power,
            "fgab.Homomorphism.compose": self._post_compose,
        }.get(qual)
        timed_kernel = qual == "fgab.kernel"

        def wrapper(*args, **kwargs):
            counts = tr.counts
            for k in keys:
                counts[k] += 1
            caller = tr.layer[-1]
            if caller == layer and post is None and not timed_kernel:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            crossing = caller != layer
            if crossing:
                idx = len(tr.span_start)
                tr.span_request.append(tr.request)
                tr.span_layer.append(layer)
                tr.span_name.append(name_id)
                tr.span_parent.append(tr.open[-1])
                tr.span_start.append(t0)
                tr.span_end.append(0.0)
                tr.layer.append(layer)
                tr.covered.append(0.0)
                tr.open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if crossing:
                    tr.layer.pop()
                    tr.open.pop()
                    tr.span_end[idx] = t1
                    tr.self_s[layer] += (t1 - t0) - tr.covered.pop()
                    tr.covered[-1] += t1 - t0
            if timed_kernel:
                tr.kernel_s += t1 - t0
            if post is not None:
                post(caller, args, result)
                tr.covered[-1] += perf_counter() - t1
            return result

        return wrapper

    def _post_snf(self, caller, args, result):
        a = args[0]
        c = self.counts
        c["intlin.snf.max_dim"] = max(c["intlin.snf.max_dim"], a.rows, a.cols)
        c["intlin.snf.max_out_bits"] = max(c["intlin.snf.max_out_bits"], _max_bits(result))

    def _post_power(self, caller, args, result):
        self.counts["ktwist.power.factors"] += result.generator_count

    def _post_compose(self, caller, args, result):
        if caller == LAYERS.index("towers"):
            self.counts["towers.compose.calls"] += 1

    # --- results --------------------------------------------------------------------

    def times(self):
        out = {f"{LAYERS[i]}.self_s": self.self_s[i] for i in range(1, len(LAYERS))}
        out["fgab.kernel.s"] = self.kernel_s
        return out

    def dump(self, path, meta):
        """Write the spans of the last traced round as JSON columns."""
        doc = {
            "meta": meta,
            "layers": list(LAYERS),
            "names": sorted(self.name_ids, key=self.name_ids.get),
            "columns": ["request", "layer", "name", "parent", "start", "end"],
            "spans": {
                "request": self.span_request.tolist(),
                "layer": self.span_layer.tolist(),
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
