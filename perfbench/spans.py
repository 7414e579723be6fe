"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each public function listed in ``TRACED`` with a
wrapper wherever any loaded ``specdesign`` module binds it, so calls between
modules are seen too; ``uninstall`` puts the originals back.  Private
helpers are never wrapped: their names are free to change.

A span is (name, start, end, parent, operation id, counts, count time).
Spans stay in memory and are written out once, at the end of a run.  Counts
are derived from call arguments and results only, so they repeat exactly for
the same inputs on any hardware.  Counting runs after the span has ended but
while its parent is still open; its time is recorded with the span and kept
out of the parent's self time, so it shows as tracing overhead only.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_bound_states(tracer, args, kwargs, result):
    v = _first_arg(args, kwargs)
    key = (hashlib.sha1(v.values.tobytes()).hexdigest(), v.bc_kind, v.deltas)
    repeat = key in tracer.seen
    tracer.seen.add(key)
    return {"levels": len(result), "repeats": int(repeat)}


def _count_node_energies(tracer, args, kwargs, result):
    v = _first_arg(args, kwargs)
    return {"node_energies": v.grid.n_points * len(result)}


def _count_nodes(tracer, args, kwargs, result):
    return {"nodes": _first_arg(args, kwargs).grid.n_points}


def _count_edges(tracer, args, kwargs, result):
    e_max = args[1] if len(args) > 1 else kwargs["e_max"]
    return {"edges": sum(1 + (z.e_hi < e_max) for z in result)}


def _count_bytes(tracer, args, kwargs, result):
    return {"bytes": sum(a["bytes"] for a in result["artifacts"])}


_CSV_WRITERS = (
    "sampled_fn_bytes", "read_sampled_fn", "spectrum_bytes", "states_bytes",
    "scattering_bytes", "discriminant_bytes", "zones_bytes", "zone_track_bytes",
    "lattice_spectrum_bytes", "lattice_states_bytes", "steplog_bytes",
)

DARBOUX_TRANSFORMS = (
    "shift_level", "scale_swf", "remove_level_by_swf", "darboux_remove_ground",
    "darboux_create", "embed_bsec", "bsec_reflection_curve", "bsec_whole_line",
)

#: (defining module, function, counter) for every traced public function
TRACED = (
    [
        ("solver", "bound_states", _count_bound_states),
        ("solver", "scattering_curve", _count_node_energies),
        ("solver", "band_discriminant", _count_nodes),
        ("solver", "band_discriminant_curve", _count_node_energies),
        ("bands", "zones", _count_edges),
        ("bands", "shift_zone", None),
        ("verify", "isospectral_check", None),
        ("verify", "reflection_check", None),
        ("cli", "run", _count_bytes),
    ]
    + [("darboux", name, None) for name in DARBOUX_TRANSFORMS]
    + [("csvio", name, None) for name in _CSV_WRITERS]
)

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.seen: set = set()
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "specdesign" or name.startswith("specdesign."))]
        for module_name, fn_name, counter in TRACED:
            home = sys.modules.get(f"specdesign.{module_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue  # renamed or removed: its metrics read 0
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            rec = [name, 0, 0, self.stack[-1] if self.stack else None, self.op, None, 0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self.stack.pop()
            if counter is not None:
                rec[5] = counter(self, args, kwargs, result)
                rec[6] = time.perf_counter_ns() - rec[2]
            return result

        traced.__wrapped__ = fn
        return traced

    # -- operations --------------------------------------------------------

    def operation(self, call):
        """Run call() as one operation under a root span with a fresh id; returns its result."""
        self.op = 0 if self.op is None else self.op + 1
        self.seen = set()
        return self._wrap(ROOT, call, None)()

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts, count_ns in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "counts": counts,
                                     "count_ns": count_ns}) + "\n")

    # -- aggregation -------------------------------------------------------

    def layer_totals(self) -> tuple[dict, int, float]:
        """Per-name totals over all operations, the operation count and root time.

        Each name maps to calls, self seconds and summed counts; self time
        is the span's duration minus the durations of its direct children
        and the time spent counting them.
        """
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _, count_ns in self.spans:
            if parent is not None:
                child_ns[parent] += end - start + count_ns
        totals: dict = defaultdict(lambda: defaultdict(float))
        n_ops = root_ns = 0
        for idx, (name, start, end, parent, _, counts, _) in enumerate(self.spans):
            if name == ROOT:
                n_ops += 1
                root_ns += end - start
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += (end - start - child_ns[idx]) * 1e-9
            for key, value in (counts or {}).items():
                t[key] += value
        return totals, n_ops, root_ns * 1e-9


def per_layer_metrics(totals: dict, n_ops: int, root_s: float) -> dict:
    """The per-operation layer metrics named in BENCHMARK.json (0 where a layer did not run)."""
    def get(name, key):
        return totals[name][key] if name in totals else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    bs = "solver.bound_states"
    put(f"{bs}.calls", get(bs, "calls") / n_ops, "count")
    put(f"{bs}.levels", get(bs, "levels") / n_ops, "count")
    put(f"{bs}.self_s", get(bs, "self_s") / n_ops, "s")
    put(f"{bs}.s_per_level", ratio(get(bs, "self_s"), get(bs, "levels")), "s")
    put(f"{bs}.repeat_frac", ratio(get(bs, "repeats"), get(bs, "calls")), "fraction")
    for name in ("solver.scattering_curve", "solver.band_discriminant_curve"):
        put(f"{name}.calls", get(name, "calls") / n_ops, "count")
        put(f"{name}.node_energies", get(name, "node_energies") / n_ops, "count")
        put(f"{name}.ns_per_node_energy",
            ratio(get(name, "self_s"), get(name, "node_energies"), 1e9), "ns")
    bd = "solver.band_discriminant"
    put(f"{bd}.calls", get(bd, "calls") / n_ops, "count")
    put(f"{bd}.ns_per_node", ratio(get(bd, "self_s"), get(bd, "nodes"), 1e9), "ns")
    solver_s = sum(t["self_s"] for name, t in totals.items() if name.startswith("solver."))
    put("solver.self_s", solver_s / n_ops, "s")
    put("solver.oracle_share", ratio(solver_s, root_s), "fraction")

    put("bands.zones.calls", get("bands.zones", "calls") / n_ops, "count")
    put("bands.zones.self_s", get("bands.zones", "self_s") / n_ops, "s")
    put("bands.shift_zone.calls", get("bands.shift_zone", "calls") / n_ops, "count")
    put("bands.shift_zone.self_s", get("bands.shift_zone", "self_s") / n_ops, "s")
    for fn in DARBOUX_TRANSFORMS:
        put(f"darboux.{fn}.calls", get(f"darboux.{fn}", "calls") / n_ops, "count")
        put(f"darboux.{fn}.self_s", get(f"darboux.{fn}", "self_s") / n_ops, "s")
    for fn in ("isospectral_check", "reflection_check"):
        put(f"verify.{fn}.calls", get(f"verify.{fn}", "calls") / n_ops, "count")
    put("cli.run.self_s", get("cli.run", "self_s") / n_ops, "s")
    put("cli.bytes_written", get("cli.run", "bytes") / n_ops, "bytes")
    csv_s = sum(t["self_s"] for name, t in totals.items() if name.startswith("csvio."))
    put("csvio.self_s", csv_s / n_ops, "s")
    layer_s = sum(t["self_s"] for name, t in totals.items() if name != ROOT)
    put("trace.layer_self_s", layer_s / n_ops, "s")
    put("trace.op_s", root_s / n_ops, "s")
    return m
