"""Span tracing of one sigvol process, installed from outside the package.

`install` replaces the public functions of each module with wrappers that
record a span (name, start, end, parent) and a few exact counts.  Names are
patched where they are looked up: `cli` binds `simulate_brownian_grid` and
`riccati` binds `shuffle_words` / `shuffle_product` at import, so those
bindings are wrapped too, and the `BatchSignature` methods are wrapped on the
class.  Spans stay in memory until `Tracer.save` writes them out.

`layer_values` turns one process's spans and counts into the raw per-layer
numbers; `per_layer_metrics` derives the reported metrics from them.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np


class Tracer:
    """In-memory span and count store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.words_read: set = set()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def keep_max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def save(self, path: str) -> None:
        """Write spans to `path` (.npz) and names plus counts beside it (.json)."""
        np.savez(path, name_id=np.asarray(self.name_id, dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent, dtype=np.int64))
        counts = dict(self.counts, words_read=len(self.words_read))
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": counts}, fh)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _after_driver(tracer, args, kwargs, batch):
    tracer.add("normals", len(batch) * batch.steps * batch.dim)
    tracer.add("blocks", 1)


def _after_chen(tracer, args, kwargs, result):
    # Computed, not counted: the dense step builds level k of the segment
    # exponential with 2 L^k flops and updates level m with 2 m L^m flops;
    # its compulsory traffic reads levels 0..N and dx and writes levels 1..N.
    sig = args[0]
    letters, depth, n = sig.n_letters, sig.trunc, sig.n_paths
    powers = [letters**m for m in range(depth + 1)]
    tracer.keep_max("words_carried", sum(powers))
    tracer.add("chen_flops", n * sum(2 * (m + 1) * powers[m] for m in range(1, depth + 1)))
    tracer.add("chen_bytes", 8 * n * (2 * sum(powers) - 1 + letters))


def _after_coord(tracer, args, kwargs, result):
    tracer.words_read.add(tuple(args[1]))


def _after_csv(tracer, args, kwargs, result):
    tracer.add("csv_bytes", args[1].tell())


def _after_table(tracer, args, kwargs, table):
    tracer.add("state_dim", table.state_dim)
    tracer.add("gamma_terms", len(table.gamma))


def _after_flow(tracer, args, kwargs, outcome):
    tracer.add("accepted_steps", outcome.steps)


def _after_dataset(tracer, args, kwargs, data):
    design = data.design
    tracer.add("design_columns", design.dynamic.shape[1] + design.static.shape[1]
               + design.residual.shape[1])


def _after_gkw(tracer, args, kwargs, result):
    design = args[1] if len(args) > 1 else kwargs["design"]
    tracer.add("gkw_kept", len(result.residual_coeffs))
    tracer.add("gkw_window", len(design.res_words))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every sigvol layer the benchmark measures."""
    from sigvol import cli, hedging, riccati, sde, signature

    def patch(owner, attr, name, after=None):
        wrapped = _wrap(tracer, name, getattr(owner, attr), after)
        setattr(owner, attr, wrapped)
        return wrapped

    driver = patch(signature, "simulate_brownian_grid", "signature.driver", _after_driver)
    cli.simulate_brownian_grid = driver
    batch = signature.BatchSignature
    patch(batch, "chen_step", "signature.chen_step", _after_chen)
    patch(batch, "coord", "signature.coord", _after_coord)
    patch(batch, "coords", "signature.coords")
    patch(batch, "pair", "signature.pair")
    patch(sde, "simulate_price", "sde.simulate_price")
    patch(sde, "write_price_csv", "sde.write_price_csv", _after_csv)
    patch(riccati, "build_generator", "riccati.build_generator", _after_table)
    patch(riccati, "integrate_flow", "riccati.integrate_flow", _after_flow)
    patch(riccati, "mc_transform", "riccati.mc_transform")
    patch(riccati, "shuffle_words", "algebra.shuffle_words")
    patch(riccati, "shuffle_product", "algebra.shuffle_product")
    patch(hedging, "simulate_hedge_dataset", "hedging.simulate_hedge_dataset", _after_dataset)
    patch(hedging, "gkw_project", "hedging.gkw_project", _after_gkw)
    patch(cli, "execute", "cli.execute")


# ---------------------------------------------------------------------------
# Aggregation (benchmark side)
# ---------------------------------------------------------------------------

TIME_SUFFIXES = ("_busy", "_self")  # keys of `layer_values` that hold seconds
_GROUPS = {
    "driver": ("signature.driver",),
    "chen": ("signature.chen_step",),
    "read": ("signature.pair", "signature.coord", "signature.coords"),
    "csv": ("sde.write_price_csv",),
    "build_generator": ("riccati.build_generator",),
    "integrate_flow": ("riccati.integrate_flow",),
    "shuffle": ("algebra.shuffle_words", "algebra.shuffle_product"),
    "gkw": ("hedging.gkw_project",),
    "execute": ("cli.execute",),
}
_SELF = {
    "simulate_price": "sde.simulate_price",
    "mc_transform": "riccati.mc_transform",
    "design": "hedging.simulate_hedge_dataset",
    "execute": "cli.execute",
}


def load(path: str) -> tuple[dict, dict]:
    """Read what `Tracer.save` wrote: (span arrays plus names, counts)."""
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files}
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    spans["names"] = meta["names"]
    return spans, meta["counts"]


def layer_values(spans: dict, counts: dict) -> dict[str, float]:
    """Raw per-layer numbers of one process.

    A group's busy time is the summed duration of its spans that have no
    ancestor in the same group; a function's self time is its spans'
    duration minus the time covered by their direct children.
    """
    names = spans["names"]
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.zeros_like(dur)
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    ids = {name: i for i, name in enumerate(names)}

    def spans_of(members) -> np.ndarray:
        return np.isin(nid, [ids[m] for m in members if m in ids])

    out: dict[str, float] = {}
    for group, members in _GROUPS.items():
        inside = spans_of(members)
        covered = np.zeros(len(nid), dtype=bool)  # some ancestor is in the group
        for i in np.flatnonzero(inside & has_parent):
            p = parent[i]
            covered[i] = inside[p] or covered[p]
        out[f"{group}_busy"] = float(dur[inside & ~covered].sum())
        out[f"{group}_calls"] = float(np.count_nonzero(inside))
    for key, name in _SELF.items():
        out[f"{key}_self"] = float(self_time[spans_of([name])].sum())
    for key in ("normals", "blocks", "words_carried", "words_read", "chen_flops", "chen_bytes",
                "csv_bytes", "state_dim", "gamma_terms", "accepted_steps", "design_columns",
                "gkw_kept", "gkw_window"):
        out[key] = float(counts.get(key, 0.0))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(raw: dict[str, float], trace_overhead_s: float) -> dict[str, float]:
    """Reported per-layer metrics from summed raw values."""
    return {
        "signature.driver.busy_s": raw["driver_busy"],
        "signature.driver.normals": raw["normals"],
        "signature.driver.normals_per_s": _ratio(raw["normals"], raw["driver_busy"]),
        "signature.driver.blocks": raw["blocks"],
        "signature.chen.busy_s": raw["chen_busy"],
        "signature.chen.calls": raw["chen_calls"],
        "signature.chen.words_carried": raw["words_carried"],
        "signature.chen.useful_word_ratio": _ratio(raw["words_read"], raw["words_carried"]),
        "signature.chen.flops": raw["chen_flops"],
        "signature.chen.bytes": raw["chen_bytes"],
        "signature.read.busy_s": raw["read_busy"],
        "sde.simulate_price.self_s": raw["simulate_price_self"],
        "sde.csv.busy_s": raw["csv_busy"],
        "sde.csv.bytes": raw["csv_bytes"],
        "riccati.build_generator.busy_s": raw["build_generator_busy"],
        "riccati.table.state_dim": raw["state_dim"],
        "riccati.table.gamma_terms": raw["gamma_terms"],
        "riccati.integrate_flow.busy_s": raw["integrate_flow_busy"],
        "riccati.flow.accepted_steps": raw["accepted_steps"],
        "riccati.mc_transform.self_s": raw["mc_transform_self"],
        "algebra.shuffle.calls": raw["shuffle_calls"],
        "algebra.shuffle.busy_s": raw["shuffle_busy"],
        "hedging.design.self_s": raw["design_self"],
        "hedging.design.columns": raw["design_columns"],
        "hedging.gkw_project.busy_s": raw["gkw_busy"],
        "hedging.gkw_project.calls": raw["gkw_calls"],
        "hedging.gkw.kept_ratio": _ratio(raw["gkw_kept"], raw["gkw_window"]),
        "cli.execute.self_s": raw["execute_self"],
        "trace_overhead_s": trace_overhead_s,
    }
