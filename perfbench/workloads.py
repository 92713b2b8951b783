"""The benchmark's workloads: CLI operations, their inputs and their checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous process has exited.  The workload seed fixes the
inputs of a run (the CLI seed and the model parameters); every operation of
a run repeats them, so a changed CSV between two operations of one run is a
reproducibility failure.  Input values move with the seed but sizes do not,
so the work per operation is the same on every seed.

Why these four:
* price_paths_deep: `simulate` at a depth-6 symbol; dense Chen steps that
  carry 127 words of which ell reads 7, plus CSV formatting.  One block.
* transform_mc: the transform-vs-Monte-Carlo check at depth 1; bound by the
  Philox/Box-Muller driver, in four 16384-path blocks.
* hedge_depth_scan: the GKW depth scan; Chen at depth 4 with every carried
  word read, then four `gkw_project` solves.
* riccati_flows: no Monte Carlo; a large price-extended generator table and
  a flow that runs into its analytic blow-up time.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DRIVER_BLOCK = 16384  # path block of sigvol's Brownian driver


@dataclass(frozen=True)
class Operation:
    kind: str
    argv: list[str]
    csv: str  # file the command writes into --out
    sizes: dict
    check: Callable[[int, dict, Path], str | None] = field(repr=False)


def stdout_values(stdout: str) -> dict[str, str]:
    values = {}
    for line in stdout.splitlines():
        for token in line.split():
            key, sep, val = token.partition("=")
            if sep:
                values[key] = val
    return values


def _status(rc: int, values: dict, want_rc: int, want: str) -> str | None:
    if rc != want_rc or values.get("status") != want:
        return f"exit {rc} status={values.get('status')}, expected exit {want_rc} status={want}"
    return None


def file_digest(path: Path) -> tuple[str, int]:
    """(sha256, number of newlines) of a file."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def _price_paths(rng: random.Random) -> list[Operation]:
    paths, steps = 1024, 128
    seed = rng.randrange(2**31)

    def check(rc, values, csv):
        bad = _status(rc, values, 0, "ok")
        if bad:
            return bad
        z = float(values["z"])
        if not abs(z) < 4.0:
            return f"martingale z={z}"
        rows = file_digest(csv)[1] - 1
        if rows != paths * (steps + 1):
            return f"{rows} CSV rows, expected {paths * (steps + 1)}"
        return None

    argv = ["simulate", "--model", "rough_bergomi_approx", "--paths", str(paths),
            "--steps", str(steps), "--seed", str(seed)]
    sizes = {"paths": paths, "steps": steps, "d": 1, "trunc": 6,
             "blocks": math.ceil(paths / DRIVER_BLOCK)}
    return [Operation("simulate", argv, "paths.csv", sizes, check)]


def _transform_mc(rng: random.Random) -> list[Operation]:
    paths, steps = 65536, 128
    seed = rng.randrange(2**31)
    u_x = round(rng.uniform(0.2, 0.3), 6)

    def check(rc, values, csv):
        bad = _status(rc, values, 0, "ok")
        if bad:
            return bad
        lam, mc, se = (float(values[k]) for k in ("lambda0", "mc", "mc_se"))
        if not abs(mc - lam) <= 4.0 * se:
            return f"mc={mc} lambda0={lam} differ by more than 4 se={se}"
        return None

    argv = ["transform", "--model", "first_order", "--uX", repr(u_x), "--mc-check",
            "--paths", str(paths), "--steps", str(steps), "--seed", str(seed)]
    sizes = {"paths": paths, "steps": steps, "d": 1, "trunc": 1,
             "blocks": math.ceil(paths / DRIVER_BLOCK)}
    return [Operation("transform_mc", argv, "transform.csv", sizes, check)]


def _scan_rows(csv: Path) -> list[tuple[float, float]]:
    scan: dict[int, dict[str, float]] = {}
    for line in csv.read_text(encoding="utf-8").splitlines()[1:]:
        section, key, value = line.split(",")
        if section == "scan":
            name, field_name = key.split(".")
            scan.setdefault(int(name.removeprefix("depth_")), {})[field_name] = float(value)
    return [(scan[d]["residual_norm"], scan[d]["se"]) for d in sorted(scan)]


def _hedge_scan(rng: random.Random) -> list[Operation]:
    paths, steps, depths = 20000, 16, (0, 1, 2, 3)
    seed = rng.randrange(2**31)
    strike = round(rng.uniform(0.95, 1.05), 6)

    def check(rc, values, csv):
        bad = _status(rc, values, 0, "ok")
        if bad:
            return bad
        rows = _scan_rows(csv)
        if len(rows) != len(depths):
            return f"{len(rows)} scan rows, expected {len(depths)}"
        if not all(math.isfinite(r) and math.isfinite(s) for r, s in rows):
            return f"non-finite residual norm in {rows}"
        for (r0, s0), (r1, s1) in zip(rows, rows[1:]):
            if r1 > r0 + 2.0 * max(s0, s1):
                return f"residual norm rises with depth beyond 2 se: {rows}"
        return None

    argv = ["depth-report", "--model", "first_order", "--payoff", f"asian:K={strike!r}",
            "--depths", ",".join(map(str, depths)), "--paths", str(paths),
            "--steps", str(steps), "--seed", str(seed)]
    sizes = {"paths": paths, "steps": steps, "d": 1, "trunc": max(depths) + 1,
             "blocks": math.ceil(paths / DRIVER_BLOCK)}
    return [Operation("depth_report", argv, "depth_report.csv", sizes, check)]


def _riccati_flows(rng: random.Random) -> list[Operation]:
    sigma = round(rng.uniform(0.15, 0.25), 6)
    u = round(rng.uniform(0.2, 0.4), 6)
    u_x = round(rng.uniform(0.3, 0.7), 6)
    table_trunc = 9
    # E exp(<u, W_T> + uX log S_T) under Black-Scholes with u on the word "1"
    exact = math.exp(((u + u_x * sigma) ** 2 - u_x * sigma**2) / 2.0)

    def check_table(rc, values, csv):
        bad = _status(rc, values, 0, "ok")
        if bad:
            return bad
        lam = float(values["lambda0"])
        if not abs(lam - exact) <= 1e-9 * exact:
            return f"lambda0={lam}, Black-Scholes closed form {exact!r}"
        return None

    # E exp(c W_T^2 / 2) = E exp(c <e_11, W_T>) blows up at T = 1/c
    c = round(rng.uniform(1.8, 2.2), 6)
    flow_trunc = 7

    def check_explosion(rc, values, csv):
        bad = _status(rc, values, 2, "degenerate")
        if bad:
            return bad
        t_star = float(values["exploded_at"])
        if not abs(t_star - 1.0 / c) <= 1e-3:
            return f"exploded_at={t_star}, analytic {1.0 / c!r}"
        return None

    table = Operation(
        "table",
        ["transform", "--model", "black_scholes", "--sigma", repr(sigma), "--u", f"1:{u!r}",
         "--uX", repr(u_x), "--trunc", str(table_trunc)],
        "transform.csv", {"d": 1, "trunc": table_trunc, "state_dim": 2 ** (table_trunc + 1)},
        check_table)
    explosion = Operation(
        "explosion",
        ["transform", "--model", "first_order", "--u", f"1.1:{c!r}", "--T", "1",
         "--trunc", str(flow_trunc)],
        "transform.csv", {"d": 1, "trunc": flow_trunc, "state_dim": 2 ** (flow_trunc + 1) - 1},
        check_explosion)
    return [table, explosion]


WORKLOADS = {
    "price_paths_deep": _price_paths,
    "transform_mc": _transform_mc,
    "hedge_depth_scan": _hedge_scan,
    "riccati_flows": _riccati_flows,
}


def operations(workload: str, seed: int) -> list[Operation]:
    """The operations of one round of `workload`, with inputs drawn from `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
