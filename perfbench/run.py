"""sigvol benchmark: CLI workloads timed end to end, plus a traced per-layer run.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is a fresh `python3 perfbench/child.py` process running the
sigvol CLI from `src/`.  The benchmark spawns a few import-only processes,
then runs rounds of the workload's operations until S seconds have passed
(at least two rounds), checks every output, and after each round times the
fixed reference task in `reference.py`.  Every time of an operation is
scaled by REFERENCE_NOMINAL_S / (the reference time of its round), so the
reported seconds are those of a host of fixed speed; the raw seconds are
printed and recorded beside them.  With --trace 0 it reports:

* wall_s: spawn to exit of one operation, median per operation kind,
  summed over the workload's kinds;
* setup_s: spawn to `sigvol.cli` imported, median over every process;
* peak_rss_mb: the child's ru_maxrss, median per kind, largest kind.

With --trace 1 every round runs each operation once untraced and once with
the tracing wrappers, and reports per-layer metrics from the traced ones
(medians per kind, summed over kinds); trace_overhead_s is the traced minus
the untraced wall time.  Failed checks count in `failed`, and a CSV whose
sha256 differs from the first one of the run counts as failed too.

The last stdout line is the JSON result.  A record of the run (metadata,
every operation, CSV hashes, layer shares) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # import-only processes per run, after one warm-up
MIN_ROUNDS = 2
OP_TIMEOUT_S = 60.0
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def _spawn(argv: list[str], info: Path, traced: bool, env: dict) -> dict:
    """Run one child to completion; returns times, exit code, rusage, stdout."""
    for stale in (info, Path(f"{info}.npz"), Path(f"{info}.npz.json")):
        stale.unlink(missing_ok=True)
    stdout_path, stderr_path = Path(f"{info}.out"), Path(f"{info}.err")
    cmd = [sys.executable, str(HERE / "child.py"), str(info), "1" if traced else "0", *argv]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    result = {"rc": proc.returncode, "wall_s": ended - spawned,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "stdout": stdout_path.read_text(encoding="utf-8", errors="replace")}
    try:
        result["setup_s"] = json.loads(info.read_text(encoding="utf-8"))["ready"] - spawned
    except (OSError, ValueError, KeyError):
        result["setup_s"] = None
    return result


def _reference() -> float:
    """Spawn-to-exit seconds of the fixed reference task, run now."""
    started = time.monotonic()
    subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=ROOT, check=True,
                   timeout=OP_TIMEOUT_S)
    return time.monotonic() - started


def _run_op(op: workloads.Operation, out_dir: Path, traced: bool, env: dict,
            hashes: dict) -> dict:
    csv = out_dir / op.csv
    csv.unlink(missing_ok=True)
    info = out_dir / f"{op.kind}{'.traced' if traced else ''}.info"
    res = _spawn(op.argv + ["--out", str(out_dir)], info, traced, env)
    record = {"kind": op.kind, "traced": traced,
              **{k: res[k] for k in ("rc", "wall_s", "cpu_s", "setup_s", "peak_rss_mb")}}
    try:
        failure = op.check(res["rc"], workloads.stdout_values(res["stdout"]), csv)
        if failure is None:
            digest = workloads.file_digest(csv)[0]
            record["csv_sha256"] = digest
            first = hashes.setdefault(op.kind, digest)
            if digest != first:
                failure = f"{op.csv} sha256 {digest} differs from {first} earlier in the run"
    except (OSError, ValueError, KeyError) as exc:
        failure = f"unreadable output: {exc!r}"
    if failure is None and res["setup_s"] is None:
        failure = "child wrote no timing record"
    record["failure"] = failure
    if traced and Path(f"{info}.npz").is_file():
        record["layers"] = tracing.layer_values(*tracing.load(f"{info}.npz"))
    return record


def _tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median={statistics.median(values):.6g} n={n}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"{text} p{p:g}={q:.6g}"
    return f"{text} (no higher percentile has ten samples beyond it)"


def _metadata(args, ops) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # the benchmark may run from an exported tree
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas": blas, "reference_nominal_s": reference.REFERENCE_NOMINAL_S,
            "operations": [{"kind": op.kind, "argv": op.argv, **op.sizes} for op in ops]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sigvol" / "cli.py").is_file():
        print(f"error: no sigvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    ops = workloads.operations(args.workload, args.seed)
    kinds = [op.kind for op in ops]
    traced_run = args.trace == 1
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    probes = []
    for i in range(SETUP_PROBES + 1):
        probe = _spawn([], out_dir / "probe.info", False, env)
        if probe["rc"] != 0 or probe["setup_s"] is None:
            print(f"error: importing sigvol.cli failed:\n{(out_dir / 'probe.info.err').read_text()}",
                  file=sys.stderr)
            return 1
        if i:  # the first probe warms caches and compiles bytecode
            probes.append({"kind": "probe", "traced": False, "setup_s": probe["setup_s"]})

    records: list[dict] = []
    hashes: dict[str, str] = {}
    started = time.monotonic()
    refs: list[float] = []
    while len(refs) < MIN_ROUNDS or time.monotonic() - started < args.seconds:
        first = len(records)
        for op in ops:
            records.append(_run_op(op, out_dir, False, env, hashes))
            if traced_run:
                records.append(_run_op(op, out_dir, True, env, hashes))
        ref = _reference()
        for r in records[first:] + (probes if not refs else []):
            r["reference_s"] = ref
            r["scale"] = reference.REFERENCE_NOMINAL_S / ref
        refs.append(ref)

    failed = [r for r in records if r["failure"] is not None]
    for r in failed:
        print(f"FAILED {r['kind']}{' (traced)' if r['traced'] else ''}: {r['failure']}")

    # Timings come from every operation; failures are counted, not hidden.
    def per_kind(key: str, traced: bool = False, scaled: bool = True) -> dict[str, float]:
        return {k: statistics.median(r[key] * (r["scale"] if scaled else 1.0) for r in records
                                     if r["kind"] == k and r["traced"] == traced)
                for k in kinds}

    for k in kinds:
        print(f"wall_s[{k}] raw: {_tail([r['wall_s'] for r in records if r['kind'] == k and not r['traced']])}")
    setups = [r for r in probes + records if not r["traced"] and r["setup_s"] is not None]
    print(f"setup_s raw: {_tail([r['setup_s'] for r in setups])}")
    print(f"reference_s: {_tail(refs)}")
    walls = per_kind("wall_s")
    values = {"wall_s": sum(walls.values()),
              "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in setups),
              "peak_rss_mb": max(per_kind("peak_rss_mb", scaled=False).values())}
    summary: dict = {"rounds": len(refs), "attempted": len(records), "failed": len(failed),
                     "fail_ratio": len(failed) / len(records), "end_to_end": values,
                     "wall_s_raw": sum(per_kind("wall_s", scaled=False).values())}
    for op in ops:
        if "paths" in op.sizes:
            summary[f"path_steps_per_s[{op.kind}]"] = op.sizes["paths"] * op.sizes["steps"] / walls[op.kind]
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    if traced_run:
        raw: dict[str, float] = defaultdict(float)
        for k in kinds:
            traced = [r for r in records if r["kind"] == k and "layers" in r]
            if not traced:
                continue
            medians = {key: statistics.median(
                r["layers"][key] * (r["scale"] if key.endswith(tracing.TIME_SUFFIXES) else 1.0)
                for r in traced) for key in traced[0]["layers"]}
            for key, value in medians.items():
                raw[key] += value
            summary[f"share_of_execute[{k}]"] = {
                key: round(value / (medians["execute_busy"] or 1.0), 4) for key, value in medians.items()
                if key.endswith(tracing.TIME_SUFFIXES) and key != "execute_busy"}
        traced_walls = per_kind("wall_s", traced=True)
        values = tracing.per_layer_metrics(raw, sum(traced_walls[k] - walls[k] for k in kinds))
        names = [m["name"] for m in BENCHMARK["per_layer"]]
    for key, value in summary.items():
        print(f"{key}: {json.dumps(value)}")
    summary["csv_sha256"] = hashes

    record_path = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"metadata": _metadata(args, ops), "summary": summary,
                                       "operations": probes + records}, indent=1), encoding="utf-8")
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in names}
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
