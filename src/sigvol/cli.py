"""Command-line front end: config ingestion, experiment orchestration, CSV.

Config files are JSON; flags override file values.  All randomness flows
from the single --seed through the counter-based driver, so identical
(config, seed) pairs produce byte-identical CSV outputs.  Exit codes:
0 success (--help too), 1 validation error (a bad flag too), 2 numerical
degeneracy; only `execute` prints the last stdout line, always machine
readable: status=<ok|invalid|degenerate>.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import hedging, models, riccati, sde
from .algebra import (
    GradedTensor,
    Weight,
    antipode,
    concat_product,
    dual_pairing,
    exact_int,
    format_tensor,
    format_word,
    parse_tensor,
    parse_word,
    shuffle_product,
    weight_check,
    weighted_norms,
)
from .signature import BatchSignature, all_words


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _line(**values) -> str:
    """One machine-readable line of key=value pairs, each value as _fmt writes it."""
    return " ".join(f"{key}={_fmt(value)}" for key, value in values.items())


@contextlib.contextmanager
def _output(path: str):
    """path, written as path + ".part": renamed once the body ends, removed if it raises."""
    partial = path + ".part"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _write_rows(fh, header: list[str], rows: list[tuple]) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "T": 1.0,
    "steps": 128,
    "paths": 4096,
    "trunc": None,
    "s0": 1.0,
    "seed": None,
    "out": ".",
    "model": "black_scholes",
}


def load_config(path: str | None) -> dict:
    cfg = dict(_DEFAULTS)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("config root must be a JSON object")
        cfg.update(data)
    return cfg


def _weight_from_spec(spec) -> Weight:
    if spec is None:
        return Weight.geometric(2.0)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "geometric":
            return Weight.geometric(float(spec.get("r", 2.0)))
        if kind == "polynomial":
            return Weight.polynomial(float(spec.get("alpha", 1.0)))
        if kind == "constant":
            return Weight.constant()
    raise ValueError(f"bad weight spec {spec!r}")


def resolve_model(cfg: dict) -> tuple[sde.SigVolParams, str]:
    """The checked model of a config and its name: a preset, or "inline" for a given ell."""
    spec = cfg["model"]
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"bad model spec {spec!r}")
    # a preset's own defaults stand for the sigmas that are not set
    sigmas = {key: float(cfg[key]) for key in ("sigma", "sigma0", "sigma1") if key in cfg}
    if "ell_file" in spec or "ell" in spec:
        if sigmas:
            raise ValueError(f"an inline model reads no sigma, not {', '.join(sigmas)}")
        d = exact_int(spec.get("d", 1), "d")
        if "ell_file" in spec:
            with open(spec["ell_file"], "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = spec["ell"]
        ell = parse_tensor(text, d)
        eta = spec.get("eta", models._unit(d, 1))
        weight = _weight_from_spec(spec.get("weight"))
        name = "inline"
    else:
        name = spec.get("name", cfg["model"])
        pre = models.preset(name, **sigmas)
        if pre.metadata_only:
            raise ValueError(f"preset {name} is metadata-only and cannot be simulated")
        ell, eta, weight = pre.ell, pre.eta, pre.weight
    params = sde.SigVolParams(ell=ell, weight=weight, s0=float(cfg["s0"]), eta=eta,
                              horizon=float(cfg["T"]), steps=exact_int(cfg["steps"], "steps"))
    return params, name


def _require_seed(cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise ValueError("seed is mandatory: pass --seed or set it in the config")
    return exact_int(cfg["seed"], "seed")


def _parse_payoff(spec) -> tuple[str, dict]:
    """(kind, params) of "kind:K=1.0,..." or {"kind": ..., "K": 1.0}; K stands for strike."""
    if isinstance(spec, dict):
        kind = spec.get("kind")
        items = [(key, val) for key, val in spec.items() if key != "kind"]
    else:
        kind, _, rest = str(spec).partition(":")
        kind = kind.strip()
        items = [item.partition("=")[::2] for item in rest.split(",")] if rest else []
    return kind, {{"K": "strike"}.get(key.strip(), key.strip()): float(val) for key, val in items}


def _parse_direction(cfg: dict, d: int) -> riccati.RiccatiState:
    u_x = cfg.get("uX")
    pairs: dict = {}
    raw = cfg.get("u")
    if raw:
        if isinstance(raw, str):
            entries = [item for item in raw.split(",") if item.strip()]
            raw = [item.partition(":")[::2] for item in entries]
        for word_text, coeff in raw:
            # a repeated word sums its coefficients, as parse_tensor does
            word = parse_word(str(word_text))
            pairs[word] = pairs.get(word, 0.0) + float(coeff)
    return riccati.RiccatiState(GradedTensor(d, pairs), None if u_x is None else float(u_x))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_selftest(cfg: dict, out: str) -> int:
    rng = np.random.default_rng(12345)
    d, trunc = 2, 4

    def random_tensor():
        words = [()] + [tuple(rng.integers(0, d + 1, size=n)) for n in (1, 2) for _ in range(2)]
        return GradedTensor(d, {w: float(rng.normal()) for w in words[:4]})

    e1 = GradedTensor.basis(d, (1,))
    checks = [("shuffle_normalisation", shuffle_product(e1, e1, 2).coeffs == {(1, 1): 2.0})]
    for _ in range(20):
        a, b = random_tensor(), random_tensor()
        c = random_tensor()
        lhs = shuffle_product(a, b, trunc)
        rhs = shuffle_product(b, a, trunc)
        ok = lhs.allclose(rhs, 1e-12)
        assoc = shuffle_product(lhs, c, trunc).allclose(
            shuffle_product(a, shuffle_product(b, c, trunc), trunc), 1e-12)
        inv = antipode(antipode(a)).allclose(a)
        unit = concat_product(GradedTensor.unit(d), a, trunc).allclose(a)
        w = Weight.geometric(2.0)
        na, nb = weighted_norms(a, w)[0], weighted_norms(b, w)[0]
        banach = weighted_norms(concat_product(a, b, trunc), w)[0] <= na * nb + 1e-12
        cs = abs(dual_pairing(a, b)) <= weighted_norms(a, w)[1] * weighted_norms(b, w)[2] + 1e-12
        if not (ok and assoc and inv and unit and banach and cs):
            return 1
    checks.append(("shuffle_concat_antipode_norms", True))
    # Chen's identity on the engine the commands use: a path against its two halves
    inc = np.column_stack([np.full(8, 0.125), rng.normal(size=(8, d)) * 0.3])
    words = all_words(d, trunc)

    def signature(steps):
        sig = BatchSignature(1, d, words)
        for dx in steps:
            sig.chen_step(dx[None, :])
        return GradedTensor(d, dict(zip(words, sig.coords(words)[0].tolist())))

    chen = concat_product(signature(inc[:4]), signature(inc[4:]), trunc)
    checks.append(("chen_identity", chen.allclose(signature(inc), 1e-12)))
    rep = weight_check(Weight.geometric(2.0), 10)
    checks.append(("weight_check", rep.monotone and rep.w0_is_one))
    with _output(os.path.join(out, "selftest.csv")) as fh:
        _write_rows(fh, ["check", "ok"], [(name, "1" if ok else "0") for name, ok in checks])
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_simulate(cfg: dict, out: str) -> int:
    seed = _require_seed(cfg)
    params, _ = resolve_model(cfg)
    n_paths = exact_int(cfg["paths"], "paths")
    # rejects a bad run before paths.csv exists
    ranges = sde.stream_paths(params, n_paths, seed, sde.simulate_price)
    if n_paths < 2:  # the martingale check after the last block needs two
        raise ValueError("need at least 2 paths")
    terminal = np.empty(n_paths)
    with _output(os.path.join(out, "paths.csv")) as fh:
        for prices in ranges:
            sde.write_price_csv(prices, fh)
            terminal[prices.offset : prices.offset + len(prices)] = prices.terminal_price
            del prices  # one block's price paths at a time: free them before the next is drawn
        report = sde.martingale_check(terminal, params.s0)
    print(_line(mean_ST=report.mean_terminal, se=report.se, z=report.z_score))
    return 0


def _cmd_hypotheses(cfg: dict, out: str) -> int:
    seed = _require_seed(cfg)
    params, name = resolve_model(cfg)
    h1 = sde.check_H1(params.ell, params.weight)
    lam = float(cfg.get("lambda", 1.0))
    h3 = sde.estimate_H3(params, lam, exact_int(cfg["paths"], "paths"), seed)
    mart = sde.martingale_check(h3.terminal_price[:20000], params.s0)
    rows = [
        ("model", name, ""),
        ("H1.value", h1.value, "exact for finite support"),
        ("H1.divergent", int(h1.divergent), ""),
        ("H3.lambda", lam, ""),
        ("H3.mean", h3.mean, "MC estimate; finiteness not decidable by MC"),
        ("H3.ci_halfwidth", h3.ci_halfwidth, "95% normal CI"),
        ("H3.heavy_tail", int(h3.suspicious_heavy_tail), "top 0.1% carries >50%"),
        ("martingale.mean_ST", mart.mean_terminal, ""),
        ("martingale.se", mart.se, ""),
        ("martingale.z", mart.z_score, ""),
    ]
    with (_output(os.path.join(out, "ell.txt")) as ell_fh,
          _output(os.path.join(out, "hypotheses.csv")) as fh):
        ell_fh.write(format_tensor(params.ell))
        _write_rows(fh, ["key", "value", "note"], rows)
    return 0


def _cmd_transform(cfg: dict, out: str) -> int:
    params, _ = resolve_model(cfg)
    state = _parse_direction(cfg, params.dim)
    trunc = None if cfg.get("trunc") is None else exact_int(cfg["trunc"], "trunc")
    table = riccati.build_generator(state, params, trunc)
    # the flow's own defaults stand for the limits that are not set
    limits = {arg: float(cfg[key]) for arg, key in (("tol", "tol"),
                                                     ("explosion_threshold", "threshold"))
              if key in cfg}
    outcome = riccati.integrate_flow(table, **limits)
    verdict = (_line(lambda0=outcome.lambda0) if outcome.solved
               else _line(exploded_at=outcome.t_star))
    # the carried coordinates, in coordinate order; a trace entry holds their values
    words = [label if label == riccati.X_LABEL else format_word(label) for label in table.labels]
    with _output(os.path.join(out, "transform.csv")) as fh:
        fh.write("tau,component_word,psi_value\n")
        for tau, vec in outcome.trace:  # one entry's rows at a time, never the whole trace's
            at = f"{tau:.17g}"
            fh.writelines([f"{at},{word},{value:.17g}\n"
                           for word, value in zip(words, vec.tolist()) if value != 0.0])
        fh.write(verdict + "\n")
        if outcome.solved and cfg.get("mc_check"):
            mc = riccati.mc_transform(state, params, exact_int(cfg["paths"], "paths"),
                                      _require_seed(cfg))
            verdict = _line(lambda0=outcome.lambda0, mc=mc.mean, mc_se=mc.se)
    print(verdict)
    return 0 if outcome.solved else 2


def _cmd_hedge(cfg: dict, out: str) -> int:
    seed = _require_seed(cfg)
    params, name = resolve_model(cfg)
    n_paths = exact_int(cfg["paths"], "paths")
    kind, pay_params = _parse_payoff(cfg.get("payoff", "call:K=1.0"))
    hedge_cfg = cfg.get("hedge", {})
    if not isinstance(hedge_cfg, dict):
        raise ValueError(f"hedge must be a JSON object, got {hedge_cfg!r}")
    basis = hedging.HedgeBasis(integrand_depth=hedge_cfg.get("integrand_depth", 2),
                               residual_window=hedge_cfg.get("residual_window"),
                               static_strikes=hedge_cfg.get("static_strikes"),
                               ridge=hedge_cfg.get("ridge"))
    data = hedging.simulate_hedge_dataset(params, basis, kind, pay_params, n_paths, seed)
    result = hedging.gkw_project(data.payoffs, data.design, basis, weight=params.weight)
    rows = [("meta", "model", name), ("meta", "payoff", kind),
            ("meta", "paths", n_paths), ("meta", "seed", seed),
            ("price", "constant", result.price)]
    rows += [("dynamic_coeff", format_word(w), c) for w, c in result.dynamic_coeffs.items()]
    rows += [("static_coeff", label, c) for label, c in result.static_coeffs.items()]
    rows += [("residual_coeff", format_word(w), c) for w, c in result.residual_coeffs.items()]
    rows += [("diagnostic", "residual_norm", result.residual_norm),
             ("diagnostic", "residual_norm_se", result.residual_norm_se),
             ("diagnostic", "dynamic_residual_norm", result.dynamic_residual_norm),
             ("diagnostic", "kappa_bound", result.kappa_bound),
             ("diagnostic", "gram_min_eigenvalue", result.gram_min_eigenvalue),
             ("diagnostic", "payoff_l2", result.payoff_l2),
             ("diagnostic", "dropped_words",
              ";".join(format_word(w) for w in result.dropped_words) or "none")]
    with _output(os.path.join(out, "hedge.csv")) as fh:
        _write_rows(fh, ["section", "key", "value"], rows)
    print(_line(price=result.price, residual_norm=result.residual_norm))
    return 0


def _cmd_depth_report(cfg: dict, out: str) -> int:
    seed = _require_seed(cfg)
    params, name = resolve_model(cfg)
    kind, pay_params = _parse_payoff(cfg.get("payoff", "asian:K=1.0"))
    metas = [(m, models.preset(m).depth_meta) for m in models.PRESET_NAMES]
    rows = [("depth_table", f"{m}.N_star", n) for m, (n, _) in metas]
    rows += [("depth_table", f"{m}.K", "undocumented" if k is None else k) for m, (_, k) in metas]
    scan = hedging.depth_scan(params, kind, pay_params, cfg.get("depths", [0, 1, 2]),
                              exact_int(cfg["paths"], "paths"), seed)
    for row in scan:
        rows.append(("scan", f"depth_{row.depth}.residual_norm", row.residual_norm))
        rows.append(("scan", f"depth_{row.depth}.se", row.se))
    rows.append(("meta", "model", name))
    rows.append(("meta", "payoff", kind))
    with _output(os.path.join(out, "depth_report.csv")) as fh:
        _write_rows(fh, ["section", "key", "value"], rows)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is the config key it sets; "hedge.ridge" sets cfg["hedge"]["ridge"]."""
    parser = argparse.ArgumentParser(prog="sigvol",
                                     description="signature volatility model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # a flag that is not passed sets no key, so the config file's value stands
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config")
        p.add_argument("--out")
        if name == "selftest":
            continue
        # the model commands: the model, and the seed and sizes of its Monte Carlo runs
        p.add_argument("--seed", type=int)
        p.add_argument("--paths", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--model")
        for flag in ("--sigma", "--sigma0", "--sigma1", "--T", "--s0"):
            p.add_argument(flag, type=float)
        if name == "transform":
            p.add_argument("--trunc", type=int)
            p.add_argument("--uX", type=float)
            p.add_argument("--u")
            p.add_argument("--tol", type=float)
            p.add_argument("--threshold", type=float)
            p.add_argument("--mc-check", action="store_true")
        if name in ("hedge", "depth-report"):
            p.add_argument("--payoff")
        if name == "hedge":
            p.add_argument("--integrand-depth", type=int, dest="hedge.integrand_depth", metavar="N")
            p.add_argument("--window", type=_ints, dest="hedge.residual_window", metavar="LOW,HIGH")
            p.add_argument("--ridge", type=float, dest="hedge.ridge", metavar="RIDGE")
            p.add_argument("--strikes", type=_floats, dest="hedge.static_strikes", metavar="K,...")
        if name == "depth-report":
            p.add_argument("--depths", type=_ints, help="comma separated depths")
        if name == "hypotheses":
            p.add_argument("--lambda", type=float)
    return parser


def _merge_flags(cfg: dict, flags: dict) -> dict:
    for dest in [dest for dest in flags if "." in dest]:
        section, _, key = dest.partition(".")
        cfg[section] = {**cfg.get(section, {}), key: flags.pop(dest)}
    cfg.update(flags)
    return cfg


_COMMANDS = {
    "selftest": _cmd_selftest,
    "simulate": _cmd_simulate,
    "hypotheses": _cmd_hypotheses,
    "transform": _cmd_transform,
    "hedge": _cmd_hedge,
    "depth-report": _cmd_depth_report,
}


_STATUS = ("ok", "invalid", "degenerate")  # by exit code


def execute(argv: list[str]) -> int:
    """Run one command line and print its status line; return the exit code."""
    try:
        flags = vars(build_parser().parse_args(argv))
        command = flags.pop("command")
        cfg = _merge_flags(load_config(flags.pop("config", None)), flags)
        out = cfg.get("out") or "."
        os.makedirs(out, exist_ok=True)
        code = _COMMANDS[command](cfg, out)
    except SystemExit as exc:  # argparse's: 0 after --help, 2 after printing a usage error
        code = 1 if exc.code else 0
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        # TypeError: a config value of the wrong JSON type, e.g. "u": 5; OSError: an
        # unreadable input or an --out that cannot be made; MemoryError: a run too large to
        # hold, often raised without a message, so an empty one is named by its type
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        code = 1
    except hedging.DegenerateGram as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        code = 2
    print(_line(status=_STATUS[code]))
    return code


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
