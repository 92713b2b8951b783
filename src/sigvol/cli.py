"""Command-line front end: config ingestion, experiment orchestration, CSV.

Config files are JSON; flags override file values.  All randomness flows
from the single --seed through the counter-based driver, so identical
(config, seed) pairs produce byte-identical CSV outputs.  Exit codes:
0 success, 1 validation error, 2 numerical degeneracy; the last stdout
line is always machine readable: status=<ok|invalid|degenerate>.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import hedging, models, riccati, sde
from .algebra import (
    EMPTY_WORD,
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


def _write_rows(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
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
    "sigma": 0.2,
    "sigma0": 0.2,
    "sigma1": 0.1,
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
    if "ell_file" in spec or "ell" in spec:
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
        pre = models.preset(name, sigma=float(cfg["sigma"]),
                            sigma0=float(cfg["sigma0"]), sigma1=float(cfg["sigma1"]))
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
            for item in entries:
                word_text, _, coeff = item.partition(":")
                pairs[parse_word(word_text)] = float(coeff)
        else:
            for word_text, coeff in raw:
                pairs[parse_word(str(word_text))] = float(coeff)
    deg = max((len(w) for w in pairs), default=0)
    sig = GradedTensor(d, deg, pairs)
    return riccati.RiccatiState(sig, None if u_x is None else float(u_x))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_selftest(cfg: dict, out: str) -> int:
    rng = np.random.default_rng(12345)
    d, trunc = 2, 4

    def random_tensor(max_len=2):
        words = [()] + [tuple(rng.integers(0, d + 1, size=n)) for n in (1, 2) for _ in range(2)]
        return GradedTensor(d, max_len, {w: float(rng.normal()) for w in words[: max_len + 2]})

    e1 = GradedTensor.basis(d, 1, (1,))
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
        unit = concat_product(GradedTensor.unit(d, trunc), a, trunc).allclose(a)
        w = Weight.geometric(2.0)
        na, nb = weighted_norms(a, w)[0], weighted_norms(b, w)[0]
        banach = weighted_norms(concat_product(a, b, trunc), w)[0] <= na * nb + 1e-12
        cs = abs(dual_pairing(a, b)) <= weighted_norms(a, w)[1] * weighted_norms(b, w)[2] + 1e-12
        if not (ok and assoc and inv and unit and banach and cs):
            print("status=invalid")
            return 1
    checks.append(("shuffle_concat_antipode_norms", True))
    # Chen's identity on the engine the commands use: a path against its two halves
    inc = np.column_stack([np.full(8, 0.125), rng.normal(size=(8, d)) * 0.3])

    def signature(steps):
        sig = BatchSignature(1, d, trunc)
        for dx in steps:
            sig.chen_step(dx[None, :])
        words = all_words(d, trunc)
        return GradedTensor(d, trunc, dict(zip(words, sig.coords(words)[0].tolist())))

    chen = concat_product(signature(inc[:4]), signature(inc[4:]), trunc)
    checks.append(("chen_identity", chen.allclose(signature(inc), 1e-12)))
    rep = weight_check(Weight.geometric(2.0), 10)
    checks.append(("weight_check", rep.monotone and rep.w0_is_one))
    rows = [(name, "1" if ok else "0") for name, ok in checks]
    _write_rows(os.path.join(out, "selftest.csv"), ["check", "ok"], rows)
    if all(ok for _, ok in checks):
        print("status=ok")
        return 0
    print("status=invalid")
    return 1


def _cmd_simulate(cfg: dict, out: str) -> int:
    seed = _require_seed(cfg)
    params, _ = resolve_model(cfg)
    n_paths = exact_int(cfg["paths"], "paths")
    blocks = sde.stream_paths(params, n_paths, seed)  # rejects a bad run before paths.csv exists
    if n_paths < 2:  # the martingale check after the last block needs two
        raise ValueError("need at least 2 paths")
    terminal = np.empty(n_paths)
    # the rows go to a partial file that becomes paths.csv only once every block is written
    path = os.path.join(out, "paths.csv")
    partial = path + ".part"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            for block in blocks:
                prices = sde.simulate_price(block)
                sde.write_price_csv(prices, fh)
                terminal[block.offset : block.offset + block.size] = prices.terminal_price
                del prices  # one block's price paths at a time: free them before the next is drawn
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    report = sde.martingale_check(terminal, params.s0)
    print(f"mean_ST={report.mean_terminal:.17g} se={report.se:.17g} z={report.z_score:.17g}")
    print("status=ok")
    return 0


def _cmd_hypotheses(cfg: dict, out: str) -> int:
    seed = _require_seed(cfg)
    params, name = resolve_model(cfg)
    h1 = sde.check_H1(params.ell, params.weight)
    lam = float(cfg.get("lambda", 1.0))
    h3 = sde.estimate_H3(params, lam, exact_int(cfg["paths"], "paths"), seed)
    mart = sde.martingale_check(h3.terminal_price[:20000], params.s0)
    with open(os.path.join(out, "ell.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_tensor(params.ell))
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
    _write_rows(os.path.join(out, "hypotheses.csv"), ["key", "value", "note"], rows)
    print("status=ok")
    return 0


def _cmd_transform(cfg: dict, out: str) -> int:
    params, _ = resolve_model(cfg)
    ell = params.ell
    state = _parse_direction(cfg, params.dim)
    extended = state.u_x is not None and state.u_x != 0.0
    window = riccati.required_window(state, ell if extended else None)
    trunc = (exact_int(cfg["trunc"], "trunc") if cfg.get("trunc") is not None
             else max(window, state.support_degree, 2))
    if trunc < window:
        raise ValueError(f"truncation {trunc} below the shuffle window {window}")
    table = riccati.build_generator(trunc, params.dim, state,
                                    (ell, params.eta) if extended else None)
    tol = float(cfg.get("tol", 1e-10))
    threshold = float(cfg.get("threshold", 1e6))
    outcome = riccati.integrate_flow(state, params.horizon, table, tol=tol,
                                     explosion_threshold=threshold, weight=params.weight)
    lines = ["tau,component_word,psi_value"]
    # the carried coordinates, in coordinate order; a trace entry holds their values
    words = [label if label == riccati.X_LABEL else format_word(label) for label in table.labels]
    for tau, vec in outcome.trace:
        at = f"{tau:.17g}"
        lines += [f"{at},{word},{value:.17g}"
                  for word, value in zip(words, vec.tolist()) if value != 0.0]
    if outcome.solved:
        psi0 = outcome.state.sig[EMPTY_WORD]
        lam0 = math.exp(psi0 + (outcome.state.u_x * math.log(params.s0) if extended else 0.0))
        lines.append(f"lambda0={lam0:.17g}")
    else:
        lines.append(f"exploded_at={outcome.t_star:.17g}")
    with open(os.path.join(out, "transform.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if outcome.solved and cfg.get("mc_check"):
        seed = _require_seed(cfg)
        mc = riccati.mc_transform(state, params, exact_int(cfg["paths"], "paths"), seed)
        print(f"lambda0={lam0:.17g} mc={mc.mean:.17g} mc_se={mc.se:.17g}")
    elif outcome.solved:
        print(f"lambda0={lam0:.17g}")
    if not outcome.solved:
        print(f"exploded_at={outcome.t_star:.17g}")
        print("status=degenerate")
        return 2
    print("status=ok")
    return 0


def _cmd_hedge(cfg: dict, out: str) -> int:
    seed = _require_seed(cfg)
    params, name = resolve_model(cfg)
    n_paths = exact_int(cfg["paths"], "paths")
    kind, pay_params = _parse_payoff(cfg.get("payoff", "call:K=1.0"))
    hedge_cfg = cfg.get("hedge", {})
    if not isinstance(hedge_cfg, dict):
        raise ValueError(f"hedge must be a JSON object, got {hedge_cfg!r}")
    depth = hedge_cfg.get("integrand_depth", 2)
    basis = hedging.HedgeBasis(integrand_depth=depth,
                               residual_window=hedge_cfg.get("residual_window", (depth, depth + 1)),
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
    _write_rows(os.path.join(out, "hedge.csv"), ["section", "key", "value"], rows)
    print(f"price={result.price:.17g} residual_norm={result.residual_norm:.17g}")
    print("status=ok")
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
    _write_rows(os.path.join(out, "depth_report.csv"), ["section", "key", "value"], rows)
    print("status=ok")
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


def execute(argv: list[str]) -> int:
    parser = build_parser()
    try:
        flags = vars(parser.parse_args(argv))
    except SystemExit:
        print("status=invalid")
        return 1
    command = flags.pop("command")
    try:
        cfg = _merge_flags(load_config(flags.pop("config", None)), flags)
        out = cfg.get("out") or "."
        os.makedirs(out, exist_ok=True)
        return _COMMANDS[command](cfg, out)
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        # TypeError: a config value of the wrong JSON type, e.g. "u": 5; OSError: an
        # unreadable input or an --out that cannot be made; MemoryError: a run too large to
        # hold, often raised without a message, so an empty one is named by its type
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        print("status=invalid")
        return 1
    except hedging.DegenerateGram as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        print("status=degenerate")
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
