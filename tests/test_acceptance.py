"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Monte Carlo criteria use pinned seeds so the suite is deterministic.
"""

import math
import time

import numpy as np

from sigvol.algebra import (
    GradedTensor,
    Weight,
    antipode,
    shuffle_product,
    shuffle_words,
)
from sigvol.hedging import HedgeBasis, depth_scan, gkw_project, kappa_tail, simulate_hedge_dataset
from sigvol.models import PRESET_NAMES, preset
from sigvol.riccati import (
    RiccatiState,
    build_generator,
    integrate_flow,
    mc_transform,
)
from sigvol.sde import PathBlock, SigVolParams, check_H1, martingale_check, simulate_price
from sigvol.signature import BatchSignature, all_words, simulate_brownian_grid

from _oracles import (
    brownian_values,
    build_generator_by_label,
    generator_regression,
    levels,
    lognormal_mgf,
    projection_compatibility,
    scalar_explosion_bound,
    transform_value,
    true_cov_matrix,
    true_drift_matrix,
)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {tail}"


def _random_piecewise_path_coords(rng, d, trunc):
    """Terminal dense signature coordinates of one random path."""
    n_seg = int(rng.integers(3, 7))
    inc = rng.normal(size=(n_seg, d)) * rng.uniform(0.2, 0.6)
    dt = rng.uniform(0.05, 0.4, size=n_seg)
    sig = BatchSignature(1, d, trunc)
    for k in range(n_seg):
        sig.chen_step(np.concatenate([[dt[k]], inc[k]])[None, :])
    return sig


def _flat_index(word, d, offsets):
    idx = 0
    for letter in word:
        idx = idx * (d + 1) + letter
    return offsets[len(word)] + idx


def test_criterion_1_algebraic_identity_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    trunc = 5
    worst_shuffle = 0.0
    worst_chen = 0.0
    per_d = (34, 33, 33)  # 100 paths across d = 1, 2, 3
    for d, n_paths in zip((1, 2, 3), per_d):
        max_seg = 6
        n_seg = rng.integers(3, max_seg + 1, size=n_paths)
        split = n_seg // 2
        # padded increments: zero segments are Chen-neutral
        dx = np.zeros((n_paths, max_seg, d + 1))
        for p in range(n_paths):
            dx[p, : n_seg[p], 0] = rng.uniform(0.05, 0.4, size=n_seg[p])
            dx[p, : n_seg[p], 1:] = rng.normal(size=(n_seg[p], d)) * 0.5
        full = BatchSignature(n_paths, d, trunc)
        prefix = BatchSignature(n_paths, d, trunc)
        suffix = BatchSignature(n_paths, d, trunc)
        for k in range(max_seg):
            full.chen_step(dx[:, k, :])
            before = (k < split)[:, None]
            prefix.chen_step(np.where(before, dx[:, k, :], 0.0))
            suffix.chen_step(np.where(before, 0.0, dx[:, k, :]))
        # Chen: prefix (x) suffix == full, level by level
        full_lv, prefix_lv, suffix_lv = levels(full), levels(prefix), levels(suffix)
        for m in range(trunc + 1):
            acc = np.zeros_like(full_lv[m])
            for a in range(m + 1):
                acc += (prefix_lv[a][:, :, None]
                        * suffix_lv[m - a][:, None, :]).reshape(acc.shape)
            worst_chen = max(worst_chen, float(np.max(np.abs(acc - full_lv[m]))))
        # shuffle identity over all pairs with 1 <= |I|, |J|, |I| + |J| <= 5
        coords = np.hstack(full_lv)
        offsets = np.cumsum([0] + [(d + 1) ** n for n in range(trunc + 1)])
        nonempty = [w for w in all_words(d, trunc - 1) if w]
        for iw in nonempty:
            ci = coords[:, _flat_index(iw, d, offsets)]
            for jw in nonempty:
                if len(iw) + len(jw) > trunc:
                    continue
                lhs = ci * coords[:, _flat_index(jw, d, offsets)]
                rhs = np.zeros(n_paths)
                for w, m in shuffle_words(iw, jw):
                    rhs += m * coords[:, _flat_index(w, d, offsets)]
                worst_shuffle = max(worst_shuffle, float(np.max(np.abs(lhs - rhs))))
    runtime = time.monotonic() - t0
    ok = worst_shuffle <= 1e-10 and worst_chen <= 1e-12 and runtime < 10.0
    report(1, "shuffle & Chen identities on 100 random paths",
           ok, f"shuffle err {worst_shuffle:.2e}, chen err {worst_chen:.2e}, {runtime:.1f}s")


def test_criterion_2_normalisation_and_antipode():
    e1 = GradedTensor.basis(2, 1, (1,))
    sq = shuffle_product(e1, e1, 2)
    norm_ok = sq.coeffs == {(1, 1): 2.0}
    rng = np.random.default_rng(7)
    inv_ok = True
    for _ in range(50):
        words = [tuple(rng.integers(0, 3, size=n)) for n in rng.integers(0, 4, size=5)]
        a = GradedTensor(2, 3, {w: float(rng.normal()) for w in words})
        double = antipode(antipode(a))
        inv_ok &= double.coeffs == a.coeffs
    report(2, "e1 shuffle e1 = 2 e11 exactly; antipode involution exact",
           norm_ok and inv_ok)


def test_criterion_3_black_scholes_exactness():
    sigma, s0, steps = 0.2, 1.0, 32
    pre = preset("black_scholes", sigma=sigma)
    params = SigVolParams(pre.ell, pre.weight, s0, pre.eta, 1.0, steps)
    paths = simulate_brownian_grid(1, 1.0, steps, 100_000, seed=2027)
    prices = simulate_price(PathBlock(params, paths))
    closed = s0 * np.exp(sigma * prices.driver - 0.5 * sigma**2 * prices.times[None, :])
    err = float(np.max(np.abs(prices.price - closed)))
    mart = martingale_check(prices.terminal_price, prices.s0)
    ok = err <= 1e-12 and abs(mart.z_score) < 3.0
    report(3, "Black-Scholes closed form to 1e-12; E[S_T] within 3 SE at 1e5 paths",
           ok, f"max err {err:.2e}, z {mart.z_score:.2f}")


def test_criterion_4_riccati_scalar_check():
    sigma, u, horizon, s0 = 0.2, 2.0, 1.0, 1.0
    ell = GradedTensor(1, 0, {(): sigma})
    state = RiccatiState(GradedTensor.zero(1, 0), u_x=u)
    table = build_generator(2, 1, state, (ell, np.array([1.0])))
    out = integrate_flow(state, horizon, table, tol=1e-12)
    phi_expected = 0.5 * sigma**2 * (u**2 - u) * horizon
    phi_err = abs(out.state.sig[()] - phi_expected)
    lam = transform_value(state, horizon, table, x0=math.log(s0))
    mgf_rel = abs(lam - lognormal_mgf(u, s0, sigma, horizon)) / lognormal_mgf(u, s0, sigma, horizon)
    ok = phi_err <= 1e-8 and mgf_rel <= 1e-6
    report(4, "extended BS flow phi and lognormal MGF",
           ok, f"phi err {phi_err:.2e}, mgf rel {mgf_rel:.2e}")


def test_criterion_5_generator_oracles():
    t0 = time.monotonic()
    # 16 groups x 2500 paths x three grids = 1.2e5 simulated paths; the 0.02
    # absolute floor covers multiple-comparison dust over ~1200 bands (a
    # wrong structural constant would miss by >= 0.5)
    words, targets, pairs, dm, dse, cm, cse = generator_regression(
        d=2, design_depth=2, steps=48, n_paths_per_group=2500, n_groups=16,
        seed=202)
    table = build_generator_by_label(2, 2)
    bt, _ = true_drift_matrix(table, words, targets)
    ct = true_cov_matrix(table, words, pairs)
    drift_ok = bool(np.all(np.abs(dm - bt) <= 3.0 * dse + 0.02))
    cov_ok = bool(np.all(np.abs(cm - ct) <= 3.0 * cse + 0.02))
    runtime = time.monotonic() - t0
    ok = drift_ok and cov_ok and runtime < 120.0
    report(5, "MC drift/covariation regressions recover b and Gamma (3 SE)",
           ok, f"drift {drift_ok}, cov {cov_ok}, {runtime:.0f}s")


def test_criterion_6_explosion_detection():
    from test_riccati import scalar_quadratic_table

    rng = np.random.default_rng(606)
    ok = True
    details = []
    for _ in range(10):
        a = float(rng.uniform(0.4, 3.0))
        y0 = float(rng.uniform(0.4, 3.0))
        out = integrate_flow(RiccatiState(GradedTensor(1, 0, {(): y0})), 50.0,
                             scalar_quadratic_table(a), tol=1e-9,
                             explosion_threshold=1e6)
        true_star = 1.0 / (a * y0)
        ok &= (not out.solved) and out.t_star < scalar_explosion_bound(a, y0)
        rel = abs(out.t_star - true_star) / true_star
        ok &= rel <= 0.02
        details.append(rel)
    report(6, "quadratic blow-up detected before 2/(a y0), within 2% of 1/(a y0)",
           ok, f"max rel dev {max(details):.4f}")


def test_criterion_7_projection_compatibility():
    rng = np.random.default_rng(707)
    pre = preset("first_order")
    ok = True
    for k in range(50):
        if k % 2 == 0:
            coeffs = {(): rng.normal(), (0,): rng.normal(),
                      (1,): rng.normal(), (2,): rng.normal()}
            state = RiccatiState(GradedTensor(2, 1, coeffs))
            ok &= projection_compatibility(state, 5, 3, 2)
        else:
            coeffs = {(): rng.normal(), (0,): rng.normal(), (1,): rng.normal()}
            state = RiccatiState(GradedTensor(1, 1, coeffs), u_x=float(rng.normal()))
            ok &= projection_compatibility(state, 5, 3, 1, (pre.ell, pre.eta))
    report(7, "pi_M R_N = R_M pi_M exactly on 50 admissible inputs", ok)


def test_criterion_8_kappa_formula():
    ok = abs(kappa_tail(Weight.geometric(2.0), 1) ** 2 - 1.0 / 12.0) < 1e-15
    worst = 0.0
    for r in (1.5, 2.0, 4.0):
        for level in (0, 1, 2, 5):
            brute = math.sqrt(sum(r ** (-2.0 * n) for n in range(level + 1, level + 201)))
            rel = abs(kappa_tail(Weight.geometric(r), level) - brute) / brute
            worst = max(worst, rel)
    ok &= worst <= 1e-12
    report(8, "geometric kappa closed form vs 200-term tail sums",
           ok, f"worst rel {worst:.2e}")


def test_criterion_9_h1_sharpness():
    sharp = check_H1(lambda n: 0.0 if n == 0 else n**-0.5, Weight.polynomial(1.0),
                     tail_terms=4000)
    ok = sharp.divergent
    finite_ok = True
    for name in PRESET_NAMES:
        pre = preset(name)
        if pre.metadata_only:
            continue
        rep = check_H1(pre.ell, pre.weight)
        finite_ok &= math.isfinite(rep.value) and not rep.divergent
    report(9, "H1 sharpness family flagged divergent; all presets finite",
           ok and finite_ok)


def _bs_call_experiment():
    pre = preset("black_scholes")
    params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, 128)
    basis = HedgeBasis(integrand_depth=2, residual_window=(0, 2))
    data = simulate_hedge_dataset(params, basis, "call", {"strike": 1.0}, 20_000,
                                  seed=1010)
    return pre, basis, data


def test_criterion_10_gkw_completeness_oracle():
    pre, basis, data = _bs_call_experiment()
    res = gkw_project(data.payoffs, data.design, basis, weight=pre.weight)
    bs_ok = res.residual_norm <= 0.05 * res.payoff_l2
    pre_f = preset("first_order")
    params = SigVolParams(pre_f.ell, pre_f.weight, 1.0, pre_f.eta, 1.0, 64)
    rows = depth_scan(params, "asian", {"strike": 1.0}, [0, 1, 2], 20_000, seed=1011,
                      basis=HedgeBasis(2, (1, 3)))
    scan_ok = all(b.residual_norm < a.residual_norm - 2.0 * math.hypot(a.se, b.se)
                  for a, b in zip(rows, rows[1:]))
    ok = bs_ok and scan_ok
    report(10, "BS call residual <= 5% of payoff L2; Asian residual decreasing",
           ok, f"bs ratio {res.residual_norm / res.payoff_l2:.3f}, "
               f"scan {[f'{r.residual_norm:.4f}' for r in rows]}")


def test_criterion_11_quotient_gram():
    results = []
    pre, basis, data = _bs_call_experiment()
    results.append(gkw_project(data.payoffs, data.design, basis, weight=pre.weight))
    pre_f = preset("first_order")
    params = SigVolParams(pre_f.ell, pre_f.weight, 1.0, pre_f.eta, 1.0, 64)
    for kind, kw in (("asian", {"strike": 1.0}), ("digital", {"strike": 1.0}),
                     ("variance_swap", {})):
        basis_f = HedgeBasis(2, (1, 3))
        data_f = simulate_hedge_dataset(params, basis_f, kind, kw, 10_000, seed=1111)
        results.append(gkw_project(data_f.payoffs, data_f.design, basis_f,
                                   weight=pre_f.weight))
    eig_ok = all(r.gram_min_eigenvalue > 0.0 for r in results if r.residual_coeffs)

    # sample Gram equals the shuffle-coordinate expectation within 3 SE
    inc = np.diff(brownian_values(1, 1.0, 32, 5000, seed=1112), axis=1)
    sig = BatchSignature(5000, 1, 4)
    for k in range(32):
        sig.chen_step(inc[:, k, :])
    shuffle_ok = True
    words = [w for w in all_words(1, 2) if w]
    for i, iw in enumerate(words):
        for jw in words[i:]:
            prod = sig.coord(iw) * sig.coord(jw)
            rhs = np.zeros(5000)
            for w, m in shuffle_words(iw, jw):
                rhs += m * sig.coord(w)
            diff = prod - rhs
            se = diff.std(ddof=1) / math.sqrt(5000) + 1e-12
            shuffle_ok &= abs(diff.mean()) <= 3 * se
    ok = eig_ok and shuffle_ok
    report(11, "quotient Gram min eigenvalue > 0; Gram = shuffle expectation (3 SE)",
           ok, f"min eigs {[f'{r.gram_min_eigenvalue:.1e}' for r in results]}")


def test_criterion_12_transform_vs_mc():
    failures = []
    details = []
    # Black-Scholes model: price-extended and pure-signature directions
    sigma = 0.2
    ell_bs = GradedTensor(1, 0, {(): sigma})
    params_bs = SigVolParams(ell_bs, Weight.geometric(2.0), 1.0, np.array([1.0]), 1.0, 64)
    bs_dirs = [
        RiccatiState(GradedTensor.zero(1, 0), u_x=0.5),
        RiccatiState(GradedTensor.zero(1, 0), u_x=-0.5),
        RiccatiState(GradedTensor.zero(1, 0), u_x=2.0),
        RiccatiState(GradedTensor(1, 1, {(0,): 0.4, (1,): 0.2})),
        RiccatiState(GradedTensor(1, 1, {(1,): 0.3})),
        RiccatiState(GradedTensor(1, 2, {(1, 1): 0.3})),
    ]
    for k, state in enumerate(bs_dirs):
        table = build_generator(4, 1, state, (ell_bs, np.array([1.0])))
        lam = transform_value(state, 1.0, table, x0=0.0, tol=1e-11)
        mc = mc_transform(state, params_bs, 100_000, seed=1200 + k)
        gap = abs(lam - mc.mean)
        details.append(f"bs{k}:{gap / mc.se:.1f}se")
        if gap > 3.0 * mc.se:
            failures.append(("bs", k, lam, mc.mean, mc.se))
    # first-order model
    pre = preset("first_order")
    fo_dirs = [
        RiccatiState(GradedTensor.zero(1, 0), u_x=0.5),
        RiccatiState(GradedTensor.zero(1, 0), u_x=-0.5),
        RiccatiState(GradedTensor(1, 1, {(1,): 0.3})),
        RiccatiState(GradedTensor(1, 1, {(0,): 0.4, (1,): 0.1}), u_x=0.25),
        RiccatiState(GradedTensor(1, 2, {(1, 1): 0.25})),
    ]
    for k, state in enumerate(fo_dirs):
        table = build_generator(3, 1, state, (pre.ell, pre.eta))
        lam = transform_value(state, 1.0, table, x0=0.0, tol=1e-11)
        steps = 512 if state.u_x not in (None, 0.0) else 64
        params = SigVolParams(pre.ell, pre.weight, 1.0, pre.eta, 1.0, steps)
        mc = mc_transform(state, params, 100_000, seed=1300 + k)
        gap = abs(lam - mc.mean)
        details.append(f"fo{k}:{gap / mc.se:.1f}se")
        if gap > 3.0 * mc.se:
            failures.append(("fo", k, lam, mc.mean, mc.se))
    report(12, ">=5 transform directions vs MC within 3 SE in BS and first-order",
           not failures, " ".join(details) + (f" failures: {failures}" if failures else ""))


def test_criterion_13_reproducibility(tmp_path, capsys):
    from sigvol.cli import execute

    args = ["hedge", "--seed", "7", "--paths", "20000", "--steps", "64",
            "--model", "black_scholes", "--payoff", "call:K=1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = execute(args + ["--out", str(out_a)])
    code_b = execute(args + ["--out", str(out_b)])
    capsys.readouterr()
    bytes_a = (out_a / "hedge.csv").read_bytes()
    bytes_b = (out_b / "hedge.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    report(13, "identical config+seed yields byte-identical CSV", ok)
