import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sigvol import riccati, sde, signature
from sigvol.cli import execute


def run(capsys, *argv):
    code = execute(list(argv))
    out = capsys.readouterr().out
    return code, out


def status_line(out: str) -> str:
    return out.strip().splitlines()[-1]


def source_env() -> dict:
    """The environment for a fresh process that imports sigvol from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def fresh(*argv, env=None, **kwargs) -> subprocess.CompletedProcess:
    """The CLI in a fresh process, with a timeout."""
    return subprocess.run([sys.executable, "-m", "sigvol.cli", *argv], env=env or source_env(),
                          capture_output=True, text=True, timeout=60, **kwargs)


def capped(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh process whose address space is capped at 512 MiB."""
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(source_env(), OPENBLAS_NUM_THREADS="1")
    return fresh(*argv, env=env, preexec_fn=cap_address_space)


# The kernel keeps a process's RSS high-water mark across exec, so the CLI is spawned from this
# small launcher, whose own RSS is small, not from the test process.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)
"""


def peak_rss_mb(*argv) -> float:
    """The peak RSS in MB of the CLI in a fresh process, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_LAUNCHER, sys.executable, "-m",
                           "sigvol.cli", *argv], env=source_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    code, peak = proc.stdout.split()
    assert code == "0", proc.stderr
    return float(peak)  # ru_maxrss is in KiB on Linux


def assert_invalid(proc: subprocess.CompletedProcess) -> None:
    """Exit 1 with status=invalid and one error line that says something: no traceback."""
    assert proc.returncode == 1
    assert proc.stdout == "status=invalid\n"
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr[len("error: "):].strip(), proc.stderr


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSelftest:
    def test_fresh_checkout_passes(self, tmp_path, capsys):
        code, out = run(capsys, "selftest", "--out", str(tmp_path))
        assert code == 0
        assert status_line(out) == "status=ok"
        assert (tmp_path / "selftest.csv").exists()

    def test_failed_check_is_invalid(self, tmp_path, capsys, monkeypatch):
        # a wrong shuffle product must end as status=invalid, also under python -O
        from sigvol import cli
        from sigvol.algebra import GradedTensor

        monkeypatch.setattr(cli, "shuffle_product", lambda a, b, trunc: GradedTensor.zero(a.dim))
        code, out = run(capsys, "selftest", "--out", str(tmp_path))
        assert code == 1
        assert status_line(out) == "status=invalid"


# an inline symbol with a level-2 word, so that H1 reads w(2)
LEVEL2_ELL = "word=∅ coeff=0.2\nword=1.1 coeff=0.1"


class TestValidation:
    def test_missing_seed(self, tmp_path, capsys):
        code, out = run(capsys, "simulate", "--out", str(tmp_path))
        assert code == 1
        assert status_line(out) == "status=invalid"

    def test_unknown_model(self, tmp_path, capsys):
        code, out = run(capsys, "simulate", "--out", str(tmp_path), "--seed", "1",
                        "--model", "unknown_model")
        assert code == 1
        assert status_line(out) == "status=invalid"

    def test_metadata_only_model_rejected(self, tmp_path, capsys):
        code, out = run(capsys, "simulate", "--out", str(tmp_path), "--seed", "1",
                        "--model", "heston_meta")
        assert code == 1

    @pytest.mark.parametrize("argv", [["--help"], ["transform", "--help"]], ids=["top", "command"])
    def test_help_is_ok(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert status_line(out) == "status=ok"

    @pytest.mark.parametrize("argv, error", [
        (["simulate", "--model", "first_order", "--sigma", "0.5"],
         "preset first_order reads sigma0 and sigma1, not sigma"),
        (["transform", "--model", "black_scholes", "--uX", "0.5", "--sigma0", "0.5"],
         "preset black_scholes reads sigma, not sigma0"),
        (["hedge", "--model", "rough_bergomi_approx", "--sigma", "0.3", "--sigma1", "0.2"],
         "preset rough_bergomi_approx reads sigma0 and sigma1, not sigma"),
        (["transform", "--model", "heston_meta", "--uX", "0.5", "--sigma", "0.2"],
         "preset heston_meta reads no sigma, not sigma"),
        (["simulate", "--sigma1", "0.1"], "an inline model reads no sigma, not sigma1"),
    ], ids=["first_order-sigma", "black_scholes-sigma0", "rough_bergomi-sigma", "heston-sigma",
            "inline-sigma1"])
    def test_unread_sigma_rejected(self, tmp_path, capsys, argv, error):
        # a sigma the model does not read used to be ignored without a word
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"ell": "word=∅ coeff=0.2", "d": 1}}))
        if argv[1] != "--model":
            argv = [argv[0], "--config", str(cfg_path), *argv[1:]]
        out_dir = tmp_path / "out"
        code = execute([*argv, "--seed", "1", "--paths", "50", "--steps", "4",
                        "--out", str(out_dir)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "status=invalid\n", f"error: {error}\n")
        assert os.listdir(out_dir) == []

    def test_window_validated_before_compute(self, tmp_path, capsys):
        code = execute(["transform", "--out", str(tmp_path),
                        "--model", "first_order", "--uX", "0.5", "--trunc", "0"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "status=invalid\n"
        assert err == "error: truncation 0 below the shuffle window 2\n"
        assert not (tmp_path / "transform.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        for argv in (["simulate", "--paths", "4", "--steps", "4"],
                     ["transform", "--model", "first_order", "--u", "1:0.4", "--mc-check",
                      "--paths", "4", "--steps", "4"]):
            code = execute([*argv, "--out", str(tmp_path), "--seed", seed])
            out, err = capsys.readouterr()
            assert code == 1
            assert status_line(out) == "status=invalid"
            assert err == "error: seed must be an integer in [0, 2**64)\n"
            assert not (tmp_path / "paths.csv").exists()

    @pytest.mark.parametrize("argv, paths", [
        pytest.param(argv, paths, id=name if paths == "0" else f"{name}-{paths}")
        for name, argv in {
            "simulate": ["simulate"],
            "transform": ["transform", "--model", "first_order", "--u", "1:0.4", "--mc-check"],
            "hedge": ["hedge", "--model", "first_order", "--payoff", "call:K=1"],
            "depth-report": ["depth-report", "--model", "first_order", "--payoff", "asian:K=1"],
            "hypotheses": ["hypotheses", "--model", "first_order"],
        }.items() for paths in ("0", "-5")])
    def test_zero_paths(self, tmp_path, capsys, argv, paths):
        # the driver rejects an empty or negative path set before any per-path array
        code = execute([*argv, "--paths", paths, "--seed", "1", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert status_line(out) == "status=invalid"
        assert err == "error: d, steps and n_paths must be >= 1\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, model", [
        (["simulate", "--T", "nan"], None),
        (["simulate", "--s0", "nan"], None),
        (["hypotheses", "--T", "inf"], None),
        (["transform", "--model", "first_order", "--u", "1:0.4", "--T", "nan"], None),
        (["transform", "--model", "first_order", "--u", "1:0.4", "--T", "-1"], None),
        (["transform", "--model", "first_order", "--u", "1:0.4", "--T", "inf"], None),
        (["transform", "--model", "first_order", "--u", "1:0.4", "--tol", "nan"], None),
        (["hedge", "--model", "first_order", "--T", "nan"], None),
        (["hypotheses", "--lambda", "nan"], None),
        (["hedge", "--model", "first_order", "--ridge", "nan"], None),
        (["hedge", "--model", "first_order", "--strikes", "nan"], None),
        (["hedge", "--model", "first_order", "--payoff", "call:K=nan"], None),
        # a one-int window parses as a list: the basis, not an index error, must reject it
        (["hedge", "--model", "first_order", "--window", "3"], None),
        # not a flow: a NaN direction and a threshold no state norm can stay below
        (["transform", "--model", "first_order", "--uX", "nan"], None),
        (["transform", "--model", "first_order", "--u", "1:0.3", "--threshold", "-1"], None),
        (["transform", "--model", "first_order", "--u", "1:0.3", "--threshold", "0"], None),
        # model values only a config can give: a NaN eta, false in every comparison,
        # non-finite weights, and a weight whose w(2) = 1e400 overflows a float
        (["simulate"], {"ell": "word=∅ coeff=0.2", "d": 1, "eta": [math.nan]}),
        (["hedge"], {"ell": "word=∅ coeff=0.2", "d": 1, "eta": [math.nan]}),
        (["hypotheses"], {"ell": LEVEL2_ELL, "d": 1, "weight": {"kind": "geometric", "r": math.nan}}),
        (["hypotheses"], {"ell": LEVEL2_ELL, "d": 1,
                          "weight": {"kind": "polynomial", "alpha": math.inf}}),
        (["hypotheses"], {"ell": LEVEL2_ELL, "d": 1, "weight": {"kind": "geometric", "r": 1e200}}),
    ], ids=["simulate-T-nan", "simulate-s0-nan", "hypotheses-T-inf", "transform-T-nan",
            "transform-T-negative", "transform-T-inf", "transform-tol-nan", "hedge-T-nan",
            "hypotheses-lambda-nan", "hedge-ridge-nan", "hedge-strikes-nan", "hedge-strike-nan",
            "hedge-window-one-int", "transform-uX-nan", "transform-threshold-negative",
            "transform-threshold-zero", "simulate-eta-nan", "hedge-eta-nan",
            "hypotheses-weight-nan", "hypotheses-weight-inf", "hypotheses-weight-overflow"])
    def test_non_finite_input(self, tmp_path, argv, model):
        # a fresh process with a timeout: an unchecked infinite horizon never ends, and
        # LAPACK writes its complaints to the process's stdout
        if model is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"model": model}))
            argv = [*argv, "--config", str(cfg_path)]
        assert_invalid(fresh(*argv, "--seed", "1", "--paths", "100", "--steps", "4",
                             "--out", str(tmp_path)))

    @pytest.mark.parametrize("command, model, error", [
        # a coefficient of the generator table that overflows: ell shuffle ell = 1e400 on ∅
        (["transform", "--uX", "0.5"], {"ell": "word=∅ coeff=1e200", "d": 1},
         "ell is too large: ell shuffle ell or eta_j * (ell shuffle e_J) overflows a float"),
        # |eta| overflows a float: numpy's overflow warning must not reach stderr
        (["simulate"], {"ell": "word=∅ coeff=0.2", "d": 1, "eta": [1e308]},
         "eta must be a unit vector (within 1e-12)"),
    ], ids=["transform-table-overflow", "simulate-eta-norm-overflow"])
    def test_overflow_is_one_error_line(self, tmp_path, command, model, error):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": model}))
        proc = fresh(*command, "--config", str(cfg_path), "--seed", "1", "--paths", "100",
                     "--steps", "4", "--out", str(tmp_path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "status=invalid\n",
                                                               f"error: {error}\n")

    @pytest.mark.parametrize("argv, model", [
        (["--u", "1:0.4"], {"ell": "word=∅ coeff=0.2", "d": 1, "eta": [2.0]}),
        (["--uX", "1"], {"ell": "word=∅ coeff=0.2", "d": 1, "eta": [2.0]}),
        (["--u", "1:0.4", "--s0", "-3"], "first_order"),
        (["--u", "1:0.4", "--steps", "0"], "first_order"),
        (["--u", "1:0.4"], {"ell": "word=∅ coeff=0.2", "d": 1, "eta": [math.nan]}),
        (["--uX", "0.5"], {"ell": "word=∅ coeff=0.2", "d": 1, "eta": [math.nan]}),
        (["--u", "1.1:0.3"], {"ell": "word=∅ coeff=0.2", "d": 1,
                              "weight": {"kind": "geometric", "r": math.nan}}),
        (["--u", "1.1:0.3"], {"ell": "word=∅ coeff=0.2", "d": 1,
                              "weight": {"kind": "polynomial", "alpha": math.inf}}),
        # the flow's weighted norm reads w(2) = 1e400
        (["--u", "1.1:0.3"], {"ell": "word=∅ coeff=0.2", "d": 1,
                              "weight": {"kind": "geometric", "r": 1e200}}),
    ], ids=["eta-not-unit", "eta-not-unit-uX", "s0-negative", "steps-zero", "eta-nan",
            "eta-nan-uX", "weight-nan", "weight-inf", "weight-overflow"])
    def test_transform_checks_the_model(self, tmp_path, argv, model):
        # transform rejects every model simulate rejects, also when it draws no path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": model}))
        assert_invalid(fresh("transform", "--config", str(cfg_path), *argv, "--out", str(tmp_path)))

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trunc", "3", "--seed", "1", "--paths", "4", "--steps", "4"],
        ["selftest", "--seed", "1"],
        ["transform", "--model", "first_order", "--u", "1:0.4", "--mc-check", "--seed", "1",
         "--steps", "4", "--mc-paths", "100"],
    ], ids=["simulate-trunc", "selftest-seed", "transform-mc-paths"])
    def test_unread_flag_rejected(self, tmp_path, argv):
        proc = fresh(*argv, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stdout == "status=invalid\n"

    @pytest.mark.parametrize("setting", ['"seed": 1.9', '"paths": 1e400', '"steps": true',
                                         '"seed": "1"'],
                             ids=["seed-fraction", "paths-overflow", "steps-bool", "seed-string"])
    def test_integer_settings_exact(self, tmp_path, setting):
        # a fractional seed used to run as its integer part, an infinite count as a traceback
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": 1, "paths": 4, "steps": 4, %s}' % setting)
        assert_invalid(fresh("simulate", "--config", str(cfg_path), "--out", str(tmp_path)))
        assert not (tmp_path / "paths.csv").exists()

    @pytest.mark.parametrize("command, cfg", [
        ("simulate", {"model": {"ell": "word=∅ coeff=0.2", "d": 1.9}}),
        ("hedge", {"hedge": {"integrand_depth": 1.9}}),
        ("hedge", {"hedge": {"integrand_depth": 1, "residual_window": [1.9, 3]}}),
        ("depth-report", {"depths": [0, 1.9]}),
    ], ids=["model-d", "integrand-depth", "residual-window", "depths"])
    def test_model_and_hedge_integers_exact(self, tmp_path, capsys, command, cfg):
        # each of these used to run as its integer part: d = 1, depth 1, window (1, 3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "first_order", "seed": 1, "paths": 50,
                                        "steps": 4, **cfg}))
        code = execute([command, "--config", str(cfg_path), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "status=invalid\n"
        assert err.startswith("error: ") and "must be an integer, got 1.9" in err

    def test_failed_simulate_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        # the second of three blocks fails: neither paths.csv nor its partial file remains
        monkeypatch.setattr(sde, "BLOCK_PATHS", 8)
        draw = signature.simulate_brownian_grid

        def fail_second_block(*args, **kwargs):
            if args[5] > 0:
                raise MemoryError("second block")
            return draw(*args, **kwargs)

        monkeypatch.setattr(signature, "simulate_brownian_grid", fail_second_block)
        code, out = run(capsys, "simulate", "--seed", "1", "--paths", "20", "--steps", "4",
                        "--out", str(tmp_path))
        assert code == 1
        assert status_line(out) == "status=invalid"
        assert sorted(os.listdir(tmp_path)) == []

    def test_one_path_writes_nothing(self, tmp_path, capsys):
        # the martingale check needs two paths; paths.csv used to be written before it failed
        out_dir = tmp_path / "out"
        code = execute(["simulate", "--seed", "1", "--paths", "1", "--steps", "4",
                        "--out", str(out_dir)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "status=invalid\n"
        assert err == "error: need at least 2 paths\n"
        assert os.listdir(out_dir) == []

    def test_error_in_a_row_writer_is_invalid(self, tmp_path, capsys, monkeypatch):
        # a forked row writer fails on its second chunk, after the first was written
        monkeypatch.setattr(signature, "_WORKERS", 2)
        here = os.getpid()
        format_rows = sde._format_rows

        def fail_in_row_writer(prices, times, lo):
            if os.getpid() != here and lo >= 2 * sde.CSV_CHUNK_PATHS:
                raise ValueError("no rows here")
            return format_rows(prices, times, lo)

        monkeypatch.setattr(sde, "_format_rows", fail_in_row_writer)
        code = execute(["simulate", "--seed", "1", "--paths", "90", "--steps", "4",
                        "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "status=invalid\n"
        assert err == "error: a price CSV row writer failed: ValueError: no rows here\n"
        assert os.listdir(tmp_path) == []
        assert_no_child_left()

    def test_error_in_a_driver_thread_is_invalid(self, tmp_path, capsys, monkeypatch):
        # a MemoryError raised while a second thread draws its chunks of a block
        monkeypatch.setattr(signature, "_WORKERS", 2)
        drawn_here = threading.get_ident()
        real_philox = np.random.Philox

        def philox(*args, **kwargs):
            if threading.get_ident() != drawn_here:
                raise MemoryError("no room for the chunks")
            return real_philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", philox)
        code = execute(["simulate", "--seed", "1", "--paths", "4096", "--steps", "8",
                        "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "status=invalid\n"
        assert err == "error: no room for the chunks\n"
        assert not (tmp_path / "paths.csv").exists()

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--paths", "4096", "--steps", "8"], "paths.csv"),
        (["depth-report", "--depths", "0,1", "--paths", "400", "--steps", "8"], "depth_report.csv"),
    ], ids=["simulate", "depth-report"])
    def test_error_in_a_stepping_thread_is_invalid(self, tmp_path, capsys, monkeypatch, argv, name):
        # a MemoryError raised while a second thread steps its range of a block
        monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", 0)
        monkeypatch.setattr(signature, "_WORKERS", 2)
        stepped_here = threading.get_ident()
        chen_step = signature.BatchSignature.chen_step

        def step(sig, dx):
            if threading.get_ident() != stepped_here:
                raise MemoryError("no room for the levels")
            return chen_step(sig, dx)

        monkeypatch.setattr(signature.BatchSignature, "chen_step", step)
        code = execute([*argv, "--model", "first_order", "--seed", "1", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "status=invalid\n"
        assert err == "error: no room for the levels\n"
        assert not (tmp_path / name).exists()
        assert os.listdir(tmp_path) == []

    def test_out_not_a_directory(self, tmp_path):
        (tmp_path / "file").write_text("")
        assert_invalid(fresh("selftest", "--out", str(tmp_path / "file" / "sub")))

    def test_run_too_large_to_hold(self, tmp_path):
        # 16384 paths x 1e8 steps need 11.9 TiB; an address-space cap far below the 0.8 GB
        # time grid, the run's first allocation, makes that fail at once on any host
        assert_invalid(capped("simulate", "--model", "first_order", "--seed", "1", "--paths", "16384",
                              "--steps", "100000000", "--out", str(tmp_path)))

    def test_word_list_too_large_to_hold(self, tmp_path):
        # words up to length 62 over two letters already number 2**63 - 1, so their int64
        # coordinates are rejected before the table's level offsets are built; the cap keeps
        # a regression from filling the host's memory.  At length 100000 the offsets alone
        # would not fit under the cap, so the check must come first there too
        for trunc in 62, 100, 100000:
            proc = capped("transform", "--model", "first_order", "--uX", "0.3", "--trunc",
                          str(trunc), "--out", str(tmp_path))
            assert_invalid(proc)
            assert proc.stderr == (f"error: truncation {trunc} is too deep: the coordinates of "
                                   "the words up to that length over 2 letters overflow int64\n")

    def test_depth_scan_word_list_too_large_to_hold(self, tmp_path):
        # depth 40 reads every word up to length 40
        proc = capped("depth-report", "--depths", "0,40", "--seed", "1", "--out", str(tmp_path))
        assert_invalid(proc)
        assert proc.stderr == ("error: every word up to length 40 over 2 letters is "
                               f"{2**41 - 1} words, more than this host's memory can hold\n")

    @pytest.mark.parametrize("command, cfg", [
        ("simulate", {"paths": None}),
        ("depth-report", {"depths": 5}),
        ("hedge", {"payoff": {"strike": 1}}),
        ("transform", {"u": 5}),
        ("hedge", {"hedge": [1, 2]}),
        ("hedge", {"payoff": {"kind": "call"}}),
        ("hedge", {"hedge": {"residual_window": [3]}}),
        ("hedge", {"hedge": {"integrand_depth": -1, "residual_window": [0, 1]}}),
        ("simulate", {"model": {"ell": 5}}),
        ("depth-report", {"depths": [-1, 0]}),
    ], ids=["paths-null", "depths-int", "payoff-no-kind", "u-int", "hedge-list",
            "payoff-no-strike", "window-one-int", "depth-negative", "ell-int", "depths-negative"])
    def test_malformed_config_value(self, tmp_path, capsys, command, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "first_order", "seed": 1, **cfg}))
        code, out = run(capsys, command, "--config", str(cfg_path), "--out", str(tmp_path))
        assert code == 1
        assert status_line(out) == "status=invalid"

    def test_bad_payoff(self, tmp_path, capsys):
        code, out = run(capsys, "hedge", "--out", str(tmp_path), "--seed", "1",
                        "--payoff", "call")
        assert code == 1


class TestSimulate:
    def test_csv_written(self, tmp_path, capsys):
        code, out = run(capsys, "simulate", "--out", str(tmp_path), "--seed", "3",
                        "--paths", "10", "--steps", "8")
        assert code == 0
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert lines[0] == "path_id,t,xi,B,M,qv,S"
        assert len(lines) == 1 + 10 * 9

    def test_same_bytes_at_any_worker_count(self, tmp_path, capsys, monkeypatch):
        # blocks of 40 of 90 paths, so blocks end 16-path chunks mid-way; the digest and
        # stdout were taken before the rows were formatted on more than one CPU
        monkeypatch.setattr(sde, "BLOCK_PATHS", 40)
        for workers in (1, 2, 3):
            monkeypatch.setattr(signature, "_WORKERS", workers)
            code, out = run(capsys, "simulate", "--model", "rough_bergomi_approx", "--paths", "90",
                            "--steps", "8", "--seed", "5", "--out", str(tmp_path))
            assert code == 0
            assert out == ("mean_ST=1.0006436248121495 se=0.028257436664673372 "
                           "z=0.022777183216840212\nstatus=ok\n")
            assert hashlib.sha256((tmp_path / "paths.csv").read_bytes()).hexdigest() == (
                "d2362ec151ff9a4aaa462a97733def7a96c7e5e656c24c1f3038982164f63644")
            assert_no_child_left()

    def test_peak_memory_bounded_by_one_block(self, tmp_path, capsys, monkeypatch):
        # 128-path blocks: one block against four, after a warm-up run
        monkeypatch.setattr(sde, "BLOCK_PATHS", 128)

        def peak(n_paths: int) -> int:
            tracemalloc.start()
            try:
                code, _ = run(capsys, "simulate", "--model", "rough_bergomi_approx",
                              "--steps", "32", "--paths", str(n_paths), "--seed", "2",
                              "--out", str(tmp_path))
                assert code == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128)
        one, four = peak(128), peak(512)
        assert four < 1.25 * one, (one, four)


class TestHypotheses:
    def test_report(self, tmp_path, capsys):
        code, out = run(capsys, "hypotheses", "--out", str(tmp_path), "--seed", "4",
                        "--paths", "500", "--steps", "16", "--model", "first_order")
        assert code == 0
        text = (tmp_path / "hypotheses.csv").read_text()
        assert "H1.value" in text and "H3.mean" in text and "not decidable" in text


class TestTransform:
    def test_bs_closed_form(self, tmp_path, capsys):
        code, out = run(capsys, "transform", "--out", str(tmp_path),
                        "--model", "black_scholes", "--sigma", "0.2",
                        "--uX", "2.0", "--T", "1.0", "--s0", "1.0")
        assert code == 0
        final = (tmp_path / "transform.csv").read_text().splitlines()[-1]
        assert final.startswith("lambda0=")
        lam0 = float(final.split("=")[1])
        assert lam0 == pytest.approx(math.exp(0.04), rel=1e-7)

    def test_explosion_exit_code(self, tmp_path, capsys):
        # E exp(c W_T^2 / 2) explodes for c T >= 1; the (1,1) coordinate
        # satisfies psi' = psi^2 and blows up at tau = 1/c < T
        code, out = run(capsys, "transform", "--out", str(tmp_path),
                        "--model", "black_scholes", "--u", "1.1:1.5", "--T", "1.0")
        assert code == 2
        assert status_line(out) == "status=degenerate"
        final = (tmp_path / "transform.csv").read_text().splitlines()[-1]
        assert final.startswith("exploded_at=")
        assert float(final.split("=")[1]) == pytest.approx(2.0 / 3.0, rel=0.01)

    def test_blowup_without_threshold_is_silent(self, tmp_path):
        # e_11's flow blows up at 1/c = 0.5; with no norm threshold it runs until the proposed
        # step falls below the floor, some 5e-11 early, and numpy prints nothing on the way
        proc = fresh("transform", "--model", "first_order", "--u", "1.1:2.0", "--T", "1",
                     "--trunc", "7", "--threshold", "inf", "--out", str(tmp_path))
        assert (proc.returncode, proc.stderr) == (2, "")
        verdict, status = proc.stdout.splitlines()
        assert status == "status=degenerate"
        assert float(verdict.removeprefix("exploded_at=")) == pytest.approx(0.5, abs=1e-10)

    def test_repeated_word_sums(self, tmp_path, capsys):
        # "1:0.3,1:0.4" is the direction 0.7 e_1, as a repeated word of ell sums
        runs = {}
        for u in ("1:0.3,1:0.4", "1:0.7"):
            code, out = run(capsys, "transform", "--out", str(tmp_path), "--model", "first_order",
                            "--u", u)
            assert code == 0
            runs[u] = out, (tmp_path / "transform.csv").read_bytes()
        assert runs["1:0.3,1:0.4"] == runs["1:0.7"]
        assert "lambda0=1.0832870676749586\n" not in runs["1:0.7"][0]  # --u 1:0.4's value

    def test_overflowing_lambda0(self, tmp_path, capsys):
        # the flow solves, with psi_empty(T) = 800, and exp(800) is no float
        code, out = run(capsys, "transform", "--out", str(tmp_path), "--model", "black_scholes",
                        "--u", "0:800")
        assert code == 0
        assert out == "lambda0=inf\nstatus=ok\n"
        assert (tmp_path / "transform.csv").read_text().endswith("lambda0=inf\n")

    @pytest.mark.parametrize("argv, error", [
        ([], "seed is mandatory: pass --seed or set it in the config"),
        (["--seed", "1", "--paths", "1"], "need at least 2 paths"),
    ], ids=["no-seed", "one-path"])
    def test_failed_mc_check_leaves_no_csv(self, tmp_path, capsys, argv, error):
        # the check runs before transform.csv is renamed into place; one path's SE would be 0
        code = execute(["transform", "--model", "first_order", "--uX", "0.3", "--mc-check",
                        "--steps", "4", *argv, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "status=invalid\n", f"error: {error}\n")
        assert os.listdir(tmp_path) == []

    def test_failed_write_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        # the write fails once the first trace entry's rows went to transform.csv.part
        integrate, listed = riccati.integrate_flow, []

        def failing_trace(trace):
            yield trace[0]
            listed.append(os.listdir(tmp_path))
            raise OSError("no space left on device")

        def flow(table, **limits):
            outcome = integrate(table, **limits)
            return dataclasses.replace(outcome, trace=failing_trace(outcome.trace))

        monkeypatch.setattr(riccati, "integrate_flow", flow)
        code = execute(["transform", "--model", "first_order", "--u", "1:0.4",
                        "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "status=invalid\n", "error: no space left on device\n")
        assert listed == [["transform.csv.part"]]
        assert os.listdir(tmp_path) == []

    def test_mc_check_runs(self, tmp_path, capsys):
        code, out = run(capsys, "transform", "--out", str(tmp_path),
                        "--model", "first_order", "--u", "1:0.4", "--seed", "5",
                        "--paths", "2000", "--steps", "64", "--mc-check")
        assert code == 0
        assert "mc=" in out

    @pytest.mark.parametrize("argv, line", [
        (["--model", "first_order", "--u", "1:0.3", "--trunc", "22"], "status=ok"),
        (["--model", "rough_bergomi_approx", "--uX", "0.3", "--threshold", "inf", "--trunc", "13"],
         "lambda0=0.99376763711575977"),
    ], ids=["first_order-trunc22", "rough_bergomi-trunc13"])
    def test_deep_truncation_under_the_cap(self, tmp_path, argv, line):
        # only the closure of the direction is built (2 and 59 coordinates), never a table of
        # every word up to the truncation, which at these depths outgrows the cap
        proc = capped("transform", *argv, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert line in proc.stdout.splitlines()
        assert proc.stdout.endswith("status=ok\n")

    def test_deep_cut_closure_under_the_cap(self, tmp_path, capsys):
        # the closure of e_111 is the words 1^k, k <= trunc: a few dozen coordinates, whose
        # positions and norm levels are sized by the closure, not by the 2^(trunc + 1) words
        argv = ["--model", "first_order", "--u", "1.1.1:0.1", "--threshold", "inf"]
        code, out = run(capsys, "transform", *argv, "--trunc", "20", "--out", str(tmp_path))
        assert code == 0
        lam20 = float(out.splitlines()[0].removeprefix("lambda0="))
        assert lam20 == pytest.approx(1.0021178290362, abs=1e-12)
        for trunc in 26, 34:
            proc = capped("transform", *argv, "--trunc", str(trunc), "--out", str(tmp_path))
            assert proc.returncode == 0, proc.stderr
            lam, status = proc.stdout.splitlines()
            assert status == "status=ok"
            assert float(lam.removeprefix("lambda0=")) == pytest.approx(lam20, abs=1e-12)

    def test_peak_memory_follows_the_trace(self, tmp_path):
        # transform.csv is written one trace entry at a time, so its rows are never all held
        argv = ["transform", "--model", "first_order", "--u", "1.1.1:0.1", "--threshold", "inf",
                "--out", str(tmp_path)]
        low, high = peak_rss_mb(*argv, "--trunc", "26"), peak_rss_mb(*argv, "--trunc", "34")
        assert high < 1.5 * low, (low, high)


class TestHedge:
    def test_report_sections(self, tmp_path, capsys):
        code, out = run(capsys, "hedge", "--out", str(tmp_path), "--seed", "7",
                        "--paths", "2000", "--steps", "32",
                        "--payoff", "call:K=1.0", "--integrand-depth", "1",
                        "--window", "0,2")
        assert code == 0
        text = (tmp_path / "hedge.csv").read_text()
        for section in ("price", "dynamic_coeff", "static_coeff", "diagnostic"):
            assert section in text
        assert "gram_min_eigenvalue" in text and "kappa_bound" in text

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {"model": "first_order", "paths": 1000, "steps": 16, "seed": 9,
               "payoff": "asian:K=1.0", "hedge": {"integrand_depth": 1,
                                                  "residual_window": [1, 2]}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out = run(capsys, "hedge", "--config", str(cfg_path),
                        "--out", str(tmp_path), "--paths", "500")
        assert code == 0

    def test_window_default(self, tmp_path, capsys):
        # the window defaults to (depth, depth + 1), a null one too, worked out from the depth
        # only once the depth is checked
        argv = ["--model", "first_order", "--seed", "3", "--paths", "500", "--steps", "8"]
        cfg_path, csvs = tmp_path / "cfg.json", []
        for window in {}, {"residual_window": None}, {"residual_window": [1, 2]}:
            cfg_path.write_text(json.dumps({"hedge": {"integrand_depth": 1, **window}}))
            code, _ = run(capsys, "hedge", "--config", str(cfg_path), *argv, "--out", str(tmp_path))
            assert code == 0
            csvs.append((tmp_path / "hedge.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        cfg_path.write_text(json.dumps({"hedge": {"integrand_depth": "2"}}))
        code = execute(["hedge", "--config", str(cfg_path), *argv, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: integrand_depth must be an integer, got '2'\n"


class TestDepthReport:
    def test_depth_table_and_scan(self, tmp_path, capsys):
        code, out = run(capsys, "depth-report", "--out", str(tmp_path), "--seed", "11",
                        "--paths", "1000", "--steps", "16",
                        "--model", "first_order", "--depths", "0,1")
        assert code == 0
        text = (tmp_path / "depth_report.csv").read_text()
        assert "black_scholes.N_star,0" in text
        assert "rough_bergomi_approx.N_star,inf" in text
        assert "depth_0.residual_norm" in text


# sha256 of CSVs written at small fixed configs, with the expected exit code
# (2: the flow blows up, status=degenerate).  The first four were taken
# before the prefix-closed engine and the shared path stepper replaced the dense
# per-consumer loops, the last two (two driver blocks of H3 samples, a Riccati
# flow to blow-up) before the generator table moved to one sparse term form; a
# change of the driver's stream has to update them explicitly.  The hedge and
# depth-report digests were re-taken when the GKW regression moved to one R
# factor, which moves their numbers in the last digits.  The two call
# hedges share one digest: the payoff object {"kind": "call", "K": 1.0} of
# payoff_object.json is the payoff string call:K=1.0.
CALL_HEDGE_DIGEST = "8b1dfab067d062e4d9fa2ebbbe42c1476a25446f91596175afa80e85c46def4c"
PINNED_CSVS = [
    pytest.param(
        ["simulate", "--model", "rough_bergomi_approx", "--paths", "16", "--steps", "32",
         "--seed", "11"],
        "paths.csv", "ef241b8da9f99e079b66267900944896d0b87a132246045e8f4fca6f9d678a1d",
        0, id="paths.csv"),
    pytest.param(
        ["hedge", "--model", "first_order", "--payoff", "asian:K=1", "--paths", "400",
         "--steps", "8", "--seed", "7", "--integrand-depth", "1", "--window", "1,2"],
        "hedge.csv", "bf4d454a5c52965a74b5c20cd9b7989f52dd4eeebb4fc286bf6453fe457bb4d7",
        0, id="hedge.csv"),
    pytest.param(
        ["depth-report", "--model", "first_order", "--payoff", "asian:K=1", "--depths", "0,1",
         "--paths", "400", "--steps", "8", "--seed", "11"],
        "depth_report.csv", "8c5b8e08840b9b9720c3dfe74a35948723d5aac79dfc3782499d586a1c0ea7d7",
        0, id="depth_report.csv"),
    pytest.param(
        ["transform", "--model", "first_order", "--u", "1:0.4", "--uX", "0.25"],
        "transform.csv", "7b40fd59d2d7841d1975168e129957bbd71406e281bb6a64e4344ba6c917380b",
        0, id="transform.csv"),
    pytest.param(
        ["hypotheses", "--model", "first_order", "--paths", "16500", "--steps", "8",
         "--seed", "3"],
        "hypotheses.csv", "2298935caf21326303e782faebcfe82bd91337528face786d38fd364c8bbaf4a",
        0, id="hypotheses.csv"),
    pytest.param(
        ["transform", "--model", "first_order", "--u", "1.1:2.0", "--trunc", "7"],
        "transform.csv", "4564c2d8d219ea284ac073fbfbd72eb2f1ef475ef646890af75ab0b3f1ac5dce",
        2, id="transform_blowup.csv"),
    pytest.param(
        ["hedge", "--model", "first_order", "--payoff", "call:K=1.0", "--paths", "400",
         "--steps", "8", "--seed", "7"],
        "hedge.csv", CALL_HEDGE_DIGEST, 0, id="hedge_call.csv"),
    pytest.param(
        ["hedge", "--config", os.path.join(os.path.dirname(__file__), "payoff_object.json"),
         "--paths", "400", "--steps", "8", "--seed", "7"],
        "hedge.csv", CALL_HEDGE_DIGEST, 0, id="hedge_call_object.csv"),
]

# inline models whose eta mixes every letter, digests taken before the
# step-major driver feed; only d = 3 tells the summation orders of eta . dW
# apart (at d = 2 both orders add the same two products)
PINNED_INLINE = [
    (2, "word=∅ coeff=0.2\nword=1 coeff=0.1\nword=2 coeff=-0.05\nword=1.2 coeff=0.03\n"
        "word=0.2 coeff=0.02\n", [0.6, 0.8],
     "ae8db9a9f67b60eaae40f2142b4381874bf8f6e0519373cbb21e35c2f5376334"),
    (3, "word=∅ coeff=0.2\nword=1 coeff=0.1\nword=3 coeff=-0.05\nword=2.3 coeff=0.03\n"
        "word=0.2 coeff=0.02\n", [0.48, 0.6, 0.64],
     "4f0a4449081fa5ed32e42c5a695ee1337c998c7e334ed265b670d2cd726fe314"),
]


class TestReproducibility:
    @pytest.mark.parametrize("argv, name, digest, exit_code", PINNED_CSVS)
    def test_pinned_csv_digest(self, tmp_path, capsys, argv, name, digest, exit_code):
        code, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert code == exit_code
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("argv, name, digest, exit_code",
                             [p for p in PINNED_CSVS if "--paths" in p.values[0]])
    def test_pinned_csv_digest_in_path_ranges(self, tmp_path, capsys, monkeypatch, argv, name,
                                              digest, exit_code, workers):
        # every block walked as `workers` path ranges, each on a thread of its own
        monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", 0)
        monkeypatch.setattr(signature, "_WORKERS", workers)
        self.test_pinned_csv_digest(tmp_path, capsys, argv, name, digest, exit_code)

    def test_mc_check_in_path_ranges(self, tmp_path, capsys, monkeypatch):
        # 3000 paths in blocks of 1000: the moments' 4096-sample chunks span every range
        monkeypatch.setattr(sde, "BLOCK_PATHS", 1000)
        argv = ["transform", "--model", "first_order", "--u", "1:0.2", "--uX", "0.25",
                "--mc-check", "--paths", "3000", "--steps", "8", "--seed", "4",
                "--out", str(tmp_path)]
        one = run(capsys, *argv), (tmp_path / "transform.csv").read_bytes()
        assert one[0][0] == 0
        monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", 0)
        for workers in (1, 2, 3):
            monkeypatch.setattr(signature, "_WORKERS", workers)
            assert (run(capsys, *argv), (tmp_path / "transform.csv").read_bytes()) == one

    @pytest.mark.parametrize("d, ell, eta, digest", PINNED_INLINE, ids=["d2", "d3"])
    def test_pinned_csv_digest_inline(self, tmp_path, capsys, d, ell, eta, digest):
        cfg = {"model": {"ell": ell, "d": d, "eta": eta}, "seed": 5, "paths": 24, "steps": 16}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _ = run(capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256((tmp_path / "paths.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("d, ell, eta, digest", PINNED_INLINE, ids=["d2", "d3"])
    def test_pinned_csv_digest_inline_in_path_ranges(self, tmp_path, capsys, monkeypatch, d, ell,
                                                     eta, digest, workers):
        # at d = 3 each range's eta . dW is a BLAS gemv over that range's paths alone
        monkeypatch.setattr(sde, "SPLIT_ROW_PATHS", 0)
        monkeypatch.setattr(signature, "_WORKERS", workers)
        self.test_pinned_csv_digest_inline(tmp_path, capsys, d, ell, eta, digest)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _ = run(capsys, "hedge", "--out", str(out_dir), "--seed", "7",
                          "--paths", "3000", "--steps", "32",
                          "--payoff", "call:K=1.0")
            assert code == 0
        assert (out_a / "hedge.csv").read_bytes() == (out_b / "hedge.csv").read_bytes()

    def test_inline_ell_model(self, tmp_path, capsys):
        ell_file = tmp_path / "ell.txt"
        ell_file.write_text("word=∅ coeff=0.25\nword=1 coeff=0.1\n")
        cfg = {"model": {"ell_file": str(ell_file), "d": 1, "eta": [1.0],
                         "weight": {"kind": "geometric", "r": 2.0}},
               "seed": 13, "paths": 200, "steps": 8}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out = run(capsys, "simulate", "--config", str(cfg_path),
                        "--out", str(tmp_path))
        assert code == 0


def test_cli_import_loads_no_scipy():
    # scipy is imported only by polynomial-weight kappa_tail, never at CLI start-up
    code = "import sys, sigvol.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["hedge", "--model", "first_order", "--payoff", "call:K=1", "--paths", "400", "--steps", "8"],
    ["depth-report", "--model", "first_order", "--payoff", "asian:K=1", "--depths", "0,1",
     "--paths", "400", "--steps", "8"],
], ids=["hedge", "depth-report"])
def test_hedging_commands_load_no_numpy_ma(tmp_path, argv):
    # the default strikes come from one sort; np.quantile's np.unique would import numpy.ma
    argv = argv + ["--seed", "7", "--out", str(tmp_path)]
    code = ("import sys; from sigvol.cli import execute; "
            f"code = execute({argv!r}); print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-1] == "0 False"
