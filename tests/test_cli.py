import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
import shlex
import struct
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import _oracles
from noisegames import (
    cli, commands, dissipative, grover, kicks, memory, parrondo, qubit, rng, writers,
)
from noisegames.commands import grover as grover_command


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, stdout=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    assert code == 0, text
    return json.loads(text)


def count_draws(monkeypatch) -> list[int]:
    """Route every raw draw through a counter; the list holds each call's draws."""
    counted = []
    draw = rng._draw

    def counting(keys, first, out, t):
        counted.append(out.size)
        return draw(keys, first, out, t)

    monkeypatch.setattr(rng, "_draw", counting)
    return counted


def forbid_draws(monkeypatch) -> None:
    """Make any raw draw fail the run (exit 1), so a refusal must come first."""
    def no_draw(*args):
        raise RuntimeError("a refused run drew")

    monkeypatch.setattr(rng, "_draw", no_draw)


class TestSpecExamples:
    def test_parrondo_exact_fraction(self):
        env = run_json(["parrondo", "--moduli", "3,7", "--exact"])
        assert env["results"]["win_prob"] == "11/21"
        assert env["results"]["net_rate"] == "1/21"
        assert env["diagnostics"]["spectral_gap"] == "1/2"

    def test_memory_combined_decay(self):
        env = run_json(
            ["memory", "--variant", "combined", "--epsilon", "0", "--steps", "20", "--exact"]
        )
        assert abs(env["results"]["decay_per_step"] - 2.0 / 3.0) < 1e-12

    def test_noiseless_dissipative_has_no_mixing_bound(self):
        # both scales zero: the channel is the identity and p_max is undefined
        env = run_json(["dissipative", "--lambda-ad", "0", "--lambda-pd", "0", "--trials", "10"])
        results = env["results"]
        assert results["p_max"] is None and results["t1_over_half_t2"] is None
        assert results["t1"] == results["t2"] == "inf"
        unchanged = {"a": 0.5, "b_im": 0.0, "b_re": 0.5, "c": 0.5}
        assert results["mc"] == results["first_order"] == unchanged

    def test_subnormal_damping_without_dephasing_bounds_mixing_at_zero(self):
        # sqrt(5e-324 / pi) underflows to 0, but the channel is noisy
        env = run_json(["dissipative", "--lambda-ad", "5e-324", "--lambda-pd", "0"])
        assert env["results"]["p_max"] == 0.0

    def test_iid_gaussian_point_mass(self):
        env = run_json(["iid", "--dist", "gaussian", "--mu", "0", "--sigma2", "0", "--steps", "5"])
        assert env["results"]["gamma"] == 1.0
        assert env["results"]["final"]["coherence"] == 0.5


def readme_examples() -> list[str]:
    """The command lines of the ``sh`` block under README's ``## CLI``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_examples())
def test_readme_example_runs(line, tmp_path):
    prog, *argv = shlex.split(line)
    assert prog == "noisegames"
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / Path(argv[at]).name)
    code, text = run_cli(argv)
    assert code == 0, line
    if "--out" in argv:
        text = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    if "csv" not in argv:
        env = json.loads(text)
        assert list(env) == ["diagnostics", "inputs", "provenance", "results"]
    else:
        assert text.count("\n") > 1


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_validation_error(self):
        code, _ = run_cli(["memory", "--epsilon", "1.0"])  # outside |eps| < pi/8
        assert code == 2

    def test_bad_seed(self):
        code, _ = run_cli(["iid", "--dist", "gaussian", "--seed", "-1"])
        assert code == 2

    def test_negative_steps(self):
        code, _ = run_cli(["iid", "--steps", "-1", "--exact"])
        assert code == 2

    def test_zero_threads(self):
        code, _ = run_cli(["parrondo", "--exact", "--threads", "0"])
        assert code == 2

    def test_threads_above_bound_refused_before_any_thread(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(rng, "ThreadPoolExecutor", no_pool)
        argv = ["dissipative", "--trials", "200000", "--threads"]
        code, text = run_cli(argv + [str(cli.MAX_THREADS + 1)])
        assert code == 2 and text == ""
        assert f"between 1 and {cli.MAX_THREADS}" in capsys.readouterr().err
        # at the bound, a run of one block starts no pool either
        assert run_cli(["dissipative", "--trials", "1000", "--threads", str(cli.MAX_THREADS)])[0] == 0

    @pytest.mark.parametrize("argv, message", [
        # omega * tau1 overflows to inf
        (["iid", "--dist", "exponential", "--omega", "1e308", "--tau1", "10"],
         "omega * tau1 must be finite and positive"),
        (["dissipative", "--tau0", "inf"], "tau0 must be finite and positive"),
        (["dissipative", "--lambda-ad", "inf"], "noise scales must be finite and nonnegative"),
    ])
    def test_non_finite_inputs_are_refused_as_such(self, argv, message, capsys):
        code, text = run_cli(argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    # the largest exponential scale whose h = 0 kick angle, scale * 32 ln 2, is finite
    _KICK_LOG = math.log(2.0**-32)
    _SCALE = sys.float_info.max / -_KICK_LOG
    while math.isinf(_SCALE * _KICK_LOG):
        _SCALE = math.nextafter(_SCALE, 0.0)
    while math.isfinite(math.nextafter(_SCALE, math.inf) * _KICK_LOG):
        _SCALE = math.nextafter(_SCALE, math.inf)

    @pytest.mark.parametrize("flag, mc, exact, below, message", [
        (["iid", "--dist", "exponential", "--tau1", "1", "--steps", "2", "--omega"],
         ["--trials", "10"], ["--exact"], _SCALE,
         "omega * tau1 is too large for Monte Carlo: its kick angles overflow"),
        (["dissipative", "--lambda-pd"], ["--trials", "100"], [], sys.float_info.max / 2,
         "lambda_pd is too large for Monte Carlo: 2 * lambda_pd overflows"),
    ], ids=["iid-exponential", "dissipative"])
    def test_overflowing_monte_carlo_inputs_are_refused_before_any_draw(
        self, flag, mc, exact, below, message, capsys, monkeypatch
    ):
        # the exponential kernel's angle at h = 0 is finite just below its bound
        assert np.isfinite(np.log(np.array([2.0**-32])) * -self._SCALE).all()
        above = math.nextafter(below, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            for value in (1e308, above):
                with monkeypatch.context() as m:
                    m.setattr(rng, "stream_keys", None)  # any draw fails
                    code, text = run_cli(flag + [repr(value)] + mc)
                assert code == 2 and text == ""
                assert capsys.readouterr().err == f"error: {message}\n"
                # the exact or first-order route takes the value
                assert run_cli(flag + [repr(value)] + exact)[0] == 0
            code, text = run_cli(flag + [repr(below)] + mc)
            assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_is_refused(self, name, tmp_path, monkeypatch, capsys):
        # an invalid input like a malformed config, so exit 2, where a failed
        # write of --out is a runtime failure
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(["iid", f"--config={name}"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith(f"error: cannot read config {name}: [Errno ")
        assert run_cli(["iid", f"--out={tmp_path}"])[0] == 1

    def test_csv_unavailable_for_dissipative(self):
        code, _ = run_cli(["dissipative", "--format", "csv"])
        assert code == 2

    def test_success(self):
        code, _ = run_cli(["grover", "--n-qubits", "3"])
        assert code == 0

    def test_iid_has_no_tau0_flag(self):
        # dissipative keeps --tau0; iid kicks carry no time scale
        code, text = run_cli(["iid", "--exact", "--tau0", "0.5"])
        assert code == 2 and text == ""

    def test_iid_has_no_tau0_config_key(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"command": "iid", "steps": 3, "tau0": 1.0}))
        code, text = run_cli(["iid", "--exact", "--config", str(cfg)])
        assert code == 2 and text == ""

    @pytest.mark.parametrize("n", [43, 60])
    def test_csv_beyond_row_bound(self, n, capsys):
        # n = 43 has 4,658,702 rows, n = 60 about 1.7e9: refused before any row
        code, text = run_cli(["grover", "--n-qubits", str(n), "--format", "csv"])
        assert code == 2 and text == ""
        assert f"limited to {cli.CSV_MAX_ROWS}" in capsys.readouterr().err
        assert run_cli(["grover", "--n-qubits", str(n)])[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            # quarter-pi at n = 40 plays 3,294,200 letters: 51,472 draws a trial
            ["--n-qubits", "40", "--trials", "100000"],
            ["--strategy", "fixed", "--m", str(10**12), "--trials", "1"],
            # k_star = optimal_k(2^40) reaches the cap: 15,625 draws a trial
            ["--n-qubits", "40", "--strategy", "adaptive", "--trials", "300000"],
        ],
        ids=["quarter-pi-n40", "fixed-m1e12", "adaptive-n40"],
    )
    def test_draw_bound_refuses_before_drawing(self, argv, monkeypatch, capsys):
        forbid_draws(monkeypatch)
        code, text = run_cli(["grover", *argv])
        assert code == 2 and text == ""
        assert f"limited to {cli.MC_MAX_DRAWS}" in capsys.readouterr().err

    def test_draw_bound_admits_n40_at_1k_trials(self):
        env = json.loads(run_cli(["grover", "--n-qubits", "40", "--trials", "1000"])[1])
        assert sum(env["results"]["strategy_eval"]["reduced_length_histogram"].values()) == 1000

    @pytest.mark.parametrize(
        "argv",
        [
            ["parrondo", "--moduli", "3,7", "--trials", str(10**13)],
            ["parrondo", "--trials", str(cli.MC_MAX_DRAWS + 1)],
            ["dissipative", "--trials", str(10**13)],
            ["dissipative", "--trials", str(cli.MC_MAX_DRAWS + 1)],
        ],
        ids=["parrondo-1e13", "parrondo-past-bound", "dissipative-1e13", "dissipative-past-bound"],
    )
    def test_draw_bound_refuses_wheel_and_dissipative_runs(self, argv, capsys):
        code, text = run_cli(argv)
        assert code == 2 and text == ""
        assert f"limited to {cli.MC_MAX_DRAWS}" in capsys.readouterr().err

    def test_draw_bound_leaves_exact_wheel_runs_alone(self):
        assert run_cli(["parrondo", "--exact", "--trials", str(10**13)])[0] == 0

    @pytest.mark.parametrize(
        "argv, draws_per_trial, draws_per_run",
        [
            # one draw a round
            (["parrondo"], 1, 0),
            (["dissipative"], 1, 0),
            (["grover", "--strategy", "fixed", "--m", "128"], 2, 0),
            # L = 4 has mean duration L * (L + 1) = 20 letters: one draw
            (["grover", "--strategy", "adaptive", "--k-star", "2"], 1, 0),
            # one draw per two kicks, a Gaussian pair's one raw slot serving two
            (["iid", "--steps", "4"], 2, 0),
            # an odd curve still reads the whole draw of its last kick
            (["iid", "--steps", "3"], 2, 0),
            (["iid", "--dist", "exponential", "--steps", "3"], 2, 0),
            (["memory", "--steps", "5"], 3, 0),
        ],
        ids=["parrondo", "dissipative", "grover-fixed", "grover-adaptive", "iid",
             "iid-odd", "iid-exponential", "memory"],
    )
    def test_draw_bound_admits_runs_at_the_bound(
        self, argv, draws_per_trial, draws_per_run, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "MC_MAX_DRAWS", 4000)
        trials = (4000 - draws_per_run) // draws_per_trial
        assert run_cli([*argv, "--trials", str(trials)])[0] == 0
        code, text = run_cli([*argv, "--trials", str(trials + 1)])
        assert code == 2 and text == ""
        assert "limited to 4000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["--moduli", "3,7,11,19,23", "--trials", str(10**13)], "limited to 4294967296"),
            (["--moduli", "19,23,29,31", "--trials", "200000"], "limited to 1048576 slots"),
            (["--moduli", "1048577", "--exact"], "limited to 1048576 slots"),
        ],
        ids=["draws", "slots", "slots-exact"],
    )
    def test_wheel_refusals_come_before_any_work(self, argv, limit, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise RuntimeError("a refused run did work")

        for name in ("spectrum", "exact_rate", "simulate", "RotationGame"):
            monkeypatch.setattr(parrondo, name, no_work)
        code, text = run_cli(["parrondo", *argv])
        assert code == 2 and text == ""
        assert limit in capsys.readouterr().err

    def test_wheel_slot_bound_admits_its_limit(self):
        assert cli.MAX_WHEEL_SLOTS == 1 << 20
        env = run_json(["parrondo", "--moduli", "1048575", "--exact"])
        assert env["results"]["support_size"] == 1048575
        assert env["diagnostics"]["spectral_gap"] == "1/1"
        # two games on Z_(2^19 - 1) reach P = 2^20 - 2
        assert run_cli(["parrondo", "--moduli", "524287,1", "--exact"])[0] == 0
        assert run_cli(["parrondo", "--moduli", "524289,1", "--exact"])[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["iid", "--exact", "--steps", "1000000"],
            ["memory", "--exact", "--steps", "1000000"],
            ["iid", "--steps", "100000", "--trials", "10"],
            ["memory", "--steps", str(cli.CURVE_MAX_STEPS + 1), "--exact"],
        ],
        ids=["iid-exact-1e6", "memory-exact-1e6", "iid-mc-1e5", "memory-one-over"],
    )
    def test_curve_length_bound_refuses_before_work(self, argv, capsys):
        code, text = run_cli(argv)
        assert code == 2 and text == ""
        assert f"{cli.CURVE_MAX_STEPS}], got" in capsys.readouterr().err

    def test_curve_length_bound_holds_for_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": cli.CURVE_MAX_STEPS + 1, "exact": True}))
        assert run_cli(["iid", "--config", str(path)])[0] == 2

    def test_curve_length_bound_admits_its_limit(self):
        env = run_json(["iid", "--exact", "--steps", str(cli.CURVE_MAX_STEPS)])
        assert len(env["results"]["curve"]) == cli.CURVE_MAX_STEPS + 1

    @pytest.mark.parametrize(
        "argv",
        [["iid", "--mu=0.5"], ["iid", "--mu=0.1", "--trials=2"],
         ["iid", "--dist=delta", "--angles=0.5", "--trials=2"]],
        ids=["gaussian-exact", "gaussian-mc", "delta-mc"],
    )
    def test_long_noiseless_curves_print_their_coherences(self, argv):
        # over 2^16 rounded products a pure state's |b| drifts past |b0| by
        # more than a state check's tolerance; the curve is printed as computed
        steps = cli.CURVE_MAX_STEPS
        env = run_json([*argv, f"--steps={steps}"])
        rho0 = commands._initial_state({"a0": 0.5, "b0_re": 0.5, "b0_im": 0.0})
        dist = (kicks.DeltaMixture.uniform([0.5]) if "--dist=delta" in argv
                else kicks.GaussianKicks(float(argv[1].split("=")[1]), 0.0))
        bs = kicks.evolve_iid(rho0, dist, kicks.EvolutionPlan(steps))
        curve, final = env["results"]["curve"], env["results"]["final"]
        assert [row["analytic_coherence"] for row in curve] == [abs(b) for b in bs]
        assert final == {"a": 0.5, "b_re": bs[-1].real, "b_im": bs[-1].imag,
                         "coherence": abs(bs[-1])}
        mc = [row["coherence"] for row in curve]
        if env["diagnostics"]["mc"]:  # every trajectory takes the same kicks
            assert all(row["mc_stderr"] == 0.0 for row in curve)
        assert abs(max(mc) - 0.5) < 1e-11
        assert max(mc) ** 2 > 0.25 + qubit.ATOL_STATE  # a state the checks would refuse

    @pytest.mark.parametrize(
        "argv, charge",
        [
            (["iid", "--steps", "4096", "--trials", str(2**21 + 1)],
             kicks.draw_charge(4096, 2**21 + 1)),
            (["iid", "--steps", "1", "--trials", str(cli.MC_MAX_DRAWS + 1)],
             kicks.draw_charge(1, cli.MC_MAX_DRAWS + 1)),
            (["memory", "--steps", "20", "--trials", str(cli.MC_MAX_DRAWS // 10 + 1)],
             kicks.draw_charge(20, cli.MC_MAX_DRAWS // 10 + 1)),
        ],
        ids=["iid-4096x2e21", "iid-odd-past-bound", "memory-20-past-bound"],
    )
    def test_draw_bound_refuses_curves_before_drawing(self, argv, charge, monkeypatch, capsys):
        forbid_draws(monkeypatch)
        code, text = run_cli(argv)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert f"needs {charge} draws; a run is limited to {cli.MC_MAX_DRAWS}" in err
        # the same curve on the exact route alone is admitted
        assert run_cli([*argv, "--exact"])[0] == 0

    def test_draw_bound_admits_curves_past_two_to_the_28_kicks(self):
        for steps, trials in ((2000, 200_000), (1999, 200_000), (20, 20_000_000)):
            assert kicks.draw_charge(steps, trials) <= cli.MC_MAX_DRAWS

    def test_adaptive_draw_bound_admits_n10(self, monkeypatch):
        counted = count_draws(monkeypatch)
        argv = ["grover", "--n-qubits", "10", "--strategy", "adaptive", "--trials", "2000",
                "--seed", "3", "--threads", "2"]
        env = run_json(argv)
        charge = grover.draw_charge(grover.AdaptiveTracking(env["inputs"]["k_star"]), 2000)
        # an expected-work charge: the run reads about what it is charged
        assert charge == 2000 * 40 and 0.5 * charge <= sum(counted) <= 2 * charge

    def test_adaptive_k_star_past_int64_offsets(self):
        # 256 * k_star overflows int64 from k_star = 2^55; no trial can stop
        # past the cap, so every run is censored as at 2^54
        runs = [run_json(["grover", "--strategy", "adaptive", "--k-star", str(k),
                          "--trials", "3"]) for k in (2**54, 10**20)]
        assert [env["diagnostics"]["censored"] for env in runs] == [3, 3]
        assert runs[0]["results"]["strategy_eval"] == runs[1]["results"]["strategy_eval"]

    def test_kick_bound_admits_the_benchmark_curve(self):
        env = run_json(["memory", "--steps", "20", "--trials", "100000"])
        assert env["diagnostics"]["mc"] and len(env["results"]["curve"]) == 21

    def test_csv_row_bound_admits_42(self):
        # the check runs when the row columns are asked for; n = 42 has
        # 3,294,200 rows, and only the first chunk of them is formatted here
        values = {"n_qubits": 42, "target": 0, "strategy": "quarter-pi", "m": None,
                  "k_star": None, "trials": 0, "seed": 0}
        _, _, _, (header, fmt, columns) = grover_command.run(values, 1)
        ks, probs = columns()
        assert len(ks) == 3_294_200 <= cli.CSV_MAX_ROWS and header == "k,success_prob"
        chunk = next(writers.row_chunks("\n" + fmt, (ks, probs)))
        assert chunk.split("\n", 2)[1] == f"0,{2.0**-42!r}"
        assert chunk.count("\n") == writers.CHUNK_ROWS

    def test_csv_refusal_writes_no_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        code, text = run_cli(["grover", "--n-qubits=43", "--format=csv", f"--out={path}"])
        assert code == 2 and text == "" and not path.exists()


_TWO_BLOCKS = 70_000  # trials or rounds: two blocks, split between threads at --threads 2


_GAUSSIAN = ["iid", "--sigma2=0.5"]
_EXPONENTIAL = ["iid", "--dist=exponential"]
_DELTA = ["iid", "--dist=delta", "--angles=0,1"]


def _iid_case(law, steps: int, name: str):
    charge = kicks.draw_charge(steps, _TWO_BLOCKS)
    return pytest.param([*law, f"--steps={steps}"], charge, 0, id=name)


def _memory_case(steps: int, name: str):
    charge = kicks.draw_charge(steps, _TWO_BLOCKS)
    return pytest.param(["memory", f"--steps={steps}"], charge, 0, id=name)


@pytest.mark.parametrize("steps", [1, 2, 3, 20])
def test_kick_families_charge_one_draw_per_two_kicks(steps):
    # stream layout 6: each raw draw serves two kicks of an iid or memory
    # curve, whatever the law, and a dissipative trial reads one
    assert kicks.draw_charge(steps, 7) == 7 * ((steps + 1) // 2)
    assert dissipative.draw_charge(7) == 7


@pytest.mark.parametrize(
    "argv, charge, unread",
    [
        # every kick family at steps 1, 2, 3 and 20; an unnumbered id runs 3 steps
        *(_iid_case(_GAUSSIAN, steps, f"iid-gaussian-{steps}") for steps in (1, 2, 3, 4, 20)),
        *(_iid_case(_EXPONENTIAL, steps, f"iid-exponential-{steps}") for steps in (1, 2, 20)),
        _iid_case(_EXPONENTIAL, 3, "iid-exponential"),
        *(_iid_case(_DELTA, steps, f"iid-delta-{steps}") for steps in (1, 2, 20)),
        _iid_case(_DELTA, 3, "iid-delta"),
        *(_memory_case(steps, f"memory-{steps}") for steps in (1, 2, 20)),
        _memory_case(3, "memory"),
        pytest.param(["dissipative"], dissipative.draw_charge(_TWO_BLOCKS), 0, id="dissipative"),
        pytest.param(["grover", "--strategy=fixed", "--m=129"],
                     grover.draw_charge(grover.FixedHorizon(129), _TWO_BLOCKS), 0,
                     id="grover-fixed"),
        pytest.param(["grover", "--n-qubits=6"],  # quarter-pi: m = 4 * 7 letters
                     grover.draw_charge(grover.FixedHorizon(28), _TWO_BLOCKS), 0,
                     id="grover-quarter-pi"),
        pytest.param(["parrondo", "--moduli=3,7"], parrondo.draw_charge(_TWO_BLOCKS), 0,
                     id="parrondo"),
    ],
)
@pytest.mark.parametrize("threads", [1, 2])
def test_runs_read_what_they_are_charged(argv, charge, unread, threads, monkeypatch):
    """Counted at ``rng._draw``, a run reads its family's charge, and the CLI refuses by it."""
    counted = count_draws(monkeypatch)
    argv = [*argv, f"--trials={_TWO_BLOCKS}", f"--threads={threads}"]
    assert run_cli(argv)[0] == 0
    assert sum(counted) == charge - unread
    monkeypatch.setattr(cli, "MC_MAX_DRAWS", charge - 1)
    counted.clear()
    assert run_cli(argv)[0] == 2 and counted == []
    monkeypatch.setattr(cli, "MC_MAX_DRAWS", charge)
    assert run_cli(argv)[0] == 0


_Z_RUNS = {
    "delta": ["iid", "--dist=delta", "--angles=0.3,-1,2", "--weights=0.5,0.3,0.2"],
    "gaussian": ["iid", "--mu=0.2", "--sigma2=0.3"],
    "exponential": ["iid", "--dist=exponential", "--omega=0.7", "--tau1=0.5"],
    "memory": ["memory", "--variant=combined", "--epsilon=0.1"],
}


class TestZScores:
    """diagnostics.z_re / z_im: each curve point's (MC - exact) / stderr."""

    @pytest.mark.parametrize("family", list(_Z_RUNS))
    def test_every_point_within_5_stderr(self, family):
        env = run_json([*_Z_RUNS[family], "--steps=5", "--trials=70000", "--seed=3"])
        z_re, z_im = env["diagnostics"]["z_re"], env["diagnostics"]["z_im"]
        assert len(z_re) == len(z_im) == 6
        # point 0 is b0 in every trajectory: no spread, no z
        assert z_re[0] is None and z_im[0] is None
        assert all(abs(z) <= 5.0 for z in z_re[1:] + z_im[1:])

    def test_z_scores_follow_the_curve(self):
        # the memory curve's exact partner is b0 * conj(f_k at class A)
        env = run_json([*_Z_RUNS["memory"], "--steps=3", "--trials=1000", "--seed=3",
                        "--b0-re=0.3", "--b0-im=0.25"])
        b0, kern = complex(0.3, 0.25), memory.kernel(memory.KernelVariant.COMBINED, 0.1)
        exact = [b0] + [b0 * fa.conjugate() for fa, _ in memory.coherence_recursion(kern, 3).values]
        rho0 = commands._initial_state({"a0": 0.5, "b0_re": 0.3, "b0_im": 0.25})
        estimates = memory.evolve_memory_mc(rho0, kern, 3, 1000, 3)
        for n in range(1, 4):
            b, se = estimates[n]
            assert env["diagnostics"]["z_re"][n] == (b.real - exact[n].real) / se
            assert env["diagnostics"]["z_im"][n] == (b.imag - exact[n].imag) / se

    def test_null_where_stderr_is_zero(self):
        env = run_json(["iid", "--dist=delta", "--angles=0", "--steps=3", "--trials=1000"])
        assert env["diagnostics"]["z_re"] == env["diagnostics"]["z_im"] == [None] * 4
        assert all(row["mc_stderr"] == 0.0 for row in env["results"]["curve"])

    @pytest.mark.parametrize("argv", [["iid", "--exact", "--trials=10"], ["memory", "--exact"],
                                      ["iid"], ["memory"]])
    def test_no_z_scores_without_monte_carlo(self, argv):
        assert run_json(argv)["diagnostics"] == {"mc": False}

    @pytest.mark.parametrize("family", list(_Z_RUNS))
    def test_twenty_seed_mean_z_shows_no_bias(self, family):
        # each z has variance at most 1 (stderr is the larger part's), so the
        # mean of 20 independent runs has standard error at most 1 / sqrt(20)
        finals = [run_json([*_Z_RUNS[family], "--steps=4", "--trials=65536", f"--seed={seed}"])
                  ["diagnostics"] for seed in range(100, 120)]
        for part in ("z_re", "z_im"):
            mean = sum(d[part][-1] for d in finals) / len(finals)
            assert abs(mean) <= 3.0 / math.sqrt(len(finals)), (part, mean)


class TestCsvSchemas:
    def test_iid_curve(self):
        code, text = run_cli(
            ["iid", "--dist", "delta", "--angles", "0.5", "--steps", "3", "--format", "csv"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "n,coherence,analytic_coherence"
        assert len(lines) == 5

    def test_memory_curve(self):
        code, text = run_cli(["memory", "--steps", "4", "--exact", "--format", "csv"])
        assert code == 0
        assert text.splitlines()[0] == "n,coherence,analytic_coherence"

    def test_parrondo_positions(self):
        code, text = run_cli(["parrondo", "--moduli", "3,7", "--exact", "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "position,probability,winning"
        assert len(lines) == 22
        assert lines[1] == "0,1/21,1"

    def test_grover_success_curve(self):
        code, text = run_cli(["grover", "--n-qubits", "4", "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "k,success_prob"
        # k = 0 row carries the 1/N payoff
        assert lines[1].startswith("0,0.0625")


class TestDeterminism:
    CASES = [
        ["iid", "--dist", "gaussian", "--mu", "0.1", "--sigma2", "0.4", "--steps", "5",
         "--trials", "20000", "--seed", "42"],
        ["memory", "--variant", "combined", "--epsilon", "0.001", "--steps", "6",
         "--trials", "20000", "--seed", "42"],
        ["dissipative", "--p", "0.5", "--lambda-ad", "0.0001", "--lambda-pd", "0.01",
         "--trials", "50000", "--seed", "42"],
        ["parrondo", "--moduli", "3,7", "--trials", "50000", "--seed", "42"],
        ["grover", "--n-qubits", "6", "--strategy", "quarter-pi", "--trials", "20000",
         "--seed", "42"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_repeat_runs_identical(self, argv):
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_thread_count_invisible(self, argv):
        _, one = run_cli(argv + ["--threads", "1"])
        _, eight = run_cli(argv + ["--threads", "8"])
        assert one == eight


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["iid", "--dist", "delta", "--angles=-1.5707963267948966,0,1.5707963267948966",
             "--steps", "4", "--trials", "5000", "--seed", "7"],
            ["memory", "--variant", "pure-b", "--epsilon", "0.001", "--steps", "5",
             "--trials", "5000", "--seed", "7"],
            ["dissipative", "--p", "0.3", "--trials", "5000", "--seed", "7"],
            ["parrondo", "--moduli", "7,11", "--trials", "5000", "--seed", "7"],
            ["grover", "--n-qubits", "4", "--strategy", "adaptive", "--trials", "500",
             "--seed", "7"],
            ["iid", "--dist", "gaussian", "--mu", "0.1", "--sigma2", "0.3", "--a0", "0.6",
             "--b0-re", "0.2", "--b0-im", "0.3", "--steps", "3", "--trials", "3000",
             "--seed", "7"],
            ["iid", "--dist", "exponential", "--omega", "2", "--tau1", "0.5",
             "--steps", "3", "--trials", "3000", "--seed", "7"],
            ["iid", "--dist", "delta", "--angles", "0.3,1.1", "--weights", "0.25,0.75",
             "--steps", "3", "--trials", "3000", "--seed", "7"],
            ["memory", "--variant", "pure-a", "--steps", "5", "--exact", "--seed", "7"],
            ["dissipative", "--p", "0.3", "--tau0", "2", "--a0", "0.8", "--b0-re", "0.1",
             "--trials", "5000", "--seed", "7"],
            ["grover", "--n-qubits", "5", "--strategy", "fixed", "--m", "12", "--trials",
             "500", "--seed", "7"],
            ["grover", "--n-qubits", "4", "--strategy", "adaptive", "--k-star", "2",
             "--trials", "500", "--seed", "7"],
        ],
        ids=["iid", "memory", "dissipative", "parrondo", "grover", "iid-gaussian-b0",
             "iid-exponential", "iid-delta-weights", "memory-exact", "dissipative-a0",
             "grover-fixed", "grover-k-star"],
    )
    def test_inputs_echo_reproduces_run(self, argv, tmp_path):
        env = run_json(argv)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(env["inputs"]))
        echoed = run_json([argv[0], "--config", str(cfg)])
        assert echoed == env


@pytest.mark.parametrize(
    "command, config",
    [
        ("iid", {"exakt": True}),
        ("iid", {"trials": 2.7}),
        ("iid", {"exact": "false"}),
        ("grover", {"n_qubits": True}),
        ("dissipative", {"a0": 10**400}),
        ("parrondo", {"moduli": [3, 7.5]}),
        ("memory", {"variant": "pure-c"}),
        ("memory", {"threads": 2}),
        ("iid", {"command": "memory"}),
    ],
    ids=["unknown-key", "float-for-int", "string-for-flag", "bool-for-int",
         "int-beyond-float", "float-in-int-list", "outside-choices", "run-control-key",
         "other-command"],
)
def test_config_values_are_strict(command, config, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, text = run_cli([command, "--config", str(cfg)])
    assert code == 2 and text == ""


def test_out_writes_file(tmp_path):
    path = tmp_path / "result.json"
    code, text = run_cli(["parrondo", "--moduli", "3,7", "--exact", "--out", str(path)])
    assert code == 0 and text == ""
    assert json.loads(path.read_text())["results"]["win_prob"] == "11/21"


def test_envelope_structure():
    env = run_json(["grover", "--n-qubits", "2", "--trials", "100", "--seed", "1"])
    assert set(env) == {"inputs", "results", "diagnostics", "provenance"}
    assert env["provenance"]["version"]
    assert env["provenance"]["seed"] == 1
    assert env["provenance"]["stream_layout"] == cli.STREAM_LAYOUT == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["iid", "--dist", "gaussian", "--mu", "0.2", "--sigma2", "0.5", "--steps", "4"],
        ["memory", "--variant", "combined", "--epsilon", "0.001", "--steps", "4"],
    ],
    ids=["iid", "memory"],
)
def test_multi_block_curve_thread_invariant(argv):
    # 140_000 trials are three trajectory blocks, so the curve's merge crosses blocks
    argv = argv + ["--trials", "140000", "--seed", "3"]
    _, one = run_cli(argv + ["--threads", "1"])
    _, two = run_cli(argv + ["--threads", "2"])
    assert one == two
    assert len(json.loads(one)["results"]["curve"]) == 5


@pytest.mark.parametrize(
    "argv, config, want, error",
    [
        (["iid", "--omega", "2"], {}, 2, None),
        (["iid", "--dist", "delta", "--angles", "0,1", "--sigma2", "0.5"], {}, 2, None),
        (["iid", "--dist", "gaussian", "--weights", "1"], {}, 2, None),
        (["grover", "--strategy", "quarter-pi", "--m", "5"], {}, 2, None),
        (["grover", "--strategy", "fixed", "--m", "4", "--k-star", "1"], {}, 2, None),
        # weights that do not pair up with the angles one to one
        (["iid", "--dist", "delta", "--angles=1,2,3", "--weights=0.5,0.5"], {}, 2,
         "error: --weights has 2 values but --angles has 3\n"),
        (["iid"], {"dist": "exponential", "mu": 0.0}, 2, None),
        (["grover"], {"strategy": "adaptive", "m": 5}, 2, None),
        # a flag overrides the config's choice and drops the keys of the old one
        (["grover", "--strategy", "adaptive", "--trials", "200"],
         {"strategy": "fixed", "m": 12}, 0, None),
    ],
    ids=["omega-gaussian", "sigma2-delta", "weights-gaussian", "m-quarter-pi",
         "k-star-fixed", "weights-angles-mismatch", "config-mu-exponential", "config-m-adaptive",
         "flag-switches-config-fixed"],
)
def test_inapplicable_parameters_are_refused_or_dropped(
    argv, config, want, error, tmp_path, capsys
):
    # a parameter given while its `when` condition fails exits 2, unless it
    # comes from the config and a flag switched the condition away
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, text = run_cli(argv + ["--config", str(cfg)])
    assert code == want
    if want == 2:
        assert text == ""
    else:
        assert set(config) - set(json.loads(text)["inputs"]) == {"m"}
    if error is not None:
        assert capsys.readouterr().err == error


# --- the JSON and CSV writers against the stdlib-based oracles ---

_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e-5, math.inf, -math.inf, math.nan]
_ESCAPES = ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u2028\u2029", "é", "\U0001f600"]
_WRITER_CASES = 2000


def _random_text(rnd: random.Random) -> str:
    """Up to 8 code points, all ASCII in half the draws; no surrogates."""
    top = 0x7F if rnd.random() < 0.5 else 0x10FFFF
    points = (rnd.randint(0, top) for _ in range(rnd.randrange(9)))
    return "".join(chr(c) for c in points if not 0xD800 <= c <= 0xDFFF)


def _random_scalar(rnd: random.Random):
    """A value of one of ten scalar families, each drawn as often as the others."""
    kind = rnd.randrange(10)
    if kind == 0:
        return None
    if kind == 1:
        return rnd.random() < 0.5
    if kind == 2:
        return rnd.randint(-1000, 1000) if rnd.random() < 0.5 else rnd.getrandbits(64) - 2**63
    if kind == 3:
        return rnd.randint(2**64, 2**200)
    if kind == 4:
        return -rnd.randint(2**64, 2**200)
    if kind == 5:  # any bit pattern (subnormals, infinities, nan payloads) or a plain value
        if rnd.random() < 0.5:
            return struct.unpack("<d", rnd.getrandbits(64).to_bytes(8, "little"))[0]
        return rnd.uniform(-1e3, 1e3)
    if kind == 6:
        return rnd.choice(_SPECIAL_FLOATS)
    if kind == 7:
        return _random_text(rnd)
    if kind == 8:
        return "".join(rnd.choices(_ESCAPES, k=rnd.randrange(6)))
    bound = 10 if rnd.random() < 0.5 else 10**30  # small ones are often whole
    return Fraction(rnd.randint(-bound, bound), rnd.randint(1, bound))


# Row keys with a %, keys the encoder escapes, and the empty key
_ROW_KEYS = ["n", "coherence", "%d", "100%", "%(n)s", "%%", 'say "hi"', "tab\there", "\u00e9",
             "\U0001f600", ""]


def _random_column(rnd: random.Random, rows: int, depth: int) -> list:
    """One column of a row list: all finite floats, ints or strs, or any values."""
    kind = rnd.randrange(6)
    if kind == 0:
        return [rnd.uniform(-1e3, 1e3) * 10.0 ** rnd.randint(-300, 300) for _ in range(rows)]
    if kind == 1:  # finite floats whose sum overflows to inf
        return [rnd.choice((1.0, -1.0)) * 1.7e308 if i % 2 else 1.7e308 for i in range(rows)]
    if kind == 2:  # floats with a non-finite one or a float subclass among them
        column = [rnd.random() for _ in range(rows)]
        column[rnd.randrange(rows)] = rnd.choice([*_SPECIAL_FLOATS[-3:], np.float64(0.1)])
        return column
    if kind == 3:
        return [rnd.getrandbits(70) - 2**69 for _ in range(rows)]
    if kind == 4:
        return [_random_text(rnd) if rnd.random() < 0.5 else rnd.choice(_ESCAPES)
                for _ in range(rows)]
    return [_random_value(rnd, depth + 1) for _ in range(rows)]


def _random_rows(rnd: random.Random, depth: int):
    """A list of dicts that share their str keys, each in its own key order.

    A quarter of the lists are near misses that must not be written as
    shared-key rows: one row lacks a key, every row also has an int key, or
    one row is not a dict.
    """
    rows = rnd.randint(1, 5)
    keys = rnd.sample(_ROW_KEYS, rnd.randint(1, 4)) + [_random_text(rnd)] * rnd.randrange(2)
    columns = {key: _random_column(rnd, rows, depth) for key in keys}
    value = []
    for i in range(rows):
        order = list(columns)
        rnd.shuffle(order)
        value.append({key: columns[key][i] for key in order})
    miss = rnd.randrange(8)
    if miss == 0:
        del value[rnd.randrange(len(value))][rnd.choice(list(columns))]
    elif miss == 1:
        for row in value:
            row[rnd.randint(-3, 3)] = _random_scalar(rnd)
    elif miss == 2:
        value[rnd.randrange(len(value))] = _random_value(rnd, depth + 1)
    return value if rnd.random() < 0.8 else tuple(value)


def _random_value(rnd: random.Random, depth: int = 0):
    """A scalar, a list of shared-key rows, or a list, tuple or dict (str and
    int keys) nested up to 3 deep."""
    kind = rnd.randrange(5) if depth < 3 else 0
    if kind == 0:
        return _random_scalar(rnd)
    if kind == 4:
        return _random_rows(rnd, depth)
    items = [_random_value(rnd, depth + 1) for _ in range(rnd.randrange(6))]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    keys = (_random_text(rnd) if rnd.random() < 0.5 else rnd.randint(-100, 100) for _ in items)
    return dict(zip(keys, items))


def test_json_writer_matches_stdlib_encoder():
    rnd = random.Random(20260402)
    for case in range(_WRITER_CASES):
        value = _random_value(rnd)
        assert writers.json_text(value) == _oracles.json_text(value), (case, value)


@pytest.mark.parametrize(
    "value",
    [
        1j, {1, 2}, np.int64(3), np.bool_(True), b"x", [Fraction(1, 2), object()],
        [{"p": Fraction(1, 2), "q": object()}, {"p": 0.5, "q": 1}],
        [{"x": 1.0}, {"x": 1j}],
        [{"n": 1}, {"n": np.int64(2)}],
        [{"s": "a"}, {"s": b"b"}],
        [{"row": [{"x": 1.0}, {"x": object()}]}],
    ],
)
def test_json_writer_refuses_what_the_encoder_refuses(value):
    with pytest.raises(TypeError):
        _oracles.json_text(value)
    with pytest.raises(TypeError):
        writers.json_text(value)


# The exact workload's invocations, a run that prints "inf" and null, and one
# run of each other row shape: a Monte Carlo curve (rows with mc_stderr),
# adaptive search (int-keyed histograms) and a wheel-game simulation.
_EXACT_RUNS = {
    "parrondo": ["parrondo", "--moduli=19,23", "--exact", "--seed=5"],
    "grover": ["grover", "--n-qubits=37", "--trials=0", "--seed=5"],
    "iid": ["iid", "--dist=exponential", "--exact", "--steps=3000", "--seed=5"],
    "memory": ["memory", "--exact", "--steps=3000", "--seed=5"],
    "dissipative": ["dissipative", "--lambda-ad", "0"],
    "memory-mc": ["memory", "--steps=30", "--trials=2000", "--seed=5"],
    "grover-adaptive": ["grover", "--n-qubits=6", "--strategy=adaptive", "--trials=2000",
                        "--seed=5"],
    "parrondo-sim": ["parrondo", "--moduli=3,7", "--trials=20000", "--seed=5"],
}


@pytest.mark.parametrize("argv", _EXACT_RUNS.values(), ids=_EXACT_RUNS.keys())
def test_envelope_bytes_match_oracle_writer(argv, monkeypatch):
    _, text = run_cli(argv)
    monkeypatch.setattr(writers, "json_text", _oracles.json_text)
    assert run_cli(argv) == (0, text)
    if argv[0] == "dissipative":
        assert '"t1": "inf"' in text and '"t1_over_half_t2": null' in text


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_json_rows_across_chunks(chunk, monkeypatch):
    # lists of 1 to 5 shared-key rows, written `chunk` rows at a time
    monkeypatch.setattr(writers, "CHUNK_ROWS", chunk)
    rnd = random.Random(chunk)
    for case in range(300):
        value = _random_rows(rnd, 0)
        assert writers.json_text(value) == _oracles.json_text(value), (case, value)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_curve_envelope_across_chunks(offset, monkeypatch):
    # CHUNK_ROWS + offset curve rows at the real chunk size
    argv = ["memory", "--exact", f"--steps={writers.CHUNK_ROWS - 1 + offset}"]
    code, text = run_cli(argv)
    assert code == 0 and len(json.loads(text)["results"]["curve"]) == writers.CHUNK_ROWS + offset
    monkeypatch.setattr(writers, "json_text", _oracles.json_text)
    assert run_cli(argv) == (0, text)


def test_grover_csv_bytes_match_oracle_writer():
    code, text = run_cli(["grover", "--n-qubits=32", "--format=csv", "--seed=5"])
    config = grover.GameConfig(32)
    rows = [[k, grover.success_closed_form(k, config)]
            for k in range(math.ceil(math.pi * math.sqrt(config.size) / 2.0) + 1)]
    assert code == 0 and len(rows) == 102_945
    assert text == _oracles.csv_lines(["k", "success_prob"], rows) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["iid", "--dist", "delta", "--angles", "0.3,2", "--steps", "30", "--trials", "2000"],
        ["memory", "--variant", "pure-b", "--steps", "30", "--trials", "2000"],
        ["memory", "--steps", "1200", "--exact"],
    ],
    ids=["iid", "memory", "memory-exact"],
)
def test_curve_csv_bytes_match_oracle_writer(argv):
    env = run_json(argv)
    rows = [[r["n"], r["coherence"], r["analytic_coherence"]] for r in env["results"]["curve"]]
    code, text = run_cli(argv + ["--format", "csv"])
    assert code == 0
    assert text == _oracles.csv_lines(["n", "coherence", "analytic_coherence"], rows) + "\n"


def test_parrondo_csv_bytes_match_oracle_writer():
    rows = [[k, Fraction(1, 21), int(parrondo.is_winning(k, 21))] for k in range(21)]
    code, text = run_cli(["parrondo", "--moduli", "3,7", "--exact", "--format", "csv"])
    assert code == 0
    assert text == _oracles.csv_lines(["position", "probability", "winning"], rows) + "\n"


class _Writes(io.StringIO):
    """A text stream that keeps the line count of each write."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, s):
        self.lines.append(s.count("\n"))
        return super().write(s)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("command", ["iid", "memory", "parrondo", "grover"])
def test_csv_chunk_boundaries(command, offset, monkeypatch, tmp_path):
    # chunk + offset rows: iid and memory curves by their step count at the
    # real chunk size, the 21 wheel positions and 27 search iterates by a
    # patched one; stdout and the --out file both hold the oracle's bytes
    chunk = writers.CHUNK_ROWS
    if command in ("iid", "memory"):
        argv = [command, "--exact", f"--steps={chunk - 1 + offset}"]
        argv += ["--dist=delta", "--angles=0.3,2"] if command == "iid" else []
        header = ["n", "coherence", "analytic_coherence"]
        rows = [[r["n"], r["coherence"], r["analytic_coherence"]]
                for r in run_json(argv)["results"]["curve"]]
    elif command == "parrondo":
        argv = ["parrondo", "--moduli=3,7", "--exact"]
        header = ["position", "probability", "winning"]
        rows = [[k, Fraction(1, 21), int(parrondo.is_winning(k, 21))] for k in range(21)]
    else:
        argv = ["grover", "--n-qubits=8"]
        header = ["k", "success_prob"]
        rows = [[k, grover.success_closed_form(k, grover.GameConfig(8))] for k in range(27)]
    if command in ("parrondo", "grover"):
        chunk = len(rows) - offset
        monkeypatch.setattr(writers, "CHUNK_ROWS", chunk)
    assert len(rows) == chunk + offset
    want = _oracles.csv_lines(header, rows) + "\n"
    out = _Writes()
    assert cli.run(argv + ["--format=csv"], stdout=out) == 0
    assert out.getvalue() == want
    # the header, chunks of newline-led rows, then the last newline
    assert out.lines == [0, min(len(rows), chunk)] + [1] * (offset == 1) + [1]
    path = tmp_path / "curve.csv"
    assert run_cli(argv + ["--format=csv", f"--out={path}"]) == (0, "")
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["grover", "--n-qubits=24", "--format=csv"], 1),
        (["memory", "--exact", "--steps=5000"], 1),
        (["parrondo", "--moduli=3,7", "--exact"], 0),
    ],
    ids=["grover-csv", "memory-json", "parrondo-json-unread"],
)
def test_closed_pipe_exits_141_quietly(argv, lines):
    # the reader takes `lines` lines and closes: past a pipe's buffer (about
    # 160 KB and 500 KB) a later write meets the closed pipe.  With no line
    # to read, the read end is closed before the run starts, so the 1 KB it
    # flushes at exit (block-buffered) meets a pipe that already has no reader
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, "-m", "noisegames.cli", *argv]
    if lines:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def _run_blocking(packages: tuple[str, ...], body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter in which importing any of ``packages`` fails.

    Each name is a top-level package; its submodules are blocked with it.
    argparse lays its help out for 80 columns.
    """
    blocker = textwrap.dedent(
        f"""
        import sys

        class Blocked:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] in {packages!r}:
                    raise ImportError(f"{{name}} is blocked")
                return None

        sys.meta_path.insert(0, Blocked())
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-c", blocker + textwrap.dedent(body)],
        env=env, capture_output=True, text=True,
    )


def _outputs(argvs):
    """Exit code, stdout (argparse's and the CLI's) and stderr of each ``cli.run``."""
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv, stdout=out)
        outputs.append([code, out.getvalue(), err.getvalue()])
    return outputs


def test_cli_runs_without_scipy():
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, a fresh interpreter imports each module and runs each subcommand
    proc = _run_blocking(("scipy",), """
        import importlib, io, pkgutil
        import noisegames
        for module in pkgutil.iter_modules(noisegames.__path__):
            importlib.import_module(f"noisegames.{module.name}")
        from noisegames import cli
        for argv in (
            ["iid", "--dist", "exponential", "--steps", "3", "--trials", "200"],
            ["memory", "--steps", "3", "--trials", "200"],
            ["dissipative", "--trials", "200"],
            ["parrondo", "--trials", "200"],
            ["grover", "--n-qubits", "3", "--trials", "200"],
        ):
            assert cli.run(argv, stdout=io.StringIO()) == 0, argv
        assert "scipy" not in sys.modules
        """)
    assert proc.returncode == 0, proc.stderr


# Every run that draws nothing: help, usage errors, each exact route and
# each subcommand's CSV.
_EXACT_ARGVS = [
    ["--help"],
    ["grover", "--help"],
    ["iid", "--steps", "x"],  # argparse refuses it
    ["grover", "--n-qubits", "0"],  # GameConfig refuses it
    ["dissipative", "--format", "csv"],  # no CSV for dissipative
    ["grover", "--trials", "0"],
    ["grover", "--n-qubits", "37"],
    ["grover", "--strategy", "fixed", "--m", "9"],
    ["grover", "--strategy", "adaptive", "--n-qubits", "10"],
    ["iid", "--exact", "--dist", "delta", "--angles=-1.5708,0,1.5708", "--steps", "5"],
    ["iid", "--exact", "--dist", "gaussian", "--sigma2", "0.5", "--steps", "5"],
    ["iid", "--exact", "--dist", "exponential", "--steps", "5"],
    ["iid", "--dist", "gaussian", "--mu", "0.3", "--steps", "4"],  # trials 0: exact
    *(["memory", "--exact", "--variant", v, "--steps", "30"]
      for v in ("pure-a", "pure-b", "combined")),
    ["memory", "--exact", "--steps", "3000"],
    ["dissipative", "--trials", "0"],
    ["dissipative", "--lambda-ad", "0", "--lambda-pd", "0"],
    ["parrondo", "--exact"],
    ["parrondo", "--moduli", "19,23", "--exact"],
    ["parrondo", "--moduli", "3,9,1", "--trials", "0"],
    ["iid", "--exact", "--steps", "7", "--format", "csv"],
    ["memory", "--exact", "--steps", "7", "--format", "csv"],
    ["parrondo", "--exact", "--format", "csv"],
    ["grover", "--n-qubits", "8", "--format", "csv"],
]


def test_exact_routes_run_without_numpy(monkeypatch):
    # With every numpy import made to fail, a fresh interpreter imports the
    # package and the CLI, builds the parser and runs every route that draws
    # nothing, with the bytes and exit codes of the same runs here, where
    # numpy is loaded.
    proc = _run_blocking(("numpy",), f"""
        import contextlib, io, json
        import noisegames
        from noisegames import cli
        cli.build_parser()
        outputs = []
        for argv in {_EXACT_ARGVS!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv, stdout=out)
            outputs.append([code, out.getvalue(), err.getvalue()])
        assert "numpy" not in sys.modules, "numpy was imported"
        print(json.dumps(outputs))
        """)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setenv("COLUMNS", "80")
    want = _outputs(_EXACT_ARGVS)
    assert [code for code, _, _ in want].count(2) == 3 and want[0][0] == 0
    assert json.loads(proc.stdout) == want


def test_cold_start_loads_no_dataclasses_or_fractions():
    # The records are named tuples and fractions is imported where a
    # Fraction is built, so importing the CLI and building its parser loads
    # none of these, and of the runs that draw nothing only the wheel's
    # rational rates load fractions.  Modules the interpreter's start-up
    # loaded are not counted.
    proc = _run_blocking((), f"""
        before = set(sys.modules)
        import contextlib, io
        from noisegames import cli
        cli.build_parser()

        def newly_loaded(argvs):
            for argv in argvs:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    cli.run(argv, stdout=sink)
            heavy = {{"dataclasses", "decimal", "fractions", "inspect"}}
            return sorted(heavy & (set(sys.modules) - before))

        argvs = {_EXACT_ARGVS!r}
        wheel = [argv for argv in argvs if argv[0] == "parrondo"]
        others = [argv for argv in argvs if argv[0] != "parrondo"]
        for runs, want in (([], []), (others, []), (wheel, ["decimal", "fractions"])):
            got = newly_loaded(runs)
            assert got == want, (runs, got)
        """)
    assert proc.returncode == 0, proc.stderr


_FAMILIES = ("dissipative", "grover", "kicks", "memory", "parrondo")
_LAYERS = (*_FAMILIES, "qubit", "montecarlo", "rng")


def test_package_binds_drawing_layers_once_numpy_is_loaded():
    # code that walks the package's layers, such as a tracer wrapping each
    # module's functions, finds every layer and every export bound at import
    # when numpy came first
    proc = _run_blocking((), f"""
        import numpy
        import noisegames
        for layer in {_LAYERS!r}:
            assert getattr(noisegames, layer) is sys.modules[f"noisegames.{{layer}}"], layer
        for name, layer in noisegames._EXPORTS.items():
            module = sys.modules[f"noisegames.{{layer}}"]
            assert vars(noisegames)[name] is getattr(module, name), name
        """)
    assert proc.returncode == 0, proc.stderr


def test_each_run_loads_only_its_own_family():
    # Importing the CLI and building its parser load no family module, no
    # qubit, no handler and no numpy module.  A run then loads its
    # subcommand's family, qubit, the handlers' package and its own handler
    # alone, or none when argparse stops it first; each run's new modules
    # are unloaded after it, so the next one starts from the same cold
    # start.  Every export then imports from the package and is listed by
    # dir().
    proc = _run_blocking((), f"""
        import contextlib, io
        import noisegames
        from noisegames import cli
        cli.build_parser()
        lazy = {{f"noisegames.{{m}}"
                 for m in {_FAMILIES!r} + ("rng", "montecarlo", "qubit", "commands")}}
        assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))

        def ours():
            return {{m for m in sys.modules if m.startswith("noisegames.")}}

        for argv in {_EXACT_ARGVS!r}:
            before = ours()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.build_parser(argv[0]).parse_args(argv)
                    family = {{"iid": "kicks"}}.get(argv[0], argv[0])
                    want = {{f"noisegames.{{family}}", "noisegames.qubit", "noisegames.commands",
                             f"noisegames.commands.{{argv[0]}}"}}
                except SystemExit:
                    want = set()
                cli.run(argv, stdout=sink)
            new = ours() - before
            assert new == want, (argv, new)
            for name in sorted(new, reverse=True):  # a handler before its package
                parent, _, child = name.rpartition(".")
                del sys.modules[name]
                delattr(sys.modules[parent], child)
        for name in noisegames._EXPORTS:
            exec(f"from noisegames import {{name}}")
            assert name in dir(noisegames), name
        """)
    assert proc.returncode == 0, proc.stderr


def test_cold_start_loads_no_json():
    # writers takes json's C string encoder from _json, and the CLI imports
    # json only to read a --config file: importing the CLI and building its
    # parser load these three of the package's modules and no json module,
    # no run that draws nothing loads json, and a --config run does.
    proc = _run_blocking((), f"""
        import contextlib, io, os, tempfile
        from noisegames import cli
        cli.build_parser()

        def loaded(top):
            return sorted(m for m in sys.modules if m.partition(".")[0] == top)

        ours = loaded("noisegames")
        assert ours == ["noisegames", "noisegames.cli", "noisegames.writers"], ours
        assert loaded("json") == [], loaded("json")
        for argv in {_EXACT_ARGVS!r}:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.run(argv, stdout=sink)
            assert loaded("json") == [], (argv, loaded("json"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                fh.write('{{"steps": 2, "exact": true}}')
            assert cli.run(["iid", f"--config={{path}}"], stdout=io.StringIO()) == 0
        assert "json" in loaded("json")
        """)
    assert proc.returncode == 0, proc.stderr


def test_writer_uses_the_json_encoders_string_function():
    assert writers._encode_str is json.encoder.encode_basestring_ascii


def test_every_subcommand_has_its_handler_module():
    handlers = {m.name for m in pkgutil.iter_modules(commands.__path__)}
    assert handlers == set(cli._COMMANDS)
    for name in cli._COMMANDS:
        assert callable(importlib.import_module(f"noisegames.commands.{name}").run), name


# One small Monte Carlo run per subcommand, at --threads 1 and 2.
_MC_ARGVS = [
    argv + [f"--threads={threads}"]
    for argv in (
        ["iid", "--dist=delta", "--angles=-1,0,1", "--steps=3", "--trials=300", "--seed=3"],
        ["iid", "--mu=0.2", "--sigma2=0.5", "--steps=4", "--trials=300", "--seed=4"],
        ["memory", "--epsilon=0.1", "--steps=4", "--trials=300", "--seed=5"],
        ["dissipative", "--trials=300", "--seed=6"],
        ["parrondo", "--moduli=3,7", "--trials=3000", "--seed=7"],
        ["grover", "--n-qubits=5", "--strategy=adaptive", "--trials=300", "--seed=8"],
    )
    for threads in (1, 2)
]


def test_lazy_runs_print_the_bytes_of_eager_ones():
    # A fresh interpreter that imports the CLI before numpy loads each family
    # at its first run; it prints what the same runs print here, where numpy
    # came first and the package bound every family at import.
    proc = _run_blocking((), f"""
        import contextlib, io, json
        from noisegames import cli
        assert "numpy" not in sys.modules
        outputs = []
        for argv in {_MC_ARGVS!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv, stdout=out)
            outputs.append([code, out.getvalue(), err.getvalue()])
        print(json.dumps(outputs))
        """)
    assert proc.returncode == 0, proc.stderr
    want = _outputs(_MC_ARGVS)
    assert all(code == 0 for code, _, _ in want)
    assert json.loads(proc.stdout) == want


def test_variant_choices_are_the_kernel_variants():
    # the parser lists them literally, so building it imports no memory module
    (variant,) = [p for p in cli._COMMANDS["memory"][1] if p.key == "variant"]
    assert variant.choices == tuple(k.value for k in memory.KernelVariant)


def _parsed(parser, argv, capsys):
    """Exit code and printed text of ``parser.parse_args(argv)``, which must exit."""
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    return int(stop.value.code or 0), capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["frobnicate"], ["-h", "grover"], ["grover", "--bogus"], ["iid", "--steps", "x"],
    ["grover", "--strategy", "nope"], *([name, "-h"] for name in cli._COMMANDS),
])
def test_per_run_parser_prints_what_the_full_parser_prints(argv, capsys):
    code, printed = _parsed(cli.build_parser(), argv, capsys)
    assert run_cli(argv) == (code, "")
    assert capsys.readouterr() == printed


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_per_run_parser_declares_one_subcommand(name, capsys):
    for other in cli._COMMANDS:
        if other != name:
            assert _parsed(cli.build_parser(name), [other], capsys)[0] == 2
    assert cli.build_parser(name).parse_args([name]).command == name
