"""Command-line interface: seeded, reproducible runs of every simulation.

Each subcommand validates its parameters, runs the exact computation and
(when ``--trials`` is positive) its Monte Carlo counterpart, and emits a
JSON result envelope::

    {"inputs": ..., "results": ..., "diagnostics": ..., "provenance": ...}

Re-running with the same inputs yields a byte-identical envelope at any
thread count.  ``--format csv`` emits the subcommand's curve data instead.
Exit codes: 0 success, 2 invalid parameters or usage, 1 runtime failure,
141 (128 + SIGPIPE) when the reader of the output closes it early.

Every subcommand parameter is declared once, as a :class:`_Param` in that
subcommand's table: the table builds its flag, reads it from ``--config``
and writes it into the ``inputs`` echo, so the echo is a valid config.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
from contextlib import nullcontext
from typing import NamedTuple

from . import __version__, writers
from .qubit import DensityMatrix2, coherence


# A CSV is formatted and written writers.CHUNK_ROWS rows at a time, so its
# memory does not grow with its length.  At 1.1-1.4 us a row, a run at the
# bound takes about 5 s; a longer one is refused before its first row is built.
CSV_MAX_ROWS = 1 << 22

# An iid or memory curve has one row per step, at about 3 us (iid) to 5 us
# (memory) and 100 bytes of JSON each, so a longer curve is refused before
# its first step: at the bound, `memory --exact` takes about 0.35 s and
# 61 MiB, a peak that moves by up to 6 MiB with the glibc heap layout.
CURVE_MAX_STEPS = 1 << 16

# A Monte Carlo run is charged in raw 64-bit draws by its family's
# draw_charge, beside the sampler.  On one thread of a 2-core Xeon VM these
# cost about 8-22 ns a kick (2 kicks a draw, so 2^33 kicks at the bound), 8 ns
# a fixed-horizon search draw, 12-24 ns a wheel round and 39-44 ns a
# dissipative trial, so such a run at the bound takes 35 s to 3 minutes.  An
# adaptive search costs 125-180 ns a charged draw (1,024 trials at n = 20,
# 16,000,000 draws, took 2.0-2.9 s), so 9-13 minutes at the bound.  More is
# refused before the first draw.  A curve's Python cost, 45-75 us per step of
# a block, needs no term of its own: as steps <= CURVE_MAX_STEPS,
# blocks * steps <= 2^17 + 2^16.
MC_MAX_DRAWS = 1 << 32

# A wheel of G games on Z_L has P = G * L (game, rotation) slots; above
# MAX_WHEEL_SLOTS a run is refused before any work.  At the bound a round's
# multiply-shift law is within 2 * P^2 / 2^64 <= 1.2e-7, under the 7.6e-6
# standard error of a 2^32-round run, and the step table takes 8 MiB.
MAX_WHEEL_SLOTS = 1 << 20

# Each worker thread of a Monte Carlo run holds one set of block-sized arrays,
# 3 to 4.5 MiB by family (README), and up to 2 blocks' results waiting to be
# folded; --threads above MAX_THREADS is refused before any thread starts.
MAX_THREADS = 64

# The version of the map from (seed, trajectory, slot) draws to a family's
# random inputs.  Layout 6 takes two 32-bit uniforms from each raw draw: kicks
# 2j and 2j + 1 of an iid or memory trajectory read the high and the low half
# of slot j, and a Box-Muller pair, a dissipative trial's included, reads one
# slot.  README's reproducibility contract gives it and layouts 1 to 5.
STREAM_LAYOUT = 6

def _envelope(inputs: dict, results: dict, diagnostics: dict) -> str:
    return writers.json_text({
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "provenance": {
            "seed": inputs.get("seed"),
            "stream_layout": STREAM_LAYOUT,
            "trials": inputs.get("trials"),
            "version": __version__,
        },
    })


class _Param(NamedTuple):
    """One subcommand parameter: flag ``--key`` (dashed), config key and echo key.

    ``type`` is int, float, str or bool (a flag that sets True); with
    ``many`` the value is a list of ``type``, written on the command line
    as comma-separated text.  A parameter with ``when = (key, value)`` may
    be given, and is echoed, only while parameter ``key`` has that value.
    ``lo``/``hi`` bound an int inclusively.
    """

    key: str
    type: type
    default: object = None
    choices: tuple = ()
    when: tuple | None = None
    many: bool = False
    lo: int | None = None
    hi: int | None = None
    help: str | None = None


_COMMON = (
    _Param("seed", int, 0, lo=0, hi=2**64 - 1, help="master seed (u64)"),
    _Param("trials", int, 0, lo=0, help="Monte Carlo trials"),
)
_STATE = (
    _Param("a0", float, 0.5, help="initial population of |0>"),
    _Param("b0_re", float, 0.5, help="initial coherence, real part"),
    _Param("b0_im", float, 0.0, help="initial coherence, imaginary part"),
)
_EXACT = _Param("exact", bool, False, help="exact route only, no Monte Carlo")


def _coerce(p: _Param, value):
    """``value`` as the parameter's type, refusing any other JSON type."""
    if value is None and p.default is None:
        return None
    if not p.many:
        return _scalar(p, value)
    if isinstance(value, str):
        return [_scalar(p, p.type(x)) for x in value.split(",") if x.strip()]
    if not isinstance(value, list):
        raise TypeError(f"{p.key} must be a list or comma-separated text, got {value!r}")
    return [_scalar(p, x) for x in value]


def _scalar(p: _Param, x):
    if p.type is float and type(x) is int:
        return float(x)
    if type(x) is not p.type:
        raise TypeError(f"{p.key} must be of type {p.type.__name__}, got {x!r}")
    if p.choices and x not in p.choices:
        raise ValueError(f"{p.key} must be one of {p.choices}, got {x!r}")
    if (p.lo is not None and x < p.lo) or (p.hi is not None and x > p.hi):
        raise ValueError(f"{p.key} must lie in [{p.lo}, {p.hi or 'inf'}], got {x!r}")
    return x


def _resolve(command: str, table: tuple, args: argparse.Namespace, config: dict) -> dict:
    """Each parameter from its flag, else the config file, else its default.

    A conditional parameter given while its condition fails is refused,
    unless it comes from the config and a flag switched its condition away.
    """
    unknown = sorted(set(config) - {p.key for p in table} - {"command"})
    if unknown:
        raise ValueError(f"unknown config keys for {command!r}: {', '.join(unknown)}")
    if config.get("command", command) != command:
        raise ValueError(f"config is for {config['command']!r}, not {command!r}")
    values = {}
    for p in table:
        flag = getattr(args, p.key)
        values[p.key] = _coerce(p, flag if flag is not None else config.get(p.key, p.default))
    for p in table:
        if p.when is None or values[p.when[0]] == p.when[1]:
            continue
        from_flag = getattr(args, p.key) is not None
        from_config = p.key in config and getattr(args, p.when[0]) is None
        if from_flag or from_config:
            raise ValueError(f"{p.key} applies only when {p.when[0]} is {p.when[1]!r}")
    return values


def _echo(command: str, table: tuple, values: dict, derived: dict) -> dict:
    """The ``inputs`` block: every parameter in force, then the handler's derived values."""
    inputs = {"command": command}
    for p in table:
        if p.when is None or values[p.when[0]] == p.when[1]:
            inputs[p.key] = values[p.key]
    inputs.update(derived)
    return inputs


def _initial_state(v: dict) -> DensityMatrix2:
    return DensityMatrix2(v["a0"], complex(v["b0_re"], v["b0_im"]), 1.0 - v["a0"])


def _state_entries(rho: DensityMatrix2) -> dict:
    """A state's entries as the envelope prints them."""
    return {"a": rho.a, "b_re": rho.b.real, "b_im": rho.b.imag, "c": rho.c}


def _rates(stats) -> dict:
    """A wheel game's exact win probability and net rate, as fractions and floats."""
    return {
        "win_prob": stats.win_prob,
        "win_prob_float": float(stats.win_prob),
        "net_rate": stats.net_rate,
        "net_rate_float": float(stats.net_rate),
    }


def _mc_diagnostics(exact: list[complex], estimates: list) -> dict:
    """Each curve point's (MC - exact) / stderr, real and imaginary parts; None at stderr 0."""
    diffs = [(b_mc - b, se) for b, (b_mc, se) in zip(exact, estimates)]
    return {"mc": True, "z_re": [d.real / se if se else None for d, se in diffs],
            "z_im": [d.imag / se if se else None for d, se in diffs]}


def _curve(analytic: list[float], estimates: list) -> tuple[list[dict], tuple]:
    """Curve rows n = 0, 1, ... (Monte Carlo where estimated) and their CSV form."""
    curve = [{"n": n, "analytic_coherence": a, "coherence": a} for n, a in enumerate(analytic)]
    for row, (b, se) in zip(curve, estimates):
        row["coherence"], row["mc_stderr"] = abs(b), se
    columns = lambda: (range(len(curve)), map(operator.itemgetter("coherence"), curve), analytic)
    return curve, ("n,coherence,analytic_coherence", "%d,%r,%r", columns)


# Each handler takes the resolved parameters and the thread count and returns
# (values the echo must show instead of the resolved ones, results,
# diagnostics, and the CSV header, row format and a function returning the
# row columns, or None).  The rows are formatted only when the CSV is written.
# A handler imports its family where it starts, so importing the CLI and
# building its parser load no family module and a run loads only its own.


def _limit_draws(draws: int) -> None:
    """Refuse a Monte Carlo run charged more than ``MC_MAX_DRAWS`` draws."""
    if draws > MC_MAX_DRAWS:
        raise ValueError(f"the Monte Carlo run needs {draws} draws; "
                         f"a run is limited to {MC_MAX_DRAWS}")


def _cmd_iid(v: dict, threads: int):
    from . import kicks

    rho0 = _initial_state(v)
    derived = {}
    if v["dist"] == "delta":
        if not v["angles"]:
            raise ValueError("delta mixture needs --angles")
        if v["weights"] is None:
            dist = kicks.DeltaMixture.uniform(v["angles"])
        elif len(v["weights"]) != len(v["angles"]):
            raise ValueError(
                f"--weights has {len(v['weights'])} values but --angles has {len(v['angles'])}"
            )
        else:
            dist = kicks.DeltaMixture(tuple(zip(v["weights"], v["angles"])))
        derived = {"angles": list(dist.angles), "weights": list(dist.weights)}
    elif v["dist"] == "gaussian":
        dist = kicks.GaussianKicks(v["mu"], v["sigma2"])
    else:
        dist = kicks.ExponentialKicks(v["omega"], v["tau1"])

    run_mc = v["trials"] > 0 and not v["exact"]
    if run_mc:
        _limit_draws(kicks.draw_charge(v["steps"], v["trials"]))
    factor = kicks.char_function(dist)
    plan = kicks.EvolutionPlan(v["steps"])
    bs = kicks.evolve_iid(rho0, dist, plan)
    estimates = []
    if run_mc:
        estimates = kicks.evolve_iid_mc(rho0, dist, plan, v["trials"], v["seed"], threads)
    # the curve starts at coherence(rho0), abs(bs[0]) bit for bit, as memory's does
    curve, csv_data = _curve([coherence(rho0), *map(abs, bs[1:])], estimates)

    results = {
        "gamma": factor.gamma,
        "phi": factor.phi,
        "final": {"a": rho0.a, "b_re": bs[-1].real, "b_im": bs[-1].imag, "coherence": abs(bs[-1])},
        "curve": curve,
    }
    return derived, results, _mc_diagnostics(bs, estimates) if run_mc else {"mc": False}, csv_data


def _cmd_memory(v: dict, threads: int):
    from . import memory

    rho0 = _initial_state(v)
    steps = v["steps"]
    kern = memory.kernel(memory.KernelVariant(v["variant"]), v["epsilon"])
    run_mc = v["trials"] > 0 and not v["exact"]
    if run_mc:
        from . import kicks

        _limit_draws(kicks.draw_charge(steps, v["trials"]))
    trace = memory.coherence_recursion(kern, steps)
    estimates, diagnostics = [], {"mc": False}
    if run_mc:
        estimates = memory.evolve_memory_mc(rho0, kern, steps, v["trials"], v["seed"], threads)
        exact = [rho0.b] + [rho0.b * fa.conjugate() for fa, _ in trace.values]
        diagnostics = _mc_diagnostics(exact, estimates)
    c0 = coherence(rho0)
    analytic = [c0] + [c0 * abs(fa) for fa, _ in trace.values]
    curve, csv_data = _curve(analytic, estimates)

    results = {
        "decay_per_step": trace.decay_per_step,
        "final_f0_re": trace.final_a.real,
        "final_f0_im": trace.final_a.imag,
        "final_feps_re": trace.final_b.real,
        "final_feps_im": trace.final_b.imag,
        "curve": curve,
    }
    return {}, results, diagnostics, csv_data


def _cmd_dissipative(v: dict, threads: int):
    from . import dissipative

    rho0 = _initial_state(v)
    p, trials = v["p"], v["trials"]
    scales = dissipative.NoiseScales(v["lambda_ad"], v["lambda_pd"])
    first = dissipative.averaged_channel_first_order(rho0, p, scales)
    times = dissipative.relaxation_times(p, scales, v["tau0"])
    # noiseless: no relaxation to bound, as t1 and t2 are inf
    noiseless = scales.lambda_ad == scales.lambda_pd == 0.0
    p_max = None if noiseless else dissipative.max_mixing_probability(scales)
    results = {
        "first_order": _state_entries(first),
        "p_max": p_max,
        "t1": times.t1,
        "t2": times.t2,
        "t1_over_half_t2": (
            times.t1 / (times.t2 / 2.0)
            if math.isfinite(times.t1) and math.isfinite(times.t2)
            else None
        ),
    }
    diagnostics: dict = {"mc": trials > 0}
    if trials > 0:
        _limit_draws(dissipative.draw_charge(trials))
        mc = dissipative.averaged_channel_mc(rho0, p, scales, trials, v["seed"], threads)
        results["mc"] = _state_entries(mc.rho_avg)
        diagnostics["stderr_pop"] = mc.stderr_pop
        diagnostics["stderr_coh"] = mc.stderr_coh
        diagnostics["clamp_fraction"] = mc.clamp_fraction
    return {}, results, diagnostics, None


def _cmd_parrondo(v: dict, threads: int):
    from . import parrondo

    moduli, rounds = v["moduli"], v["trials"]
    if not moduli:
        raise ValueError("need at least one modulus")
    for L in itertools.accumulate(moduli, math.lcm):  # ends at lcm(moduli), or past the bound
        if len(moduli) * L > MAX_WHEEL_SLOTS:
            raise ValueError(f"a wheel is limited to {MAX_WHEEL_SLOTS} slots (games * lcm(moduli))")
    run_sim = rounds > 0 and not v["exact"]
    if run_sim:
        _limit_draws(parrondo.draw_charge(rounds))
    games = [parrondo.RotationGame(m) for m in moduli]
    combined = parrondo.CombinedGame(tuple(games))
    spectrum = parrondo.spectrum(combined)
    stats = parrondo.exact_rate(combined)
    alone = {g: _rates(parrondo.exact_rate(parrondo.CombinedGame((g,)))) for g in set(games)}
    results = {"games": [{"modulus": g.m, **alone[g]} for g in games], **_rates(stats),
               "support_size": stats.support_size}
    diagnostics = {
        "reducible_warning": not combined.pairwise_coprime(),
        "spectral_gap": spectrum.spectral_gap,
        "power_iteration_residual": spectrum.residual,
    }
    if run_sim:
        sim = parrondo.simulate(combined, rounds, v["seed"], threads)
        results["simulation"] = {
            "rounds": sim.rounds,
            "wins": sim.wins,
            "win_prob": sim.win_prob,
            "net_rate": sim.net_rate,
        }
    columns = lambda: (range(L), itertools.repeat(L),
                       map(parrondo.is_winning, range(L), itertools.repeat(L)))
    return {}, results, diagnostics, ("position,probability,winning", "%d,1/%d,%d", columns)


def _cmd_grover(v: dict, threads: int):
    from . import grover

    config = grover.GameConfig(v["n_qubits"], v["target"])
    best_k = grover.optimal_k(config)
    rule_k = grover.quarter_pi_k(config)
    results = {
        "size": config.size,
        "pure_game_payoff": grover.pure_game_payoff(config),
        "optimal_k": best_k,
        "optimal_success": grover.success_closed_form(best_k, config),
        "quarter_pi_k": rule_k,
        "quarter_pi_success": grover.success_closed_form(rule_k, config),
    }
    diagnostics: dict = {"mc": v["trials"] > 0}

    derived = {}
    if v["strategy"] == "fixed":
        if v["m"] is None:
            raise ValueError("fixed strategy needs --m")
        strategy: grover.Strategy = grover.FixedHorizon(v["m"])
    elif v["strategy"] == "adaptive":
        derived["k_star"] = best_k if v["k_star"] is None else v["k_star"]
        strategy = grover.AdaptiveTracking(derived["k_star"])
    else:
        strategy = grover.FixedHorizon(4 * rule_k)  # the quarter-pi horizon

    if v["trials"] > 0:
        _limit_draws(grover.draw_charge(strategy, v["trials"]))
        outcome = grover.evaluate_strategy(strategy, config, v["trials"], v["seed"], threads)
        results["strategy_eval"] = {
            "win_prob": outcome.win_prob,
            "stderr": outcome.stderr,
            "reduced_length_histogram": outcome.reduced_length_histogram,
        }
        if outcome.stopping_time_histogram is not None:
            results["strategy_eval"]["stopping_time_histogram"] = outcome.stopping_time_histogram
            diagnostics["censored"] = outcome.censored

    ks = range(math.ceil(math.pi * math.sqrt(config.size) / 2.0) + 1)

    def columns():
        if len(ks) > CSV_MAX_ROWS:
            raise ValueError(
                f"the success curve at n_qubits = {config.n_qubits} has {len(ks)} rows; "
                f"CSV output is limited to {CSV_MAX_ROWS} (n_qubits <= 42)"
            )
        return ks, grover.success_curve(ks, config)

    return derived, results, diagnostics, ("k,success_prob", "%d,%r", columns)


# subcommand -> (handler, help, parameter table)
_COMMANDS = {
    "iid": (_cmd_iid, "independent identically distributed phase kicks", (
        *_COMMON,
        _Param("dist", str, "gaussian", choices=("delta", "gaussian", "exponential")),
        _Param("angles", float, many=True, when=("dist", "delta"),
               help="comma-separated angles"),
        _Param("weights", float, many=True, when=("dist", "delta"),
               help="comma-separated weights (default uniform)"),
        _Param("mu", float, 0.0, when=("dist", "gaussian")),
        _Param("sigma2", float, 0.0, when=("dist", "gaussian")),
        _Param("omega", float, 1.0, when=("dist", "exponential")),
        _Param("tau1", float, 1.0, when=("dist", "exponential")),
        _Param("steps", int, 1, lo=0, hi=CURVE_MAX_STEPS),
        *_STATE,
        _EXACT,
    )),
    "memory": (_cmd_memory, "correlated phase kicks over two angle classes", (
        *_COMMON,
        _Param("variant", str, "combined", choices=("pure-a", "pure-b", "combined")),
        _Param("epsilon", float, 1e-3),
        _Param("steps", int, 20, lo=1, hi=CURVE_MAX_STEPS),
        *_STATE,
        _EXACT,
    )),
    "dissipative": (_cmd_dissipative, "damping/dephasing channel with noisy parameters", (
        *_COMMON,
        _Param("p", float, 0.5),
        _Param("lambda_ad", float, 1e-4),
        _Param("lambda_pd", float, 1e-2),
        _Param("tau0", float, 1.0),
        *_STATE,
    )),
    "parrondo": (_cmd_parrondo, "wheel-rotation games and their combination", (
        *_COMMON,
        _Param("moduli", int, "3,7", many=True, help="comma-separated odd moduli"),
        _EXACT,
    )),
    "grover": (_cmd_grover, "random-operator search game", (
        *_COMMON,
        _Param("n_qubits", int, 4),
        _Param("target", int, 0),
        _Param("strategy", str, "quarter-pi", choices=("fixed", "quarter-pi", "adaptive")),
        _Param("m", int, when=("strategy", "fixed"), help="fixed horizon length"),
        _Param("k_star", int, when=("strategy", "adaptive"),
               help="target iterate count (default optimal_k)"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names one."""
    parser = argparse.ArgumentParser(
        prog="noisegames",
        description="Stochastic qubit decoherence and randomness-driven games.",
    )
    # each argument costs argparse a help formatter, so a run declares only
    # the subcommand it invokes; its usage line still lists all five
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    usage = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=usage)
    for name in names:
        help_text, table = _COMMANDS[name][1:]
        p = sub.add_parser(name, help=help_text)
        # run control: never read from a config file and never echoed
        p.add_argument("--threads", type=int, default=None, help="worker threads")
        p.add_argument("--config", type=str, default=None, help="JSON parameter file")
        p.add_argument("--format", dest="format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        for q in table:
            flag = "--" + q.key.replace("_", "-")
            if q.type is bool:
                p.add_argument(flag, dest=q.key, action="store_const", const=True,
                               default=None, help=q.help)
            else:
                p.add_argument(flag, dest=q.key, type=str if q.many else q.type,
                               choices=q.choices or None, default=None, help=q.help)
    return parser


def run(argv: list[str], stdout=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    out_stream = stdout if stdout is not None else sys.stdout
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    handler, _, table = _COMMANDS[args.command]
    try:
        config = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("config file must contain a JSON object")
        threads = 1 if args.threads is None else args.threads
        if not 1 <= threads <= MAX_THREADS:
            raise ValueError(f"threads must be between 1 and {MAX_THREADS}")
        values = _resolve(args.command, table, args, config)
        derived, results, diagnostics, csv = handler(values, threads)
        if args.format == "csv":
            if csv is None:
                raise ValueError(f"no CSV curve defined for {args.command!r}")
            header, fmt, columns = csv
            parts = itertools.chain((header,), writers.row_chunks("\n" + fmt, columns()), ("\n",))
        else:
            parts = (_envelope(_echo(args.command, table, values, derived), results, diagnostics),
                     "\n")
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1

    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(out_stream) as fh:
            fh.writelines(parts)
            fh.flush()
    except BrokenPipeError:  # the reader closed early, as `head` does
        return 141
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    if code == 141:  # stdout's reader is gone: let the exit's flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
