"""Command-line interface: seeded, reproducible runs of every simulation.

Each subcommand validates its parameters, runs the exact computation and
(when ``--trials`` is positive) its Monte Carlo counterpart, and emits a
JSON result envelope::

    {"inputs": ..., "results": ..., "diagnostics": ..., "provenance": ...}

Re-running with the same inputs yields a byte-identical envelope at any
thread count.  ``--format csv`` emits the subcommand's curve data instead.
Exit codes: 0 success, 2 invalid parameters or usage, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__, dissipative, grover, kicks, memory, parrondo
from .qubit import DensityMatrix2, coherence

SUBCOMMANDS = ("iid", "memory", "dissipative", "parrondo", "grover")


def _jsonable(value):
    """Deterministic JSON-safe rendering (fractions as 'p/q', inf as 'inf')."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _envelope(inputs: dict, results: dict, diagnostics: dict) -> str:
    env = {
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
        "diagnostics": _jsonable(diagnostics),
        "provenance": {
            "seed": inputs.get("seed"),
            "trials": inputs.get("trials"),
            "version": __version__,
        },
    }
    return json.dumps(env, indent=2, sort_keys=True)


def _csv_lines(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(_jsonable(x)) for x in row))
    return "\n".join(lines)


def _float_list(value) -> list[float]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return [float(p) for p in parts]
    return [float(v) for v in value]


def _int_list(value) -> list[int]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return [int(p) for p in parts]
    return [int(v) for v in value]


class _Resolver:
    """Parameter lookup: explicit flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, name: str, default):
        v = getattr(self.args, name, None)
        if v is not None:
            return v
        if name in self.config:
            return self.config[name]
        return default


def _common(res: _Resolver) -> tuple[int, int, int]:
    seed = int(res.get("seed", 0))
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    trials = int(res.get("trials", 0))
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    threads = int(getattr(res.args, "threads", None) or 1)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return seed, trials, threads


def _initial_state(res: _Resolver) -> DensityMatrix2:
    a0 = float(res.get("a0", 0.5))
    b_re = float(res.get("b0_re", 0.5))
    b_im = float(res.get("b0_im", 0.0))
    return DensityMatrix2(a0, complex(b_re, b_im), 1.0 - a0)


def _curve(analytic: list[float], estimates: list) -> tuple[list[dict], tuple]:
    """Curve rows n = 0, 1, ... (Monte Carlo where estimated) and their CSV form."""
    curve = [{"n": n, "analytic_coherence": a, "coherence": a} for n, a in enumerate(analytic)]
    for row, est in zip(curve, estimates):
        if est is not None:
            row["coherence"], row["mc_stderr"] = coherence(est.rho_est), est.stderr
    rows = [[r["n"], r["coherence"], r["analytic_coherence"]] for r in curve]
    return curve, (["n", "coherence", "analytic_coherence"], rows)


def _cmd_iid(res: _Resolver):
    seed, trials, threads = _common(res)
    dist_name = str(res.get("dist", "gaussian"))
    steps = int(res.get("steps", 1))
    tau0 = float(res.get("tau0", 1.0))
    exact_only = bool(res.get("exact", False))
    rho0 = _initial_state(res)

    inputs = {
        "command": "iid",
        "seed": seed,
        "trials": trials,
        "dist": dist_name,
        "steps": steps,
        "tau0": tau0,
        "exact": exact_only,
        "a0": rho0.a,
        "b0_re": rho0.b.real,
        "b0_im": rho0.b.imag,
    }
    if dist_name == "delta":
        angles = _float_list(res.get("angles", ""))
        if not angles:
            raise ValueError("delta mixture needs --angles")
        weights = res.get("weights", None)
        if weights is None:
            dist = kicks.DeltaMixture.uniform(angles)
        else:
            weights = _float_list(weights)
            dist = kicks.DeltaMixture(tuple(zip(weights, angles)))
        inputs["angles"] = list(dist.angles)
        inputs["weights"] = list(dist.weights)
    elif dist_name == "gaussian":
        mu = float(res.get("mu", 0.0))
        sigma2 = float(res.get("sigma2", 0.0))
        dist = kicks.GaussianKicks(mu, sigma2)
        inputs["mu"], inputs["sigma2"] = mu, sigma2
    elif dist_name == "exponential":
        omega = float(res.get("omega", 1.0))
        tau1 = float(res.get("tau1", 1.0))
        dist = kicks.ExponentialKicks(omega, tau1)
        inputs["omega"], inputs["tau1"] = omega, tau1
    else:
        raise ValueError(f"unknown distribution {dist_name!r}")

    factor = kicks.char_function(dist)
    run_mc = trials > 0 and not exact_only
    plan = kicks.EvolutionPlan(steps, tau0)
    # evolve_iid applies its factor step by step, so state k is its k-step result
    states = [rho0]
    for _ in range(steps):
        states.append(kicks.evolve_iid(states[-1], dist, kicks.EvolutionPlan(1, tau0)))
    estimates = []
    if run_mc:
        estimates = kicks.evolve_iid_mc_curve(rho0, dist, plan, trials, seed, threads)
    curve, csv_data = _curve([coherence(s) for s in states], estimates)

    final = states[-1]
    results = {
        "gamma": factor.gamma,
        "phi": factor.phi,
        "final": {"a": final.a, "b_re": final.b.real, "b_im": final.b.imag,
                  "coherence": coherence(final)},
        "curve": curve,
    }
    return inputs, results, {"mc": run_mc}, csv_data


def _cmd_memory(res: _Resolver):
    seed, trials, threads = _common(res)
    variant_name = str(res.get("variant", "combined"))
    epsilon = float(res.get("epsilon", 1e-3))
    steps = int(res.get("steps", 20))
    exact_only = bool(res.get("exact", False))
    rho0 = _initial_state(res)
    try:
        variant = memory.KernelVariant(variant_name)
    except ValueError:
        raise ValueError(f"unknown kernel variant {variant_name!r}") from None
    if steps < 1:
        raise ValueError("steps must be >= 1")
    kern = memory.kernel(variant, epsilon)

    inputs = {
        "command": "memory",
        "seed": seed,
        "trials": trials,
        "variant": variant.value,
        "epsilon": epsilon,
        "steps": steps,
        "exact": exact_only,
        "a0": rho0.a,
        "b0_re": rho0.b.real,
        "b0_im": rho0.b.imag,
    }

    trace = memory.coherence_recursion(kern, steps)
    run_mc = trials > 0 and not exact_only
    estimates = []
    if run_mc:
        # n = 0 is the initial state, reported without a Monte Carlo error
        estimates = memory.evolve_memory_mc_curve(rho0, kern, steps, trials, seed, threads)
        estimates[0] = None
    analytic = [coherence(rho0)] + [coherence(rho0) * abs(fa) for fa, _ in trace.values]
    curve, csv_data = _curve(analytic, estimates)

    results = {
        "decay_per_step": memory.effective_decay(kern, steps) if steps >= 2 else None,
        "final_f0_re": trace.final_a.real,
        "final_f0_im": trace.final_a.imag,
        "final_feps_re": trace.final_b.real,
        "final_feps_im": trace.final_b.imag,
        "curve": curve,
    }
    return inputs, results, {"mc": run_mc}, csv_data


def _cmd_dissipative(res: _Resolver):
    seed, trials, threads = _common(res)
    p = float(res.get("p", 0.5))
    lambda_ad = float(res.get("lambda_ad", 1e-4))
    lambda_pd = float(res.get("lambda_pd", 1e-2))
    tau0 = float(res.get("tau0", 1.0))
    rho0 = _initial_state(res)
    scales = dissipative.NoiseScales(lambda_ad, lambda_pd)

    inputs = {
        "command": "dissipative",
        "seed": seed,
        "trials": trials,
        "p": p,
        "lambda_ad": lambda_ad,
        "lambda_pd": lambda_pd,
        "tau0": tau0,
        "a0": rho0.a,
        "b0_re": rho0.b.real,
        "b0_im": rho0.b.imag,
    }

    first = dissipative.averaged_channel_first_order(rho0, p, scales)
    times = dissipative.relaxation_times(p, scales, tau0)
    p_max = dissipative.max_mixing_probability(scales)
    results = {
        "first_order": {
            "a": first.a, "b_re": first.b.real, "b_im": first.b.imag, "c": first.c,
        },
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
        mc = dissipative.averaged_channel_mc(rho0, p, scales, trials, seed, threads)
        results["mc"] = {
            "a": mc.rho_avg.a,
            "b_re": mc.rho_avg.b.real,
            "b_im": mc.rho_avg.b.imag,
            "c": mc.rho_avg.c,
        }
        diagnostics["stderr_pop"] = mc.stderr_pop
        diagnostics["stderr_coh"] = mc.stderr_coh
        diagnostics["clamp_fraction"] = mc.clamp_fraction
    return inputs, results, diagnostics, None


def _cmd_parrondo(res: _Resolver):
    seed, trials, threads = _common(res)
    moduli = _int_list(res.get("moduli", "3,7"))
    if not moduli:
        raise ValueError("need at least one modulus")
    exact_only = bool(res.get("exact", False))
    games = [parrondo.RotationGame(m) for m in moduli]
    combined = parrondo.CombinedGame(tuple(games))

    inputs = {
        "command": "parrondo",
        "seed": seed,
        "trials": trials,
        "moduli": moduli,
        "exact": exact_only,
    }

    stationary = parrondo.stationary_distribution(combined)
    stats = parrondo.GameStats.from_stationary(stationary)
    per_game = []
    for g in games:
        s = parrondo.exact_rate(parrondo.CombinedGame((g,)))
        per_game.append(
            {
                "modulus": g.m,
                "win_prob": s.win_prob,
                "win_prob_float": float(s.win_prob),
                "net_rate": s.net_rate,
                "net_rate_float": float(s.net_rate),
            }
        )
    results = {
        "games": per_game,
        "win_prob": stats.win_prob,
        "win_prob_float": float(stats.win_prob),
        "net_rate": stats.net_rate,
        "net_rate_float": float(stats.net_rate),
        "support_size": stats.support_size,
    }
    diagnostics = {
        "reducible_warning": stationary.reducible_warning,
        "power_iteration_residual": stationary.power_iteration_residual,
    }
    if trials > 0 and not exact_only:
        sim = parrondo.simulate(combined, trials, seed, threads)
        results["simulation"] = {
            "rounds": sim.rounds,
            "wins": sim.wins,
            "win_prob": sim.win_prob,
            "net_rate": sim.net_rate,
        }
    L = combined.modulus
    rows = [
        [k, stationary.weights[k], int(parrondo.is_winning(parrondo.WheelPosition(k, L)))]
        for k in range(L)
    ]
    return inputs, results, diagnostics, (["position", "probability", "winning"], rows)


def _cmd_grover(res: _Resolver):
    seed, trials, threads = _common(res)
    n_qubits = int(res.get("n_qubits", 4))
    target = int(res.get("target", 0))
    strategy_name = str(res.get("strategy", "quarter-pi"))
    config = grover.GameConfig(n_qubits, target)

    inputs = {
        "command": "grover",
        "seed": seed,
        "trials": trials,
        "n_qubits": n_qubits,
        "target": target,
        "strategy": strategy_name,
    }

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
    diagnostics: dict = {"mc": trials > 0}

    if strategy_name == "fixed":
        m = res.get("m", None)
        if m is None:
            raise ValueError("fixed strategy needs --m")
        strategy: grover.Strategy = grover.FixedHorizon(int(m))
        inputs["m"] = int(m)
    elif strategy_name == "quarter-pi":
        strategy = grover.QuarterPiHorizon()
    elif strategy_name == "adaptive":
        k_star = res.get("k_star", None)
        k_star = best_k if k_star is None else int(k_star)
        strategy = grover.AdaptiveTracking(k_star)
        inputs["k_star"] = k_star
    else:
        raise ValueError(f"unknown strategy {strategy_name!r}")

    if trials > 0:
        outcome = grover.evaluate_strategy(strategy, config, trials, seed, threads)
        results["strategy_eval"] = {
            "win_prob": outcome.win_prob,
            "stderr": outcome.stderr,
            "reduced_length_histogram": {
                str(k): v for k, v in sorted(outcome.reduced_length_histogram.items())
            },
        }
        if outcome.stopping_time_histogram is not None:
            results["strategy_eval"]["stopping_time_histogram"] = {
                str(k): v for k, v in sorted(outcome.stopping_time_histogram.items())
            }
            diagnostics["censored"] = outcome.censored

    k_max = math.ceil(math.pi * math.sqrt(config.size) / 2.0)
    rows = [[k, grover.success_closed_form(k, config)] for k in range(k_max + 1)]
    return inputs, results, diagnostics, (["k", "success_prob"], rows)


_HANDLERS = {
    "iid": _cmd_iid,
    "memory": _cmd_memory,
    "dissipative": _cmd_dissipative,
    "parrondo": _cmd_parrondo,
    "grover": _cmd_grover,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisegames",
        description="Stochastic qubit decoherence and randomness-driven games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="master seed (u64)")
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
        p.add_argument("--config", type=str, default=None, help="JSON parameter file")
        p.add_argument("--format", dest="format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    p = sub.add_parser("iid", help="independent identically distributed phase kicks")
    add_common(p)
    p.add_argument("--dist", choices=("delta", "gaussian", "exponential"), default=None)
    p.add_argument("--angles", type=str, default=None, help="comma-separated angles")
    p.add_argument("--weights", type=str, default=None, help="comma-separated weights")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--tau1", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--tau0", type=float, default=None)
    p.add_argument("--a0", type=float, default=None)
    p.add_argument("--b0-re", dest="b0_re", type=float, default=None)
    p.add_argument("--b0-im", dest="b0_im", type=float, default=None)
    p.add_argument("--exact", action="store_const", const=True, default=None)

    p = sub.add_parser("memory", help="correlated phase kicks over two angle classes")
    add_common(p)
    p.add_argument("--variant", choices=("pure-a", "pure-b", "combined"), default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--a0", type=float, default=None)
    p.add_argument("--b0-re", dest="b0_re", type=float, default=None)
    p.add_argument("--b0-im", dest="b0_im", type=float, default=None)
    p.add_argument("--exact", action="store_const", const=True, default=None)

    p = sub.add_parser("dissipative", help="damping/dephasing channel with noisy parameters")
    add_common(p)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--lambda-ad", dest="lambda_ad", type=float, default=None)
    p.add_argument("--lambda-pd", dest="lambda_pd", type=float, default=None)
    p.add_argument("--tau0", type=float, default=None)
    p.add_argument("--a0", type=float, default=None)
    p.add_argument("--b0-re", dest="b0_re", type=float, default=None)
    p.add_argument("--b0-im", dest="b0_im", type=float, default=None)

    p = sub.add_parser("parrondo", help="wheel-rotation games and their combination")
    add_common(p)
    p.add_argument("--moduli", type=str, default=None, help="comma-separated odd moduli")
    p.add_argument("--exact", action="store_const", const=True, default=None)

    p = sub.add_parser("grover", help="random-operator search game")
    add_common(p)
    p.add_argument("--n-qubits", dest="n_qubits", type=int, default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--strategy", choices=("fixed", "quarter-pi", "adaptive"), default=None)
    p.add_argument("--m", type=int, default=None, help="fixed horizon length")
    p.add_argument("--k-star", dest="k_star", type=int, default=None)

    return parser


def run(argv: list[str], stdout=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    out_stream = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("config file must contain a JSON object")
        res = _Resolver(args, config)
        inputs, results, diagnostics, csv_data = _HANDLERS[args.command](res)
        if args.format == "csv":
            if csv_data is None:
                raise ValueError(f"no CSV curve defined for {args.command!r}")
            text = _csv_lines(*csv_data)
        else:
            text = _envelope(inputs, results, diagnostics)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return 1
    else:
        print(text, file=out_stream)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
