"""``noisegames grover``: random-operator search game."""

from __future__ import annotations

import math

from .. import cli, grover
from . import _limit_draws


def run(v: dict, threads: int):
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
        if len(ks) > cli.CSV_MAX_ROWS:
            raise ValueError(
                f"the success curve at n_qubits = {config.n_qubits} has {len(ks)} rows; "
                f"CSV output is limited to {cli.CSV_MAX_ROWS} (n_qubits <= 42)"
            )
        return ks, grover.success_curve(ks, config)

    return derived, results, diagnostics, ("k,success_prob", "%d,%r", columns)
