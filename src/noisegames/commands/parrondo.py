"""``noisegames parrondo``: wheel-rotation games and their combination."""

from __future__ import annotations

import itertools
import math

from .. import cli, parrondo
from . import _limit_draws


def _rates(stats) -> dict:
    """A wheel game's exact win probability and net rate, as fractions and floats."""
    return {
        "win_prob": stats.win_prob,
        "win_prob_float": float(stats.win_prob),
        "net_rate": stats.net_rate,
        "net_rate_float": float(stats.net_rate),
    }


def run(v: dict, threads: int):
    moduli, rounds = v["moduli"], v["trials"]
    if not moduli:
        raise ValueError("need at least one modulus")
    for L in itertools.accumulate(moduli, math.lcm):  # ends at lcm(moduli), or past the bound
        if len(moduli) * L > cli.MAX_WHEEL_SLOTS:
            raise ValueError(
                f"a wheel is limited to {cli.MAX_WHEEL_SLOTS} slots (games * lcm(moduli))")
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
