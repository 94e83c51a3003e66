"""``noisegames dissipative``: damping/dephasing channel with noisy parameters."""

from __future__ import annotations

import math

from .. import dissipative
from ..qubit import DensityMatrix2
from . import _initial_state, _limit_draws


def _state_entries(rho: DensityMatrix2) -> dict:
    """A state's entries as the envelope prints them."""
    return {"a": rho.a, "b_re": rho.b.real, "b_im": rho.b.imag, "c": rho.c}


def run(v: dict, threads: int):
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
