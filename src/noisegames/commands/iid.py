"""``noisegames iid``: independent identically distributed phase kicks."""

from __future__ import annotations

from .. import kicks, qubit
from . import _curve, _initial_state, _limit_draws, _mc_diagnostics


def run(v: dict, threads: int):
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
    curve, csv_data = _curve([qubit.coherence(rho0), *map(abs, bs[1:])], estimates)

    results = {
        "gamma": factor.gamma,
        "phi": factor.phi,
        "final": {"a": rho0.a, "b_re": bs[-1].real, "b_im": bs[-1].imag, "coherence": abs(bs[-1])},
        "curve": curve,
    }
    return derived, results, _mc_diagnostics(bs, estimates) if run_mc else {"mc": False}, csv_data
