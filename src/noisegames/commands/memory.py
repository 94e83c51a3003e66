"""``noisegames memory``: correlated phase kicks over two angle classes."""

from __future__ import annotations

from .. import memory, qubit
from . import _curve, _initial_state, _limit_draws, _mc_diagnostics


def run(v: dict, threads: int):
    rho0 = _initial_state(v)
    steps = v["steps"]
    kern = memory.kernel(memory.KernelVariant(v["variant"]), v["epsilon"])
    run_mc = v["trials"] > 0 and not v["exact"]
    if run_mc:
        from .. import kicks

        _limit_draws(kicks.draw_charge(steps, v["trials"]))
    trace = memory.coherence_recursion(kern, steps)
    estimates, diagnostics = [], {"mc": False}
    if run_mc:
        estimates = memory.evolve_memory_mc(rho0, kern, steps, v["trials"], v["seed"], threads)
        exact = [rho0.b] + [rho0.b * fa.conjugate() for fa, _ in trace.values]
        diagnostics = _mc_diagnostics(exact, estimates)
    c0 = qubit.coherence(rho0)
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
