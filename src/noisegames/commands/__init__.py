"""The subcommands' handlers, one module each, and the helpers they share.

Each handler is ``run(v, threads)`` in ``noisegames.commands.<name>``: it
takes the resolved parameters and the thread count and returns (values the
echo must show instead of the resolved ones, results, diagnostics, and the
CSV header, row format and a function returning the row columns, or None).
The rows are formatted only when the CSV is written.  ``cli.run`` imports
only the module of the subcommand it runs, and that module imports its
family, so importing the CLI and building its parser load no handler and no
family module, and a run loads only its own.
"""

from __future__ import annotations

import operator

from .. import cli
from ..qubit import DensityMatrix2


def _initial_state(v: dict) -> DensityMatrix2:
    return DensityMatrix2(v["a0"], complex(v["b0_re"], v["b0_im"]), 1.0 - v["a0"])


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


def _limit_draws(draws: int) -> None:
    """Refuse a Monte Carlo run charged more than ``cli.MC_MAX_DRAWS`` draws."""
    if draws > cli.MC_MAX_DRAWS:
        raise ValueError(f"the Monte Carlo run needs {draws} draws; "
                         f"a run is limited to {cli.MC_MAX_DRAWS}")
