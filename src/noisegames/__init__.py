"""Stochastic qubit decoherence and randomness-driven games.

Exact/analytic computations (characteristic functions, two-class kick
recursions, rational Markov-chain rates, closed-form search success) are
paired throughout with seeded, bit-reproducible Monte Carlo counterparts.

Each export loads its module on first access: ``_EXPORTS`` maps every
exported name to its module, and the module ``__getattr__`` (PEP 562)
imports that module and binds the name here.  So importing the package or
the CLI loads no family module (``kicks``, ``memory``, ``dissipative``,
``parrondo``, ``grover``), no ``qubit`` and no subcommand handler, and a
CLI run loads only its own family and its own command module,
``noisegames.commands.<subcommand>``.  Only the Monte Carlo routes use
numpy: the families import it, and the numpy modules ``rng`` and
``montecarlo``, inside the functions that draw.  When numpy is already
loaded, the package imports every family, ``montecarlo`` and ``rng`` and
binds every export at import, so code that walks the package's layers
finds them all.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "dissipative": "AveragedChannelResult NoiseScales RelaxationTimes averaged_channel_first_order"
                   " averaged_channel_mc max_mixing_probability relaxation_times",
    "grover": "AdaptiveTracking FixedHorizon GameConfig StrategyOutcome evaluate_strategy"
              " fixed_horizon_length_law fixed_horizon_win_prob optimal_k pure_game_payoff"
              " quarter_pi_k reduce_word success_closed_form",
    "kicks": "DecayFactor DeltaMixture EvolutionPlan ExponentialKicks GaussianKicks"
             " char_function evolve_iid evolve_iid_mc",
    "memory": "CoherenceTrace KernelVariant MemoryKernel SetLabel coherence_recursion"
              " evolve_memory_mc kernel",
    "parrondo": "CombinedGame GameStats RotationGame exact_rate is_winning simulate spectrum",
    "qubit": "DensityMatrix2 coherence plus_state",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


if "numpy" in sys.modules:  # then the drawing modules cost only their own bodies
    from . import dissipative, grover, kicks, memory, parrondo, qubit, montecarlo, rng

    for _name in _EXPORTS:
        __getattr__(_name)
    del _name
