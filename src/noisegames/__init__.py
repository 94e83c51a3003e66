"""Stochastic qubit decoherence and randomness-driven games.

Exact/analytic computations (characteristic functions, two-class kick
recursions, rational Markov-chain rates, closed-form search success) are
paired throughout with seeded, bit-reproducible Monte Carlo counterparts.
Only the Monte Carlo routes use numpy: the family modules import it, and
the numpy modules ``rng`` and ``montecarlo``, inside the functions that
draw, so importing the package or the CLI loads none of them.  When
numpy is already loaded, the package binds ``rng`` and ``montecarlo`` at
import, as it did when every family imported them, so code that walks the
package's layers finds them all.
"""

import sys

from .dissipative import (
    AveragedChannelResult,
    NoiseScales,
    RelaxationTimes,
    averaged_channel_first_order,
    averaged_channel_mc,
    max_mixing_probability,
    relaxation_times,
)
from .grover import (
    AdaptiveTracking,
    FixedHorizon,
    GameConfig,
    StrategyOutcome,
    evaluate_strategy,
    fixed_horizon_length_law,
    fixed_horizon_win_prob,
    optimal_k,
    pure_game_payoff,
    quarter_pi_k,
    reduce_word,
    success_closed_form,
)
from .kicks import (
    DecayFactor,
    DeltaMixture,
    EvolutionPlan,
    ExponentialKicks,
    GaussianKicks,
    char_function,
    evolve_iid,
    evolve_iid_mc,
)
from .memory import (
    CoherenceTrace,
    KernelVariant,
    MemoryKernel,
    SetLabel,
    coherence_recursion,
    evolve_memory_mc,
    kernel,
)
from .parrondo import (
    CombinedGame,
    GameStats,
    RotationGame,
    exact_rate,
    is_winning,
    simulate,
    spectrum,
)
from .qubit import DensityMatrix2, coherence, plus_state

if "numpy" in sys.modules:  # then the two modules cost only their own bodies
    from . import montecarlo, rng

__version__ = "0.1.0"
