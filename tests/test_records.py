"""The package's records: read-only, equal and hashed by value, and checked when built.

Every record is a named tuple.  One that checks or coerces its fields does
so in ``__new__``, and builds on ``qubit.checked``, whose ``_make`` (and so
``_replace``) goes through ``__new__``: no record exists that its checks
would refuse.
"""

import math
import re

import pytest

import noisegames
from noisegames import dissipative, grover, kicks, memory, parrondo, qubit
from noisegames.dissipative import AveragedChannelResult, NoiseScales, RelaxationTimes
from noisegames.grover import AdaptiveTracking, FixedHorizon, GameConfig, StrategyOutcome
from noisegames.kicks import (
    DecayFactor,
    DeltaMixture,
    EvolutionPlan,
    ExponentialKicks,
    GaussianKicks,
)
from noisegames.memory import CoherenceTrace, KernelBranch, KernelVariant, SetLabel
from noisegames.parrondo import CombinedGame, GameStats, RotationGame, SimulatedStats, Spectrum
from noisegames.qubit import DensityMatrix2

# A call that builds each record; called twice, it gives two records of
# equal fields.
_SAMPLES = {
    DensityMatrix2: lambda: DensityMatrix2(0.5, 0.5, 0.5),
    NoiseScales: lambda: NoiseScales(1e-4, 1e-2),
    AveragedChannelResult: lambda: AveragedChannelResult(DensityMatrix2(1, 0, 0), 0.1, 0.2, 0.0),
    RelaxationTimes: lambda: RelaxationTimes(2.0, math.inf),
    GameConfig: lambda: GameConfig(4, 3),
    FixedHorizon: lambda: FixedHorizon(9),
    AdaptiveTracking: lambda: AdaptiveTracking(25),
    StrategyOutcome: lambda: StrategyOutcome(0.5, 0.01, {0: 3, 2: 4}, {4: 7}, 1),
    DeltaMixture: lambda: DeltaMixture(((0.25, -1.0), (0.75, 2.0))),
    ExponentialKicks: lambda: ExponentialKicks(2, 0.5),
    GaussianKicks: lambda: GaussianKicks(0.3, 1),
    DecayFactor: lambda: DecayFactor(1, 0.25),
    EvolutionPlan: lambda: EvolutionPlan(12),
    KernelBranch: lambda: KernelBranch(0.5, 0.001, SetLabel.SET_B),
    memory.MemoryKernel: lambda: memory.kernel(KernelVariant.COMBINED, 1e-3),
    CoherenceTrace: lambda: CoherenceTrace(((0.5 + 0.5j, 0.25j),), None),
    RotationGame: lambda: RotationGame(7),
    CombinedGame: lambda: CombinedGame([RotationGame(3), RotationGame(7)]),
    Spectrum: lambda: parrondo.spectrum(CombinedGame((RotationGame(3), RotationGame(7)))),
    GameStats: lambda: parrondo.exact_rate(CombinedGame((RotationGame(3),))),
    SimulatedStats: lambda: SimulatedStats(3, 8),
}

_MODULES = (dissipative, grover, kicks, memory, parrondo, qubit)


def _records():
    """Every class defined by a family module or ``qubit`` that is a tuple."""
    return {
        value
        for module in _MODULES
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == module.__name__
    }


def test_every_record_has_a_sample():
    assert _records() == set(_SAMPLES)
    exported = {v for v in (getattr(noisegames, name) for name in noisegames.__all__)
                if isinstance(v, type) and issubclass(v, tuple)}
    assert len(exported) == 18 and exported <= set(_SAMPLES)


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    record = _SAMPLES[cls]()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records(cls):
    a, b = _SAMPLES[cls](), _SAMPLES[cls]()
    assert a is not b and a == b and not a != b
    assert type(a) is cls
    try:
        hash(a)
    except TypeError:  # a dict field, as in StrategyOutcome and Spectrum
        assert any(isinstance(v, dict) for v in a)
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda cls: cls.__name__)
def test_repr_names_each_field(cls):
    record = _SAMPLES[cls]()
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_constructors_coerce_their_fields():
    assert DensityMatrix2(1, 0, 0) == (1.0, 0j, 0.0)
    assert [type(v) for v in DensityMatrix2(1, 0, 0)] == [float, complex, float]
    assert [type(v) for v in NoiseScales(0, 1)] == [float, float]
    assert [type(v) for v in GameConfig(4.0, 3.0)] == [int, int]
    assert type(FixedHorizon(9.0).m) is int and type(AdaptiveTracking(2.0).k_star) is int
    assert DeltaMixture([[1, 0], (0, 2)]).pairs == ((1.0, 0.0),)  # weight 0 is dropped
    assert [type(v) for v in ExponentialKicks(2, 1)] == [float, float]
    assert [type(v) for v in GaussianKicks(0, 1)] == [float, float]
    assert type(EvolutionPlan(3.0).steps) is int
    assert type(RotationGame(7.0).m) is int
    assert CombinedGame(g for g in [RotationGame(3)]).games == (RotationGame(3),)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DensityMatrix2(_NAN, 0, 0.5), "density matrix entries must be finite"),
        (lambda: DensityMatrix2(0.5, 1j * _INF, 0.5), "density matrix entries must be finite"),
        (lambda: DensityMatrix2(0.6, 0, 0.6), "trace must be 1 (got 1.2)"),
        (lambda: DensityMatrix2(1.5, 0, -0.5), "populations must be nonnegative"),
        (lambda: DensityMatrix2(0.5, 0.6, 0.5), "positivity violated: |b|^2 > a*c"),
        (lambda: NoiseScales(-1, 0), "noise scales must be finite and nonnegative"),
        (lambda: NoiseScales(0, _INF), "noise scales must be finite and nonnegative"),
        (lambda: GameConfig(0), "n_qubits must lie in [1, 60]"),
        (lambda: GameConfig(2.5), "n_qubits must lie in [1, 60]"),
        (lambda: GameConfig(61), "n_qubits must lie in [1, 60]"),
        (lambda: GameConfig(4, 16), "target must lie in [0, 2^n - 1]"),
        (lambda: GameConfig(4, -1), "target must lie in [0, 2^n - 1]"),
        (lambda: FixedHorizon(-1), "horizon must be a nonnegative integer"),
        (lambda: FixedHorizon(1.5), "horizon must be a nonnegative integer"),
        (lambda: AdaptiveTracking(-1), "k_star must be a nonnegative integer"),
        (lambda: AdaptiveTracking(0.5), "k_star must be a nonnegative integer"),
        (lambda: DeltaMixture(((1.0, _NAN),)), "weights and angles must be finite"),
        (lambda: DeltaMixture(((-0.5, 0.0), (1.5, 1.0))), "weights must be nonnegative"),
        (lambda: DeltaMixture(((0.0, 0.0),)), "mixture needs at least one weighted angle"),
        (lambda: DeltaMixture(((0.5, 0.0), (0.6, 1.0))), "weights must sum to 1 within 1e-12"),
        (lambda: ExponentialKicks(0, 1), "omega * tau1 must be finite and positive"),
        (lambda: ExponentialKicks(1e200, 1e200), "omega * tau1 must be finite and positive"),
        (lambda: GaussianKicks(_INF, 0), "mu and sigma2 must be finite"),
        (lambda: GaussianKicks(0, -1), "sigma2 must be nonnegative"),
        (lambda: EvolutionPlan(-1), "steps must be a nonnegative integer"),
        (lambda: EvolutionPlan(2.5), "steps must be a nonnegative integer"),
        (lambda: RotationGame(2.5), "modulus must be an integer"),
        (lambda: RotationGame(4), "modulus must be odd and positive"),
        (lambda: RotationGame(-3), "modulus must be odd and positive"),
        (lambda: CombinedGame(()), "need at least one game"),
    ],
)
def test_checking_records_refuse_bad_fields(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


# Per checking record: fields its checks refuse, the message, and a field to
# replace with a refused value.
_REFUSED = {
    DensityMatrix2: ((2.0, 5j, -1.0), "populations must be nonnegative", {"b": 0.6}),
    NoiseScales: ((-1.0, 0.0), "noise scales must be finite and nonnegative", {"lambda_pd": _INF}),
    GameConfig: ((0, 99), "n_qubits must lie in [1, 60]", {"n_qubits": 61}),
    FixedHorizon: ((-1,), "horizon must be a nonnegative integer", {"m": -1}),
    AdaptiveTracking: ((0.5,), "k_star must be a nonnegative integer", {"k_star": -1}),
    DeltaMixture: ((((0.5, 0.0), (0.6, 1.0)),), "weights must sum to 1 within 1e-12",
                   {"pairs": ((0.0, 0.0),)}),
    ExponentialKicks: ((0.0, 1.0), "omega * tau1 must be finite and positive", {"tau1": -1.0}),
    GaussianKicks: ((0.0, -1.0), "sigma2 must be nonnegative", {"mu": _NAN}),
    EvolutionPlan: ((2.5,), "steps must be a nonnegative integer", {"steps": -1}),
    RotationGame: ((4,), "modulus must be odd and positive", {"m": 2.5}),
    CombinedGame: (((),), "need at least one game", {"games": []}),
}


def test_every_checking_record_is_refused_below():
    # a record checks its fields exactly when it subclasses its named-tuple base
    assert {cls for cls in _records() if cls.__bases__ != (tuple,)} == set(_REFUSED)


@pytest.mark.parametrize("cls", list(_REFUSED), ids=lambda cls: cls.__name__)
def test_make_and_replace_run_the_checks(cls):
    fields, message, replaced = _REFUSED[cls]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        cls._make(fields)
    with pytest.raises(ValueError):
        _SAMPLES[cls]()._replace(**replaced)
    sample = _SAMPLES[cls]()
    assert cls._make(sample) == sample and type(cls._make(sample)) is cls
    assert sample._replace() == sample
