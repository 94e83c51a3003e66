"""The benchmark's workloads: fixed lists of ``noisegames`` CLI invocations.

Each workload is a function of the workload seed.  Monte Carlo invocations
get their own seed, derived from the workload seed and their position in
the list, so the same seed always gives the same inputs.  Why each
workload exists, and which layer it should move, is written in DESIGN.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import checks

Check = Callable[[str, dict], list]


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand, parameters, and the check on its output."""

    command: str
    params: dict
    check: Check
    notes: Callable[[str], list] | None = None

    @property
    def argv(self) -> list[str]:
        out = [self.command]
        for key, value in self.params.items():
            flag = "--" + key.replace("_", "-")
            out.append(flag if value is True else f"{flag}={value}")
        return out

    def with_params(self, **changes) -> "Invocation":
        return Invocation(self.command, {**self.params, **changes}, self.check, self.notes)


@dataclass(frozen=True)
class Workload:
    """Timed invocations, untimed warm-ups, and untimed twin runs.

    ``twins`` maps the index of a timed invocation to a variant whose
    output must be byte-identical to it (the same run at another thread
    count); each twin runs once per benchmark run.
    """

    name: str
    invocations: list[Invocation]
    warmups: list[Invocation]
    twins: dict[int, Invocation] = field(default_factory=dict)


def derive_seed(seed: int, index: int) -> int:
    """Per-invocation CLI seed (u64) from the workload seed."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


CURVE_TRIALS = 100_000
CURVE_STEPS = 20


def curve_mc(seed: int) -> Workload:
    common = {"steps": CURVE_STEPS, "trials": CURVE_TRIALS, "threads": 1}
    runs = [
        Invocation("iid", {"dist": "gaussian", "mu": 0, "sigma2": 0.5, **common}, checks.check_iid),
        Invocation("iid", {"dist": "delta", "angles": "-1.5708,0,1.5708", **common}, checks.check_iid),
        Invocation(
            "memory", {"variant": "combined", "epsilon": 0, **common}, checks.check_memory
        ),
    ]
    runs = [inv.with_params(seed=derive_seed(seed, i)) for i, inv in enumerate(runs)]
    warm = {"steps": 2, "trials": 1000, "threads": 1, "seed": 1}
    warmups = [
        Invocation("iid", {"dist": "gaussian", "mu": 0, "sigma2": 0.5, **warm}, checks.check_iid),
        Invocation("memory", {"variant": "combined", "epsilon": 0, **warm}, checks.check_memory),
    ]
    return Workload("curve-mc", runs, warmups)


def exact(seed: int) -> Workload:
    s = derive_seed(seed, 0)
    runs = [
        Invocation("parrondo", {"moduli": "19,23", "exact": True, "seed": s}, checks.check_parrondo),
        Invocation("grover", {"n_qubits": 37, "trials": 0, "seed": s}, checks.check_grover),
        Invocation(
            "iid",
            {"dist": "exponential", "exact": True, "steps": 3000, "seed": s},
            checks.check_iid,
        ),
        Invocation(
            "memory",
            {"exact": True, "steps": 3000, "seed": s},
            checks.check_memory,
            checks.memory_notes,
        ),
        Invocation(
            "grover", {"n_qubits": 32, "format": "csv", "seed": s}, checks.check_grover
        ),
    ]
    warmups = [
        Invocation("parrondo", {"moduli": "3,7", "exact": True}, checks.check_parrondo),
        Invocation("grover", {"n_qubits": 8, "trials": 0}, checks.check_grover),
        Invocation("iid", {"dist": "exponential", "exact": True, "steps": 3}, checks.check_iid),
        Invocation("memory", {"exact": True, "steps": 3}, checks.check_memory),
    ]
    return Workload("exact", runs, warmups)


def point_mc(seed: int) -> Workload:
    runs = [
        Invocation(
            "dissipative",
            {"p": 0.5, "lambda_ad": 1e-4, "lambda_pd": 1e-2, "trials": 4_000_000},
            checks.check_dissipative,
        ),
        Invocation("parrondo", {"moduli": "3,7", "trials": 10_000_000}, checks.check_parrondo),
        Invocation(
            "grover",
            {"n_qubits": 16, "strategy": "quarter-pi", "trials": 100_000},
            checks.check_grover,
        ),
        Invocation(
            "grover",
            {"n_qubits": 10, "strategy": "adaptive", "trials": 2000},
            checks.check_grover,
        ),
    ]
    runs = [
        inv.with_params(threads=2, seed=derive_seed(seed, i)) for i, inv in enumerate(runs)
    ]
    warm = {"threads": 2, "seed": 1}
    warmups = [
        Invocation(
            "dissipative",
            {"p": 0.5, "lambda_ad": 1e-4, "lambda_pd": 1e-2, "trials": 1000, **warm},
            checks.check_dissipative,
        ),
        Invocation("parrondo", {"moduli": "3,7", "trials": 1000, **warm}, checks.check_parrondo),
        Invocation(
            "grover",
            {"n_qubits": 8, "strategy": "quarter-pi", "trials": 1000, **warm},
            checks.check_grover,
        ),
    ]
    # The block-carry merge in parrondo.simulate is the thread-sensitive path.
    twins = {1: runs[1].with_params(threads=1)}
    return Workload("point-mc", runs, warmups, twins)


WORKLOADS = {"curve-mc": curve_mc, "exact": exact, "point-mc": point_mc}
