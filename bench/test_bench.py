"""Tests of the benchmark's tracer and reference checks.

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from noisegames import cli, dissipative, grover, kicks, qubit  # noqa: E402


def test_self_times_of_hand_built_tree():
    # id: parent, thread, start, end
    spans = [
        (-1, 0, 0.0, 10.0),  # 0 root
        (0, 0, 1.0, 4.0),  # 1 child
        (1, 0, 2.0, 3.0),  # 2 grandchild
        (0, 0, 5.0, 9.0),  # 3 pool span: children on other threads overlap
        (3, 1, 5.5, 7.0),  # 4 block on thread 1
        (3, 2, 6.0, 8.0),  # 5 block on thread 2, overlapping 4
        (3, 1, 8.5, 8.75),  # 6 block on thread 1, after a gap
    ]
    parent, thread, t0, t1 = (np.array(col) for col in zip(*spans))
    got = tracer.self_times(parent, thread, t0, t1)
    want = [10 - 3 - 4, 3 - 1, 1, 4 - 2.5 - 0.25, 1.5, 2, 0.25]
    np.testing.assert_allclose(got, want)


def test_draws_counted_once_at_outermost_rng_span():
    trials, steps = 1000, 3
    with tracer.Tracer() as tr:
        grover.evaluate_strategy(grover.FixedHorizon(steps), grover.GameConfig(6), trials, 7)
    # One raw slot per letter, per trajectory.
    assert tr.counts()["rng.draws.u64"] == trials * steps

    with tracer.Tracer() as tr:
        kicks.evolve_iid_mc(
            qubit.plus_state(), kicks.GaussianKicks(0.0, 0.5), kicks.EvolutionPlan(steps), trials, 7
        )
    # slot_normal -> slot_uniform_open -> slot_u64 counts 2 slots per normal,
    # once; the estimator also draws the trajectory-0 reference.
    c = tr.counts()
    assert c["rng.draws.normal"] == 2 * steps * (trials + 1)
    assert c["rng.draws.uniform"] == c["rng.draws.u64"] == 0
    assert c["kicks.mc.traj_steps"] == trials * steps


def test_spans_carry_parent_across_pool():
    scales = dissipative.NoiseScales(1e-4, 1e-2)
    with tracer.Tracer() as tr:
        dissipative.averaged_channel_mc(qubit.plus_state(), 0.5, scales, 3 << 16, 1, threads=2)
    spans = tr.spans()
    names = [tr.names[i] for i in spans["name"]]
    blocks = [i for i, n in enumerate(names) if n == "dissipative.mc.block"]
    assert len(blocks) == 3
    pool = {int(spans["parent"][i]) for i in blocks}
    assert [names[p] for p in pool] == ["rng.run_blocks"]
    draws = [i for i, n in enumerate(names) if n == "rng.slot_normal"]
    in_blocks = [i for i in draws if spans["parent"][i] in blocks]
    assert len(in_blocks) == 2 * 3  # two normals per block
    assert tr.counts()["dissipative.mc.samples"] == 3 << 16
    assert tr.counts()["rng.blocks"] == 3


def _traced_run(argvs):
    outputs = []
    with tracer.Tracer() as tr:
        for argv in argvs:
            buf = io.StringIO()
            assert cli.run(argv, stdout=buf) == 0
            outputs.append(buf.getvalue())
    return tr, outputs


def test_traced_runs_repeat_counts_and_bytes():
    argvs = [
        ["iid", "--dist=delta", "--angles=-1,0,1", "--steps=3", "--trials=3000", "--seed=3"],
        ["parrondo", "--moduli=3,7", "--trials=200000", "--threads=2", "--seed=4"],
        ["grover", "--n-qubits=6", "--strategy=adaptive", "--trials=50", "--seed=5"],
    ]
    original = grover.success_closed_form
    first, out1 = _traced_run(argvs)
    second, out2 = _traced_run(argvs)
    assert grover.success_closed_form is original and cli.coherence is qubit.coherence
    m1, m2 = first.layer_metrics(), second.layer_metrics()
    counts = {k: v for k, v in m1.items() if isinstance(v, int)}
    assert counts == {k: v for k, v in m2.items() if isinstance(v, int)}
    assert counts["parrondo.sim.rounds"] == 200000 and counts["rng.draws"] > 0
    assert counts["qubit.calls"] > 0 and counts["grover.closed_form.calls"] > 0

    plain = []
    for argv in argvs:
        buf = io.StringIO()
        cli.run(argv, stdout=buf)
        plain.append(buf.getvalue())
    assert out1 == out2 == plain


def test_reduced_length_law_matches_enumeration():
    m = 9
    law = checks.reduced_length_law(m)
    counts = np.zeros(m + 1)
    for letters in itertools.product("AB", repeat=m):
        # Letters arrive one at a time and act last, so each is prepended.
        counts[len(grover.reduce_word("".join(reversed(letters))))] += 1
    np.testing.assert_allclose(law, counts / 2**m, atol=1e-15)


def test_wheel_variance_and_memory_rate_references():
    # Modulus 3 alone makes every round uniform and independent: p (1 - p).
    assert checks.wheel_asymptotic_variance([3]) == pytest.approx(2 / 9)
    _, rate = checks.memory_transfer(0.0, 50)
    assert rate == pytest.approx(2 / 3, abs=1e-12)
    values, rate = checks.memory_transfer(1e-3, 3000)
    assert values[-1] == 0.0 and rate == pytest.approx(2 / 3, abs=1e-5)


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
