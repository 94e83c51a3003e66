"""Correctness checks on ``noisegames`` CLI output.

Each check takes the text one invocation printed and returns a list of
problems (empty when the output is correct).  The references are computed
here from first principles -- closed forms, a 2x2 transfer matrix, an
exact dynamic program over the reduced-word length, the fundamental matrix
of the wheel chain -- and share no code with the package.  Checks run
outside the timed region.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np

Z_MC = 5.0  # Monte Carlo tolerance, in standard errors


def _envelope(text: str) -> dict:
    return json.loads(text)


def _close(x: float, y: float, rel: float, floor: float = 1e-300) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + floor


def _grover_theta(n_qubits: int) -> float:
    return math.asin(1.0 / math.sqrt(2.0**n_qubits))


def grover_success(k: int, n_qubits: int) -> float:
    """sin^2((2k+1) theta): success after k composed iterates."""
    return math.sin((2 * k + 1) * _grover_theta(n_qubits)) ** 2


def _check_grover_header(res: dict, n_qubits: int) -> list[str]:
    problems = []
    k = res["optimal_k"]
    best = res["optimal_success"]
    for kk in (k - 1, k + 1):
        if kk >= 0 and grover_success(kk, n_qubits) > best:
            problems.append(f"optimal_success {best!r} below closed form at k={kk}")
    if not _close(best, grover_success(k, n_qubits), 1e-12):
        problems.append("optimal_success disagrees with the closed form")
    rule_k = math.ceil(math.pi * math.sqrt(2.0**n_qubits) / 4.0)
    if res["quarter_pi_k"] != rule_k:
        problems.append(f"quarter_pi_k {res['quarter_pi_k']} != {rule_k}")
    if res["size"] != 2**n_qubits or res["pure_game_payoff"] != 1.0 / 2**n_qubits:
        problems.append("size or pure_game_payoff wrong")
    return problems


def _check_mc_curve(curve: list[dict], steps: int) -> list[str]:
    """Every Monte Carlo point within Z_MC standard errors of the exact one."""
    problems = []
    if [row["n"] for row in curve] != list(range(steps + 1)):
        return [f"curve does not cover n = 0..{steps}"]
    for row in curve:
        if "mc_stderr" not in row:
            continue
        err = abs(row["coherence"] - row["analytic_coherence"])
        if err > Z_MC * row["mc_stderr"] + 1e-12:
            problems.append(
                f"n={row['n']}: MC {row['coherence']!r} is "
                f"{err / max(row['mc_stderr'], 1e-300):.1f} stderr from "
                f"{row['analytic_coherence']!r}"
            )
    return problems


def _check_geometric_curve(curve: list[dict], c0: float, factor: float) -> list[str]:
    """Exact coherence is c0 * factor^n (sequential products, so rel 1e-9)."""
    value = c0
    for row in curve:
        if not _close(row["analytic_coherence"], value, 1e-9):
            return [f"n={row['n']}: analytic {row['analytic_coherence']!r} != {value!r}"]
        value *= factor
    return []


def kick_gamma(argv: dict) -> float:
    """|E e^{i theta}| of the kick law named by the iid parameters."""
    dist = argv["dist"]
    if dist == "gaussian":
        return math.exp(-0.5 * float(argv["sigma2"]))
    if dist == "exponential":
        s = float(argv.get("omega", 1.0)) * float(argv.get("tau1", 1.0))
        return 1.0 / math.sqrt(1.0 + s * s)
    angles = [float(a) for a in argv["angles"].split(",")]
    return abs(sum(cmath.exp(1j * a) for a in angles) / len(angles))


def check_iid(text: str, params: dict) -> list[str]:
    env = _envelope(text)
    res = env["results"]
    steps = int(params["steps"])
    gamma = kick_gamma(params)
    problems = []
    if not _close(res["gamma"], gamma, 1e-12):
        problems.append(f"gamma {res['gamma']!r} != {gamma!r}")
    curve = res["curve"]
    problems += _check_geometric_curve(curve, 0.5, gamma)
    if params.get("exact"):
        if env["diagnostics"]["mc"] or any(
            row["coherence"] != row["analytic_coherence"] for row in curve
        ):
            problems.append("exact run reports Monte Carlo values")
    return problems + _check_mc_curve(curve, steps)


def memory_transfer(epsilon: float, steps: int) -> tuple[list[complex], float]:
    """f_k at class A for k = 1..steps, and the sustained per-step rate.

    From class A the combined kernel kicks by eps into class B with weight
    1/2 and by each of -pi/2, 0, pi/2 (staying in A) with weight 1/6; from
    class B it kicks by 0 into A with weight 1/2 and by each of -3pi/4,
    eps, pi/4 (staying in B) with weight 1/6.  The rate
    ``|f_n / f_1| ** (1 / (n - 1))`` is accumulated in logs on a rescaled
    copy of the recursion, so it survives the underflow of f_n.
    """
    e = cmath.exp
    aa = sum(e(1j * t) for t in (-math.pi / 2, 0.0, math.pi / 2)) / 6.0
    ab = 0.5 * e(1j * epsilon)
    ba = 0.5
    bb = sum(e(1j * t) for t in (-3 * math.pi / 4, epsilon, math.pi / 4)) / 6.0
    fa, fb = 1.0 + 0j, 1.0 + 0j
    ga, gb, log_scale = 1.0 + 0j, 1.0 + 0j, 0.0
    values, logs = [], []
    for _ in range(steps):
        fa, fb = aa * fa + ab * fb, ba * fa + bb * fb
        values.append(fa)
        ga, gb = aa * ga + ab * gb, ba * ga + bb * gb
        scale = max(abs(ga), abs(gb))
        ga, gb, log_scale = ga / scale, gb / scale, log_scale + math.log(scale)
        logs.append(log_scale + math.log(abs(ga)))
    rate = math.exp((logs[-1] - logs[0]) / (steps - 1)) if steps > 1 else math.nan
    return values, rate


def check_memory(text: str, params: dict) -> list[str]:
    env = _envelope(text)
    res = env["results"]
    steps = int(params["steps"])
    epsilon = float(params.get("epsilon", 1e-3))
    f, rate = memory_transfer(epsilon, steps)
    curve = res["curve"]
    problems = _check_mc_curve(curve, steps)
    for row, fk in zip(curve[1:], f):
        if not _close(row["analytic_coherence"], 0.5 * abs(fk), 1e-9):
            problems.append(f"n={row['n']}: analytic coherence off the recursion")
            break
    if epsilon == 0.0 and abs(rate - 2.0 / 3.0) > 1e-9:
        problems.append(f"reference rate {rate!r} is not 2/3")
    decay = res["decay_per_step"]
    # decay_per_step reads 0.0 once f_n underflows; memory_notes reports it.
    if not _close(decay, rate, 1e-9, 0.0) and not (decay == 0.0 and f[-1] == 0.0):
        problems.append(f"decay_per_step {decay!r} != {rate!r}")
    return problems


def memory_notes(text: str) -> list[str]:
    """Known defects seen in a memory envelope (reported, not failed)."""
    res = _envelope(text)["results"]
    if res["decay_per_step"] == 0.0:
        return ["memory decay_per_step reads 0.0: f_n underflowed (known defect)"]
    return []


def check_parrondo(text: str, params: dict) -> list[str]:
    env = _envelope(text)
    res = env["results"]
    moduli = [int(m) for m in params["moduli"].split(",")]
    problems = []
    for game, m in zip(res["games"], moduli):
        if game["modulus"] != m or game["net_rate"] != f"-1/{m}":
            problems.append(f"game {m}: net_rate {game['net_rate']} != -1/{m}")
    product = math.prod(moduli)
    if res["net_rate"] != f"1/{product}":
        problems.append(f"net_rate {res['net_rate']} != 1/{product}")
    win = Fraction(product + 1, 2 * product)
    if res["win_prob"] != f"{win.numerator}/{win.denominator}":
        problems.append(f"win_prob {res['win_prob']} != {win}")
    if env["diagnostics"]["power_iteration_residual"] > 1e-12:
        problems.append("power iteration residual above 1e-12")
    sim = res.get("simulation")
    if params.get("exact"):
        if sim is not None:
            problems.append("exact run reports a simulation")
        return problems
    rounds = int(params["trials"])
    if sim is None or sim["rounds"] != rounds:
        return problems + ["simulation missing or wrong round count"]
    sigma = math.sqrt(wheel_asymptotic_variance(moduli) / rounds)
    if abs(sim["win_prob"] - float(win)) > Z_MC * sigma:
        problems.append(
            f"simulated win_prob {sim['win_prob']!r} is "
            f"{abs(sim['win_prob'] - float(win)) / sigma:.1f} sigma from {win}"
        )
    return problems


def wheel_asymptotic_variance(moduli: list[int]) -> float:
    """Asymptotic variance of the win indicator's running mean, times rounds.

    sigma^2 = <g, (2Z - I) g>_pi for the centred indicator g and the
    fundamental matrix Z = (I - P + 1 pi^T)^-1 of the wheel chain on Z_L,
    which accounts for the correlation between successive rounds.
    """
    L = math.lcm(*moduli)
    P = np.zeros((L, L))
    for m in moduli:
        for j in range(m):
            for k in range(L):
                P[k, (k + j * (L // m)) % L] += 1.0 / (len(moduli) * m)
    pi = np.full(L, 1.0 / L)
    win = np.array([1.0 if 4 * k <= L or 4 * k >= 3 * L else 0.0 for k in range(L)])
    g = win - pi @ win
    Z = np.linalg.inv(np.eye(L) - P + np.outer(np.ones(L), pi))
    return float(pi @ (g * ((2.0 * Z - np.eye(L)) @ g)))


def check_dissipative(text: str, params: dict) -> list[str]:
    env = _envelope(text)
    res, diag = env["results"], env["diagnostics"]
    lam = float(params["lambda_ad"])
    first, mc = res["first_order"], res["mc"]
    tol_pop = max(3.0 * diag["stderr_pop"], 5.0 * lam)
    tol_coh = max(3.0 * diag["stderr_coh"], 5.0 * lam)
    problems = []
    for key, tol in (("a", tol_pop), ("b_re", tol_coh), ("b_im", tol_coh)):
        if abs(first[key] - mc[key]) > tol:
            problems.append(f"{key}: MC {mc[key]!r} vs first order {first[key]!r}")
    return problems


def reduced_length_law(m: int) -> np.ndarray:
    """Law of the reduced-word length after m fair letters, O(m^2).

    The reduced word alternates and ends in A, so its leftmost letter is A
    at odd length and B at even length.  A new letter cancels against an
    equal leftmost letter; at length 0 the letter B is absorbed by the
    start state, and every other letter lengthens the word.
    """
    odd = np.arange(m + 2) % 2 == 1
    moves = []
    for letter_a in (True, False):
        cancel = odd == letter_a
        cancel[0] = False
        stay = np.zeros(m + 2, dtype=bool)
        stay[0] = not letter_a
        moves.append((cancel, stay, ~cancel & ~stay))
    p = np.zeros(m + 2)
    p[0] = 1.0
    for _ in range(m):
        nxt = np.zeros_like(p)
        for cancel, stay, grow in moves:
            nxt[:-1] += 0.5 * np.where(cancel, p, 0.0)[1:]
            nxt += 0.5 * np.where(stay, p, 0.0)
            nxt[1:] += 0.5 * np.where(grow, p, 0.0)[:-1]
        p = nxt
    return p[: m + 1]


def check_grover(text: str, params: dict) -> list[str]:
    if params.get("format") == "csv":
        return check_grover_csv(text, params)
    env = _envelope(text)
    res = env["results"]
    n = int(params["n_qubits"])
    problems = _check_grover_header(res, n)
    trials = int(params.get("trials", 0))
    ev = res.get("strategy_eval")
    if trials == 0:
        return problems + (["strategy evaluated without trials"] if ev else [])
    if ev is None:
        return problems + ["strategy_eval missing"]
    if params["strategy"] == "quarter-pi":
        m = 4 * res["quarter_pi_k"]
        law = reduced_length_law(m)
        exact = math.fsum(
            float(q) * grover_success(s // 2, n) for s, q in enumerate(law) if q
        )
        if abs(ev["win_prob"] - exact) > Z_MC * ev["stderr"]:
            problems.append(f"quarter-pi win_prob {ev['win_prob']!r} vs exact {exact!r}")
        if sum(ev["reduced_length_histogram"].values()) != trials:
            problems.append("reduced-length histogram does not sum to trials")
    elif params["strategy"] == "adaptive":
        k_star = env["inputs"]["k_star"]
        if env["diagnostics"].get("censored") != 0:
            problems.append(f"{env['diagnostics'].get('censored')} censored trials")
        hist = {int(t): c for t, c in ev["stopping_time_histogram"].items()}
        count = sum(hist.values())
        mean = sum(t * c for t, c in hist.items()) / count
        var = sum(c * (t - mean) ** 2 for t, c in hist.items()) / (count - 1)
        L = 2 * k_star
        if count != trials or abs(mean - L * (L + 1)) > Z_MC * math.sqrt(var / count):
            problems.append(f"mean stopping time {mean!r} vs L(L+1) = {L * (L + 1)}")
        if not _close(ev["win_prob"], grover_success(k_star, n), 1e-12):
            problems.append("adaptive win_prob is not the closed form at k_star")
    return problems


def check_grover_csv(text: str, params: dict) -> list[str]:
    n = int(params["n_qubits"])
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "k,success_prob":
        return [f"csv header {lines[0]!r}"]
    k_max = math.ceil(math.pi * math.sqrt(2.0**n) / 2.0)
    if len(lines) != k_max + 2:
        return [f"csv has {len(lines) - 1} rows, expected {k_max + 1}"]
    theta = _grover_theta(n)
    ks = np.arange(k_max + 1, dtype=np.float64)
    want = np.sin((2.0 * ks + 1.0) * theta) ** 2
    rows = [line.split(",") for line in lines[1:]]
    got_k = np.array([int(r[0]) for r in rows])
    got = np.array([float(r[1]) for r in rows])
    if not np.array_equal(got_k, np.arange(k_max + 1)):
        return ["csv k column is not 0..k_max"]
    worst = float(np.max(np.abs(got - want)))
    return [] if worst <= 1e-12 else [f"csv success_prob off the closed form by {worst!r}"]
