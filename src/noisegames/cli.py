"""Command-line interface: seeded, reproducible runs of every simulation.

Each subcommand validates its parameters, runs the exact computation and
(when ``--trials`` is positive) its Monte Carlo counterpart, and emits a
JSON result envelope::

    {"inputs": ..., "results": ..., "diagnostics": ..., "provenance": ...}

Re-running with the same inputs yields a byte-identical envelope at any
thread count.  ``--format csv`` emits the subcommand's curve data instead.
Exit codes: 0 success, 2 invalid parameters or usage, 1 runtime failure,
141 (128 + SIGPIPE) when the reader of the output closes it early.

Every subcommand parameter is declared once, as a :class:`_Param` in that
subcommand's table: the table builds its flag, reads it from ``--config``
and writes it into the ``inputs`` echo, so the echo is a valid config.

This module holds only what every run uses: the limits, the parameter
tables and the parser, the config and echo plumbing, and :func:`run`.  A
run imports the handler of its own subcommand, ``run`` in
``noisegames.commands.<name>``, after its arguments parse, and the
``json`` package only to read a ``--config`` file; the envelope is written
by :mod:`noisegames.writers`.  An unreadable config file is an invalid
input (exit 2); failing to write ``--out`` is a runtime failure (exit 1).
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import os
import sys
from contextlib import nullcontext
from typing import NamedTuple

from . import __version__, writers


# A CSV is formatted and written writers.CHUNK_ROWS rows at a time, so its
# memory does not grow with its length.  At 1.1-1.4 us a row, a run at the
# bound takes about 5 s; a longer one is refused before its first row is built.
CSV_MAX_ROWS = 1 << 22

# An iid or memory curve has one row per step, at about 3 us (iid) to 5 us
# (memory) and 100 bytes of JSON each, so a longer curve is refused before
# its first step: at the bound, `memory --exact` takes about 0.35 s and
# 61 MiB, a peak that moves by up to 6 MiB with the glibc heap layout.
CURVE_MAX_STEPS = 1 << 16

# A Monte Carlo run is charged in raw 64-bit draws by its family's
# draw_charge, beside the sampler.  On one thread of a 2-core Xeon VM these
# cost about 8-22 ns a kick (2 kicks a draw, so 2^33 kicks at the bound), 8 ns
# a fixed-horizon search draw, 12-24 ns a wheel round and 39-44 ns a
# dissipative trial, so such a run at the bound takes 35 s to 3 minutes.  An
# adaptive search costs 125-180 ns a charged draw (1,024 trials at n = 20,
# 16,000,000 draws, took 2.0-2.9 s), so 9-13 minutes at the bound.  More is
# refused before the first draw.  A curve's Python cost, 25-60 us per step of
# a block, needs no term of its own: as steps <= CURVE_MAX_STEPS,
# blocks * steps <= 2^17 + 2^16.
MC_MAX_DRAWS = 1 << 32

# A wheel of G games on Z_L has P = G * L (game, rotation) slots; above
# MAX_WHEEL_SLOTS a run is refused before any work.  At the bound a round's
# multiply-shift law is within 2 * P^2 / 2^64 <= 1.2e-7, under the 7.6e-6
# standard error of a 2^32-round run, and the step table takes 8 MiB.
MAX_WHEEL_SLOTS = 1 << 20

# Each worker thread of a Monte Carlo run holds one set of block-sized arrays,
# 1 to 4.5 MiB by family (README), and up to 2 blocks' results waiting to be
# folded; --threads above MAX_THREADS is refused before any thread starts.
MAX_THREADS = 64

# The version of the map from (seed, trajectory, slot) draws to a family's
# random inputs.  Layout 6 takes two 32-bit uniforms from each raw draw: kicks
# 2j and 2j + 1 of an iid or memory trajectory read the high and the low half
# of slot j, and a Box-Muller pair, a dissipative trial's included, reads one
# slot.  README's reproducibility contract gives it and layouts 1 to 5.
STREAM_LAYOUT = 6

def _envelope(inputs: dict, results: dict, diagnostics: dict) -> str:
    return writers.json_text({
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "provenance": {
            "seed": inputs.get("seed"),
            "stream_layout": STREAM_LAYOUT,
            "trials": inputs.get("trials"),
            "version": __version__,
        },
    })


class _Param(NamedTuple):
    """One subcommand parameter: flag ``--key`` (dashed), config key and echo key.

    ``type`` is int, float, str or bool (a flag that sets True); with
    ``many`` the value is a list of ``type``, written on the command line
    as comma-separated text.  A parameter with ``when = (key, value)`` may
    be given, and is echoed, only while parameter ``key`` has that value.
    ``lo``/``hi`` bound an int inclusively.
    """

    key: str
    type: type
    default: object = None
    choices: tuple = ()
    when: tuple | None = None
    many: bool = False
    lo: int | None = None
    hi: int | None = None
    help: str | None = None


_COMMON = (
    _Param("seed", int, 0, lo=0, hi=2**64 - 1, help="master seed (u64)"),
    _Param("trials", int, 0, lo=0, help="Monte Carlo trials"),
)
_STATE = (
    _Param("a0", float, 0.5, help="initial population of |0>"),
    _Param("b0_re", float, 0.5, help="initial coherence, real part"),
    _Param("b0_im", float, 0.0, help="initial coherence, imaginary part"),
)
_EXACT = _Param("exact", bool, False, help="exact route only, no Monte Carlo")


def _coerce(p: _Param, value):
    """``value`` as the parameter's type, refusing any other JSON type."""
    if value is None and p.default is None:
        return None
    if not p.many:
        return _scalar(p, value)
    if isinstance(value, str):
        return [_scalar(p, p.type(x)) for x in value.split(",") if x.strip()]
    if not isinstance(value, list):
        raise TypeError(f"{p.key} must be a list or comma-separated text, got {value!r}")
    return [_scalar(p, x) for x in value]


def _scalar(p: _Param, x):
    if p.type is float and type(x) is int:
        return float(x)
    if type(x) is not p.type:
        raise TypeError(f"{p.key} must be of type {p.type.__name__}, got {x!r}")
    if p.choices and x not in p.choices:
        raise ValueError(f"{p.key} must be one of {p.choices}, got {x!r}")
    if (p.lo is not None and x < p.lo) or (p.hi is not None and x > p.hi):
        raise ValueError(f"{p.key} must lie in [{p.lo}, {p.hi or 'inf'}], got {x!r}")
    return x


def _resolve(command: str, table: tuple, args: argparse.Namespace, config: dict) -> dict:
    """Each parameter from its flag, else the config file, else its default.

    A conditional parameter given while its condition fails is refused,
    unless it comes from the config and a flag switched its condition away.
    """
    unknown = sorted(set(config) - {p.key for p in table} - {"command"})
    if unknown:
        raise ValueError(f"unknown config keys for {command!r}: {', '.join(unknown)}")
    if config.get("command", command) != command:
        raise ValueError(f"config is for {config['command']!r}, not {command!r}")
    values = {}
    for p in table:
        flag = getattr(args, p.key)
        values[p.key] = _coerce(p, flag if flag is not None else config.get(p.key, p.default))
    for p in table:
        if p.when is None or values[p.when[0]] == p.when[1]:
            continue
        from_flag = getattr(args, p.key) is not None
        from_config = p.key in config and getattr(args, p.when[0]) is None
        if from_flag or from_config:
            raise ValueError(f"{p.key} applies only when {p.when[0]} is {p.when[1]!r}")
    return values


def _echo(command: str, table: tuple, values: dict, derived: dict) -> dict:
    """The ``inputs`` block: every parameter in force, then the handler's derived values."""
    inputs = {"command": command}
    for p in table:
        if p.when is None or values[p.when[0]] == p.when[1]:
            inputs[p.key] = values[p.key]
    inputs.update(derived)
    return inputs


# subcommand -> (help, parameter table); its handler is ``run`` in
# noisegames.commands.<subcommand>
_COMMANDS = {
    "iid": ("independent identically distributed phase kicks", (
        *_COMMON,
        _Param("dist", str, "gaussian", choices=("delta", "gaussian", "exponential")),
        _Param("angles", float, many=True, when=("dist", "delta"),
               help="comma-separated angles"),
        _Param("weights", float, many=True, when=("dist", "delta"),
               help="comma-separated weights (default uniform)"),
        _Param("mu", float, 0.0, when=("dist", "gaussian")),
        _Param("sigma2", float, 0.0, when=("dist", "gaussian")),
        _Param("omega", float, 1.0, when=("dist", "exponential")),
        _Param("tau1", float, 1.0, when=("dist", "exponential")),
        _Param("steps", int, 1, lo=0, hi=CURVE_MAX_STEPS),
        *_STATE,
        _EXACT,
    )),
    "memory": ("correlated phase kicks over two angle classes", (
        *_COMMON,
        _Param("variant", str, "combined", choices=("pure-a", "pure-b", "combined")),
        _Param("epsilon", float, 1e-3),
        _Param("steps", int, 20, lo=1, hi=CURVE_MAX_STEPS),
        *_STATE,
        _EXACT,
    )),
    "dissipative": ("damping/dephasing channel with noisy parameters", (
        *_COMMON,
        _Param("p", float, 0.5),
        _Param("lambda_ad", float, 1e-4),
        _Param("lambda_pd", float, 1e-2),
        _Param("tau0", float, 1.0),
        *_STATE,
    )),
    "parrondo": ("wheel-rotation games and their combination", (
        *_COMMON,
        _Param("moduli", int, "3,7", many=True, help="comma-separated odd moduli"),
        _EXACT,
    )),
    "grover": ("random-operator search game", (
        *_COMMON,
        _Param("n_qubits", int, 4),
        _Param("target", int, 0),
        _Param("strategy", str, "quarter-pi", choices=("fixed", "quarter-pi", "adaptive")),
        _Param("m", int, when=("strategy", "fixed"), help="fixed horizon length"),
        _Param("k_star", int, when=("strategy", "adaptive"),
               help="target iterate count (default optimal_k)"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names one."""
    parser = argparse.ArgumentParser(
        prog="noisegames",
        description="Stochastic qubit decoherence and randomness-driven games.",
    )
    # each argument costs argparse a help formatter, so a run declares only
    # the subcommand it invokes; its usage line still lists all five
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    usage = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=usage)
    for name in names:
        help_text, table = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        # run control: never read from a config file and never echoed
        p.add_argument("--threads", type=int, default=None, help="worker threads")
        p.add_argument("--config", type=str, default=None, help="JSON parameter file")
        p.add_argument("--format", dest="format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        for q in table:
            flag = "--" + q.key.replace("_", "-")
            if q.type is bool:
                p.add_argument(flag, dest=q.key, action="store_const", const=True,
                               default=None, help=q.help)
            else:
                p.add_argument(flag, dest=q.key, type=str if q.many else q.type,
                               choices=q.choices or None, default=None, help=q.help)
    return parser


def run(argv: list[str], stdout=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    out_stream = stdout if stdout is not None else sys.stdout
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    table = _COMMANDS[args.command][1]
    try:
        config = {}
        if args.config:
            import json

            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read config {args.config}: {exc}") from None
            config = json.loads(text)
            if not isinstance(config, dict):
                raise ValueError("config file must contain a JSON object")
        threads = 1 if args.threads is None else args.threads
        if not 1 <= threads <= MAX_THREADS:
            raise ValueError(f"threads must be between 1 and {MAX_THREADS}")
        values = _resolve(args.command, table, args, config)
        command = importlib.import_module(f".commands.{args.command}", __package__)
        derived, results, diagnostics, csv = command.run(values, threads)
        if args.format == "csv":
            if csv is None:
                raise ValueError(f"no CSV curve defined for {args.command!r}")
            header, fmt, columns = csv
            parts = itertools.chain((header,), writers.row_chunks("\n" + fmt, columns()), ("\n",))
        else:
            parts = (_envelope(_echo(args.command, table, values, derived), results, diagnostics),
                     "\n")
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1

    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(out_stream) as fh:
            fh.writelines(parts)
            fh.flush()
    except BrokenPipeError:  # the reader closed early, as `head` does
        return 141
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


def __getattr__(name: str):
    # the benchmark's tracer test reads ``cli.coherence``; qubit is imported
    # only when it is read, so a cold start does not load it
    if name == "coherence":
        from .qubit import coherence

        return coherence
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main() -> None:
    code = run(sys.argv[1:])
    if code == 141:  # stdout's reader is gone: let the exit's flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
