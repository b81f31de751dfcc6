"""Batch experiment runner: protocol demos, decoder benchmarks, Knill EC
Monte Carlo, chain scenarios, and rate tables.

Runs are reproducible: the same subcommand, flags, and --seed produce
byte-identical data rows (wall-time columns excluded), because every
trial draws from its own counter-based random stream.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

import numpy as np

from qnetcode import codes, ftec, ratecalc
from qnetcode.codes import random_regular_check_matrix  # noqa: F401  (re-exported for callers of cli)
from qnetcode.decoders import DECODERS, BpDecoder
from qnetcode.ftec import KnillNoise, knill_residuals
from qnetcode.netchain import MAX_LINKS, MAX_PURIFY_ROUNDS, MODES, ChainConfig, compare_latency, run_chain
from qnetcode.noise import NoiseModel, effective_error_rate, werner
from qnetcode.pauli import LABEL_OF, LABELS
from qnetcode.protocols import superdense, swap_chain, teleport
from qnetcode.rng import MAX_TRIALS, streams
from qnetcode.rng import stream  # noqa: F401  (perfbench/test_perfbench.py reads cli.stream)


class UsageError(Exception):
    pass


def _int_in(minimum: int, maximum: int | None = None):
    def convert(text: str) -> int:
        shown = repr(text)
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
            number = re.fullmatch(r"\s*([+-]?)(\d+)\s*", text)
            if number:  # more digits than int() reads (sys.get_int_max_str_digits())
                sign, digits = number.groups()
                value = -math.inf if sign == "-" else math.inf
                shown = f"{sign + digits[:10]!r}... ({len(digits)} digits)"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {shown}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be an integer <= {maximum}, got {shown}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"must be an integer of at most {sys.get_int_max_str_digits()} digits, got {shown}")
        return value

    return convert


_positive_int = _int_in(1)
_nonnegative_int = _int_in(0)
_trial_count = _int_in(1, MAX_TRIALS)
_purify_rounds = _int_in(0, MAX_PURIFY_ROUNDS)
_link_count = _int_in(1, MAX_LINKS)


def _float_in(low: float, high: float, what: str):
    def convert(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return convert


_probability = _float_in(0.0, 1.0, "a probability in [0, 1]")
_nonnegative_float = _float_in(0.0, sys.float_info.max, "a finite number >= 0")


def _one_of(names: tuple[str, ...]):
    def convert(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(f"must be one of {', '.join(names)}, got {text!r}")
        return text

    convert.metavar = "{" + ",".join(names) + "}"  # --help lists the names, as argparse choices do
    return convert


def _noise_spec(text: str) -> NoiseModel:
    try:
        return NoiseModel.from_spec(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"malformed noise spec {text!r}: {e}") from None


def _flip_spec(text: str) -> float:
    """The readout-flip probability of ``none`` (0) or ``bit_flip:<p>`` (p)."""
    model = _noise_spec(text)
    if model.variant not in ("none", "bit_flip"):
        raise argparse.ArgumentTypeError(f"readout flips take none or bit_flip:<p>, got {text!r}")
    return model.p


def parse_code(code_id: str) -> codes.CssCode:
    """The code named by ``code_id`` (see codes.from_id)."""
    try:
        return codes.from_id(code_id)
    except codes.CodeIdError as e:
        raise UsageError(str(e)) from None


def parse_knill_code(code_id: str) -> codes.CssCode:
    """The code of a command that runs Knill rounds: it must encode a logical qubit."""
    code = parse_code(code_id)
    if code.k < 1:
        raise UsageError(f"code {code_id} encodes no logical qubit (k = 0); only rate takes such a code")
    return code


def parse_rate_code(code_id: str) -> tuple[int, int]:
    """(n, k) of ``code_id``; rate also accepts custom:<n>:<k>, which has no check matrices."""
    if code_id.startswith("custom:"):
        try:
            _, n, k = code_id.split(":")
            n, k = int(n), int(k)
        except ValueError:
            raise UsageError(f"malformed code id {code_id!r}") from None
        if n < 1 or not 0 <= k <= n:
            raise UsageError(f"code id {code_id!r} needs n >= 1 and 0 <= k <= n")
        return n, k
    code = parse_code(code_id)
    return code.n, code.k


def build_decoder(kind: str, code: codes.CssCode, p: float):
    """Decoder ``kind`` (a DECODERS name) for ``code``. BP's prior is p when
    0 < p < 0.5 and 0.01 otherwise; the others take none. ``decode`` passes
    its --p, while ``knill`` and the encoded chain modes always pass 0.01."""
    cls = DECODERS[kind]
    prior = (p if 0 < p < 0.5 else 0.01,) if cls is BpDecoder else ()
    try:
        return cls(code, *prior)
    except ValueError as e:  # the decoder cannot handle this code
        raise UsageError(f"decoder {kind} cannot decode {code.name}: {e}") from None


def _check_out(path: str):
    """Fail as the final write would, before the run, if ``path`` cannot be
    written: its directory must exist and be writable, and the path must
    not be a directory. Creates nothing."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        err = errno.ENOENT
    elif os.path.isdir(path):
        err = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise UsageError(f"--out {path}: {os.strerror(err)}")


def write_rows(rows: list[dict], out, fmt: str):
    if fmt == "json":
        out.write(json.dumps(rows, indent=2, default=str))
        out.write("\n")
        return
    if not rows:
        return
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


# --- subcommands -------------------------------------------------------------


def _to_float(value: Fraction, what: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise UsageError(f"{what} exceeds the float range") from None


def cmd_rate(args) -> list[dict]:
    rows, configs = [], []
    p_eff = effective_error_rate(args.pc, args.pg)
    for code_id in args.code:
        n, k = parse_rate_code(code_id)
        cfg = ratecalc.RateConfig(args.qubits, n, k, args.cycle)
        rep = ratecalc.epr_rate(cfg)
        configs.append(cfg)
        rows.append(
            {
                "code_id": code_id,
                "n": n,
                "k": k,
                "Q": args.qubits,
                "blocks": rep.blocks,
                "rate_per_T": str(Fraction(rep.epr_units_per_T)),
                "rate_decimal": _to_float(rep.epr_units_per_T, f"--code {code_id}: rate_decimal"),
                "p_eff": p_eff,
            }
        )
    if len(configs) >= 2 and rows[0]["rate_decimal"] > 0:
        ratio = ratecalc.compare(configs[0], configs[-1])
        print(
            f"rate ratio (last/first): {ratio} = {_to_float(ratio, 'rate ratio (last/first)'):.4f} "
            f"({ratecalc.fold_description(ratio)})",
            file=sys.stderr,
        )
    return rows


def cmd_protocol(args) -> list[dict]:
    noise = args.noise
    if args.links is not None and args.name != "swap":
        raise UsageError(f"--links: not read in protocol {args.name}")
    links = 3 if args.links is None else args.links
    rows = []
    for start in range(0, args.trials, ftec.FRAME_CHUNK):
        trials = range(start, min(start + ftec.FRAME_CHUNK, args.trials))
        rngs = streams(args.seed, (), trials)
        if args.name == "teleport":
            outcomes, frame, success = teleport([("H", 0)], noise, rngs)
        elif args.name == "superdense":
            sent = np.array([(t % 2, (t // 2) % 2) for t in trials], dtype=np.uint8)
            outcomes, frame = superdense(sent, noise, rngs)
            success = (outcomes[:, 0] == sent).all(axis=1)
        else:  # swap
            outcomes, frame = swap_chain(links, noise, rngs)
            success = ~frame.any(axis=1)
        labels = LABEL_OF[2 * frame[:, 0] + frame[:, 1]].tolist()
        rows += [
            {
                "trial_id": t,
                "protocol": args.name,
                "outcome_bits": "".join(map(str, bits.ravel().tolist())),
                "success": int(ok),
                "residual_frame": LABELS[label],
            }
            for t, bits, ok, label in zip(trials, outcomes, success, labels)
        ]
    return rows


def _knill_failures(args, noise: KnillNoise, prior: float):
    """Run args.trials seeded Knill rounds of --code with --decoder (BP prior
    ``prior``) under ``noise``: (code, failures, per-trial iterations, seconds)."""
    code = parse_knill_code(args.code)
    decoder = build_decoder(args.decoder, code, prior)
    t0 = time.perf_counter()
    x_bad, z_bad, iterations = knill_residuals(code, decoder, noise, args.seed, (), args.trials)
    failures = int(np.count_nonzero(x_bad | z_bad))
    return code, failures, iterations, time.perf_counter() - t0


def cmd_decode(args) -> list[dict]:
    # code-capacity decoding: a Knill round with a perfect EPR pair and exact readout
    noise = KnillNoise(data_noise=NoiseModel.independent_xz(args.p, args.p))
    code, failures, iterations, seconds = _knill_failures(args, noise, args.p)
    return [
        {
            "code_id": args.code,
            "n": code.n,
            "k": code.k,
            "d": code.d,
            "p": args.p,
            "trials": args.trials,
            "logical_failures": failures,
            "avg_iterations": float(iterations.mean()),
            "wall_time_ms": round(seconds * 1000.0, 3),
        }
    ]


def cmd_knill(args) -> list[dict]:
    if args.pc or args.pg:
        if args.noise is not None:
            raise UsageError("--noise cannot be combined with --pc/--pg")
        data_noise = NoiseModel.depolarizing(effective_error_rate(args.pc, args.pg))
    else:
        data_noise = args.noise if args.noise is not None else NoiseModel.none()
    noise = KnillNoise(epr_error=args.epr_noise, meas_flip=args.meas_flip, data_noise=data_noise)
    _, failures, _, seconds = _knill_failures(args, noise, 0.01)
    return [
        {
            "code_id": args.code,
            "p_c": args.pc,
            "p_g": args.pg,
            "p_eff": data_noise.p,
            "meas_flip_p": args.meas_flip,
            "trials": args.trials,
            "logical_failures": failures,
            "failure_rate": failures / args.trials,
            "seconds": round(seconds, 3),
        }
    ]


_ENCODED = MODES[1:]
# chain's settings, one row each: (flag, --config key or None for a flag-only
# setting, default, converter of the flag and of the file's value, modes that read it)
_CHAIN_SETTINGS = (
    ("--mode", "mode", "physical", _one_of(MODES), MODES),
    ("--links", "links", 4, _link_count, MODES),
    ("--fidelity", "fidelity", 0.95, _probability, ("physical", "encoded_teleport")),
    ("--rounds", "rounds", 2, _purify_rounds, MODES),
    ("--delay", "delay", 10.0, _nonnegative_float, MODES),
    ("--code", "code_id", None, str, _ENCODED),
    ("--decoder", None, "lookup", _one_of(tuple(DECODERS)), _ENCODED),
    ("--pc", "p_c", 0.05, _probability, ("encoded_direct",)),
    ("--pg", "p_g", 0.001, _probability, _ENCODED),
    ("--trials", None, 400, _trial_count, _ENCODED),
    ("--seed", None, 0, _nonnegative_int, _ENCODED),
)
_CHAIN_KEYS = [key for _, key, *_ in _CHAIN_SETTINGS if key]


def cmd_chain(args) -> list[dict]:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as e:
            raise UsageError(f"--config {args.config}: {e.strerror or e}") from None
        except ValueError as e:  # not JSON, or not UTF-8
            raise UsageError(f"--config {args.config}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError("--config must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_CHAIN_KEYS))
        if unknown:
            raise UsageError(f"--config {unknown[0]}: unknown key (known: {', '.join(_CHAIN_KEYS)})")

    # each setting from its flag, else from the file through the same converter, else its default
    given = {}  # flag -> the flag or --config key that gave the setting
    for flag, key, default, convert, _ in _CHAIN_SETTINGS:
        dest = flag[2:]
        if getattr(args, dest) is not None:
            given[flag] = flag
        elif key in file_cfg:
            given[flag] = f"--config {key}"
            try:
                setattr(args, dest, convert(str(file_cfg[key])))
            except argparse.ArgumentTypeError as e:
                raise UsageError(f"{given[flag]}: {e}") from None
        else:
            setattr(args, dest, default)
    for flag, _, _, _, modes in _CHAIN_SETTINGS:
        if flag in given and args.mode not in modes:
            raise UsageError(f"{given[flag]}: not read in chain mode {args.mode}")
    code = decoder = None
    if args.mode != "physical":
        if not args.code:
            raise UsageError("encoded chain modes require --code")
        code = parse_knill_code(args.code)
        decoder = build_decoder(args.decoder, code, 0.01)
    try:
        cfg = ChainConfig(
            num_links=args.links, link_state=werner(args.fidelity), purify_rounds=args.rounds,
            hop_delay_D=args.delay, mode=args.mode, code=code, decoder=decoder,
            p_g=args.pg, p_c=args.pc, mc_trials=args.trials, seed=args.seed,
        )
    except ValueError as e:  # the converters checked every setting but the latency the delay makes
        raise UsageError(f"{given.get('--delay', '--delay')}: {e}") from None
    report = run_chain(cfg)
    two_way, one_way = compare_latency(cfg)
    return [
        {
            "mode": args.mode,
            "m": args.links,
            "F_end": report.end_state.fidelity,
            "survival": report.survival,
            "latency_T": report.latency,
            "two_way_T": two_way,
            "one_way_T": one_way,
        }
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnetcode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_nonnegative_int, default=0)
        p.add_argument("--trials", type=_trial_count, default=1000)

    p = sub.add_parser("rate", help="EPR generation rate table")
    p.add_argument("--qubits", type=_positive_int, required=True)
    p.add_argument("--code", action="append", required=True, help="repeatable; custom:<n>:<k> allowed")
    p.add_argument("--cycle", type=_positive_int, default=ratecalc.ROUND_COST_T)
    p.add_argument("--pc", type=_probability, default=0.0)
    p.add_argument("--pg", type=_probability, default=0.0)

    p = sub.add_parser("protocol", help="protocol trial logs")
    common(p)
    p.add_argument("--name", choices=("teleport", "superdense", "swap"), required=True)
    p.add_argument("--noise", type=_noise_spec, default="none")
    p.add_argument("--links", type=_link_count, default=None, help="swap only (default 3)")

    p = sub.add_parser("decode", help="decoder benchmark")
    common(p)
    p.add_argument("--code", required=True)
    p.add_argument("--decoder", choices=DECODERS, required=True)
    p.add_argument("--p", type=_probability, default=0.01)

    p = sub.add_parser("knill", help="Knill EC Monte Carlo")
    common(p)
    p.add_argument("--code", required=True)
    p.add_argument("--decoder", choices=DECODERS, default="lookup")
    p.add_argument("--noise", type=_noise_spec, default=None,
                   help="data noise spec, e.g. depolarizing:0.001 (default none; not with --pc/--pg)")
    p.add_argument("--epr-noise", type=_noise_spec, default="none")
    p.add_argument("--meas-flip", type=_flip_spec, default="none",
                   help="readout flips: none or bit_flip:<p>, p per Bell readout bit")
    p.add_argument("--pc", type=_probability, default=0.0)
    p.add_argument("--pg", type=_probability, default=0.0)

    p = sub.add_parser("chain", help="repeater chain scenario")
    p.add_argument("--config", default=None, help="JSON scenario file; flags win on conflict")
    for flag, key, default, convert, modes in _CHAIN_SETTINGS:
        text = "read in " + ("all modes" if modes == MODES else ", ".join(modes))
        text += "; required" if default is None else f"; default {default}"
        text += f"; --config key {key}" if key else ""
        p.add_argument(flag, type=convert, default=None, metavar=getattr(convert, "metavar", None), help=text)
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_COMMANDS = {
    "rate": cmd_rate,
    "protocol": cmd_protocol,
    "decode": cmd_decode,
    "knill": cmd_knill,
    "chain": cmd_chain,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        if args.out:
            _check_out(args.out)
        rows = _COMMANDS[args.command](args)
        if args.out:
            try:
                with open(args.out, "w", newline="") as fh:
                    write_rows(rows, fh, args.format)
            except OSError as e:
                raise UsageError(f"--out {args.out}: {e.strerror or e}") from None
        else:
            write_rows(rows, sys.stdout, args.format)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
