"""Batch experiment runner: protocol demos, decoder benchmarks, Knill EC
Monte Carlo, chain scenarios, and rate tables.

Runs are reproducible: the same subcommand, flags, and --seed produce
byte-identical data rows (wall-time columns excluded), because every
trial draws from its own counter-based random stream.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

import numpy as np

from qnetcode import codes, ratecalc
from qnetcode.decoders import BpDecoder, LookupDecoder, MatchingDecoder
from qnetcode.ftec import KnillNoise, knill_residuals
from qnetcode.netchain import MODES, ChainConfig, compare_latency, run_chain
from qnetcode.noise import NoiseModel, effective_error_rate, werner
from qnetcode.protocols import superdense, swap_chain, teleport
from qnetcode.rng import stream


class UsageError(Exception):
    pass


def _int_at_least(minimum: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return convert


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


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


def _noise_spec(text: str) -> NoiseModel:
    try:
        return NoiseModel.from_spec(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"malformed noise spec {text!r}: {e}") from None


def random_regular_check_matrix(r: int, n: int, row_weight: int, seed: int) -> np.ndarray:
    """Random sparse classical parity checks with full column coverage.

    Draws up to 1000 matrices with independent rows of weight row_weight
    and returns the first that covers every column. If none does, the
    last draw is repaired: each uncovered column takes over a row slot
    of the most-covered column. That keeps every row weight and always
    succeeds when r * row_weight >= n.
    """
    g = stream(seed, 777)
    for _ in range(1000):
        h = np.zeros((r, n), dtype=np.uint8)
        for i in range(r):
            h[i, g.choice(n, row_weight, replace=False)] = 1
        if h.sum(axis=0).min() > 0:
            return h
    if r * row_weight < n:
        raise ValueError(f"{r} rows of weight {row_weight} cannot cover {n} columns")
    for col in np.flatnonzero(h.sum(axis=0) == 0):
        donor = int(np.argmax(h.sum(axis=0)))  # covered at least twice
        row = int(np.flatnonzero(h[:, donor])[0])
        h[row, donor], h[row, col] = 0, 1
    return h


def parse_code(code_id: str) -> codes.CssCode:
    """rep3 | shor9 | surface:<d> | hgp:<seed>:<r>:<n>:<w>"""
    parts = code_id.split(":")
    name = parts[0]
    try:
        if name == "rep3":
            return codes.rep3()
        if name == "shor9":
            return codes.shor9()
        if name == "surface":
            return codes.rotated_surface(int(parts[1]))
        if name == "hgp":
            seed, r, n, w = (int(p) for p in parts[1:5])
            if r < 1 or n < 1 or not 1 <= w <= n or r * w < n:
                # r rows of weight w cover at most r*w of the n columns
                raise UsageError(f"code id {code_id!r} needs r >= 1, n >= 1, 1 <= w <= n and r*w >= n")
            h = random_regular_check_matrix(r, n, w, seed)
            return codes.hypergraph_product(h, h, name=code_id)
    except (IndexError, ValueError) as e:
        raise UsageError(f"malformed code id {code_id!r}: {e}") from None
    raise UsageError(f"unknown code id {code_id!r}")


def parse_rate_code(code_id: str) -> tuple[str, int, int]:
    """Rate subcommand also accepts custom:<n>:<k> (parameters only)."""
    if code_id.startswith("custom:"):
        try:
            _, n, k = code_id.split(":")
            n, k = int(n), int(k)
        except ValueError:
            raise UsageError(f"malformed code id {code_id!r}") from None
        if n < 1 or not 0 <= k <= n:
            raise UsageError(f"code id {code_id!r} needs n >= 1 and 0 <= k <= n")
        return code_id, n, k
    code = parse_code(code_id)
    return code_id, code.n, code.k


def build_decoder(kind: str, code: codes.CssCode, p: float):
    """Decoder ``kind`` for ``code``; p seeds BP's prior, the others take none."""
    if kind == "lookup":
        return LookupDecoder(code)
    if kind == "mwpm":
        return MatchingDecoder(code)
    if kind == "bp":
        return BpDecoder(code, p if 0 < p < 0.5 else 0.01)
    raise UsageError(f"unknown decoder {kind!r}")


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


def cmd_rate(args) -> list[dict]:
    rows = []
    reports = []
    for code_id in args.code:
        cid, n, k = parse_rate_code(code_id)
        cfg = ratecalc.RateConfig(args.qubits, n, k, args.cycle, args.pc, args.pg)
        rep = ratecalc.epr_rate(cfg)
        reports.append(rep)
        rows.append(
            {
                "code_id": cid,
                "n": n,
                "k": k,
                "Q": args.qubits,
                "blocks": rep.blocks,
                "rate_per_T": str(Fraction(rep.epr_units_per_T)),
                "rate_decimal": float(rep.epr_units_per_T),
                "p_eff": rep.p_eff,
            }
        )
    if len(reports) >= 2 and reports[0].epr_units_per_T > 0:
        ratio = reports[-1].epr_units_per_T / reports[0].epr_units_per_T
        print(
            f"rate ratio (last/first): {ratio} = {float(ratio):.4f} "
            f"({ratecalc.fold_description(ratio)})",
            file=sys.stderr,
        )
    return rows


def cmd_protocol(args) -> list[dict]:
    noise = args.noise

    def run_one(t: int) -> dict:
        rng = stream(args.seed, t)
        if args.name == "teleport":
            out = teleport([("H", 0)], noise, rng)
            return {
                "trial_id": t,
                "protocol": "teleport",
                "outcome_bits": f"{out.classical_bits[0][0]}{out.classical_bits[0][1]}",
                "success": int(bool(out.verified)),
                "residual_frame": str(out.residual_frame),
            }
        if args.name == "superdense":
            bits = (t % 2, (t // 2) % 2)
            got = superdense(bits, noise, rng)
            return {
                "trial_id": t,
                "protocol": "superdense",
                "outcome_bits": f"{got[0]}{got[1]}",
                "success": int(got == bits),
                "residual_frame": "I",
            }
        if args.name == "swap":
            out = swap_chain(args.links, noise, rng)
            bits = "".join(f"{a}{b}" for a, b in out.classical_bits)
            return {
                "trial_id": t,
                "protocol": "swap",
                "outcome_bits": bits,
                "success": int(out.residual_frame.is_identity()),
                "residual_frame": str(out.residual_frame),
            }
        raise UsageError(f"unknown protocol {args.name!r}")

    return [run_one(t) for t in range(args.trials)]


def cmd_decode(args) -> list[dict]:
    code = parse_code(args.code)
    decoder = build_decoder(args.decoder, code, args.p)
    # code-capacity decoding: a Knill round with a perfect EPR pair and exact readout
    noise = KnillNoise(data_noise=NoiseModel.independent_xz(args.p, args.p))
    t0 = time.perf_counter()
    x_bad, z_bad, iterations = knill_residuals(code, decoder, noise, args.seed, (), args.trials)
    failures = int(np.count_nonzero(x_bad | z_bad))
    wall_ms = (time.perf_counter() - t0) * 1000.0
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
            "wall_time_ms": round(wall_ms, 3),
        }
    ]


def cmd_knill(args) -> list[dict]:
    if args.pc or args.pg:
        if args.noise is not None:
            raise UsageError("--noise cannot be combined with --pc/--pg")
        data_noise = NoiseModel.depolarizing(effective_error_rate(args.pc, args.pg))
    else:
        data_noise = args.noise if args.noise is not None else NoiseModel.none()
    code = parse_code(args.code)
    decoder = build_decoder(args.decoder, code, 0.01)
    noise = KnillNoise(epr_error=args.epr_noise, meas_flip=args.meas_flip, data_noise=data_noise)
    t0 = time.perf_counter()
    x_bad, z_bad, _ = knill_residuals(code, decoder, noise, args.seed, (), args.trials)
    failures = int(np.count_nonzero(x_bad | z_bad))
    seconds = time.perf_counter() - t0
    return [
        {
            "code_id": args.code,
            "p_c": args.pc,
            "p_g": args.pg,
            "p_eff": data_noise.p,
            "meas_flip_p": args.meas_flip.flip_probability(),
            "trials": args.trials,
            "logical_failures": failures,
            "failure_rate": failures / max(args.trials, 1),
            "seconds": round(seconds, 3),
        }
    ]


# --config keys and the flag (argparse dest) each one stands for
_CHAIN_CONFIG_KEYS = {
    "mode": "mode", "links": "links", "fidelity": "fidelity", "rounds": "rounds",
    "delay": "delay", "code_id": "code", "p_c": "pc", "p_g": "pg",
}
# settings a chain mode never reads; decoder and trials are flags only
_CHAIN_UNREAD = {
    "physical": ("code_id", "decoder", "p_c", "p_g", "trials"),
    "encoded_teleport": ("p_c",),
    "encoded_direct": ("fidelity",),
}


def cmd_chain(args) -> list[dict]:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise UsageError("--config must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_CHAIN_CONFIG_KEYS))
        if unknown:
            raise UsageError(f"--config {unknown[0]}: unknown key (known: {', '.join(_CHAIN_CONFIG_KEYS)})")

    # where each setting was given: its flag or its --config key
    given = {name: f"--{name}" for name in ("decoder", "trials") if getattr(args, name) is not None}

    def pick(key, default, convert):
        """The flag if given, else the file's value through the flag's converter."""
        flag = _CHAIN_CONFIG_KEYS[key]
        if getattr(args, flag) is not None:
            given[key] = f"--{flag}"
            return getattr(args, flag)
        if key not in file_cfg:
            return default
        given[key] = f"--config {key}"
        try:
            return convert(str(file_cfg[key]))
        except argparse.ArgumentTypeError as e:
            raise UsageError(f"--config {key}: {e}") from None

    mode = pick("mode", "physical", str)
    if mode not in MODES:  # the flag has argparse choices; only a file value gets here
        raise UsageError(f"--config mode: must be one of {', '.join(MODES)}, got {mode!r}")
    m = pick("links", 4, _positive_int)
    fidelity = pick("fidelity", 0.95, _probability)
    rounds = pick("rounds", 2, _nonnegative_int)
    delay = pick("delay", 10.0, _nonnegative_float)
    code_id = pick("code_id", None, str)
    p_g = pick("p_g", 0.001, _probability)
    p_c = pick("p_c", 0.05, _probability)
    for key in _CHAIN_UNREAD[mode]:
        if key in given:
            raise UsageError(f"{given[key]}: not read in chain mode {mode}")
    kwargs = {}
    if mode != "physical":
        if not code_id:
            raise UsageError("encoded chain modes require --code")
        code = parse_code(code_id)
        decoder = build_decoder(args.decoder or "lookup", code, 0.01)
        kwargs = {"code": code, "decoder": decoder, "p_g": p_g, "p_c": p_c}
        if args.trials is not None:
            kwargs["mc_trials"] = args.trials
    cfg = ChainConfig(
        num_links=m,
        link_state=werner(fidelity),
        purify_rounds=rounds,
        hop_delay_D=delay,
        mode=mode,
        seed=args.seed,
        **kwargs,
    )
    report = run_chain(cfg)
    two_way, one_way = compare_latency(cfg)
    return [
        {
            "mode": mode,
            "m": m,
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

    def common(p, trials_default=1000, trials_help=None):
        p.add_argument("--seed", type=_nonnegative_int, default=0)
        p.add_argument("--trials", type=_positive_int, default=trials_default, help=trials_help)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("rate", help="EPR generation rate table")
    common(p)
    p.add_argument("--qubits", type=_positive_int, required=True)
    p.add_argument("--code", action="append", required=True, help="repeatable; custom:<n>:<k> allowed")
    p.add_argument("--cycle", type=_positive_int, default=4)
    p.add_argument("--pc", type=_probability, default=0.0)
    p.add_argument("--pg", type=_probability, default=0.0)

    p = sub.add_parser("protocol", help="protocol trial logs")
    common(p)
    p.add_argument("--name", choices=("teleport", "superdense", "swap"), required=True)
    p.add_argument("--noise", type=_noise_spec, default="none")
    p.add_argument("--links", type=_positive_int, default=3)

    p = sub.add_parser("decode", help="decoder benchmark")
    common(p)
    p.add_argument("--code", required=True)
    p.add_argument("--decoder", choices=("lookup", "mwpm", "bp"), required=True)
    p.add_argument("--p", type=_probability, default=0.01)

    p = sub.add_parser("knill", help="Knill EC Monte Carlo")
    common(p)
    p.add_argument("--code", required=True)
    p.add_argument("--decoder", choices=("lookup", "mwpm", "bp"), default="lookup")
    p.add_argument("--noise", type=_noise_spec, default=None,
                   help="data noise spec, e.g. depolarizing:0.001 (default none; not with --pc/--pg)")
    p.add_argument("--epr-noise", type=_noise_spec, default="none")
    p.add_argument("--meas-flip", type=_noise_spec, default="none")
    p.add_argument("--pc", type=_probability, default=0.0)
    p.add_argument("--pg", type=_probability, default=0.0)

    p = sub.add_parser("chain", help="repeater chain scenario")
    common(p, trials_default=None, trials_help="Knill rounds per hop in the encoded modes (default 400)")
    p.add_argument("--config", default=None, help="JSON scenario file; flags win on conflict")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--links", type=_positive_int, default=None)
    p.add_argument("--fidelity", type=_probability, default=None)
    p.add_argument("--rounds", type=_nonnegative_int, default=None)
    p.add_argument("--delay", type=_nonnegative_float, default=None)
    p.add_argument("--code", default=None)
    p.add_argument("--decoder", choices=("lookup", "mwpm", "bp"), default=None,
                   help="encoded modes only (default lookup)")
    p.add_argument("--pc", type=_probability, default=None)
    p.add_argument("--pg", type=_probability, default=None)
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
        rows = _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    buf = io.StringIO()
    write_rows(rows, buf, args.format)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
