"""Command-line front end.

Commands: rate, exponent, sweep, dump-table, encode, decode.

Input files for encode/decode hold one letter per byte.  Files are
processed in blocks of n letters; a short final block is padded with
letter 0 and the original length is recorded in the codeword file header,
so decode reproduces the input byte-exactly.

Codeword file layout (little-endian header, then MSB-first packed bits):
    magic 'CDLV' | version u8 | mode u8 (0=ff, 1=fv) | n u16 |
    kx u16 | ky u16 | original length u64 | rate f64 |
    type_width u16 | symbol_width u16
FF payload: one fixed-width `FFCode.pack` word per block; the header
widths are those of `make_code` for (n, rate, kx, ky).
FV payload: concatenated variable-length codewords; both header widths 0.
Zero bits pad the payload to a whole byte.

Exit codes: 0 success, 2 validation error, 3 malformed file (including
a header or payload the encoder cannot have written: an unknown mode,
other widths, a byte or more after the last block, or nonzero padding),
4 alphabet violation, 5 truncated stream (in both modes).
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path

from .types_core import Alphabet, JointType, Sequence
from .info_measures import (
    SourceSpec,
    achievable_rate,
    converse_correct_exponent,
    correct_exponent_inside,
    dsbs,
    error_exponent_outside,
)
from .coding_table import get_coding_table
from .ff_codec import FFCodeConfig, ff_decode_x, ff_decode_y, ff_encode, make_code
from .fv_codec import fv_decode_x_stream, fv_decode_y_stream, fv_encode
from .bitio import BitReader, BitWriter, TruncatedStreamError
from .simulator import TrialPlan, run_plan

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MALFORMED = 3
EXIT_ALPHABET = 4
EXIT_TRUNCATED = 5

MAGIC = b"CDLV"
VERSION = 1
HEADER = struct.Struct("<4sBBHHHQdHH")
MODE_FF, MODE_FV = 0, 1


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def parse_source(text: str) -> SourceSpec:
    """Inline JSON matrix, 'dsbs:<p>', or a path to a JSON file."""
    if text.startswith("dsbs:"):
        return dsbs(float(text.split(":", 1)[1]))
    if text.lstrip().startswith("["):
        raw = json.loads(text)
    else:
        path = Path(text)
        if not path.exists():
            raise CliError(f"source file not found: {text}")
        raw = json.loads(path.read_text())
    try:
        return SourceSpec(tuple(tuple(float(v) for v in row) for row in raw))
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid source matrix: {exc}") from exc


def parse_counts(text: str, n: int) -> JointType:
    """Joint count matrix written as 'c00,c01;c10,c11'."""
    rows = tuple(tuple(int(v) for v in row.split(",")) for row in text.split(";"))
    try:
        return JointType(rows, n)
    except ValueError as exc:
        raise CliError(f"invalid joint counts: {exc}") from exc


def _read_letters(path: str, k: int) -> bytes:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not data:
        raise CliError(f"{path} is empty", EXIT_MALFORMED)
    bad = [b for b in data if b >= k]
    if bad:
        raise CliError(
            f"{path}: letter {bad[0]} outside alphabet of size {k}", EXIT_ALPHABET
        )
    return data


def _blocks(data: bytes, n: int):
    for i in range(0, len(data), n):
        block = data[i:i + n]
        if len(block) < n:
            block = block + bytes(n - len(block))
        yield block


def cmd_rate(args) -> int:
    p = parse_source(args.source)
    print(f"{achievable_rate(p):.12g}")
    return EXIT_OK


def cmd_exponent(args) -> int:
    p = parse_source(args.source)
    kinds = {
        "outside": error_exponent_outside,
        "inside": correct_exponent_inside,
        "converse": converse_correct_exponent,
    }
    for kind in args.kind:
        rep = kinds[kind](args.rate, p, args.n)
        arg = rep.argmin_type.counts if rep.argmin_type is not None else None
        print(f"kind={kind} n={rep.n} rate={rep.rate:.6g} value={rep.value:.12g} argmin={arg}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read sweep config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise CliError(f"sweep config {args.config} is not a JSON object")
        try:
            plan = TrialPlan(
                p=SourceSpec(tuple(tuple(row) for row in cfg["p_xy"])),
                n_grid=tuple(cfg["n_grid"]),
                rates=tuple(cfg["rates"]),
                trials=int(cfg["trials"]),
                master_seed=int(cfg["master_seed"]),
            )
        except KeyError as exc:
            raise CliError(f"sweep config {args.config} has no field {exc}") from exc
    else:
        if not (args.source and args.n_grid and args.rates):
            raise CliError("sweep needs --config or (--source, --n, --rate)")
        plan = TrialPlan(
            p=parse_source(args.source),
            n_grid=tuple(int(v) for v in args.n_grid.split(",")),
            rates=tuple(float(v) for v in args.rates.split(",")),
            trials=args.trials,
            master_seed=args.seed,
        )
    report = run_plan(plan)
    out = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_dump_table(args) -> int:
    jt = parse_counts(args.counts, args.n)
    table = get_coding_table(jt)
    if args.out:
        with open(args.out, "w") as f:
            table.dump_csv(f)
    else:
        table.dump_csv(sys.stdout)
    return EXIT_OK


def cmd_encode(args) -> int:
    n = args.n
    kx, ky = args.kx, args.ky
    data_x = _read_letters(args.input_x, kx)
    data_y = _read_letters(args.input_y, ky)
    if len(data_x) != len(data_y):
        raise CliError("input files must have equal length", EXIT_MALFORMED)
    ax, ay = Alphabet(kx), Alphabet(ky)
    writer = BitWriter()
    flagged = 0
    if args.mode == "ff":
        if args.rate is None:
            raise CliError("--rate is required in ff mode")
        cfg = FFCodeConfig(n, args.rate, ax, ay)
        code = make_code(cfg)
        type_width, symbol_width = code.type_width, code.symbol_width
        for bx, by in zip(_blocks(data_x, n), _blocks(data_y, n)):
            cw = ff_encode(cfg, Sequence(tuple(bx), ax), Sequence(tuple(by), ay))
            flagged += cw.error_flag
            writer.write(code.pack(cw), code.codeword_width)
    else:
        type_width = symbol_width = 0
        for bx, by in zip(_blocks(data_x, n), _blocks(data_y, n)):
            cw = fv_encode(n, Sequence(tuple(bx), ax), Sequence(tuple(by), ay))
            writer.write(cw.value, cw.length)
    header = HEADER.pack(
        MAGIC,
        VERSION,
        MODE_FF if args.mode == "ff" else MODE_FV,
        n,
        kx,
        ky,
        len(data_x),
        args.rate if args.rate is not None else 0.0,
        type_width,
        symbol_width,
    )
    Path(args.out).write_bytes(header + writer.getvalue())
    if flagged:
        print(f"{flagged} block(s) flagged as encoding errors", file=sys.stderr)
    return EXIT_OK


def _read_header(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if len(data) < HEADER.size:
        raise CliError(f"{path}: header truncated", EXIT_MALFORMED)
    fields = HEADER.unpack(data[:HEADER.size])
    if fields[0] != MAGIC or fields[1] != VERSION:
        raise CliError(f"{path}: not a codeword file", EXIT_MALFORMED)
    if fields[2] not in (MODE_FF, MODE_FV):
        raise CliError(f"{path}: unknown mode {fields[2]}", EXIT_MALFORMED)
    return fields, data[HEADER.size:]


def _check_widths(path: str, stored: tuple[int, int], expected: tuple[int, int]) -> None:
    if stored != expected:
        raise CliError(f"{path}: field widths {stored} in the header, {expected} in the code", EXIT_MALFORMED)


def cmd_decode(args) -> int:
    fields, payload = _read_header(args.codeword)
    _, _, mode, n, kx, ky, orig_len, rate, type_width, symbol_width = fields
    ax, ay = Alphabet(kx), Alphabet(ky)
    # --side names the sequence reproduced; the side information is the other one.
    other, held = (ax, ay) if args.side == "x" else (ay, ax)
    side_data = _read_letters(args.side_info, held.size)
    if len(side_data) != orig_len:
        raise CliError("side information length does not match header", EXIT_MALFORMED)
    reader = BitReader(payload)
    out = bytearray()
    flagged = 0
    try:
        if mode == MODE_FF:
            cfg = FFCodeConfig(n, rate, ax, ay)
            code = make_code(cfg)
            _check_widths(args.codeword, (type_width, symbol_width), (code.type_width, code.symbol_width))
            decode = ff_decode_x if args.side == "x" else ff_decode_y
            for block in _blocks(side_data, n):
                cw = code.unpack(reader.read(code.codeword_width))
                flagged += cw.error_flag
                out.extend(decode(cfg, cw, Sequence(tuple(block), held)).letters)
        else:
            _check_widths(args.codeword, (type_width, symbol_width), (0, 0))
            decode = fv_decode_x_stream if args.side == "x" else fv_decode_y_stream
            for block in _blocks(side_data, n):
                out.extend(decode(n, reader, Sequence(tuple(block), held), other).letters)
        if reader.remaining >= 8 or reader.read(reader.remaining):
            raise CliError(f"{args.codeword}: data after the last codeword", EXIT_MALFORMED)
    except TruncatedStreamError as exc:
        raise CliError(f"codeword stream truncated: {exc}", EXIT_TRUNCATED) from exc
    except ValueError as exc:
        raise CliError(f"malformed codeword stream: {exc}", EXIT_MALFORMED) from exc
    Path(args.out).write_bytes(bytes(out[:orig_len]))
    if flagged:
        print(f"{flagged} flagged block(s): output there is a fallback", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compdeliv",
        description="Universal lossless codes for complementary delivery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="print the achievable rate of a source")
    p_rate.add_argument("--source", required=True)
    p_rate.set_defaults(func=cmd_rate)

    p_exp = sub.add_parser("exponent", help="exhaustive exponent scans")
    p_exp.add_argument("--source", required=True)
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--rate", type=float, required=True)
    p_exp.add_argument(
        "--kind",
        nargs="+",
        default=["outside"],
        choices=["outside", "inside", "converse"],
    )
    p_exp.set_defaults(func=cmd_exponent)

    p_sweep = sub.add_parser("sweep", help="exact + Monte-Carlo verification sweep")
    p_sweep.add_argument("--config", help="JSON file mirroring the trial plan")
    p_sweep.add_argument("--source")
    p_sweep.add_argument("--n", dest="n_grid", help="comma-separated block lengths")
    p_sweep.add_argument("--rate", dest="rates", help="comma-separated rates")
    p_sweep.add_argument("--trials", type=int, default=10000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dump = sub.add_parser("dump-table", help="dump one coding table as CSV")
    p_dump.add_argument("--n", type=int, required=True)
    p_dump.add_argument("--counts", required=True, help="joint counts 'c00,c01;c10,c11'")
    p_dump.add_argument("--out")
    p_dump.set_defaults(func=cmd_dump_table)

    p_enc = sub.add_parser("encode", help="encode a pair of letter files")
    p_enc.add_argument("--mode", choices=["ff", "fv"], required=True)
    p_enc.add_argument("--n", type=int, required=True)
    p_enc.add_argument("--rate", type=float)
    p_enc.add_argument("--kx", type=int, default=2)
    p_enc.add_argument("--ky", type=int, default=2)
    p_enc.add_argument("--input-x", required=True)
    p_enc.add_argument("--input-y", required=True)
    p_enc.add_argument("--out", required=True)
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="decode one side from codewords + side info")
    p_dec.add_argument("--side", choices=["x", "y"], required=True)
    p_dec.add_argument("--codeword", required=True)
    p_dec.add_argument("--side-info", required=True)
    p_dec.add_argument("--out", required=True)
    p_dec.set_defaults(func=cmd_decode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
