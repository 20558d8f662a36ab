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
Zero bits pad the payload to a whole byte.  Both commands code all blocks
of a file as arrays (`ff_encode_batch`, `fv_encode_batch` and the
decoders beside them); the bytes are those of coding block by block.

Before any work, n must be 1 to 65535, kx and ky 1 to 256 (letters are
bytes), and a rate, which ff mode needs, finite and positive.  An ff
code reads count columns over every joint type, which hold at most
MAX_JOINT_TYPE_COUNTS counts: n up to 114 for 2 x 2 alphabets, 11 for
3 x 3, 6 for 4 x 4, 2 for 8 x 8, 1 for 16 x 16.  An fv type index must fit 32
bits (MAX_HEADER_WIDTH; 4 x 4 at n=8 takes 19, 3 x 3 at n=12 17; 2 x 2
reaches n=2951), and an fv file may hold joint types of up to
MAX_JOINT_TYPE_COUNTS counts (16 distinct types of 256 x 256 letters,
65,536 of 4 x 4): one with more is refused before any table is built.

Large alphabets do not compress at the block lengths they allow.  Every
block carries its joint type, log2 C(n + kx*ky - 1, kx*ky - 1) bits, before
its symbol: per letter, 16 bits for 256 x 256 at n=1 and 15.5 at n=2 (the
raw pair takes 16), and 0.92 for 2 x 2 at n=8, 1.41 for 3 x 3 at n=12 and
2.36 for 4 x 4 at n=8 (raw: 2, 4 and 4), so only small alphabets reach
block lengths where the rate can approach `achievable_rate`.

Exit codes: 0 success, 2 validation error (including an --out that
cannot be written and a --source or input file that cannot be read,
each named), 3 malformed file (including
a header or payload the encoder cannot have written: an unknown mode,
other widths, n, kx or ky out of its mode's limits, a rate that is not
finite (or, in ff mode, not positive), more distinct joint types than an
fv code keeps, a byte or more after the last block, or nonzero
padding), 4 alphabet violation, 5 truncated stream (in both modes).  A
decode error names the first failing block.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .types_core import Alphabet, JointType, check_joint_type_count
from .info_measures import (
    SourceSpec,
    achievable_rate,
    converse_correct_exponent,
    correct_exponent_inside,
    dsbs,
    error_exponent_outside,
)
from .coding_table import get_coding_table, held_and_decoded
from .ff_codec import FFCodeConfig, check_rate, ff_decode_batch, ff_encode_batch, make_code
from .fv_codec import fv_decode_batch, fv_encode_batch, make_fv_code
from .bitio import TruncatedStreamError
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
MAX_N = 2 ** 16 - 1  # the header's n is a u16


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def parse_source(text: str) -> SourceSpec:
    """Inline JSON matrix, 'dsbs:<p>', or a path to a JSON file; any
    failure is a CliError (exit 2) that names the text."""
    try:
        if text.startswith("dsbs:"):
            return dsbs(float(text.split(":", 1)[1]))
        raw = json.loads(text if text.lstrip().startswith("[") else Path(text).read_text())
        return SourceSpec(SWEEP_FIELDS["p_xy"][1](raw))  # read as a sweep config's p_xy
    except OSError as exc:
        raise CliError(f"cannot read source file {text}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid source matrix {text}: {exc}") from exc


def parse_counts(text: str, n: int) -> JointType:
    """Joint count matrix written as 'c00,c01;c10,c11'; any failure is a
    CliError (exit 2) that names the option and the text."""
    try:
        return JointType(tuple(tuple(map(int, row.split(","))) for row in text.split(";")), n)
    except ValueError as exc:
        raise CliError(f"--counts {text!r} with --n {n}: {exc}") from exc


def _read_letters(path: str, k: int) -> np.ndarray:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not data:
        raise CliError(f"{path} is empty", EXIT_MALFORMED)
    letters = np.frombuffer(data, np.uint8)
    outside = letters >= k
    if outside.any():
        at = int(np.argmax(outside))
        raise CliError(
            f"{path}: letter {letters[at]} at byte {at} outside alphabet of size {k}", EXIT_ALPHABET
        )
    return letters


@contextmanager
def _output(path: str | None, mode: str = "w"):
    """Every command's output: `path` opened in `mode`, or stdout; an OSError there exits 2."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, mode) as f:
            yield f
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _pad_blocks(letters: np.ndarray, n: int) -> np.ndarray:
    """Letters as (m, n) blocks, the last one padded with letter 0."""
    blocks = np.zeros(-(-len(letters) // n) * n, np.uint8)
    blocks[:len(letters)] = letters
    return blocks.reshape(-1, n)


def _check_size(n: int, kx: int, ky: int, ff: bool, code: int, prefix: str, names: tuple[str, str, str]) -> None:
    """Refuse a block length or alphabets the header cannot hold or the
    code (ff or fv) cannot take, before any work; `names` are the fields."""
    if not 1 <= n <= MAX_N:
        raise CliError(f"{prefix}{names[0]} is {n}; it must be 1 to {MAX_N}", code)
    for name, k in zip(names[1:], (kx, ky)):
        if not 1 <= k <= 256:
            raise CliError(f"{prefix}{name} is {k}; letters are bytes, so it must be 1 to 256", code)
    try:
        if ff:
            check_joint_type_count(n, kx, ky)
        else:
            make_fv_code(n, Alphabet(kx), Alphabet(ky))  # refuses a type index wider than its header
    except ValueError as exc:
        raise CliError(f"{prefix}{'/'.join(names)}: {exc}", code) from exc


def cmd_rate(args) -> int:
    p = parse_source(args.source)
    print(f"{achievable_rate(p):.12g}")
    return EXIT_OK


def cmd_exponent(args) -> int:
    check_rate(args.rate, "--rate")
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


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _json_list(convert):
    def items(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        return tuple(map(convert, value))

    return items


# The fields of a sweep config: what each must be, and its reader.
SWEEP_FIELDS = {
    "p_xy": ("a list of lists of numbers", _json_list(_json_list(_json_number))),
    "n_grid": ("a list of integers", _json_list(_json_int)),
    "rates": ("a list of numbers", _json_list(_json_number)),
    "trials": ("an integer", _json_int),
    "master_seed": ("an integer", _json_int),
}


def _number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _list_option(option: str, text: str, field: str) -> tuple:
    """A comma-separated option, read as a sweep config reads `field`."""
    kind, convert = SWEEP_FIELDS[field]
    try:
        return convert(list(map(_number, text.split(","))))
    except (TypeError, ValueError) as exc:
        raise CliError(f"{option} is {text}; it must be {kind}, comma-separated") from exc


def cmd_sweep(args) -> int:
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read sweep config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise CliError(f"sweep config {args.config} is not a JSON object")
        fields = {}
        for name, (kind, convert) in SWEEP_FIELDS.items():
            if name not in cfg:
                raise CliError(f"sweep config {args.config} has no field '{name}'")
            try:
                fields[name] = convert(cfg[name])
            except TypeError as exc:
                raise CliError(f"sweep config {args.config}: field '{name}' must be {kind}") from exc
        plan = TrialPlan(p=SourceSpec(fields.pop("p_xy")), **fields)
    else:
        if not (args.source and args.n_grid and args.rates):
            raise CliError("sweep needs --config or (--source, --n, --rate)")
        plan = TrialPlan(
            p=parse_source(args.source),
            n_grid=_list_option("--n", args.n_grid, "n_grid"),
            rates=_list_option("--rate", args.rates, "rates"),
            trials=args.trials,
            master_seed=args.seed,
        )
    report = run_plan(plan)
    with _output(args.out) as f:
        f.write(report.to_json() if args.format == "json" else report.to_csv())
    return EXIT_OK


def cmd_dump_table(args) -> int:
    table = get_coding_table(parse_counts(args.counts, args.n))
    with _output(args.out) as f:
        table.dump_csv(f)
    return EXIT_OK


def cmd_encode(args) -> int:
    n, kx, ky = args.n, args.kx, args.ky
    _check_size(n, kx, ky, args.mode == "ff", EXIT_VALIDATION, "", ("--n", "--kx", "--ky"))
    if args.mode == "ff" and args.rate is None:
        raise CliError("--rate is required in ff mode")
    if args.rate is not None:
        check_rate(args.rate, "--rate")
    letters_x = _read_letters(args.input_x, kx)
    letters_y = _read_letters(args.input_y, ky)
    if len(letters_x) != len(letters_y):
        raise CliError("input files must have equal length", EXIT_MALFORMED)
    x, y = _pad_blocks(letters_x, n), _pad_blocks(letters_y, n)
    ax, ay = Alphabet(kx), Alphabet(ky)
    flagged = 0
    if args.mode == "ff":
        cfg = FFCodeConfig(n, args.rate, ax, ay)
        code = make_code(cfg)
        type_width, symbol_width = code.type_width, code.symbol_width
        words = ff_encode_batch(cfg, x, y)
        flagged = int(words[0].sum())
    else:
        type_width = symbol_width = 0
        code = make_fv_code(n, ax, ay)
        words = fv_encode_batch(code, x, y)
    header = HEADER.pack(
        MAGIC,
        VERSION,
        MODE_FF if args.mode == "ff" else MODE_FV,
        n,
        kx,
        ky,
        len(letters_x),
        args.rate if args.rate is not None else 0.0,
        type_width,
        symbol_width,
    )
    with _output(args.out, "wb") as f:
        f.write(header + code.pack_words(words))
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
    _check_size(n, kx, ky, mode == MODE_FF, EXIT_MALFORMED, f"{args.codeword}: header field ", ("n", "kx", "ky"))
    if not math.isfinite(rate) or mode == MODE_FF and rate <= 0:
        raise CliError(
            f"{args.codeword}: header field rate is {rate}; the encoder writes a finite rate, "
            "positive in ff mode",
            EXIT_MALFORMED,
        )
    ax, ay = Alphabet(kx), Alphabet(ky)
    held, _ = held_and_decoded(args.side, ax, ay)
    side_letters = _read_letters(args.side_info, held.size)
    if len(side_letters) != orig_len:
        raise CliError("side information length does not match header", EXIT_MALFORMED)
    side_info = _pad_blocks(side_letters, n)
    flagged = 0
    try:
        # Words are decoded up to the first one that cannot be framed, so
        # an error names the first failing block, as decoding in order would.
        if mode == MODE_FF:
            cfg = FFCodeConfig(n, rate, ax, ay)
            code = make_code(cfg)
            _check_widths(args.codeword, (type_width, symbol_width), (code.type_width, code.symbol_width))
            words, end, framing = code.read_words(payload, len(side_info))
            out = ff_decode_batch(cfg, words, side_info[:len(words[0])], args.side)
            flagged = int(words[0].sum())
        else:
            _check_widths(args.codeword, (type_width, symbol_width), (0, 0))
            code = make_fv_code(n, ax, ay)
            words, end, framing = code.read_words(payload, len(side_info))
            out = fv_decode_batch(code, words, side_info[:len(words[0])], args.side)
        if framing is not None:
            raise framing
    except TruncatedStreamError as exc:
        raise CliError(f"codeword stream truncated: {_located(exc)}", EXIT_TRUNCATED) from exc
    except ValueError as exc:
        raise CliError(f"malformed codeword stream: {_located(exc)}", EXIT_MALFORMED) from exc
    if len(payload) != -(-end // 8) or payload and payload[-1] & (0xFF >> (end % 8 or 8)):
        raise CliError(f"{args.codeword}: data after the last codeword", EXIT_MALFORMED)
    with _output(args.out, "wb") as f:
        f.write(out.tobytes()[:orig_len])
    if flagged:
        print(f"{flagged} flagged block(s): output there is a fallback", file=sys.stderr)
    return EXIT_OK


def _located(exc: ValueError) -> str:
    """The message of a decode error, naming its block when it has one."""
    row = getattr(exc, "row", None)
    return str(exc) if row is None else f"block {row}: {exc}"


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
