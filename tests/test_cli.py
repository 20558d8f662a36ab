"""Command-line interface: file codecs, reports, and exit codes."""

import json

import numpy as np
import pytest

from compdeliv import coding_table, ff_codec, fv_codec, info_measures, types_core
from compdeliv.bitio import BitReader, BitWriter
from compdeliv.cli import (
    EXIT_ALPHABET,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_TRUNCATED,
    EXIT_VALIDATION,
    HEADER,
    MAGIC,
    main,
    parse_counts,
    parse_source,
)
from compdeliv.ff_codec import FFCodeConfig, ff_decode_x, ff_decode_y, ff_encode, make_code
from compdeliv.fv_codec import fv_decode_x_stream, fv_decode_y_stream, fv_encode
from compdeliv.types_core import Alphabet, Sequence
from conftest import PAST_ENUMERATION, correlated_blocks


def write_letters(path, letters):
    path.write_bytes(bytes(letters))


def encode_file(mode, sample_files, tmp_path):
    """Encode the 13-letter sample pair at n=5 (FF at rate 1.0); returns the file.

    Both payloads end in padding: 33 FF and 22 FV codeword bits.
    """
    x, y = sample_files
    cw = tmp_path / f"{mode}.cdlv"
    rate = ["--rate", "1.0"] if mode == "ff" else []
    assert main(
        [
            "encode", "--mode", mode, "--n", "5", *rate,
            "--input-x", str(x), "--input-y", str(y), "--out", str(cw),
        ]
    ) == EXIT_OK
    return cw


def encode_pair(tmp_path, x, y, n, mode, rate=None, kx=2, ky=2):
    """Write x and y as letter files and encode them; returns the codeword file."""
    paths = tmp_path / "x.bin", tmp_path / "y.bin"
    for path, letters in zip(paths, (x, y)):
        write_letters(path, letters)
    cw = tmp_path / f"{mode}.cdlv"
    argv = ["encode", "--mode", mode, "--n", str(n), "--kx", str(kx), "--ky", str(ky)]
    argv += ["--rate", str(rate)] if rate is not None else []
    assert main([*argv, "--input-x", str(paths[0]), "--input-y", str(paths[1]), "--out", str(cw)]) == EXIT_OK
    return cw


def decode_side(tmp_path, cw, side, side_letters):
    """Decode one side of `cw` from the other side's letters; returns (exit code, output bytes)."""
    info, out = tmp_path / "side.bin", tmp_path / "out.bin"
    write_letters(info, side_letters)
    out.unlink(missing_ok=True)
    code = main(["decode", "--side", side, "--codeword", str(cw), "--side-info", str(info), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def header_with(data, **fields):
    """`data` with some header fields replaced."""
    names = ("magic", "version", "mode", "n", "kx", "ky", "orig_len", "rate", "type_width", "symbol_width")
    header = dict(zip(names, HEADER.unpack(data[:HEADER.size])))
    header.update(fields)
    return HEADER.pack(*header.values()) + data[HEADER.size:]


@pytest.fixture
def sample_files(tmp_path):
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    # correlated but not identical, length 13 to exercise padding
    write_letters(x, [0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0])
    write_letters(y, [0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0])
    return x, y


class TestParsing:
    def test_parse_dsbs(self):
        p = parse_source("dsbs:0.11")
        assert p.p_xy[0][1] == pytest.approx(0.055)

    def test_parse_inline_json(self):
        p = parse_source("[[0.25, 0.25], [0.25, 0.25]]")
        assert p.num_x == 2

    def test_parse_file(self, tmp_path):
        f = tmp_path / "src.json"
        f.write_text(json.dumps([[0.5, 0.0], [0.0, 0.5]]))
        assert parse_source(str(f)).p_xy == ((0.5, 0.0), (0.0, 0.5))

    @pytest.mark.parametrize("text", ["[[0.5", "file [[0.5", "dsbs:x", "dsbs:2", "dsbs:nan"])
    def test_unusable_source_is_a_cli_error_naming_it(self, text, tmp_path, capsys):
        from compdeliv.cli import CliError

        if text.startswith("file "):
            (tmp_path / "p.json").write_text(text.removeprefix("file "))
            text = str(tmp_path / "p.json")
        with pytest.raises(CliError, match="invalid source matrix") as caught:
            parse_source(text)
        assert caught.value.code == EXIT_VALIDATION and text in str(caught.value)
        assert main(["rate", "--source", text]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: invalid source matrix {text}: ") and not captured.out

    @pytest.mark.parametrize(
        "option, value", [("--n", "4,x"), ("--n", "4,6.5"), ("--rate", "0.8,x"), ("--rate", "0.8,,0.9")]
    )
    def test_sweep_list_option_that_is_not_a_list_names_the_option(self, option, value, capsys):
        lists = {"--n": "4", "--rate": "0.8", option: value}
        argv = ["sweep", "--source", "dsbs:0.11", "--n", lists["--n"], "--rate", lists["--rate"], "--trials", "10"]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {option} is {value}; it must be a list of ") and not captured.out

    def test_parse_counts(self):
        jt = parse_counts("1,2;3,4", 10)
        assert jt.counts == ((1, 2), (3, 4))

    def test_parse_counts_bad_total(self):
        from compdeliv.cli import CliError

        with pytest.raises(CliError):
            parse_counts("1,2;3,4", 9)


class TestRateAndExponent:
    def test_rate_identity_coupling(self, capsys):
        assert main(["rate", "--source", "[[0.5,0.0],[0.0,0.5]]"]) == EXIT_OK
        assert float(capsys.readouterr().out) == 0.0

    def test_rate_dsbs(self, capsys):
        assert main(["rate", "--source", "dsbs:0.11"]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.4999161, abs=1e-6)

    def test_exponent_kinds(self, capsys):
        code = main(
            [
                "exponent",
                "--source",
                "dsbs:0.11",
                "--n",
                "4",
                "--rate",
                "0.8",
                "--kind",
                "outside",
                "inside",
                "converse",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("kind=outside")
        assert "value=" in lines[0]


class TestSweep:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "sweep",
                "--source",
                "dsbs:0.11",
                "--n",
                "4",
                "--rate",
                "0.8,1.0",
                "--trials",
                "500",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,rate,exact_e_sum")
        assert len(lines) == 3

    def test_sweep_config_json(self, tmp_path):
        cfg = tmp_path / "plan.json"
        cfg.write_text(
            json.dumps(
                {
                    "p_xy": [[0.25, 0.25], [0.25, 0.25]],
                    "n_grid": [4],
                    "rates": [1.0],
                    "trials": 200,
                    "master_seed": 1,
                }
            )
        )
        out = tmp_path / "report.json"
        code = main(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert rows[0]["exact_e_sum"] == 0.0

    def test_sweep_requires_arguments(self):
        assert main(["sweep"]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "content",
        [None, b"{not json", b"\xff\xfe{", b"[]", b"7", b'"plan"'],
        ids=["missing", "not-json", "not-utf8", "list", "number", "string"],
    )
    def test_sweep_config_unusable_is_validation_error(self, content, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_VALIDATION
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("n_grid", 4), ("rates", "0.8"), ("trials", [10]), ("p_xy", [0.5, 0.5]), ("master_seed", True)],
    )
    def test_sweep_config_wrong_field_type_is_validation_error(self, field, value, tmp_path, capsys):
        fields = {
            "p_xy": [[0.25, 0.25], [0.25, 0.25]],
            "n_grid": [4],
            "rates": [1.0],
            "trials": 10,
            "master_seed": 1,
        }
        fields[field] = value
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(fields))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(cfg) in err and field in err

    @pytest.mark.parametrize("missing", ["p_xy", "n_grid", "rates", "trials", "master_seed"])
    def test_sweep_config_missing_field_is_validation_error(self, missing, tmp_path, capsys):
        fields = {
            "p_xy": [[0.25, 0.25], [0.25, 0.25]],
            "n_grid": [4],
            "rates": [1.0],
            "trials": 10,
            "master_seed": 1,
        }
        del fields[missing]
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(fields))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_VALIDATION
        assert missing in capsys.readouterr().err

    def test_sweep_negative_seed_names_it(self, capsys):
        argv = ["sweep", "--source", "dsbs:0.11", "--n", "4", "--rate", "0.8", "--trials", "10", "--seed", "-1"]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "error: master_seed is -1; it must be >= 0\n" and not captured.out

    def test_sweep_config_negative_master_seed_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"p_xy": [[0.25, 0.25], [0.25, 0.25]], "n_grid": [4], "rates": [1.0],
                                   "trials": 10, "master_seed": -7}))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "error: master_seed is -7; it must be >= 0\n" and not captured.out


class TestDumpTable:
    def test_zero_block_length_is_a_validation_error(self, capsys):
        assert main(["dump-table", "--n", "0", "--counts", "0,0;0,0"]) == EXIT_VALIDATION
        assert "n=0" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", ["1,x;1,1", "", "1,1;1"], ids=["letter", "empty", "ragged"])
    def test_bad_counts_name_the_option_and_the_text(self, counts, capsys):
        assert main(["dump-table", "--n", "3", "--counts", counts]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --counts {counts!r} with --n 3: ") and not captured.out

    def test_latin_rectangle_pattern(self, capsys):
        assert main(["dump-table", "--n", "4", "--counts", "1,1;1,1"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 6 and all(len(r) == 6 for r in rows)
        symbols = {c for r in rows for c in r if c}
        assert symbols == {"0", "1", "2", "3"}
        for r in rows:
            filled = [c for c in r if c]
            assert len(filled) == len(set(filled)) == 4
        for j in range(6):
            col = [r[j] for r in rows if r[j]]
            assert len(col) == len(set(col))


class TestFileCodec:
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_ff_round_trip_full_rate(self, sample_files, tmp_path, side):
        x, y = sample_files
        cw = tmp_path / "code.bin"
        out = tmp_path / "decoded.bin"
        assert (
            main(
                [
                    "encode", "--mode", "ff", "--n", "4", "--rate", "1.0",
                    "--input-x", str(x), "--input-y", str(y), "--out", str(cw),
                ]
            )
            == EXIT_OK
        )
        side_info = y if side == "x" else x
        source = x if side == "x" else y
        assert (
            main(
                [
                    "decode", "--side", side, "--codeword", str(cw),
                    "--side-info", str(side_info), "--out", str(out),
                ]
            )
            == EXIT_OK
        )
        assert out.read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_fv_round_trip(self, sample_files, tmp_path, side):
        x, y = sample_files
        cw = tmp_path / "code.bin"
        out = tmp_path / "decoded.bin"
        assert (
            main(
                [
                    "encode", "--mode", "fv", "--n", "5",
                    "--input-x", str(x), "--input-y", str(y), "--out", str(cw),
                ]
            )
            == EXIT_OK
        )
        side_info = y if side == "x" else x
        source = x if side == "x" else y
        assert (
            main(
                [
                    "decode", "--side", side, "--codeword", str(cw),
                    "--side-info", str(side_info), "--out", str(out),
                ]
            )
            == EXIT_OK
        )
        assert out.read_bytes() == source.read_bytes()

    def test_ff_tiny_rate_reports_flagged_blocks(self, sample_files, tmp_path, capsys):
        x, y = sample_files
        cw = tmp_path / "code.bin"
        code = main(
            [
                "encode", "--mode", "ff", "--n", "4", "--rate", "0.01",
                "--input-x", str(x), "--input-y", str(y), "--out", str(cw),
            ]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "flagged" in err

    def test_ff_requires_rate(self, sample_files, tmp_path):
        x, y = sample_files
        code = main(
            [
                "encode", "--mode", "ff", "--n", "4",
                "--input-x", str(x), "--input-y", str(y),
                "--out", str(tmp_path / "c.bin"),
            ]
        )
        assert code == EXIT_VALIDATION

    def test_ff_rate_is_checked_before_any_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.bin"
        argv = ["encode", "--mode", "ff", "--n", "8", "--input-x", str(missing), "--input-y", str(missing),
                "--out", str(tmp_path / "c.bin")]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --rate is required in ff mode\n"
        assert not (tmp_path / "c.bin").exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dump-table", "--n", "3", "--counts", "1,1;1"],
            ["rate", "--source", "[[0.5, 0.5], [0.0]]"],
            ["rate", "--source", "[[1.0], [0.0, 0.0]]"],
            ["rate", "--source", "[[]]"],
            ["exponent", "--source", "[[0.5, 0.5], [0.0]]", "--n", "2", "--rate", "0.5"],
        ],
    )
    def test_ragged_or_empty_matrix_is_validation_error(self, argv, capsys):
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("where", ["in a missing directory", "a directory"])
    @pytest.mark.parametrize("command", ["encode", "decode", "dump-table", "sweep"])
    def test_output_that_cannot_be_written_is_validation_error(self, command, where, sample_files, tmp_path, capsys):
        x, y = sample_files
        argv = {
            "encode": ["encode", "--mode", "fv", "--n", "4", "--input-x", str(x), "--input-y", str(y)],
            "decode": ["decode", "--side", "x", "--codeword", str(encode_file("fv", sample_files, tmp_path)),
                       "--side-info", str(y)],
            "dump-table": ["dump-table", "--n", "4", "--counts", "1,1;1,1"],
            "sweep": ["sweep", "--source", "dsbs:0.11", "--n", "4", "--rate", "0.8", "--trials", "10"],
        }[command]
        out = str(tmp_path / "missing" / "out" if where == "in a missing directory" else tmp_path)
        assert main([*argv, "--out", out]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize(
        "argv",
        [["rate"], ["exponent", "--n", "2", "--rate", "0.5"], ["sweep", "--n", "4", "--rate", "0.8", "--trials", "10"]],
    )
    def test_source_that_is_a_directory_is_validation_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--source", str(tmp_path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: cannot read source file {tmp_path}: ")

    @pytest.mark.parametrize("matrix", ["[[true, false]]", '[["0.25", "0.25"], ["0.25", "0.25"]]'], ids=["booleans", "strings"])
    @pytest.mark.parametrize("where", ["inline", "file"])
    @pytest.mark.parametrize(
        "argv",
        [["rate"], ["exponent", "--n", "2", "--rate", "0.5"], ["sweep", "--n", "4", "--rate", "0.8", "--trials", "10"]],
    )
    def test_source_of_booleans_or_strings_is_validation_error(self, argv, where, matrix, tmp_path, capsys):
        # Read as a sweep config's p_xy is: a list of lists of numbers.
        source = matrix
        if where == "file":
            source = str(tmp_path / "p.json")
            (tmp_path / "p.json").write_text(matrix)
        assert main([*argv, "--source", source]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: invalid source matrix {source}: ") and "is not a number" in captured.err
        assert not captured.out

    def test_alphabet_violation(self, tmp_path, capsys):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        write_letters(x, [0, 1, 2, 0, 3])  # letters 2 and 3 outside binary
        write_letters(y, [0, 1, 0, 0, 1])
        code = main(
            [
                "encode", "--mode", "fv", "--n", "4",
                "--input-x", str(x), "--input-y", str(y),
                "--out", str(tmp_path / "c.bin"),
            ]
        )
        assert code == EXIT_ALPHABET
        assert "letter 2 at byte 2" in capsys.readouterr().err

    def test_length_mismatch_is_malformed(self, tmp_path):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        write_letters(x, [0, 1, 0])
        write_letters(y, [0, 1, 0, 0])
        code = main(
            [
                "encode", "--mode", "fv", "--n", "4",
                "--input-x", str(x), "--input-y", str(y),
                "--out", str(tmp_path / "c.bin"),
            ]
        )
        assert code == EXIT_MALFORMED

    def test_bad_magic_is_malformed(self, sample_files, tmp_path):
        x, y = sample_files
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"NOPE" + bytes(HEADER.size))
        code = main(
            [
                "decode", "--side", "x", "--codeword", str(bogus),
                "--side-info", str(y), "--out", str(tmp_path / "o.bin"),
            ]
        )
        assert code == EXIT_MALFORMED

    @pytest.mark.parametrize("mode", ["ff", "fv"])
    def test_truncated_stream(self, mode, sample_files, tmp_path):
        x, y = sample_files
        cw = encode_file(mode, sample_files, tmp_path)
        data = cw.read_bytes()
        cw.write_bytes(data[: HEADER.size + 1])  # keep header, drop payload
        code = main(
            [
                "decode", "--side", "x", "--codeword", str(cw),
                "--side-info", str(y), "--out", str(tmp_path / "o.bin"),
            ]
        )
        assert code == EXIT_TRUNCATED

    @pytest.mark.parametrize("mode", ["ff", "fv"])
    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(lambda data: data + bytes(64), id="zero-bytes-appended"),
            pytest.param(lambda data: data + bytes(1), id="zero-byte-appended"),
            pytest.param(lambda data: data[:-1] + bytes([data[-1] | 1]), id="padding-bit-set"),
            pytest.param(lambda data: header_with(data, mode=2), id="unknown-mode"),
            pytest.param(lambda data: header_with(data, type_width=7), id="type-width"),
            pytest.param(lambda data: header_with(data, symbol_width=1), id="symbol-width"),
        ],
    )
    def test_file_the_encoder_cannot_write_is_malformed(self, mode, tamper, sample_files, tmp_path, capsys):
        x, y = sample_files
        cw = encode_file(mode, sample_files, tmp_path)
        cw.write_bytes(tamper(cw.read_bytes()))
        for side, side_info in (("x", y), ("y", x)):
            code = main(
                [
                    "decode", "--side", side, "--codeword", str(cw),
                    "--side-info", str(side_info), "--out", str(tmp_path / "o.bin"),
                ]
            )
            assert code == EXIT_MALFORMED, side
            assert str(cw) in capsys.readouterr().err

    def test_header_layout(self, sample_files, tmp_path):
        x, y = sample_files
        cw = tmp_path / "code.bin"
        main(
            [
                "encode", "--mode", "ff", "--n", "4", "--rate", "1.0",
                "--input-x", str(x), "--input-y", str(y), "--out", str(cw),
            ]
        )
        fields = HEADER.unpack(cw.read_bytes()[: HEADER.size])
        magic, version, mode, n, kx, ky, orig_len, rate, tw, sw = fields
        assert magic == MAGIC and version == 1 and mode == 0
        assert (n, kx, ky, orig_len) == (4, 2, 2, 13)
        assert rate == 1.0
        assert tw > 0 and sw > 0


class TestNonFiniteValues:
    """NaN and infinite rates and probabilities are refused before any work."""

    RATES = ["nan", "inf", "-inf", "0"]

    @pytest.mark.parametrize("mode", ["ff", "fv"])
    @pytest.mark.parametrize("rate", RATES)
    def test_encode_rate(self, mode, rate, sample_files, tmp_path, capsys):
        x, y = sample_files
        out = tmp_path / "c.bin"
        argv = ["encode", "--mode", mode, "--n", "4", f"--rate={rate}", "--input-x", str(x), "--input-y", str(y)]
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert "--rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", RATES)
    def test_exponent_rate(self, rate, capsys):
        assert main(["exponent", "--source", "dsbs:0.11", "--n", "4", f"--rate={rate}"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "--rate" in captured.err and not captured.out

    @pytest.mark.parametrize("rate", RATES)
    def test_sweep_rate(self, rate, capsys):
        argv = ["sweep", "--source", "dsbs:0.11", "--n", "4", f"--rate=0.8,{rate}", "--trials", "10"]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "rates[1]" in captured.err and not captured.out

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_source_probability(self, bad, capsys):
        assert main(["rate", "--source", f"[[{bad},0.5],[0.25,0.25]]"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "finite" in captured.err and not captured.out

    @pytest.mark.parametrize("mode", ["ff", "fv"])
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_decode_header_rate_is_malformed(self, mode, rate, sample_files, tmp_path, capsys):
        x, y = sample_files
        cw = encode_file(mode, sample_files, tmp_path)
        cw.write_bytes(header_with(cw.read_bytes(), rate=rate))
        code = main(["decode", "--side", "x", "--codeword", str(cw), "--side-info", str(y),
                     "--out", str(tmp_path / "o.bin")])
        assert code == EXIT_MALFORMED
        assert "header field rate" in capsys.readouterr().err


class TestCorruptedFiles:
    """Seeded single-bit payload flips: every decode ends in a documented exit."""

    @pytest.mark.parametrize("mode", ["ff", "fv"])
    def test_payload_bit_flips_exit_cleanly(self, mode, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(4000)
        x = rng.integers(0, 2, size=800, dtype=np.uint8)
        y = x ^ (rng.random(800) < 0.11).astype(np.uint8)
        write_letters(tmp_path / "x.bin", x.tolist())
        write_letters(tmp_path / "y.bin", y.tolist())
        cw = tmp_path / "code.bin"
        rate = ["--rate", "0.8"] if mode == "ff" else []
        assert main(
            [
                "encode", "--mode", mode, "--n", "8", *rate,
                "--input-x", str(tmp_path / "x.bin"), "--input-y", str(tmp_path / "y.bin"),
                "--out", str(cw),
            ]
        ) == EXIT_OK
        clean = cw.read_bytes()
        payload_bits = 8 * (len(clean) - HEADER.size)
        bad = tmp_path / "bad.bin"
        for bit in rng.choice(payload_bits, size=25, replace=False):
            data = bytearray(clean)
            data[HEADER.size + bit // 8] ^= 0x80 >> (bit % 8)
            bad.write_bytes(bytes(data))
            for side, side_info in (("x", "y.bin"), ("y", "x.bin")):
                code = main(
                    [
                        "decode", "--side", side, "--codeword", str(bad),
                        "--side-info", str(tmp_path / side_info),
                        "--out", str(tmp_path / "out.bin"),
                    ]
                )
                assert code in (EXIT_OK, EXIT_MALFORMED, EXIT_TRUNCATED), (bit, side, code)
        capsys.readouterr()


class TestArrayCodec:
    """The file codec against the per-block library path, bit for bit."""

    @staticmethod
    def scalar_files(mode, n, rate, kx, ky, x, y):
        """(payload, decoded x, decoded y) of the per-block path: `FFCode.pack`
        or `fv_encode` words through `BitWriter`, and the scalar decoders."""
        ax, ay = Alphabet(kx), Alphabet(ky)
        pad = [0] * (-len(x) % n)
        blocks = [
            (Sequence(tuple(bx), ax), Sequence(tuple(by), ay))
            for bx, by in zip(*(np.reshape(list(s) + pad, (-1, n)).tolist() for s in (x, y)))
        ]
        w, out_x, out_y = BitWriter(), [], []
        if mode == "ff":
            cfg = FFCodeConfig(n, rate, ax, ay)
            code = make_code(cfg)
            for bx, by in blocks:
                w.write(code.pack(ff_encode(cfg, bx, by)), code.codeword_width)
            reader = BitReader(w.getvalue())
            for bx, by in blocks:
                cw = code.unpack(reader.read(code.codeword_width))
                out_x += ff_decode_x(cfg, cw, by).letters
                out_y += ff_decode_y(cfg, cw, bx).letters
        else:
            for bx, by in blocks:
                cw = fv_encode(n, bx, by)
                w.write(cw.value, cw.length)
            rx, ry = BitReader(w.getvalue()), BitReader(w.getvalue())
            for bx, by in blocks:
                out_x += fv_decode_x_stream(n, rx, by, ax).letters
                out_y += fv_decode_y_stream(n, ry, bx, ay).letters
        return w.getvalue(), bytes(out_x[:len(x)]), bytes(out_y[:len(y)])

    @pytest.mark.parametrize("mode", ["ff", "fv"])
    @pytest.mark.parametrize("n, kx, ky", [(1, 2, 2), (3, 2, 2), (8, 2, 2), (4, 3, 2)])
    def test_files_match_the_per_block_path(self, mode, n, kx, ky, tmp_path, capsys):
        rng = np.random.default_rng(10 * n + kx)
        x = rng.integers(0, kx, size=203).tolist()  # no n > 1 here divides 203
        y = [(a + (rng.random() < 0.25)) % ky for a in x]
        rate = 0.5 if mode == "ff" else None
        cw = encode_pair(tmp_path, x, y, n, mode, rate, kx, ky)
        payload, want_x, want_y = self.scalar_files(mode, n, rate, kx, ky, x, y)
        assert cw.read_bytes()[HEADER.size:] == payload
        assert decode_side(tmp_path, cw, "x", y) == (EXIT_OK, want_x)
        assert decode_side(tmp_path, cw, "y", x) == (EXIT_OK, want_y)
        if mode == "fv":
            assert (want_x, want_y) == (bytes(x), bytes(y))
        elif n > 1:  # some blocks flagged, some not
            assert 0 < want_x.count(0) < len(x) and "flagged" in capsys.readouterr().err

    @staticmethod
    def wide_pair():
        """Five n=70 blocks, the last one short: FF(0.99) words are 83 bits,
        with a 66-bit symbol field; block 2 is flagged."""
        n, zeros = 70, [0] * 70
        x, y = [], []
        for bx, by in (
            (zeros, zeros),
            (zeros, [1 if i == 5 else 0 for i in range(n)]),
            ([i % 2 for i in range(n)], [i // 2 % 2 for i in range(n)]),
            ([1 if i == 3 else 0 for i in range(n)], [1 if i == 3 else 0 for i in range(n)]),
            ([1 if i == 3 else 0 for i in range(n)], [1 if i == 7 else 0 for i in range(n)]),
        ):
            x += bx
            y += by
        return x[:-10], y[:-10]

    def test_round_trip_with_words_wider_than_64_bits(self, tmp_path, capsys):
        x, y = self.wide_pair()
        code = make_code(FFCodeConfig(70, 0.99))
        assert code.codeword_width >= 64 and code.symbol_width > 63
        cw = encode_pair(tmp_path, x, y, 70, "ff", 0.99)
        assert "1 block(s) flagged" in capsys.readouterr().err
        payload, want_x, want_y = self.scalar_files("ff", 70, 0.99, 2, 2, x, y)
        assert cw.read_bytes()[HEADER.size:] == payload
        assert decode_side(tmp_path, cw, "x", y) == (EXIT_OK, want_x)
        assert decode_side(tmp_path, cw, "y", x) == (EXIT_OK, want_y)
        flagged = slice(140, 210)
        assert want_x[flagged] == bytes(70) and want_x[:140] + want_x[210:] == bytes(x[:140] + x[210:])

    @pytest.mark.parametrize("block", [0, 1, 3])
    def test_wide_symbol_field_with_high_bits_is_malformed(self, block, tmp_path, capsys):
        # The bit set lies above the symbol's low 63; read as its low bits,
        # the symbol would still be valid.
        x, y = self.wide_pair()
        code = make_code(FFCodeConfig(70, 0.99))
        cw = encode_pair(tmp_path, x, y, 70, "ff", 0.99)
        data = bytearray(cw.read_bytes())
        bit = block * code.codeword_width + 1 + code.type_width  # the symbol's first bit
        data[HEADER.size + bit // 8] |= 0x80 >> (bit % 8)
        cw.write_bytes(bytes(data))
        capsys.readouterr()
        for side, side_letters in (("x", y), ("y", x)):
            assert decode_side(tmp_path, cw, side, side_letters)[0] == EXIT_MALFORMED
            assert f"block {block}:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["ff", "fv"])
    def test_one_symbol_types_beyond_the_table_budget_round_trip(self, mode, tmp_path, monkeypatch):
        # Blocks with 16 ones at n=32, y = x and then y = 1 - x: types of one
        # symbol whose classes of C(32, 16) members exceed MAX_CLASS_SIZE,
        # so neither side may build their tables.
        rng = np.random.default_rng(32)
        x = np.concatenate([rng.permutation([0] * 16 + [1] * 16) for _ in range(4)]).tolist()
        y = x[:64] + [1 - a for a in x[64:]]
        coding_table.get_coding_table.cache_clear()
        colored, real = [], coding_table.edge_color
        monkeypatch.setattr(coding_table, "edge_color", lambda g: colored.append(g.jt) or real(g))
        cw = encode_pair(tmp_path, x, y, 32, mode, 1.0 if mode == "ff" else None)
        assert decode_side(tmp_path, cw, "x", y) == (EXIT_OK, bytes(x))
        assert decode_side(tmp_path, cw, "y", x) == (EXIT_OK, bytes(y))
        assert colored == []

    @pytest.mark.parametrize("mode", ["ff", "fv"])
    def test_decode_errors_name_the_first_failing_block(self, mode, tmp_path, capsys):
        # Blocks 0 and 1 get side information of another type.  Block 0's
        # type index is the larger one, so its group is decoded last.
        x = [0] * 4 + [1] * 4 + [0, 1, 0, 1] * 3
        rate = 1.0 if mode == "ff" else None
        cw = encode_pair(tmp_path, x, x, 4, mode, rate)
        wrong = [1, 0, 0, 0, 0, 1, 1, 1] + x[8:]
        for side in ("x", "y"):
            assert decode_side(tmp_path, cw, side, wrong)[0] == EXIT_MALFORMED
            assert "block 0:" in capsys.readouterr().err
        # A payload cut inside block 4: the last block fails, unless an
        # earlier one does, as decoding block by block would find.
        data = cw.read_bytes()
        cw.write_bytes(data[:-1])
        assert decode_side(tmp_path, cw, "x", x)[0] == EXIT_TRUNCATED
        assert "block 4:" in capsys.readouterr().err
        assert decode_side(tmp_path, cw, "x", wrong)[0] == EXIT_MALFORMED
        assert "block 0:" in capsys.readouterr().err


class TestResourceLimits:
    """Oversize block lengths and alphabets are refused before any joint
    type is enumerated."""

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("joint types enumerated")

        for module in (types_core, info_measures, ff_codec, fv_codec):
            monkeypatch.setattr(module, "enumerate_joint_types", refuse)

    @pytest.mark.parametrize(
        "args, field",
        [
            (["--mode", "fv", "--n", "8", "--kx", "40"], "--kx"),
            (["--mode", "ff", "--rate", "0.5", "--n", "8", "--ky", "300"], "--ky"),
            (["--mode", "fv", "--n", "0"], "--n"),
            (["--mode", "fv", "--n", "2", "--kx", "0"], "--kx"),
            (["--mode", "fv", "--n", "70000", "--kx", "1", "--ky", "1"], "--n"),
        ],
    )
    def test_encode_refuses_with_validation_error(self, args, field, sample_files, tmp_path, capsys):
        x, y = sample_files
        argv = ["encode", *args, "--input-x", str(x), "--input-y", str(y), "--out", str(tmp_path / "c.bin")]
        assert main(argv) == EXIT_VALIDATION
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("kx", 40), ("kx", 300), ("kx", 0), ("ky", 0), ("n", 0)])
    def test_decode_refuses_header_as_malformed(self, field, value, tmp_path, capsys):
        data = (tmp_path / "c.bin")
        data.write_bytes(header_with(HEADER.pack(MAGIC, 1, 1, 8, 2, 2, 8, 0.0, 0, 0), **{field: value}) + bytes(2))
        write_letters(tmp_path / "y.bin", [0] * 8)
        argv = ["decode", "--side", "x", "--codeword", str(data), "--side-info", str(tmp_path / "y.bin"),
                "--out", str(tmp_path / "o.bin")]
        assert main(argv) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert "header field" in err and field in err

    @pytest.mark.parametrize("n, k, m", PAST_ENUMERATION)
    def test_fv_round_trip_past_the_enumeration_limit(self, n, k, m, tmp_path):
        x, y = correlated_blocks(n, m, n, k)
        x, y = x.ravel()[:-1].tolist(), y.ravel()[:-1].tolist()  # a short last block
        cw = encode_pair(tmp_path, x, y, n, "fv", kx=k, ky=k)
        assert decode_side(tmp_path, cw, "x", y) == (EXIT_OK, bytes(x))
        assert decode_side(tmp_path, cw, "y", x) == (EXIT_OK, bytes(y))

    def test_ff_still_refuses_past_the_enumeration_limit(self, tmp_path, capsys):
        x = [0, 1, 2, 3] * 4
        write_letters(tmp_path / "x.bin", x)
        argv = ["encode", "--mode", "ff", "--rate", "1.0", "--n", "8", "--kx", "4", "--ky", "4",
                "--input-x", str(tmp_path / "x.bin"), "--input-y", str(tmp_path / "x.bin"),
                "--out", str(tmp_path / "c.bin")]
        assert main(argv) == EXIT_VALIDATION
        assert "--n/--kx/--ky" in (err := capsys.readouterr().err) and "MAX_JOINT_TYPE_COUNTS" in err
        data = tmp_path / "c.bin"
        data.write_bytes(HEADER.pack(MAGIC, 1, 0, 8, 4, 4, 16, 1.0, 19, 13) + bytes(8))
        assert decode_side(tmp_path, data, "x", x)[0] == EXIT_MALFORMED
        assert "header field n/kx/ky" in (err := capsys.readouterr().err) and "MAX_JOINT_TYPE_COUNTS" in err

    @pytest.mark.parametrize("n, k", [(3, 256), (9, 9), (3000, 2)])
    def test_fv_refuses_a_type_index_wider_than_32_bits(self, n, k, tmp_path, capsys):
        # 256 x 256 letters at n=2 still fit: C(65537, 2) < 2^32.
        assert types_core.joint_type_count(n, k, k) >= 2 ** 32 > types_core.joint_type_count(2, 256, 256)
        write_letters(tmp_path / "x.bin", [0] * n)
        argv = ["encode", "--mode", "fv", "--n", str(n), "--kx", str(k), "--ky", str(k),
                "--input-x", str(tmp_path / "x.bin"), "--input-y", str(tmp_path / "x.bin"),
                "--out", str(tmp_path / "c.bin")]
        assert main(argv) == EXIT_VALIDATION
        assert "--n/--kx/--ky" in (err := capsys.readouterr().err) and "32 bits" in err
        data = tmp_path / "c.bin"
        data.write_bytes(HEADER.pack(MAGIC, 1, 1, n, k, k, n, 0.0, 0, 0) + bytes(8))
        assert decode_side(tmp_path, data, "x", [0] * n)[0] == EXIT_MALFORMED
        assert "header field n/kx/ky" in (err := capsys.readouterr().err) and "32 bits" in err

    def test_fv_refuses_more_distinct_types_than_a_code_keeps(self, tmp_path, capsys, monkeypatch):
        # A joint type of 256 x 256 letters holds 65,536 counts, so an FV
        # code keeps 16 types; 32 blocks of random byte pairs at n=2 hold
        # more.  The decoder refuses the file an unbounded encoder writes.
        x, y = np.random.default_rng(5).integers(0, 256, (2, 64)).tolist()
        assert len(set(types_core.joint_type_index(np.reshape(x, (-1, 2)), np.reshape(y, (-1, 2)), 256, 256))) > 16
        fv_codec.make_fv_code.cache_clear()  # every code below starts holding no type
        try:
            write_letters(tmp_path / "x.bin", x)
            write_letters(tmp_path / "y.bin", y)
            argv = ["encode", "--mode", "fv", "--n", "2", "--kx", "256", "--ky", "256", "--input-x",
                    str(tmp_path / "x.bin"), "--input-y", str(tmp_path / "y.bin"), "--out", str(tmp_path / "c.bin")]
            assert main(argv) == EXIT_VALIDATION
            assert "MAX_JOINT_TYPE_COUNTS" in capsys.readouterr().err
            assert not (tmp_path / "c.bin").exists()
            monkeypatch.setattr(fv_codec, "MAX_JOINT_TYPE_COUNTS", 2 ** 30)
            cw = encode_pair(tmp_path, x, y, 2, "fv", kx=256, ky=256)
            monkeypatch.setattr(fv_codec, "MAX_JOINT_TYPE_COUNTS", types_core.MAX_JOINT_TYPE_COUNTS)
            for side, side_letters in (("x", y), ("y", x)):
                fv_codec.make_fv_code.cache_clear()
                assert decode_side(tmp_path, cw, side, side_letters) == (EXIT_MALFORMED, None)
                err = capsys.readouterr().err
                assert "malformed codeword stream" in err and "MAX_JOINT_TYPE_COUNTS" in err
        finally:
            fv_codec.make_fv_code.cache_clear()

    def test_fv_type_index_past_the_type_count_is_malformed(self, tmp_path, capsys):
        # 165 binary joint types at n=8 take an 8-bit index: 255 names none.
        x = [0, 1] * 8
        cw = encode_pair(tmp_path, x, x, 8, "fv")
        data = bytearray(cw.read_bytes())
        data[HEADER.size] = 0xFF
        cw.write_bytes(bytes(data))
        for side in ("x", "y"):
            assert decode_side(tmp_path, cw, side, x)[0] == EXIT_MALFORMED
            assert "block 0: type index 255 out of range" in capsys.readouterr().err
