import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turbobec import make_pr_interleaver
from turbobec.cli import main


IRREGULAR = Path(__file__).resolve().parents[1] / "configs" / "irregular_example.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable:
    def test_published_table_and_masks(self, capsys):
        code, out, _ = run(capsys, "table", "--code", "7,5")
        assert code == 0
        assert "e1    00  X   11  X" in out
        assert "T_xx:\n1010\n1010\n0101\n0101" in out
        assert "T_0x:\n1000\n0010\n0001\n0100" in out
        assert "T_x0:\n1000\n0010\n0100\n0001" in out
        assert out.count("T_") == 9


class TestEncodeDecode:
    def test_file_round_trip(self, tmp_path, capsys):
        infile = tmp_path / "info.hex"
        outfile = tmp_path / "cw.hex"
        infile.write_text("a7\n")  # 10100111
        code, _, _ = run(capsys, "encode", "--code", "turbo", "--k", "8",
                         "--rate", "1/3", "--interleaver", "pr:7",
                         "--in", str(infile), "--out", str(outfile))
        assert code == 0
        cw_hex = outfile.read_text().strip()
        bits = [int(c, 16) >> s & 1 for c in cw_hex for s in (3, 2, 1, 0)][:24]

        received = tmp_path / "rx.txt"
        received.write_text("".join(f"{i} {b}\n" for i, b in enumerate(bits)))
        code, out, _ = run(capsys, "decode", "--code", "turbo", "--k", "8",
                           "--rate", "1/3", "--interleaver", "pr:7",
                           "--received", str(received))
        assert code == 0
        assert "outcome: success" in out
        assert "info=10100111" in out

    def test_decode_trajectory_lines(self, tmp_path, capsys):
        infile = tmp_path / "info.hex"
        outfile = tmp_path / "cw.hex"
        infile.write_text("00\n")
        run(capsys, "encode", "--k", "8", "--interleaver", "id",
            "--in", str(infile), "--out", str(outfile))
        received = tmp_path / "rx.txt"
        received.write_text("0 0\n3 0\n")
        code, out, _ = run(capsys, "decode", "--k", "8", "--interleaver", "id",
                           "--received", str(received))
        assert code == 1  # still in progress
        assert "r=1 determined=" in out and "r=2 determined=" in out

    def test_ldpc_file_round_trip(self, tmp_path, capsys):
        infile = tmp_path / "info.hex"
        outfile = tmp_path / "cw.hex"
        infile.write_text("a7\n")  # 10100111
        flags = ("--code", "ldpc-regular", "--k", "8", "--rate", "1/2")
        code, _, _ = run(capsys, "encode", *flags,
                         "--in", str(infile), "--out", str(outfile))
        assert code == 0
        cw_hex = outfile.read_text().strip()
        bits = [int(c, 16) >> s & 1 for c in cw_hex for s in (3, 2, 1, 0)][:16]
        assert bits[:8] == [1, 0, 1, 0, 0, 1, 1, 1]  # systematic

        received = tmp_path / "rx.txt"
        received.write_text("".join(f"{i} {bits[i]}\n" for i in reversed(range(16))))
        code, out, _ = run(capsys, "decode", *flags, "--received", str(received))
        assert code == 0
        assert "outcome: success" in out
        assert "info=10100111" in out

    def test_one_code_line_per_command(self, tmp_path, capsys):
        infile, outfile = tmp_path / "info.hex", tmp_path / "cw.hex"
        infile.write_text("a7\n")
        received = tmp_path / "rx.txt"
        received.write_text("0 1\n")
        for argv in (["encode", "--in", str(infile), "--out", str(outfile)],
                     ["decode", "--received", str(received)],
                     ["trial"]):
            _, _, err = run(capsys, *argv, "--k", "8")
            lines = err.splitlines()
            assert lines[0].startswith("# turbobec ")
            assert sum(line.startswith("# code:") for line in lines) == 1

    @pytest.mark.parametrize("lines, message", [
        ("999 0\n", "symbol index 999 out of range"),
        ("0 2\n", "value 2 is not 0 or 1"),
        ("-1 0\n", "symbol index -1 out of range"),
        ("0 0\n0 0\n", "line 2 '0 0': symbol 0 was already received"),
        ("0\n", "line 1 '0'"),
        ("0 1 1\n", "line 1 '0 1 1'"),
        ("zero one\n", "line 1 'zero one'"),
    ], ids=["index-too-big", "bit-2", "negative-index", "duplicate",
            "one-field", "three-fields", "not-integers"])
    def test_decode_rejects_bad_receptions(self, tmp_path, capsys, lines,
                                           message):
        received = tmp_path / "rx.txt"
        received.write_text(lines)
        code, _, err = run(capsys, "decode", "--k", "8", "--received",
                           str(received))
        assert code == 2
        assert f"error: {received}, " in err and message in err

    def test_lines_after_the_decode_ends_are_not_parsed(self, tmp_path,
                                                         capsys):
        # info 00: every symbol is 0 (pr:1 interleaver, rate 1/3), and
        # the decode succeeds before the last of the 24 symbols.
        received = tmp_path / "rx.txt"
        received.write_bytes("".join(f"{i} 0\n" for i in range(24)).encode()
                             + b"garbage line\n999 7\n\xff\xfe\n")
        code, out, _ = run(capsys, "decode", "--k", "8", "--received",
                           str(received))
        assert code == 0
        assert "outcome: success" in out and "info=00000000" in out

    def test_bad_line_names_its_physical_line(self, tmp_path, capsys):
        received = tmp_path / "rx.txt"
        received.write_text("# header\n\n0 0\n  # note\n\n0 0\n")
        code, out, err = run(capsys, "decode", "--k", "8", "--received",
                             str(received))
        assert code == 2
        assert out == "r=1 determined=1\n"
        assert err.splitlines()[-1] == (
            f"error: {received}, line 6 '0 0': symbol 0 was already received")

    def test_unreadable_received_file(self, tmp_path, capsys):
        received = tmp_path / "rx.txt"
        received.write_bytes(b"0 0\n\xff\xfe\n")
        code, _, err = run(capsys, "decode", "--k", "8", "--received",
                           str(received))
        assert code == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"error: {received}, line 2: not UTF-8 text")


class TestSimulate:
    def test_csv_schema(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code, _, err = run(capsys, "simulate", "--code", "turbo",
                           "--poly", "7,5", "--k", "32", "--rate", "1/3",
                           "--interleaver", "pr:7", "--trials", "5",
                           "--seed", "99", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ("code,rate,K,interleaver,trials,base_seed,"
                            "mu_av,mu_std,p_th_est,gap")
        assert lines[1].startswith("turbo,1/3,32,pr:7,5,99,")
        assert "# code:" in err

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ("simulate", "--code", "ldpc-regular", "--k", "32",
                "--rate", "1/2", "--trials", "5", "--seed", "1")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_interleaver_file_runs_like_its_generator(self, tmp_path, capsys):
        pi = tmp_path / "pi.txt"
        pi.write_text("".join(f"{e}\n" for e in make_pr_interleaver(8, 1).pi))

        def stats(interleaver):
            code, out, _ = run(capsys, "simulate", "--k", "8", "--trials", "6",
                               "--seed", "4", "--interleaver", interleaver)
            assert code == 0
            row = out.splitlines()[1].split(",")
            assert row[3] == interleaver
            return row[6:]

        assert stats(f"file:{pi}") == stats("pr:1")

    @pytest.mark.parametrize("flags", [
        ("--puncture", "p1=10,p2=01"), ("--interleaver", "file:{tmp}/pi.txt"),
        ("--poly", "13,15"), ("--base", "binary", "--poly", "111,101"),
    ], ids=["puncture", "interleaver-file", "poly", "binary-poly"])
    def test_ldpc_ignores_well_formed_turbo_flags(self, tmp_path, capsys, flags):
        (tmp_path / "pi.txt").write_text("2\n0\n1\n")
        args = ("simulate", "--code", "ldpc-regular", "--k", "8",
                "--rate", "1/2", "--trials", "4", "--seed", "3")
        code, plain, _ = run(capsys, *args)
        assert code == 0
        code, flagged, _ = run(capsys, *args,
                               *(f.format(tmp=tmp_path) for f in flags))
        assert code == 0
        assert flagged == plain

    def test_ldpc_code_line_names_the_graph(self, capsys):
        def code_line(seed):
            _, _, err = run(capsys, "simulate", "--code", "ldpc-regular",
                            "--k", "32", "--rate", "1/2", "--trials", "1",
                            "--seed", seed)
            return [line for line in err.splitlines()
                    if line.startswith("# code:")]

        assert code_line("1") != code_line("2")
        assert code_line("1") == code_line("1")

    def test_period_violation_diagnostic(self, capsys):
        code, _, err = run(capsys, "simulate", "--code", "turbo", "--k", "1022",
                           "--rate", "2/3", "--trials", "1")
        assert code != 0
        assert "period" in err

    def test_unknown_code_family(self, capsys):
        code, _, err = run(capsys, "simulate", "--code", "nope", "--k", "8")
        assert code == 2
        assert "error: --code: unknown code family 'nope'" in err


class TestSweep:
    @pytest.mark.parametrize("flags", [
        ("--poly", "13,15", "--rate", "1/2"),
        ("--poly", "13,15", "--rate", "1/2", "--puncture", "p1=10,p2=01"),
        ("--code", "ldpc-regular", "--rate", "1/2"),
    ], ids=["turbo-r12", "turbo-r12-override", "ldpc"])
    def test_simulate_is_a_one_point_sweep(self, tmp_path, capsys, flags):
        common = ("--trials", "4", "--seed", "6", "--interleaver", "pr:3")
        one, point = tmp_path / "simulate.csv", tmp_path / "sweep.csv"
        code, _, err = run(capsys, "simulate", "--k", "8", *flags, *common,
                           "--out", str(one))
        assert code == 0
        fingerprint = [line for line in err.splitlines()
                       if line.startswith("# code:")]
        sweep_flags = [{"--code": "--code-list", "--rate": "--rate-list"}
                       .get(f, f) for f in flags]
        code, _, err = run(capsys, "sweep", "--k-list", "8", *sweep_flags,
                           *common, "--out", str(point))
        assert code == 0
        assert one.read_bytes() == point.read_bytes()
        assert [line for line in err.splitlines()
                if line.startswith("# code:")] == fingerprint

    def test_single_point_flags_read_as_lists(self, capsys):
        # --code, --k and --rate are not sweep flags; argparse reads them
        # as prefixes of --code-list, --k-list and --rate-list.
        _, short, _ = run(capsys, "sweep", "--k", "16", "--rate", "1/2",
                          "--trials", "2")
        _, full, _ = run(capsys, "sweep", "--k-list", "16", "--rate-list",
                         "1/2", "--trials", "2")
        assert short == full and short.splitlines()[1].startswith(
            "turbo,1/2,16,")
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert "--k-list" in flags
        assert not flags & {"--code", "--k", "--rate"}

    def test_sweep_csv_and_plot(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        plot = tmp_path / "plot.gp"
        code, _, _ = run(capsys, "sweep", "--k-list", "16,32",
                         "--rate-list", "1/3", "--code-list",
                         "turbo,ldpc-regular", "--trials", "2", "--seed", "4",
                         "--out", str(out_csv), "--emit-plot", str(plot))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 5  # header + 2 codes x 2 sizes
        assert plot.read_text().startswith("set datafile separator")

    def test_plot_script_quotes_the_csv_path(self, tmp_path, capsys):
        # Inside gnuplot's single quotes, '' stands for one '.
        out_csv, plot = tmp_path / "it's.csv", tmp_path / "plot.gp"
        code, _, _ = run(capsys, "sweep", "--k-list", "8", "--trials", "1",
                         "--out", str(out_csv), "--emit-plot", str(plot))
        assert code == 0
        assert out_csv.read_text().startswith("code,rate,K,")
        quoted = str(out_csv).replace("'", "''")
        assert plot.read_text() == (
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'K'\nset ylabel 'mu_av'\nset logscale x 2\n"
            f"plot '{quoted}' using 3:7 with linespoints\n")


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 32, "rate": "1/2", "trials": 3,
                                   "seed": 8, "interleaver": "pr:2"}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--trials", "2")
        assert code == 0
        row = out.splitlines()[1]
        assert row.startswith("turbo,1/2,32,pr:2,2,8,")

    def test_abbreviated_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 32, "rate": "1/2", "trials": 3,
                                   "seed": 8, "interleaver": "pr:2"}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--tri", "2")
        assert code == 0
        assert out.splitlines()[1].startswith("turbo,1/2,32,pr:2,2,8,")

    @pytest.mark.parametrize("entry, message", [
        ({"k": "abc"}, "argument --k: invalid int value: 'abc'"),
        ({"trials": 1.5}, "argument --trials: invalid int value: '1.5'"),
        ({"base": "hex"}, "argument --base: invalid choice: 'hex'"),
    ], ids=["k-string", "trials-float", "base-choice"])
    def test_wrong_typed_config_value(self, tmp_path, capsys, entry, message):
        # Same exit as the flag itself: argparse's usage error, code 2.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 8, **entry}))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--k", "8")
        assert code == 2
        assert "error: config key 'bogus' is not a known flag" in err

    def test_table_code_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"code": "13,15"}))
        code, out, err = run(capsys, "table", "--config", str(cfg))
        assert code == 0
        assert out.startswith("transition table of RSC (13,15)_8, L=4:")
        assert "'code': '13,15'" in err.splitlines()[0]

    def test_encode_in_and_out_keys(self, tmp_path, capsys):
        infile, outfile = tmp_path / "info.hex", tmp_path / "cw.hex"
        infile.write_text("a7\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"in": str(infile), "out": str(outfile)}))
        code, _, err = run(capsys, "encode", "--config", str(cfg), "--k", "8")
        assert code == 0
        assert outfile.read_text() == "ea313f\n"
        echo = err.splitlines()[0]
        assert f"'in': '{infile}'" in echo and f"'out': '{outfile}'" in echo

    @pytest.mark.parametrize("command, key", [
        ("table", "code_poly"), ("encode", "infile"), ("encode", "outfile"),
    ])
    def test_internal_names_are_not_config_keys(self, tmp_path, capsys,
                                                 command, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: "x"}))
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert f"error: config key '{key}' is not a known flag" in err

    @pytest.mark.parametrize("key", ["k", "rate", "code"])
    def test_single_point_key_in_sweep_config(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 8}))
        code, _, err = run(capsys, "sweep", "--config", str(cfg),
                           "--k-list", "8")
        assert code == 2
        assert f"error: config key '{key}' is not a known flag" in err


class TestMalformedInput:
    """Every malformed file or flag ends in exit 2 and one error line.

    A message that starts with "error: " is the whole last line of
    stderr; any other is a part of it.  An unknown config key is covered
    above.
    """

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--config", "{tmp}/bad.json"], "bad.json: not valid JSON"),
        (["simulate", "--config", "{tmp}/list.json"], "expected a JSON object"),
        (["simulate", "--config", "{tmp}/missing.json"], "missing.json"),
        (["simulate", "--k", "8", "--interleaver", "shuffle"],
         "error: --interleaver: unknown interleaver spec 'shuffle'"),
        (["simulate", "--k", "8", "--interleaver", "file:{tmp}/pi.txt"],
         "error: --interleaver: {tmp}/pi.txt: interleaver file has length 3, "
         "expected 8"),
        (["encode", "--k", "16", "--in", "{tmp}/info.hex",
          "--out", "{tmp}/cw.hex"], "expected at least 16 bits, found 8"),
        (["simulate", "--trials", "1"], "--k is required"),
        (["simulate", "--config", "{tmp}/null.json", "--k", "8"],
         "config key 'interleaver': null is not a JSON string or number"),
        (["simulate", "--config", "{tmp}/bool.json"],
         "config key 'k': true is not a JSON string or number"),
        (["simulate", "--config", "{tmp}/list-value.json", "--k", "8"],
         "config key 'trials': [1] is not a JSON string or number"),
        (["simulate", "--config", "{tmp}/object-value.json"],
         "config key 'k': {\"v\": 8} is not a JSON string or number"),
        (["simulate", "--k", "8", "--rate", "1/0"],
         "--rate: '1/0' is not a rate fraction"),
        (["sweep", "--k-list", "8", "--rate-list", "1/3,1/0"],
         "--rate-list: '1/0' is not a rate fraction"),
        (["simulate", "--k", "8", "--code", "ldpc-regular", "--rate", "0"],
         "--rate: rate 0 must be positive"),
        (["simulate", "--k", "8", "--puncture", "p1=,p2="],
         "--puncture: puncture period 0 must be >= 1"),
        (["simulate", "--k", "0", "--interleaver", "id"],
         "--k: K must be >= 1, not 0"),
        (["simulate", "--k", "8", "--poly", "7"],
         "--poly: '7' is not a feedback,forward pair of octal polynomials"),
        (["simulate", "--k", "8", "--poly", "9,5"],
         "--poly: '9,5' is not a feedback,forward pair of octal polynomials"),
        (["simulate", "--k", "8", "--poly", "7,5,3"],
         "--poly: '7,5,3' is not a feedback,forward pair of octal polynomials"),
        (["table", "--code", "111,2", "--base", "binary"],
         "--code: '111,2' is not a feedback,forward pair of binary polynomials"),
        (["simulate", "--k", "8", "--poly", "777,5"],
         "--poly: '777,5' has constraint length 9, above the limit of 8"),
        (["table", "--code", "7777777777,5"],
         "--code: '7777777777,5' has constraint length 30, above the limit of 8"),
        (["simulate", "--k", "8", "--interleaver", "id", "--puncture",
          "p1=10,p2=01", "--rate", "1/3"],
         "--puncture: puncture pattern gives rate 1/2, requested 1/3"),
        (["simulate", "--k", "8", "--rate", "1/2", "--puncture", "p1=12,p2=01"],
         "--puncture: puncture override 'p1=12,p2=01' is not p1=BITS,p2=BITS"),
        (["simulate", "--k", "8", "--puncture", "garbage"],
         "--puncture: puncture override 'garbage' is not p1=BITS,p2=BITS"),
        (["simulate", "--k", "8", "--rate", "1/2", "--puncture",
          "p1=11,p1=10,p2=01"],
         "--puncture: puncture override must define p1 and p2"),
        (["simulate", "--k", "8", "--code", "ldpc-irregular:{tmp}/inf.txt"],
         "error: --code: {tmp}/inf.txt: degree fractions must lie in [0, 1]"),
        (["simulate", "--k", "8", "--interleaver", "pr:abc"],
         "--interleaver: 'pr:abc' needs an integer seed"),
        (["simulate", "--k", "3", "--interleaver", "file:{tmp}/pi-text.txt"],
         "error: --interleaver: {tmp}/pi-text.txt, line 2 'one': not an "
         "integer"),
        (["encode", "--k", "8", "--in", "{tmp}/info-g.hex",
          "--out", "{tmp}/cw.hex"], "info-g.hex: 'g' is not a hex digit"),
        (["sweep", "--k-list", "8,x"],
         "--k-list: '8,x' is not a comma separated list of integers"),
        (["simulate", "--code", "ldpc-regular", "--k", "8", "--rate", "1/2",
          "--puncture", "garbage"],
         "--puncture: puncture override 'garbage' is not p1=BITS,p2=BITS"),
        (["simulate", "--code", "ldpc-regular", "--k", "8", "--rate", "1/2",
          "--interleaver", "bogus"],
         "error: --interleaver: unknown interleaver spec 'bogus'"),
        (["simulate", "--code", "ldpc-regular", "--k", "8", "--rate", "1/2",
          "--poly", "9,5"],
         "--poly: '9,5' is not a feedback,forward pair of octal polynomials"),
        (["simulate", "--code", f"ldpc-irregular:{IRREGULAR}", "--k", "8",
          "--rate", "1"],
         "--rate: rate 1 leaves no parity checks; it must be below 1"),
        (["simulate", "--code", f"ldpc-irregular:{IRREGULAR}", "--k", "0",
          "--rate", "1/2"], "--k: K must be >= 1, not 0"),
        (["simulate", "--code", f"ldpc-irregular:{IRREGULAR}", "--k", "8",
          "--rate", "2"],
         "--rate: rate 2 leaves no parity checks; it must be below 1"),
        (["simulate", "--k", "8", "--interleaver", "pr:-1"],
         "--interleaver: 'pr:-1' needs an integer seed >= 0"),
        (["sweep", "--k-list", "8", "--trials", "2", "--emit-plot",
          "{tmp}/plot.gp"], "--emit-plot needs --out"),
        (["decode", "--k", "8", "--received", "{tmp}/rx-bin.txt"],
         "rx-bin.txt, line 2: not UTF-8 text"),
        (["encode", "--k", "8", "--in", "{tmp}/info-bin.hex",
          "--out", "{tmp}/cw.hex"], "info-bin.hex, line 2: not UTF-8 text"),
        (["simulate", "--k", "3", "--interleaver", "file:{tmp}/pi-bin.txt"],
         "error: --interleaver: {tmp}/pi-bin.txt, line 2: not UTF-8 text"),
        (["simulate", "--k", "8", "--code", "ldpc-irregular:{tmp}/deg-bin.txt"],
         "error: --code: {tmp}/deg-bin.txt, line 2: not UTF-8 text"),
        (["simulate", "--config", "{tmp}/bin.json"], "bin.json: not UTF-8 text"),
        (["simulate", "--k", "8", "--poly", "7_7,5"],
         "--poly: '7_7,5' is not a feedback,forward pair of octal polynomials"),
        (["simulate", "--k", "8", "--poly", "0o7,5"],
         "--poly: '0o7,5' is not a feedback,forward pair of octal polynomials"),
        (["simulate", "--k", "8", "--poly", "0,5"], "--poly: '0,5'"),
        (["simulate", "--code", "ldpc-regular", "--k", "99999999999999999999",
          "--rate", "1/2"],
         "--k: K=99999999999999999999 is above the limit of 1048576"),
        (["simulate", "--k", "1048577", "--interleaver", "id"],
         "--k: K=1048577 is above the limit of 1048576"),
        (["sweep", "--k-list", "8,99999999999999999999", "--trials", "1"],
         "--k-list: K=99999999999999999999 is above the limit of 1048576"),
        (["simulate", "--k", "8", "--rate", "1/2",
          "--code", "ldpc-irregular:{tmp}/deg-huge.txt"],
         f"error: --code: {{tmp}}/deg-huge.txt: column weight {10**30} "
         f"exceeds the check count 8"),
        (["simulate", "--k", "1048576", "--rate", "1/2",
          "--code", "ldpc-irregular:{tmp}/deg-dense.txt"],
         f"error: --code: {{tmp}}/deg-dense.txt: the code has {1 << 40} edges, "
         f"above the limit of {1 << 24}"),
        (["simulate", "--code", "ldpc-regular", "--k", "1024",
          "--rate", "1/10000000", "--trials", "1"],
         "--rate: rate 1e-7 at K=1024 gives a length above the limit of "
         f"{1 << 22}"),
        (["simulate", "--code", "ldpc-regular", "--k", "1024",
          "--rate", "1e-400", "--trials", "1"],
         "--rate: rate 1e-400 at K=1024 gives a length above the limit of "
         f"{1 << 22}"),
        (["sweep", "--code-list", "ldpc-regular", "--k-list", "1024",
          "--rate-list", "1/3,1/10000000", "--trials", "1"],
         "--rate-list: rate 1e-7 at K=1024 gives a length above the limit "
         f"of {1 << 22}"),
        (["simulate", "--k", "8", "--interleaver", "pr:0_7"],
         "--interleaver: 'pr:0_7' needs an integer seed >= 0"),
        (["simulate", "--k", "8", "--rate", "1_0/3_0"],
         "--rate: '1_0/3_0' is not a rate fraction"),
        (["simulate", "--k", "8", "--rate", " 1/3"],
         "--rate: ' 1/3' is not a rate fraction"),
        (["sweep", "--k-list", "1_6", "--trials", "1"],
         "--k-list: '1_6' is not a comma separated list of integers"),
        (["sweep", "--k-list", "8, 16", "--trials", "1"],
         "--k-list: '8, 16' is not a comma separated list of integers"),
        (["simulate", "--k", "3", "--interleaver", "file:{tmp}/pi-underscore.txt"],
         "error: --interleaver: {tmp}/pi-underscore.txt, line 2 '1_0': not an "
         "integer"),
        (["simulate", "--k", "3", "--interleaver", "file:{tmp}/pi-arabic.txt"],
         "error: --interleaver: {tmp}/pi-arabic.txt, line 1 '\u0663': not an "
         "integer"),
        (["decode", "--k", "8", "--received", "{tmp}/rx-underscore.txt"],
         "rx-underscore.txt, line 1 '0_1 0'"),
        (["simulate", "--k", "8", "--rate", "1/2",
          "--code", "ldpc-irregular:{tmp}/deg-underscore.txt"],
         "error: --code: {tmp}/deg-underscore.txt, line 1 '2 0.2_5': expected "
         "an integer degree and a fraction"),
        (["encode", "--k", "8", "--in", "{tmp}/info-arabic.hex",
          "--out", "{tmp}/cw.hex"], "info-arabic.hex: '\u0663' is not a hex digit"),
        (["simulate", "--config", "{tmp}/long-int.json"],
         "long-int.json: config key 'k': an integer of 5000 digits, above "
         "the limit of 4300"),
        (["simulate", "--config", "{tmp}/long-int-nested.json", "--k", "8"],
         "long-int-nested.json: an integer of 5000 digits, above the limit "
         "of 4300"),
        (["simulate", "--k", "8", "--interleaver", "pr:" + "7" * 5000],
         "--interleaver: the pr: seed is too long: 5000 characters"),
        (["sweep", "--k-list", "0", "--trials", "1"],
         "--k-list: K must be >= 1, not 0"),
        (["simulate", "--config", "{tmp}/k-0.json"],
         "--k: K must be >= 1, not 0"),
        (["simulate", "--k", "8", "--rate", "1", "--code", "ldpc-regular"],
         "--rate: rate 1 leaves no parity checks; it must be below 1"),
        (["simulate", "--k", "8", "--rate", "0"],
         "--rate: unsupported rate 0; presets are 1/3, 1/2, 2/3"),
        (["sweep", "--k-list", "8", "--rate-list", "0"],
         "--rate-list: unsupported rate 0; presets are 1/3, 1/2, 2/3"),
        (["simulate", "--k", "8", "--puncture", "p1=1,p2=10"],
         "--puncture: p1 and p2 patterns must share one period"),
        (["simulate", "--k", "8", "--rate", "1/2", "--puncture", "p1=0,p2=0"],
         "--puncture: puncture pattern gives rate 1, requested 1/2"),
        (["simulate", "--k", "3", "--rate", "1/2", "--code", "ldpc-regular"],
         "--k: block too short for the requested column weight"),
        (["simulate", "--k", "8", "--rate", "4/5", "--code", "ldpc-regular"],
         "--rate: block too short for the requested column weight"),
        (["sweep", "--k-list", "3", "--rate-list", "1/2",
          "--code-list", "ldpc-regular"],
         "--k-list: block too short for the requested column weight"),
        (["simulate", "--k", "3", "--interleaver", "file:{tmp}/pi-twice.txt"],
         "error: --interleaver: {tmp}/pi-twice.txt: interleaver entry 0 "
         "appears twice"),
        (["simulate", "--k", "3", "--interleaver", "file:{tmp}/pi-range.txt"],
         "error: --interleaver: {tmp}/pi-range.txt: interleaver entry 5 out "
         "of range for K=3"),
        (["simulate", "--k", "8", "--code", "nope"],
         "error: --code: unknown code family 'nope'"),
        (["sweep", "--k-list", "8", "--code-list", "turbo,nope"],
         "error: --code-list: unknown code family 'nope'"),
        (["simulate", "--k", "8", "--code", "ldpc-irregular:{tmp}/deg-0.txt"],
         "error: --code: {tmp}/deg-0.txt: degrees must be positive"),
        (["sweep", "--k-list", "8", "--rate-list", "1/2",
          "--code-list", "ldpc-irregular:{tmp}/deg-500.txt"],
         "error: --code-list: {tmp}/deg-500.txt: column weight 500 exceeds "
         "the check count 8"),
        (["sweep", "--k-list", "8", "--trials", "1", "--out", "{tmp}/plot.gp",
          "--emit-plot", "{tmp}/plot.gp"],
         "error: --emit-plot and --out name the same file: the plot script "
         "would overwrite the CSV"),
        (["sweep", "--k-list", "8", "--trials", "1", "--out", "{tmp}/plot.gp",
          "--emit-plot", "{tmp}/./plot.gp"],
         "error: --emit-plot and --out name the same file: the plot script "
         "would overwrite the CSV"),
    ], ids=["config-not-json", "config-not-object", "config-missing",
            "unknown-interleaver", "interleaver-length",
            "too-few-bits", "missing-k", "config-null", "config-bool",
            "config-list-value", "config-object-value", "rate-1/0",
            "rate-list-1/0", "ldpc-rate-0", "puncture-period-0",
            "k-0-identity", "poly-one-value", "poly-not-octal",
            "poly-three-values", "table-code-not-binary",
            "poly-length-9", "table-code-length-30",
            "override-wrong-rate", "puncture-not-bits", "puncture-no-equals",
            "puncture-repeated-part",
            "degree-file-inf", "interleaver-seed-not-int",
            "interleaver-file-not-int", "hex-digit", "k-list-not-int",
            "ldpc-puncture-not-bits", "ldpc-unknown-interleaver",
            "ldpc-poly-not-octal", "ldpc-rate-1", "ldpc-k-0", "ldpc-rate-2",
            "interleaver-seed-negative", "emit-plot-without-out",
            "received-not-utf8", "info-not-utf8", "interleaver-not-utf8",
            "degree-file-not-utf8", "config-not-utf8", "poly-underscore",
            "poly-octal-prefix", "poly-zero-feedback", "ldpc-k-above-limit",
            "k-above-limit", "k-list-above-limit", "degree-above-check-count",
            "edge-count-above-limit", "length-above-limit",
            "length-above-limit-tiny-rate", "rate-list-length-above-limit",
            "interleaver-seed-underscore", "rate-underscore", "rate-blank",
            "k-list-underscore", "k-list-blank", "interleaver-file-underscore",
            "interleaver-file-arabic-digit", "received-underscore",
            "degree-file-underscore", "hex-arabic-digit",
            "config-integer-too-long", "config-nested-integer-too-long",
            "interleaver-seed-too-long", "k-list-0", "config-k-0",
            "ldpc-regular-rate-1", "turbo-rate-0", "rate-list-0",
            "puncture-periods-differ", "puncture-rate-1",
            "ldpc-k-below-column-weight", "ldpc-rate-leaves-too-few-checks",
            "k-list-below-column-weight", "interleaver-entry-twice",
            "interleaver-entry-out-of-range", "unknown-code",
            "sweep-unknown-code", "degree-not-positive",
            "sweep-degree-above-check-count", "emit-plot-is-out",
            "emit-plot-is-out-by-another-path"])
    def test_exit_code_two(self, tmp_path, capsys, argv, message):
        (tmp_path / "bad.json").write_text("{\"k\": 8,")
        (tmp_path / "list.json").write_text("[8]")
        (tmp_path / "null.json").write_text(json.dumps({"interleaver": None}))
        (tmp_path / "bool.json").write_text(json.dumps({"k": True}))
        (tmp_path / "list-value.json").write_text(json.dumps({"trials": [1]}))
        (tmp_path / "object-value.json").write_text(json.dumps({"k": {"v": 8}}))
        (tmp_path / "pi.txt").write_text("2\n0\n1\n")
        (tmp_path / "info.hex").write_text("a7\n")
        (tmp_path / "info-g.hex").write_text("a7g\n")
        (tmp_path / "pi-text.txt").write_text("2\none\n1\n")
        (tmp_path / "inf.txt").write_text("2 inf\n3 -inf\n")
        (tmp_path / "rx-bin.txt").write_bytes(b"0 0\n1 \xff\n")
        (tmp_path / "info-bin.hex").write_bytes(b"a7\n\xe9\n")
        (tmp_path / "pi-bin.txt").write_bytes(b"2\n0\xc3\n1\n")
        (tmp_path / "deg-bin.txt").write_bytes(b"2 0.5\n3 0.5 # \xff\n")
        (tmp_path / "bin.json").write_bytes(b'{"k": 8, "seed": "\xff"}')
        (tmp_path / "deg-huge.txt").write_text(f"{10**30} 1.0\n")
        (tmp_path / "deg-dense.txt").write_text("1048576 1.0\n")
        (tmp_path / "pi-underscore.txt").write_text("0\n1_0\n2\n")
        (tmp_path / "pi-arabic.txt").write_text("\u0663\n0\n1\n",
                                                 encoding="utf-8")
        (tmp_path / "rx-underscore.txt").write_text("0_1 0\n")
        (tmp_path / "deg-underscore.txt").write_text("2 0.2_5\n1_0 0.7_5\n")
        (tmp_path / "info-arabic.hex").write_text("\u0663a\n", encoding="utf-8")
        (tmp_path / "long-int.json").write_text(f'{{"k": {"9" * 5000}}}')
        (tmp_path / "long-int-nested.json").write_text(
            f'{{"trials": [{"9" * 5000}]}}')
        (tmp_path / "k-0.json").write_text(json.dumps({"k": 0}))
        (tmp_path / "pi-twice.txt").write_text("0\n0\n1\n")
        (tmp_path / "pi-range.txt").write_text("0\n5\n1\n")
        (tmp_path / "deg-0.txt").write_text("0 1.0\n")
        (tmp_path / "deg-500.txt").write_text("500 1.0\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: ")
        message = message.replace("{tmp}", str(tmp_path))
        assert message in err
        if message.startswith("error: "):
            assert err.splitlines()[-1] == message
        assert not (tmp_path / "plot.gp").exists()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter reads integers of any length")
    def test_lowered_digit_limit(self, tmp_path, capsys):
        """The interpreter's own limit on integer digits is the one named,
        when it is set below CPython's default of 4,300."""
        (tmp_path / "long-int.json").write_text(f'{{"k": {"9" * 1000}}}')
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            config = run(capsys, "simulate", "--config",
                         str(tmp_path / "long-int.json"))
            seed = run(capsys, "simulate", "--k", "8",
                       "--interleaver", "pr:" + "7" * 1000)
        finally:
            sys.set_int_max_str_digits(default)
        assert config[0] == seed[0] == 2
        assert ("long-int.json: config key 'k': an integer of 1000 digits, "
                "above the limit of 640") in config[2]
        assert ("--interleaver: the pr: seed is too long: 1000 characters, "
                "above the limit of 640 digits") in seed[2]


    @pytest.mark.parametrize("argv, config, message", [
        (["simulate", "--k", "8", "--seed", "-1"], None,
         "argument --seed: -1 is negative; it must be >= 0"),
        (["trial", "--k", "8", "--index", "-1"], None,
         "argument --index: -1 is negative; it must be >= 0"),
        (["simulate", "--code", "ldpc-regular", "--k", "8", "--rate", "1/2",
          "--seed", "-1"], None,
         "argument --seed: -1 is negative; it must be >= 0"),
        (["simulate", "--k", "8"], {"seed": -1},
         "argument --seed: -1 is negative; it must be >= 0"),
        (["simulate", "--k", "8", "--trials", "0"], None,
         "argument --trials: 0 is below 1; a campaign needs at least one trial"),
        (["sweep", "--k-list", "8", "--trials", "-1"], None,
         "argument --trials: -1 is below 1; a campaign needs at least one"),
        (["simulate", "--k", "8"], {"trials": 0},
         "argument --trials: 0 is below 1; a campaign needs at least one"),
    ], ids=["seed", "index", "ldpc-seed", "config-seed", "trials",
            "sweep-trials", "config-trials"])
    def test_negative_seed_or_index(self, tmp_path, capsys, argv, config,
                                    message):
        # argparse's own usage error, exit 2, naming the flag.
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "run.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err
        assert "# code:" not in err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--k", "\uff18"], "argument --k: invalid int value: '\uff18'"),
        (["simulate", "--k", " 8 "], "argument --k: invalid int value: ' 8 '"),
        (["simulate", "--k", "8", "--trials", "\u0663"],
         "argument --trials: invalid int value: '\u0663'"),
        (["simulate", "--k", "8", "--seed", "1_0"],
         "argument --seed: invalid int value: '1_0'"),
        (["trial", "--k", "8", "--index", "1_0"],
         "argument --index: invalid int value: '1_0'"),
    ], ids=["k-fullwidth-digit", "k-blank", "trials-arabic-digit",
            "seed-underscore", "index-underscore"])
    def test_flag_integers_are_ascii_digits(self, capsys, argv, message):
        # argparse's own usage error, exit 2, naming the flag.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err
        assert "# code:" not in err

    @pytest.mark.parametrize("argv", [
        ["table", "--code", "x"],
        ["simulate", "--k", "8", "--rate", "abc"],
        ["sweep", "--k-list", "x"],
        ["sweep", "--k-list", "8", "--rate-list", "abc"],
        ["trial", "--k", "8", "--rate", "abc"],
        ["encode", "--k", "8", "--rate", "abc", "--in", "{tmp}/info.hex",
         "--out", "{tmp}/cw.hex"],
        ["decode", "--k", "8", "--rate", "abc", "--received", "{tmp}/rx.txt"],
    ], ids=["table-code", "simulate-rate", "sweep-k-list", "sweep-rate-list",
            "trial-rate", "encode-rate", "decode-rate"])
    def test_config_line_before_flag_value_error(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
        assert code == 2
        lines = err.splitlines()
        assert lines[0].startswith("# turbobec ")
        assert lines[-1].startswith("error:")

    def test_simulate_grid_never_raises(self, capsys):
        # Valid and invalid (code, K, rate) points alike end in exit 0 or
        # 2, or in argparse's exit 2; none may escape as an exception.
        failed = []
        for code in ("turbo", "ldpc-regular", f"ldpc-irregular:{IRREGULAR}"):
            for k in [*range(-2, 9), 12, 16, 24]:
                for rate in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1",
                             "4/3", "2"):
                    argv = ["simulate", "--code", code, "--k", str(k),
                            "--rate", rate, "--trials", "1"]
                    try:
                        status = main(argv)
                    except SystemExit as exc:
                        status = 2 if exc.code == 2 else f"exit {exc.code}"
                    except Exception as exc:
                        status = repr(exc)
                    if status not in (0, 2):
                        failed.append((" ".join(argv), status))
        capsys.readouterr()
        assert failed == []


class TestEntryPoint:
    """``python -m turbobec.cli``, a fresh interpreter whose ``main()``
    reads ``sys.argv``, as the ``turbobec`` script does."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        return subprocess.run([sys.executable, "-m", "turbobec.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_table_exits_0(self, capsys):
        done = self.run_module("table", "--code", "7,5")
        assert done.returncode == 0
        assert (done.stdout, done.stderr) == run(capsys, "table", "--code",
                                                 "7,5")[1:]

    def test_malformed_flag_exits_2_with_one_error_line(self):
        done = self.run_module("simulate", "--k", "8", "--interleaver", "bogus")
        assert done.returncode == 2
        assert done.stdout == "" and "Traceback" not in done.stderr
        assert [line for line in done.stderr.splitlines()
                if line.startswith("error:")] == [
            "error: --interleaver: unknown interleaver spec 'bogus'"]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "turbobec" in capsys.readouterr().out


# The fuzzed argv below: per command, the flags it always gets (with
# --trials, so no campaign runs its default 1,000 trials) and those it
# may get; each value is drawn from the pool of that flag's kind.
CODE_FLAGS = [("--poly", "poly"), ("--base", "base"),
              ("--interleaver", "interleaver"), ("--puncture", "puncture"),
              ("--seed", "seed"), ("--config", "config")]
POINT_FLAGS = [("--code", "code"), ("--rate", "rate"), *CODE_FLAGS]
FUZZED_COMMANDS = {
    "table": ([], [("--code", "poly"), ("--base", "base"),
                   ("--config", "config")]),
    "encode": ([("--k", "k"), ("--in", "hex"), ("--out", "out")],
               POINT_FLAGS),
    "decode": ([("--k", "k"), ("--received", "received")], POINT_FLAGS),
    "trial": ([("--k", "k")], [*POINT_FLAGS, ("--index", "seed")]),
    "simulate": ([("--k", "k"), ("--trials", "trials")],
                 [*POINT_FLAGS, ("--out", "out")]),
    "sweep": ([("--k-list", "k_list"), ("--trials", "trials")],
              [*CODE_FLAGS, ("--rate-list", "rate_list"),
               ("--code-list", "code_list"), ("--out", "out"),
               ("--emit-plot", "out")]),
}
# Values: valid ones, then malformed ones, including every case of
# TestMalformedInput that once ran or was misread.  K stays <= 16 and
# --trials <= 2; a K above the limit fails before any code is built.
FUZZ_VALUES = {
    "k": ["8", "4", "16", "12", "1", "0", "-2", "８", " 8 ", "1_6", "+8",
          "0x8", "8.0", "", "8\n", "99999999999999999999"],
    "trials": ["1", "2", "0", "-1", "٣", "1_0", " 2", "x"],
    "seed": ["0", "5", "07", "99999999999999999999", "-1", "1_0", "٣",
             " 1", "x"],
    "rate": ["1/3", "1/2", "2/3", "0.5", "1/100", "1", "2", "0", "-1/3",
             "1e-400", "1e400", "1e99999999", "1/0", "abc", " 1/3",
             "1_0/3_0", "١/3", "inf", "nan", "1/3\n"],
    "rate_list": ["1/3", "1/3,1/2", "2/3", "1/0", " 1/3", "1_0/3_0",
                  "1/3,abc", ""],
    "k_list": ["8", "8,16", "4,12", "8, 16", "1_6", "8,x", "", ",",
               "８", "-2,8"],
    "poly": ["7,5", "13,15", "111,101", "7", "9,5", "7_7,5", "0o7,5", "0,5",
             "777,5", "٧,5", " 7,5", "-7,5", ",", "7,5\n"],
    "base": ["octal", "binary", "hex"],
    "puncture": ["p1=10,p2=01", "p1=1,p2=1", "p1=1000,p2=0010", "garbage",
                 "p1=,p2=", "p1=12,p2=01", "p1=1_0,p2=01"],
    "interleaver": ["id", "identity", "pr:1", "pr:07", "pr:0_7", "pr:-1",
                    "pr:", "pr:٣", "pr:99999999999999999999", "shuffle",
                    "file:{pi8}", "file:{pi_underscore}", "file:{pi_arabic}",
                    "file:{pi_binary}", "file:{missing}", "file:{drawn}"],
    "code": ["turbo", "ldpc-regular", "ldpc-irregular:{degrees}",
             "ldpc-irregular:{degrees_underscore}",
             "ldpc-irregular:{degrees_inf}", "ldpc-irregular:{degrees_binary}",
             "ldpc-irregular:{missing}", "ldpc-irregular:{drawn}", "bogus"],
    "code_list": ["turbo", "ldpc-regular", "turbo,ldpc-regular",
                  "ldpc-irregular:{degrees}", "bogus", ""],
    "hex": ["{hex8}", "{hex16}", "{hex_arabic}", "{hex_g}", "{hex_binary}",
            "{empty}", "{missing}", "{drawn}"],
    "received": ["{received}", "{received_underscore}", "{received_range}",
                 "{received_binary}", "{received_repeat}", "{empty}",
                 "{missing}", "{drawn}"],
    "out": ["{folder}/out.txt", "{folder}", "{missing}/out.txt"],
    "config": ["{config}", "{config_not_json}", "{config_list}",
               "{config_bool}", "{config_null}", "{config_float}",
               "{config_nan}", "{config_key}", "{config_binary}",
               "{config_seed}", "{config_k}", "{missing}", "{drawn}"],
}
FUZZ_FILES = {
    "pi8": b"3\n4\n2\n7\n6\n1\n5\n0\n",
    "pi_underscore": b"0\n1_0\n2\n",
    "pi_arabic": "٣\n0\n1\n".encode(),
    "pi_binary": b"2\n0\xc3\n1\n",
    "degrees": b"# left degrees\n2 0.5\n3 0.5\n",
    "degrees_underscore": b"2 0.2_5\n1_0 0.7_5\n",
    "degrees_inf": b"2 inf\n3 -inf\n",
    "degrees_binary": b"2 0.5\n3 0.5 # \xff\n",
    "hex8": b"a7\n",
    "hex16": b"a7 3c\n",
    "hex_arabic": "٣a\n".encode(),
    "hex_g": b"a7g\n",
    "hex_binary": b"a7\n\xe9\n",
    "empty": b"",
    "received": b"# a prefix\n0 0\n1 0\n2 0\n3 0\n",
    "received_underscore": b"0_1 0\n",
    "received_range": b"999 0\n",
    "received_binary": b"0 0\n1 \xff\n",
    "received_repeat": b"0 0\n0 0\n",
    "config": b'{"k": 8, "trials": 1, "rate": "1/2"}',
    "config_not_json": b'{"k": 8,',
    "config_list": b"[8]",
    "config_bool": b'{"k": true}',
    "config_null": b'{"interleaver": null}',
    "config_float": b'{"k": 8.5, "seed": 1e400}',
    "config_nan": b'{"rate": NaN}',
    "config_key": b'{"bogus\\n": 1}',
    "config_binary": b'{"k": 8, "seed": "\xff"}',
    "config_seed": b'{"seed": "1_0"}',
    "config_k": b'{"k": "\xef\xbc\x98"}',
}


@pytest.fixture(scope="module")
def fuzz_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    for name, body in FUZZ_FILES.items():
        (folder / name).write_bytes(body)
    return folder


class TestFuzzedArgv:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(data=st.data())
    def test_every_exit_is_0_1_or_2_with_one_error_line(self, fuzz_folder,
                                                        data):
        # A file flag may also read a drawn body: any bytes at all.
        body = data.draw(st.binary(max_size=24), label="drawn body")
        drawn = fuzz_folder / f"drawn-{hashlib.sha1(body).hexdigest()}"
        drawn.write_bytes(body)
        paths = {name: fuzz_folder / name for name in FUZZ_FILES}
        paths.update(folder=fuzz_folder, missing=fuzz_folder / "missing",
                     drawn=drawn)

        command = data.draw(st.sampled_from(sorted(FUZZED_COMMANDS)))
        always, optional = FUZZED_COMMANDS[command]
        flags = always + data.draw(st.lists(st.sampled_from(optional),
                                            max_size=4, unique=True))
        argv = [command]
        for flag, kind in flags:
            value = data.draw(st.sampled_from(FUZZ_VALUES[kind]),
                              label=flag).format(**paths)
            argv += ([f"{flag}={value}"] if data.draw(st.booleans())
                     else [flag, value])

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                assert "error: argument --" in err.getvalue(), argv
                return
        assert code in ((0, 1, 2) if command == "decode" else (0, 2)), argv
        err = err.getvalue()
        assert "Traceback" not in err
        if code == 2:
            assert err.splitlines()[-1].startswith("error: "), (argv, err)
