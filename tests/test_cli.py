import json
import re
from pathlib import Path

import pytest

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
        assert "error: unknown code family 'nope'" in err


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

    An unknown --code and an unknown config key are covered above.
    """

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--config", "{tmp}/bad.json"], "bad.json: not valid JSON"),
        (["simulate", "--config", "{tmp}/list.json"], "expected a JSON object"),
        (["simulate", "--config", "{tmp}/missing.json"], "missing.json"),
        (["simulate", "--k", "8", "--interleaver", "shuffle"],
         "unknown interleaver spec 'shuffle'"),
        (["simulate", "--k", "8", "--interleaver", "file:{tmp}/pi.txt"],
         "interleaver file has length 3, expected 8"),
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
         "rate 0 must be positive"),
        (["simulate", "--k", "8", "--puncture", "p1=,p2="],
         "puncture period 0 must be >= 1"),
        (["simulate", "--k", "0", "--interleaver", "id"], "K must be >= 1"),
        (["simulate", "--k", "8", "--poly", "7"],
         "--poly: '7' is not a feedback,forward pair of octal polynomials"),
        (["simulate", "--k", "8", "--poly", "9,5"],
         "--poly: '9,5' is not a feedback,forward pair of octal polynomials"),
        (["simulate", "--k", "8", "--poly", "7,5,3"],
         "--poly: '7,5,3' is not a feedback,forward pair of octal polynomials"),
        (["table", "--code", "111,2", "--base", "binary"],
         "--code: '111,2' is not a feedback,forward pair of binary polynomials"),
        (["simulate", "--k", "8", "--interleaver", "id", "--puncture",
          "p1=10,p2=01", "--rate", "1/3"],
         "puncture pattern gives rate 1/2, requested 1/3"),
        (["simulate", "--k", "8", "--rate", "1/2", "--puncture", "p1=12,p2=01"],
         "puncture override 'p1=12,p2=01' is not p1=BITS,p2=BITS"),
        (["simulate", "--k", "8", "--puncture", "garbage"],
         "puncture override 'garbage' is not p1=BITS,p2=BITS"),
        (["simulate", "--k", "8", "--rate", "1/2", "--puncture",
          "p1=11,p1=10,p2=01"], "puncture override must define p1 and p2"),
        (["simulate", "--k", "8", "--code", "ldpc-irregular:{tmp}/inf.txt"],
         "degree fractions must lie in [0, 1]"),
        (["simulate", "--k", "8", "--interleaver", "pr:abc"],
         "--interleaver: 'pr:abc' needs an integer seed"),
        (["simulate", "--k", "3", "--interleaver", "file:{tmp}/pi-text.txt"],
         "pi-text.txt, line 2 'one': not an integer"),
        (["encode", "--k", "8", "--in", "{tmp}/info-g.hex",
          "--out", "{tmp}/cw.hex"], "info-g.hex: 'g' is not a hex digit"),
        (["sweep", "--k-list", "8,x"],
         "--k-list: '8,x' is not a comma separated list of integers"),
        (["simulate", "--code", "ldpc-regular", "--k", "8", "--rate", "1/2",
          "--puncture", "garbage"],
         "puncture override 'garbage' is not p1=BITS,p2=BITS"),
        (["simulate", "--code", "ldpc-regular", "--k", "8", "--rate", "1/2",
          "--interleaver", "bogus"], "unknown interleaver spec 'bogus'"),
        (["simulate", "--code", "ldpc-regular", "--k", "8", "--rate", "1/2",
          "--poly", "9,5"],
         "--poly: '9,5' is not a feedback,forward pair of octal polynomials"),
        (["simulate", "--code", f"ldpc-irregular:{IRREGULAR}", "--k", "8",
          "--rate", "1"], "rate 1 leaves no parity checks; it must be below 1"),
        (["simulate", "--code", f"ldpc-irregular:{IRREGULAR}", "--k", "0",
          "--rate", "1/2"], "K must be >= 1"),
        (["simulate", "--code", f"ldpc-irregular:{IRREGULAR}", "--k", "8",
          "--rate", "2"], "rate 2 leaves no parity checks; it must be below 1"),
        (["simulate", "--k", "8", "--interleaver", "pr:-1"],
         "--interleaver: 'pr:-1' needs an integer seed >= 0"),
    ], ids=["config-not-json", "config-not-object", "config-missing",
            "unknown-interleaver", "interleaver-length",
            "too-few-bits", "missing-k", "config-null", "config-bool",
            "config-list-value", "config-object-value", "rate-1/0",
            "rate-list-1/0", "ldpc-rate-0", "puncture-period-0",
            "k-0-identity", "poly-one-value", "poly-not-octal",
            "poly-three-values", "table-code-not-binary",
            "override-wrong-rate", "puncture-not-bits", "puncture-no-equals",
            "puncture-repeated-part",
            "degree-file-inf", "interleaver-seed-not-int",
            "interleaver-file-not-int", "hex-digit", "k-list-not-int",
            "ldpc-puncture-not-bits", "ldpc-unknown-interleaver",
            "ldpc-poly-not-octal", "ldpc-rate-1", "ldpc-k-0", "ldpc-rate-2",
            "interleaver-seed-negative"])
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
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: ")
        assert message in err


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
    ], ids=["seed", "index", "ldpc-seed", "config-seed"])
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


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "turbobec" in capsys.readouterr().out
