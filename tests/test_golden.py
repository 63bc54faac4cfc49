"""Golden outputs: campaign results, a CLI sweep CSV and the stdout of
``decode`` and ``trial``, pinned byte for byte.

The campaign and sweep values were recorded before the decoder's
per-mask scans were replaced by memo lookups, the decode and trial
outputs before the three reception loops became one ``feed``; any
change to the decoder, the encoder, the seeding or an output format
that moves them is a change of behaviour.
"""

from fractions import Fraction

import pytest

from turbobec import (RscSpec, build_regular_staircase, make_pr_interleaver,
                      make_turbo_spec, run_campaign)
from turbobec.cli import main

K = 64
TRIALS = 20
BASE_SEED = 3


def _turbo(polys, rate):
    return make_turbo_spec(RscSpec(*polys), K, make_pr_interleaver(K, 7),
                           rate=rate)


@pytest.mark.parametrize("build, mu_av", [
    (lambda: _turbo((0o7, 0o5, 3), Fraction(1, 3)), "1.192969"),
    (lambda: _turbo((0o13, 0o15, 4), Fraction(1, 2)), "1.135156"),
    (lambda: build_regular_staircase(K, Fraction(1, 3), seed=5), "1.225781"),
], ids=["turbo75-r13", "turbo1315-r12", "ldpc-r13"])
def test_campaign_mu_av(build, mu_av):
    assert f"{run_campaign(build(), TRIALS, BASE_SEED).mu_av:.6f}" == mu_av


SWEEP_CSV = """\
code,rate,K,interleaver,trials,base_seed,mu_av,mu_std,p_th_est,gap
turbo,1/3,16,pr:1,10,0,1.293750,0.261954,0.568750,0.097917
turbo,1/3,32,pr:1,10,0,1.293750,0.273306,0.568750,0.097917
turbo,1/2,16,pr:1,10,0,1.275000,0.260542,0.362500,0.137500
turbo,1/2,32,pr:1,10,0,1.212500,0.136454,0.393750,0.106250
"""


def test_sweep_csv(capsys):
    code = main(["sweep", "--k-list", "16,32", "--rate-list", "1/3,1/2",
                 "--trials", "10"])
    assert code == 0
    assert capsys.readouterr().out == SWEEP_CSV


# The codeword of info a7 (10100111) under each code, as received lines
# in the order of the recorded runs: symbol 7j mod 24 (turbo, pr:1) and
# 5j mod 16 (LDPC, seed 0) for j = 0, 1, ...
TURBO_RX = ("0 1\n7 0\n14 0\n21 1\n4 1\n11 1\n18 1\n1 1\n8 0\n15 1\n22 1\n"
            "5 0\n12 0\n19 1\n2 1\n9 0\n16 0\n23 1\n6 1\n13 0\n20 1\n3 0\n"
            "10 1\n17 0\n")
LDPC_RX = ("0 1\n5 1\n10 1\n15 0\n4 0\n9 1\n14 0\n3 0\n8 1\n13 1\n2 1\n"
           "7 1\n12 1\n1 0\n6 1\n11 0\n")
TURBO_TRAJECTORY = "".join(f"r={r} determined={d}\n" for r, d in enumerate(
    [1, 1, 1, 2, 4, 6, 7, 7, 7, 7, 8], start=1))


@pytest.mark.parametrize("flags, received, exit_code, stdout", [
    ([], TURBO_RX, 0,
     TURBO_TRAJECTORY + "outcome: success\nr_stop=11 mu=1.375000\n"
     "info=10100111\n"),
    (["--code", "ldpc-regular", "--rate", "1/2"], LDPC_RX, 0,
     "".join(f"r={r} determined={d}\n" for r, d in enumerate(
         [1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 8], start=1))
     + "outcome: success\nr_stop=11 mu=1.375000\ninfo=10100111\n"),
    # Symbol 0 flipped: the word fits no codeword after 8 receptions.
    ([], "0 0\n" + TURBO_RX.split("\n", 1)[1], 1,
     TURBO_TRAJECTORY.split("r=9 ")[0] + "outcome: contradiction\n"),
    ([], "".join(TURBO_RX.splitlines(keepends=True)[:5]), 1,
     TURBO_TRAJECTORY.split("r=6 ")[0] + "outcome: in_progress\n"),
], ids=["turbo-success", "ldpc-success", "contradiction", "in-progress"])
def test_decode_stdout(tmp_path, capsys, flags, received, exit_code, stdout):
    path = tmp_path / "rx.txt"
    path.write_text(received)
    code = main(["decode", "--k", "8", *flags, "--received", str(path)])
    assert code == exit_code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("flags, determined", [
    ([], [0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 5, 5, 7, 7, 7, 7]
     + [15] * 16 + [16]),
    (["--code", "ldpc-regular", "--rate", "1/2"],
     [1, 1, 2, 3, 4, 5, 5, 5, 5, 5, 6, 7, 7, 7, 8, 10, 10, 10, 11, 12, 12,
      16]),
], ids=["turbo", "ldpc"])
def test_trial_stdout(capsys, flags, determined):
    code = main(["trial", "--k", "16", "--seed", "3", "--index", "2", *flags])
    assert code == 0
    assert capsys.readouterr().out == "reception,determined\n" + "".join(
        f"{r},{d}\n" for r, d in enumerate(determined, start=1))
