"""Golden outputs: campaign results and a CLI sweep CSV pinned byte for byte.

The values were recorded before the decoder's per-mask scans were
replaced by memo lookups; any change to the decoder, the encoder, the
seeding or the CSV format that moves them is a change of behaviour.
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
