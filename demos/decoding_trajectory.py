"""Watch one on-the-fly decode: determined bits per received symbol.

Runs one seeded trial, which feeds the all-zero codeword in a random
arrival order (on the erasure channel a trial is its arrival order, so
the word sent does not matter), and prints how many information bits
are pinned down after each reception.  The jump at the end is the
avalanche once enough constraints connect.
"""

from fractions import Fraction

from turbobec import RscSpec, make_pr_interleaver, make_turbo_spec, run_trial

K = 256
spec = make_turbo_spec(RscSpec(0o7, 0o5, 3), K, make_pr_interleaver(K, seed=7),
                       rate=Fraction(1, 3))

trace: list[int] = []
record = run_trial(spec, base_seed=42, trace=trace)

for r, known in enumerate(trace, start=1):
    bar = "#" * (known * 60 // K)
    print(f"{r:4d} {known:4d}/{K} {bar}")
print(f"\nsuccess after r_stop={record.r_stop} symbols, mu={record.mu:.4f}")
