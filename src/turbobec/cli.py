"""Command line front end.

Subcommands: table, encode, decode, trial, simulate, sweep.  Every run
is reproducible from its flags (or a JSON --config file, with flags
taking precedence); the resolved configuration and the code fingerprint
are echoed to stderr so outputs carry their own provenance.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .decoder import Status
from .harness import CSV_HEADER, run_campaign, run_trial, stats_row, sweep
from .ldpc import (build_irregular_staircase, build_regular_staircase,
                   load_degree_distribution)
from .trellis import LookupMasks, RscSpec, TransitionTable, UNKNOWN, format_mask
from .turbo import (identity_interleaver, load_interleaver,
                    make_pr_interleaver, make_puncture_map, make_turbo_spec,
                    parse_puncture_patterns)


def _parse_poly(text: str, base: str, flag: str) -> tuple[int, int, int]:
    """"7,5" -> (feedback, forward, constraint_length)."""
    radix = 8 if base == "octal" else 2
    try:
        fb, fw = (int(p, radix) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{flag}: '{text}' is not a feedback,forward pair "
                         f"of {base} polynomials") from None
    length = max(fb.bit_length(), fw.bit_length())
    return fb, fw, length


def _parse_rate(text, flag: str = "--rate") -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: '{text}' is not a rate fraction") from None


def _make_interleaver(spec_text: str, k: int):
    if spec_text in ("id", "identity"):
        return identity_interleaver(k)
    kind, _, arg = spec_text.partition(":")
    if kind == "pr":
        return make_pr_interleaver(k, int(arg))
    if kind == "file":
        pi = load_interleaver(arg)
        if len(pi) != k:
            raise ValueError(f"interleaver file has length {len(pi)}, expected {k}")
        return pi
    raise ValueError(f"unknown interleaver spec '{spec_text}'")


def _make_code(args):
    """Builds the code under test from resolved flags; returns (code, tag)."""
    name = args.code
    rate = _parse_rate(args.rate)
    if name == "turbo":
        fb, fw, length = _parse_poly(args.poly, args.base, "--poly")
        rsc = RscSpec(fb, fw, length)
        interleaver = _make_interleaver(args.interleaver, args.k)
        puncture = (parse_puncture_patterns(args.puncture)
                    if args.puncture else make_puncture_map(rate, args.k))
        spec = make_turbo_spec(rsc, args.k, interleaver, puncture=puncture)
        if spec.rate != rate:
            raise ValueError(
                f"puncture pattern gives rate {spec.rate}, requested {rate}")
        return spec, args.interleaver
    if name == "ldpc-regular":
        return build_regular_staircase(args.k, rate, args.seed), "-"
    if name.startswith("ldpc-irregular:"):
        dist = load_degree_distribution(name.split(":", 1)[1])
        return build_irregular_staircase(args.k, rate, dist, args.seed), "-"
    raise ValueError(f"unknown code family '{name}'")


def _echo_config(args, code=None) -> None:
    shown = {k: v for k, v in sorted(vars(args).items())
             if v is not None and k not in ("func", "config")}
    print(f"# turbobec {__version__} config: {shown}", file=sys.stderr)
    if code is not None:
        print(f"# code: {code.fingerprint()}", file=sys.stderr)


def _read_bits(path: str, count: int) -> list[int]:
    with open(path) as fh:
        text = "".join(fh.read().split())
    bits = []
    for ch in text:
        v = int(ch, 16)
        bits.extend((v >> s) & 1 for s in (3, 2, 1, 0))
    if len(bits) < count:
        raise ValueError(f"{path}: expected at least {count} bits, found {len(bits)}")
    return bits[:count]


def _write_bits(path: str, bits) -> None:
    bits = list(bits) + [0] * (-len(bits) % 4)
    digits = "".join(
        f"{(bits[i] << 3) | (bits[i + 1] << 2) | (bits[i + 2] << 1) | bits[i + 3]:x}"
        for i in range(0, len(bits), 4)
    )
    with open(path, "w") as fh:
        fh.write(digits + "\n")


def cmd_table(args) -> int:
    fb, fw, length = _parse_poly(args.code_poly, args.base, "--code")
    table = TransitionTable(RscSpec(fb, fw, length))
    masks = LookupMasks(table)
    _echo_config(args)
    print(f"transition table of RSC ({fb:o},{fw:o})_8, L={length}:")
    print(table.to_text())
    names = {0: "0", 1: "1", UNKNOWN: "x"}
    for c1 in (UNKNOWN, 0, 1):
        for c2 in (UNKNOWN, 0, 1):
            print(f"\nT_{names[c1]}{names[c2]}:")
            print(format_mask(masks.by_constraint[(c1, c2)], table.n_states))
    return 0


def cmd_encode(args) -> int:
    _require(args, "k", "infile", "outfile")
    code, _ = _make_code(args)
    _echo_config(args, code)
    info = _read_bits(args.infile, args.k)
    _write_bits(args.outfile, code.encode(info))
    return 0


def cmd_decode(args) -> int:
    _require(args, "k", "received")
    code, _ = _make_code(args)
    _echo_config(args, code)
    decoder = code.start_decoder()
    outcome = decoder.outcome()
    r = 0
    with open(args.received) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                idx_s, bit_s = line.split()
                outcome = decoder.receive(int(idx_s), int(bit_s))
            except ValueError as exc:
                raise ValueError(
                    f"{args.received}, line {lineno} {line!r}: {exc}") from None
            r += 1
            print(f"r={r} determined={decoder.known_count()}")
            if outcome.status is not Status.IN_PROGRESS:
                break
    print(f"outcome: {outcome.status.value}")
    if outcome.status is Status.SUCCESS:
        bits = "".join(str(b) for b in decoder.determined_bits())
        print(f"r_stop={r} mu={r / code.K:.6f}")
        print(f"info={bits}")
        return 0
    return 1


def cmd_trial(args) -> int:
    _require(args, "k")
    code, _ = _make_code(args)
    _echo_config(args, code)
    trace: list[int] = []
    record = run_trial(code, args.seed, args.index, trace=trace)
    print("reception,determined")
    for i, known in enumerate(trace, start=1):
        print(f"{i},{known}")
    print(f"r_stop={record.r_stop} mu={record.mu:.6f}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    _require(args, "k")
    code, tag = _make_code(args)
    _echo_config(args, code)
    stats = run_campaign(code, args.trials, args.seed)
    rows = [CSV_HEADER,
            stats_row(args.code, Fraction(args.rate), args.k, tag,
                      args.trials, args.seed, stats)]
    _emit(rows, args.out)
    return 0


def cmd_sweep(args) -> int:
    _require(args, "k_list")
    _echo_config(args)

    def make_code(name, k, rate):
        sub = argparse.Namespace(**vars(args))
        sub.code, sub.rate, sub.k = name, rate, k
        return _make_code(sub)

    rates = [_parse_rate(r, "--rate-list") for r in args.rate_list.split(",")]
    rows = sweep(make_code, [int(k) for k in args.k_list.split(",")],
                 rates, args.code_list.split(","),
                 args.trials, args.seed)
    _emit(rows, args.out)
    if args.emit_plot:
        _write_plot_script(args.emit_plot, args.out)
    return 0


def _emit(rows, out_path) -> None:
    text = "\n".join(rows) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_plot_script(script_path: str, csv_path: str) -> None:
    with open(script_path, "w") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'K'\nset ylabel 'mu_av'\nset logscale x 2\n"
            f"plot '{csv_path}' using 3:7 with linespoints\n"
        )


def _add_code_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", default="turbo",
                   help="turbo | ldpc-regular | ldpc-irregular:FILE")
    p.add_argument("--poly", default="7,5", help="feedback,forward polynomials")
    p.add_argument("--base", default="octal", choices=["octal", "binary"])
    p.add_argument("--k", type=int, help="information length K")
    p.add_argument("--rate", default="1/3", help="code rate as a fraction")
    p.add_argument("--interleaver", default="pr:1",
                   help="id | pr:SEED | file:PATH")
    p.add_argument("--puncture", help="override pattern, e.g. p1=10,p2=01")
    p.add_argument("--seed", type=int, default=0, help="base seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turbobec",
        description="Turbo and staircase-LDPC erasure codecs with "
                    "on-the-fly decoding over the BEC.")
    parser.add_argument("--version", action="version",
                        version=f"turbobec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="dump a transition table and its masks")
    p.add_argument("--code", dest="code_poly", default="7,5")
    p.add_argument("--base", default="octal", choices=["octal", "binary"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("encode", help="encode a hex file of information bits")
    _add_code_flags(p)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", dest="outfile")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="replay (index, bit) receptions")
    _add_code_flags(p)
    p.add_argument("--received",
                   help="file of 'index bit' lines in arrival order")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("trial", help="run one seeded trial with its trajectory")
    _add_code_flags(p)
    p.add_argument("--index", type=int, default=0, help="trial index")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("simulate", help="run a Monte-Carlo campaign")
    _add_code_flags(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="campaign over K x rate x code family")
    _add_code_flags(p)
    p.add_argument("--k-list", help="comma separated K values")
    p.add_argument("--rate-list", default="1/3")
    p.add_argument("--code-list", default="turbo")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--emit-plot", help="write a gnuplot script to this path")
    p.set_defaults(func=cmd_sweep)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="JSON file of default flag values")
    return parser


_FLAG_ALIASES = {"infile": "--in", "outfile": "--out", "code_poly": "--code"}


def _flag(dest: str) -> str:
    return _FLAG_ALIASES.get(dest, "--" + dest.replace("_", "-"))


def _apply_config(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parses ``argv``, reading ``--config`` entries as flags placed first.

    argparse converts and checks them like any flag, and a flag given on
    the command line comes later, so it wins.
    """
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        try:
            defaults = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
    if not isinstance(defaults, dict):
        raise ValueError(f"{args.config}: expected a JSON object of flag values")
    tokens = []
    for key, value in defaults.items():
        if key in ("command", "config", "func") or not hasattr(args, key):
            raise ValueError(f"config key '{key}' is not a known flag")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key '{key}': {json.dumps(value)} is not "
                             f"a JSON string or number")
        tokens.append(f"{_flag(key)}={value}")
    return parser.parse_args([args.command, *tokens, *argv[1:]])


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"{_flag(name)} is required (flag or config)")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
