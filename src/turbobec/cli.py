"""Command line front end.

Subcommands: table, encode, decode, trial, simulate, sweep.  Every run
is reproducible from its flags (or a JSON --config file, with flags
taking precedence); the resolved configuration and the code fingerprint
are echoed to stderr so outputs carry their own provenance.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .decoder import Status
from .harness import run_trial, sweep
from .ldpc import (build_irregular_staircase, build_regular_staircase,
                   load_degree_distribution)
from .trellis import LookupMasks, RscSpec, TransitionTable, UNKNOWN, format_mask
from .turbo import (identity_interleaver, load_interleaver,
                    make_pr_interleaver, make_turbo_spec,
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


def _seed(text: str) -> int:
    """argparse type of --seed and --index: numpy seeds only from
    integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; it must be >= 0")
    return value


def _parse_interleaver(text: str):
    """Checks an --interleaver value; returns the function of K that
    builds it."""
    if text in ("id", "identity"):
        return identity_interleaver
    kind, _, arg = text.partition(":")
    if kind == "pr":
        try:
            seed = _seed(arg)
        except argparse.ArgumentTypeError:
            raise ValueError(f"--interleaver: '{text}' needs an integer "
                             f"seed >= 0") from None
        return functools.partial(make_pr_interleaver, seed=seed)
    if kind == "file":
        pi = load_interleaver(arg)

        def sized(k):
            if len(pi) != k:
                raise ValueError(f"interleaver file has length {len(pi)}, "
                                 f"expected {k}")
            return pi
        return sized
    raise ValueError(f"unknown interleaver spec '{text}'")


def _make_code(args, name: str, k: int, rate: Fraction):
    """Builds the code ``name`` at (K, rate) from the resolved flags and
    echoes its ``# code:`` line; returns (code, interleaver tag).

    The turbo flags are checked for every family, so a malformed one
    fails an LDPC run too; a well-formed one is unused there.
    """
    rsc = RscSpec(*_parse_poly(args.poly, args.base, "--poly"))
    interleaver = _parse_interleaver(args.interleaver)
    puncture = parse_puncture_patterns(args.puncture) if args.puncture else None
    if name == "turbo":
        code = make_turbo_spec(rsc, k, interleaver(k), rate, puncture)
        tag = args.interleaver
    elif name == "ldpc-regular":
        code, tag = build_regular_staircase(k, rate, args.seed), "-"
    elif name.startswith("ldpc-irregular:"):
        dist = load_degree_distribution(name.split(":", 1)[1])
        code, tag = build_irregular_staircase(k, rate, dist, args.seed), "-"
    else:
        raise ValueError(f"unknown code family '{name}'")
    print(f"# code: {code.fingerprint()}", file=sys.stderr)
    return code, tag


def _echo_config(args) -> None:
    shown = {k: v for k, v in sorted(vars(args).items())
             if v is not None and k not in ("func", "config")}
    print(f"# turbobec {__version__} config: {shown}", file=sys.stderr)


def _read_bits(path: str, count: int) -> list[int]:
    with open(path) as fh:
        text = "".join(fh.read().split())
    bits = []
    for ch in text:
        try:
            v = int(ch, 16)
        except ValueError:
            raise ValueError(f"{path}: '{ch}' is not a hex digit") from None
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
    _echo_config(args)
    code, _ = _make_code(args, args.code, args.k, _parse_rate(args.rate))
    info = _read_bits(args.infile, args.k)
    _write_bits(args.outfile, code.encode(info))
    return 0


def cmd_decode(args) -> int:
    _require(args, "k", "received")
    _echo_config(args)
    code, _ = _make_code(args, args.code, args.k, _parse_rate(args.rate))
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
    _echo_config(args)
    code, _ = _make_code(args, args.code, args.k, _parse_rate(args.rate))
    trace: list[int] = []
    record = run_trial(code, args.seed, args.index, trace=trace)
    print("reception,determined")
    for i, known in enumerate(trace, start=1):
        print(f"{i},{known}")
    print(f"r_stop={record.r_stop} mu={record.mu:.6f}", file=sys.stderr)
    return 0


def _campaign(args, codes, ks, rates) -> None:
    """One campaign per (code, rate, K) point, as CSV rows from
    ``harness.sweep``; the config and each point's code are echoed."""
    _echo_config(args)
    _emit(sweep(functools.partial(_make_code, args), ks, rates, codes,
                args.trials, args.seed), args.out)


def cmd_simulate(args) -> int:
    _require(args, "k")
    _campaign(args, [args.code], [args.k], [_parse_rate(args.rate)])
    return 0


def cmd_sweep(args) -> int:
    _require(args, "k_list")
    rates = [_parse_rate(r, "--rate-list") for r in args.rate_list.split(",")]
    try:
        ks = [int(k) for k in args.k_list.split(",")]
    except ValueError:
        raise ValueError(f"--k-list: '{args.k_list}' is not a comma separated "
                         f"list of integers") from None
    _campaign(args, args.code_list.split(","), ks, rates)
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


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    """The one code, K and rate of a single-point command."""
    p.add_argument("--code", default="turbo",
                   help="turbo | ldpc-regular | ldpc-irregular:FILE")
    p.add_argument("--k", type=int, help="information length K")
    p.add_argument("--rate", default="1/3", help="code rate as a fraction")
    _add_code_flags(p)


def _add_code_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--poly", default="7,5", help="feedback,forward polynomials")
    p.add_argument("--base", default="octal", choices=["octal", "binary"])
    p.add_argument("--interleaver", default="pr:1",
                   help="id | pr:SEED | file:PATH")
    p.add_argument("--puncture", help="override pattern, e.g. p1=10,p2=01")
    p.add_argument("--seed", type=_seed, default=0, help="base seed")


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
    _add_point_flags(p)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", dest="outfile")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="replay (index, bit) receptions")
    _add_point_flags(p)
    p.add_argument("--received",
                   help="file of 'index bit' lines in arrival order")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("trial", help="run one seeded trial with its trajectory")
    _add_point_flags(p)
    p.add_argument("--index", type=_seed, default=0, help="trial index")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("simulate", help="run a Monte-Carlo campaign")
    _add_point_flags(p)
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
