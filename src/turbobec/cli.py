"""Command line front end.

Subcommands: table, encode, decode, trial, simulate, sweep.  Every run
is reproducible from its flags (or a JSON --config file, with flags
taking precedence); the resolved configuration and the code fingerprint
are echoed to stderr so outputs carry their own provenance.

This module is the package's one reader of outside text: flags, config
files and the interleaver, degree, received and hex files.  Every
integer in them is read by ``_integer`` (ASCII digits of its base), and
every rate or degree fraction by ``_fraction`` (plain ASCII that
Python's own grammar reads), so no ``_`` separator, surrounding blank,
``+`` sign or non-ASCII digit gets through.

Every refused value names its flag, and its file when it comes from one:
"--interleaver: pi.txt: interleaver entry 0 appears twice".  ``_naming``
alone puts the flag in front, at the call that reads the flag's value.
The received and ``--in`` files, which the commands read themselves,
are named with the line at fault, without their flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .decoder import Status
from .harness import run_trial, sweep
from .ldpc import (_COLUMN_WEIGHT, _parity_count, build_irregular_staircase,
                   build_regular_staircase)
from .trellis import LookupMasks, RscSpec, TransitionTable, UNKNOWN, format_mask
from .turbo import (Interleaver, PunctureMap, identity_interleaver,
                    make_pr_interleaver, make_turbo_spec)


# A step mask has 2^L bits, two per state, so each added register cell
# doubles every mask operation and the rule's row and column scans;
# L = 2..8 covers the shipped codes.
_MAX_CONSTRAINT_LENGTH = 8
# Far above any K a campaign here needs; a K near the machine's limits
# fails deep inside numpy, with no flag named, instead of at its flag.
_MAX_K = 1 << 20
# The same for the length N = K/R, so a tiny rate fails at its flag; it
# still admits K = 2^20 at rate 1/3.
_MAX_N = 1 << 22
_HEX_DIGITS = "0123456789abcdef"


def _digit_limit() -> int:
    """The most decimal digits this interpreter's ``int`` reads, 0 for no
    limit (set by PYTHONINTMAXSTRDIGITS or -X int_max_str_digits)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _integer(text: str, base: int = 10, signed: bool = False) -> int:
    """``text`` read as ASCII digits of ``base`` (either case for hex),
    after one leading '-' only where ``signed`` lets a negative value
    reach a message of its own; anything else raises ValueError."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not digits or digits.strip(_HEX_DIGITS[:base]
                                  + _HEX_DIGITS[10:base].upper()):
        raise ValueError(f"{text!r} is not a base-{base} integer")
    return int(text, base)


def _fraction(text: str, exact: bool = True):
    """A rate (``exact``: a Fraction) or a degree fraction (a float), read
    by Python's own grammar once ``text`` is plain ASCII with no '_', no
    surrounding blank and an exponent of at most four digits (Fraction
    takes seconds on '1e9999999'); so '1/3', '0.5', '1e-400' and 'inf'
    parse."""
    if (not text.isascii() or "_" in text or text != text.strip()
            or len(text.lower().partition("e")[2].lstrip("+-")) > 4):
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return Fraction(text) if exact else float(text)


def _naming(name, make, *args):
    """``make(*args)``; a ValueError it raises is raised again with
    ``name`` in front of its text: the flag whose value it refused, or
    the file or value that flag gave."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse_poly(text: str, base: str) -> RscSpec:
    """"7,5" -> the RscSpec of (feedback, forward), whose constraint
    length, the longer polynomial's, is at most ``_MAX_CONSTRAINT_LENGTH``."""
    try:
        fb, fw = (_integer(h, 8 if base == "octal" else 2)
                  for h in text.split(","))
    except ValueError:
        raise ValueError(f"{text!r} is not a feedback,forward pair "
                         f"of {base} polynomials") from None
    length = max(fb.bit_length(), fw.bit_length())
    if length > _MAX_CONSTRAINT_LENGTH:
        raise ValueError(f"{text!r} has constraint length {length}, "
                         f"above the limit of {_MAX_CONSTRAINT_LENGTH}")
    return _naming(repr(text), RscSpec, fb, fw, length)


def _parse_rate(text: str) -> Fraction:
    try:
        return _fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a rate fraction") from None


def _parse_k_list(text: str) -> list[int]:
    try:
        return [_integer(k, signed=True) for k in text.split(",")]
    except ValueError:
        raise ValueError(f"{text!r} is not a comma separated list of "
                         f"integers") from None


def _int_at_least(minimum: int | None, complaint: str = ""):
    """An argparse type: an integer, >= ``minimum`` unless that is None;
    ``complaint``, with ``{}`` for the value, says why a smaller one is
    rejected."""
    def parse(text: str) -> int:
        try:
            value = _integer(text, signed=True)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(complaint.format(value))
        return value
    return parse


# --k: ``_make_code`` names a K below 1 or above ``_MAX_K`` with its flag.
_k = _int_at_least(None)
# --seed and --index: numpy seeds only from integers >= 0.
_seed = _int_at_least(0, "{} is negative; it must be >= 0")
_trials = _int_at_least(1, "{} is below 1; a campaign needs at least one trial")


def _text_lines(path):
    """(number, text) of each line of the UTF-8 file at ``path``, from 1.

    Each line is decoded only when drawn, so bytes after the last line
    drawn are never checked; a line that is not UTF-8 raises ValueError
    naming the file and the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}, line {lineno}: not UTF-8 text") from None
        yield lineno, line


def load_interleaver(path) -> Interleaver:
    """Reads one permutation image per line; blank lines are skipped.  A
    repeated or out-of-range entry is named with the file."""
    entries = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(_integer(line, signed=True))
        except ValueError:
            raise ValueError(f"{path}, line {lineno} {line!r}: "
                             f"not an integer") from None
    return _naming(path, Interleaver, tuple(entries), f"file:{path}")


def load_degree_distribution(path) -> dict[int, float]:
    """Reads "degree probability" pairs, one per line; '#' starts a comment."""
    dist = {}
    for lineno, line in _text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            d, p = line.split()
            d, p = _integer(d, signed=True), _fraction(p, exact=False)
        except ValueError:
            raise ValueError(f"{path}, line {lineno} {line!r}: expected "
                             f"an integer degree and a fraction") from None
        if d in dist:
            raise ValueError(f"{path}, line {lineno}: degree {d} given twice")
        dist[d] = p
    return dist


def parse_puncture_patterns(text: str) -> PunctureMap:
    """Parses an override like "p1=1010,p2=0101"."""
    parts = [p.partition("=") for p in text.split(",")]
    if any(not eq or set(bits) - {"0", "1"} for _, eq, bits in parts):
        raise ValueError(f"puncture override {text!r} is not p1=BITS,p2=BITS "
                         f"with BITS of 0s and 1s")
    if sorted(name for name, _, _ in parts) != ["p1", "p2"]:
        raise ValueError("puncture override must define p1 and p2")
    parts = {name: tuple(c == "1" for c in bits) for name, _, bits in parts}
    return PunctureMap(parts["p1"], parts["p2"])


def _parse_interleaver(text: str):
    """Checks an interleaver spec (id, pr:SEED or file:PATH); returns the
    function of K that builds it."""
    if text in ("id", "identity"):
        return identity_interleaver
    kind, _, arg = text.partition(":")
    if kind == "pr":
        limit = _digit_limit()
        if limit and len(arg) > limit:
            raise ValueError(f"the pr: seed is too long: {len(arg)} "
                             f"characters, above the limit of {limit} digits")
        try:
            seed = _seed(arg)
        except argparse.ArgumentTypeError:
            raise ValueError(f"{text!r} needs an integer seed >= 0") from None
        return functools.partial(make_pr_interleaver, seed=seed)
    if kind == "file":
        pi = load_interleaver(arg)

        def sized(k):
            if len(pi) != k:
                raise ValueError(f"{arg}: interleaver file has length "
                                 f"{len(pi)}, expected {k}")
            return pi
        return sized
    raise ValueError(f"unknown interleaver spec {text!r}")


def _parse_code(name: str):
    """(family, degree file, degree law) of a --code value; the law is
    read from FILE of ``ldpc-irregular:FILE``, and is None for the other
    families."""
    if name in ("turbo", "ldpc-regular"):
        return name, "", None
    family, colon, path = name.partition(":")
    if family != "ldpc-irregular" or not colon:
        raise ValueError(f"unknown code family {name!r}")
    return family, path, load_degree_distribution(path)


def _make_code(args, name: str, k: int, rate: Fraction):
    """Builds the code ``name`` at (K, rate) from the resolved flags and
    echoes its ``# code:`` line; returns (code, interleaver tag).

    The turbo flags are checked for every family, so a malformed one
    fails an LDPC run too; a well-formed one is unused there.  A K, rate
    or puncture pattern the library refuses is named by its flag, and a
    degree law by the flag and its file.
    """
    plural = "_list" if args.command == "sweep" else ""
    k_flag, rate_flag, code_flag = (_flag(d + plural) for d in ("k", "rate", "code"))
    if k < 1:
        raise ValueError(f"{k_flag}: K must be >= 1, not {k}")
    if k > _MAX_K:
        raise ValueError(f"{k_flag}: K={k} is above the limit of {_MAX_K}")
    if rate > 0 and k / rate > _MAX_N:
        # In decimal: the exact fraction of a tiny rate can have hundreds
        # of digits.
        shown = format(Decimal(rate.numerator) / rate.denominator, ".3g")
        raise ValueError(f"{rate_flag}: rate {shown} at K={k} gives a length "
                         f"above the limit of {_MAX_N}")
    rsc = _naming("--poly", _parse_poly, args.poly, args.base)
    interleaver = _naming("--interleaver", _parse_interleaver, args.interleaver)
    puncture = (_naming("--puncture", parse_puncture_patterns, args.puncture)
                if args.puncture else None)
    family, path, dist = _naming(code_flag, _parse_code, name)
    if family == "turbo":
        pi = _naming("--interleaver", interleaver, k)
        # Without --puncture the rate picks the preset pattern.
        code = _naming("--puncture" if puncture else rate_flag,
                       make_turbo_spec, rsc, k, pi, rate, puncture)
    else:
        _naming(rate_flag, _parity_count, k, rate)
        if family == "ldpc-regular":
            # A K below the column weight is short at any rate; a longer
            # one is short when its rate leaves fewer checks than that.
            short = k_flag if k < _COLUMN_WEIGHT else rate_flag
            code = _naming(short, build_regular_staircase, k, rate, args.seed)
        else:
            # The flag, then its file, in front of a degree law refused.
            code = _naming(code_flag, _naming, path, build_irregular_staircase,
                           k, rate, dist, args.seed)
    print(f"# code: {code.fingerprint()}", file=sys.stderr)
    return code, args.interleaver if family == "turbo" else "-"


def _echo_config(args) -> None:
    shown = {k: v for k, v in sorted(vars(args).items())
             if v is not None and k not in ("func", "config")}
    print(f"# turbobec {__version__} config: {shown}", file=sys.stderr)


def _read_bits(path: str, count: int) -> list[int]:
    text = "".join(word for _, line in _text_lines(path)
                   for word in line.split())
    bits = []
    for ch in text:
        try:
            v = _integer(ch, 16)
        except ValueError:
            raise ValueError(f"{path}: {ch!r} is not a hex digit") from None
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


def _point(args, *required) -> tuple[str, int, Fraction]:
    """The one (code, K, rate) point of a single-point command, read once
    --k and the ``required`` flags are checked and the configuration is
    echoed."""
    _require(args, "k", *required)
    _echo_config(args)
    return args.code, args.k, _naming("--rate", _parse_rate, args.rate)


def cmd_table(args) -> int:
    _echo_config(args)
    rsc = _naming("--code", _parse_poly, args.code, args.base)
    table = TransitionTable(rsc)
    masks = LookupMasks(table)
    print(f"transition table of RSC ({rsc.feedback_poly:o},"
          f"{rsc.forward_poly:o})_8, L={rsc.constraint_length}:")
    print(table.to_text())
    names = {0: "0", 1: "1", UNKNOWN: "x"}
    for c1 in (UNKNOWN, 0, 1):
        for c2 in (UNKNOWN, 0, 1):
            print(f"\nT_{names[c1]}{names[c2]}:")
            print(format_mask(masks.by_constraint[(c1, c2)], table))
    return 0


def cmd_encode(args) -> int:
    code, _ = _make_code(args, *_point(args, "in", "out"))
    info = _read_bits(getattr(args, "in"), args.k)  # ``in`` is a keyword
    _write_bits(args.out, code.encode(info))
    return 0


def _receptions(path: str, lines: list):
    """(index, bit) of each line of the file not blank or a ``#`` comment,
    read as it is drawn; its (number, text) goes on ``lines`` first."""
    for lineno, line in _text_lines(path):
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
            idx_s, bit_s = line.split()
            yield _integer(idx_s, signed=True), _integer(bit_s, signed=True)


def cmd_decode(args) -> int:
    code, _ = _make_code(args, *_point(args, "received"))
    decoder = code.start_decoder()
    lines, r = [], 0
    try:
        for r in decoder.feed(_receptions(args.received, lines)):
            print(f"r={r} determined={decoder.known_count()}")
    except ValueError as exc:
        if len(lines) == r:  # the file failed to read, not a line
            raise
        lineno, line = lines[r]
        raise ValueError(
            f"{args.received}, line {lineno} {line!r}: {exc}") from None
    status = decoder.outcome()
    print(f"outcome: {status.value}")
    if status is Status.SUCCESS:
        bits = "".join(str(b) for b in decoder.determined_bits())
        print(f"r_stop={r} mu={r / code.K:.6f}")
        print(f"info={bits}")
        return 0
    return 1


def cmd_trial(args) -> int:
    code, _ = _make_code(args, *_point(args))
    trace: list[int] = []
    record = run_trial(code, args.seed, args.index, trace=trace)
    print("reception,determined")
    for i, known in enumerate(trace, start=1):
        print(f"{i},{known}")
    print(f"r_stop={record.r_stop} mu={record.mu:.6f}", file=sys.stderr)
    return 0


def _campaign(args, codes, ks, rates) -> None:
    """One campaign per (code, rate, K) point, as CSV rows from
    ``harness.sweep``; each point's code is echoed."""
    _emit(sweep(functools.partial(_make_code, args), ks, rates, codes,
                args.trials, args.seed), args.out)


def cmd_simulate(args) -> int:
    name, k, rate = _point(args)
    _campaign(args, [name], [k], [rate])
    return 0


def cmd_sweep(args) -> int:
    _require(args, "k_list")
    if args.emit_plot and not args.out:
        raise ValueError("--emit-plot needs --out: the plot script reads "
                         "the CSV from that file")
    if args.emit_plot and (os.path.realpath(args.emit_plot)
                           == os.path.realpath(args.out)):
        raise ValueError("--emit-plot and --out name the same file: the plot "
                         "script would overwrite the CSV")
    _echo_config(args)
    rates = [_naming("--rate-list", _parse_rate, r)
             for r in args.rate_list.split(",")]
    ks = _naming("--k-list", _parse_k_list, args.k_list)
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
    # Inside gnuplot's single quotes, '' stands for one '.
    quoted = csv_path.replace("'", "''")
    with open(script_path, "w") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'K'\nset ylabel 'mu_av'\nset logscale x 2\n"
            f"plot '{quoted}' using 3:7 with linespoints\n"
        )


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    """The one code, K and rate of a single-point command."""
    p.add_argument("--code", default="turbo",
                   help="turbo | ldpc-regular | ldpc-irregular:FILE")
    p.add_argument("--k", type=_k, help="information length K")
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
    p.add_argument("--code", default="7,5")
    p.add_argument("--base", default="octal", choices=["octal", "binary"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("encode", help="encode a hex file of information bits")
    _add_point_flags(p)
    p.add_argument("--in")
    p.add_argument("--out")
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
    p.add_argument("--trials", type=_trials, default=1000)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="campaign over K x rate x code family")
    _add_code_flags(p)
    p.add_argument("--k-list", help="comma separated K values")
    p.add_argument("--rate-list", default="1/3")
    p.add_argument("--code-list", default="turbo")
    p.add_argument("--trials", type=_trials, default=1000)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--emit-plot", help="write a gnuplot script to this path")
    p.set_defaults(func=cmd_sweep)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="JSON file of default flag values")
    return parser


def _flag(dest: str) -> str:
    """The flag of ``dest``, which is also its config key and echo key."""
    return "--" + dest.replace("_", "-")


def _apply_config(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parses ``argv``, reading ``--config`` entries as flags placed first.

    argparse converts and checks them like any flag, and a flag given on
    the command line comes later, so it wins.
    """
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    with open(args.config, "rb") as fh:
        data = fh.read()
    long_ints = []

    def read_int(text):
        # JSON hands only well-formed integers here, so ``int`` refuses
        # just one too long for the interpreter: it stays text, kept to
        # be named below.
        try:
            return _integer(text, signed=True)
        except ValueError:
            long_ints.append(text)
            return text

    try:
        defaults = json.loads(data.decode("utf-8"), parse_int=read_int)
    except UnicodeDecodeError:
        raise ValueError(f"{args.config}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
    if long_ints:
        text = long_ints[0]
        keys = [key for key, value in defaults.items()
                if value is text] if isinstance(defaults, dict) else []
        where = f"config key {keys[0]!r}: " if keys else ""
        raise ValueError(f"{args.config}: {where}an integer of "
                         f"{len(text.lstrip('-'))} digits, above the limit "
                         f"of {_digit_limit()}")
    if not isinstance(defaults, dict):
        raise ValueError(f"{args.config}: expected a JSON object of flag values")
    tokens = []
    for key, value in defaults.items():
        if key in ("command", "config", "func") or not hasattr(args, key):
            raise ValueError(f"config key {key!r} is not a known flag")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r}: {json.dumps(value)} is not "
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
