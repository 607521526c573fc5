"""Command-line surface.

`COMMANDS` names each command's positional arguments, the flags it reads
beyond `--m`, `--n`, `--theta` and `--format`, and a handler returning
its `(key, value)` records and exit code. `main` prints the records as
`key: value`, or as `key<TAB>value` with --format records; reports are
byte-identical for identical (theta, seed, level, samples) configurations.
Exit codes: 0 on success / all checks passing, 1 on a failed check (a
package error in a `check` case is one), 2 on usage or expression errors (a
flag the command does not read is one), on a limit of the checker and when
stdout is closed early, each reported as one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import endo as en
from . import modular as md
from .algebra import Element
from .errors import MalformedInput, TwoGraphError
from .exprs import parse_expression
from .oracle import GradedActionModel
from .semigroup import (
    Degree,
    Permutation2D,
    clipped_count,
    make_theta,
    normal_form,
    parse_theta_text,
    parse_word_letters,
    enumerate_words,
)
from .suites import SUITE_NAMES, run_suite

MAX_LEVEL = (3, 3)
# `gram k` builds a basis of (m^k n^k)^2 generators and a Gram matrix with the
# square of that many entries; 1296 is gram 2 on 2x3 (about 7 s, 40 MB)
MAX_GRAM_BASIS = 1296
# `spectrum W` computes (2W + 1)^2 points m^a n^b; 40401 is spectrum 100 (about 2.5 s)
MAX_SPECTRUM_POINTS = 40401
# `canonical(p,q)` writes m^p n^q words of p + q letters each; 10368 letters is
# canonical(4,4) on 2x3 (1296 words, about 1 s to apply to a generator)
MAX_CANONICAL_LETTERS = 10368
# every suite loops over --samples draws; `check all` on identity 2x3 at level
# 2,2 costs about 15 ms a sample (1.9 s at 40, 4.2 s at 200), so 10000 is
# about 2.5 min
MAX_SAMPLES = 10000
# `endo apply` keeps the image of every suffix of each word, so its memory grows
# as the square of the word length; at 2000 letters canonical(1,1) took 10.4 s
# and 235 MB on 2x3 (an e1 word), 4.7 s and 321 MB on 3x3 (an e1.f1 word)
MAX_ENDO_LETTERS = 2000


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line, like every other usage
    error, instead of a usage block; subparsers inherit it as their
    `parser_class`."""

    def error(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(2)


def _parse_level(text: str) -> Degree:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("level must look like `2,2`")
    return (a, b)


# add_argument keywords by argument name; a name not listed takes a plain string
ARGUMENTS = {
    "--m": dict(type=int, default=2, help="number of e-generators"),
    "--n": dict(type=int, default=2, help="number of f-generators"),
    "--theta": dict(default="identity", help="identity, flip, or the path of a table file"),
    "--format": dict(choices=("text", "records"), default="text"),
    "--level": dict(type=_parse_level, default=(2, 2), help="degree box, e.g. 2,2"),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=100),
    "verb": dict(choices=("apply",)),
    "pairspec": dict(help="ex312 | ex313 | ex311 | ex39(U) | ex310(U,V) | "
                          "canonical(p,q) | inner(W) | pair(U,V)"),
    "window": dict(type=int),
    "level_k": dict(type=int),
    "suite": dict(choices=SUITE_NAMES + ("all",)),
}
COMMON_FLAGS = "--m --n --theta --format"


class Command(NamedTuple):
    positionals: str  # space-separated names, in order
    flags: str  # the flags it reads beyond COMMON_FLAGS
    handler: Callable  # (args, theta) -> (records, exit code)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="twograph",
        description="Exact computations in the generator algebra of a "
                    "single-vertex 2-graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd_parser = sub.add_parser(name)
        for arg in f"{command.positionals} {COMMON_FLAGS} {command.flags}".split():
            cmd_parser.add_argument(arg, **ARGUMENTS.get(arg, {}))
    return parser


def _load_config(args) -> Permutation2D:
    """Validate the flags the command has and return the table."""
    if args.theta in ("identity", "flip"):
        theta = make_theta(args.m, args.n, args.theta)
    else:
        # a table file fixes m and n itself; the flags are ignored
        theta = parse_theta_text(Path(args.theta).read_text())
    if "level" in args:
        if not (args.level[0] >= 0 and args.level[1] >= 0):
            raise TwoGraphError("level components must be nonnegative")
        if args.level[0] > MAX_LEVEL[0] or args.level[1] > MAX_LEVEL[1]:
            raise TwoGraphError(f"level capped at {MAX_LEVEL} for cost control")
    if "samples" in args:
        if args.samples < 1:
            raise TwoGraphError("samples must be >= 1")
        if args.samples > MAX_SAMPLES:
            raise TwoGraphError(f"samples capped at {MAX_SAMPLES} for cost control")
    return theta


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for idx, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:idx])
            start = idx + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


_PAIR_SPEC_ARITY = {"ex39": 1, "ex310": 2, "canonical": 2, "inner": 1, "pair": 2}


def parse_pair_spec(spec: str, theta: Permutation2D) -> en.UnitaryPair:
    spec = spec.strip()
    if spec in ("ex312", "ex313", "ex311"):
        return en.gallery(theta, spec)
    name, paren, rest = spec.partition("(")
    if name not in _PAIR_SPEC_ARITY or not paren or not rest.endswith(")"):
        raise MalformedInput(f"unknown pair spec {spec!r}")
    args = _split_top_level(rest[:-1])
    if len(args) != _PAIR_SPEC_ARITY[name]:
        raise MalformedInput(
            f"{name} takes {_PAIR_SPEC_ARITY[name]} argument(s), got {len(args)} in {spec!r}"
        )
    if name == "canonical":
        try:
            p, q = int(args[0]), int(args[1])
        except ValueError:
            raise MalformedInput(f"canonical needs integer degrees, got {spec!r}") from None
        _check_canonical_budget(theta, p, q)
        return en.canonical_pair(theta, p, q)
    elements = [parse_expression(arg, theta) for arg in args]
    if name == "inner":
        return en.inner_pair(elements[0])
    if name == "pair":
        return en.UnitaryPair(*elements)
    return en.gallery(theta, name, *elements)


def _check_canonical_budget(theta: Permutation2D, p: int, q: int) -> None:
    """Refuse canonical(p,q) before its words are enumerated."""
    if p < 0 or q < 0:
        return  # enumerate_words reports the negative degree
    letters = clipped_count(theta, (p, q), MAX_CANONICAL_LETTERS) * (p + q)
    if letters > MAX_CANONICAL_LETTERS:
        raise TwoGraphError(f"canonical({p},{q}) on {theta.m}x{theta.n} writes "
                            f"{theta.m}^{p}*{theta.n}^{q} words of {p + q} letters, capped at "
                            f"{MAX_CANONICAL_LETTERS} letters for cost control")


def _endo(args, theta):
    lam = en.Endomorphism(parse_pair_spec(args.pairspec, theta))
    x = parse_expression(args.expr, theta)
    longest = max((w.length for t in x.terms() for w in t), default=0)
    if longest > MAX_ENDO_LETTERS:
        raise TwoGraphError(f"expression has a word of {longest} letters, capped at "
                            f"{MAX_ENDO_LETTERS} letters a word for cost control")
    return [("result", lam.apply(x))], 0


def _operands(args, theta) -> list[Element]:
    return [parse_expression(args.left, theta), parse_expression(args.right, theta)]


def _twisted(args, theta):
    ok, residual = en.twisted_check(parse_expression(args.u, theta),
                                    parse_expression(args.v, theta))
    shown = [] if ok or residual is None else [("residual", residual)]
    return [("twisted", "true" if ok else "false"), *shown], 0 if ok else 1


def _kms(args, theta):
    ok, lhs, rhs = md.kms_check(*_operands(args, theta))
    return [("lhs", lhs), ("rhs", rhs), ("equal", "true" if ok else "false")], 0 if ok else 1


def _spectrum(args, theta):
    points = (2 * args.window + 1) ** 2
    if points > MAX_SPECTRUM_POINTS:
        raise TwoGraphError(f"spectrum {args.window} computes {points} points, "
                            f"capped at {MAX_SPECTRUM_POINTS} for cost control")
    values = md.modular_spectrum_window(theta, args.window)
    return [("count", len(values)),
            *(("value", f"{value}\t{value.to_complex().real!r}") for value in values)], 0


def _gram(args, theta):
    k = args.level_k
    if k > min(MAX_LEVEL):
        raise TwoGraphError(f"gram level capped at {min(MAX_LEVEL)} for cost control")
    size = (theta.m ** k * theta.n ** k) ** 2
    if size > MAX_GRAM_BASIS:
        raise TwoGraphError(f"gram {k} on {theta.m}x{theta.n} needs a basis of {size} "
                            f"elements, capped at {MAX_GRAM_BASIS} for cost control")
    words = enumerate_words(theta, (k, k))
    basis = [Element.gen(theta, u, v) for u in words for v in words]
    gram = md.gram_matrix(basis)
    return [("size", len(basis)),
            *(("row", "\t".join(str(x) for x in row)) for row in gram),
            *(("row-float", "\t".join(repr(x.real) for x in row))
              for row in md.gram_matrix_float(gram))], 0


def _oracle(args, theta):
    equal = GradedActionModel(theta).oracle_equal(*_operands(args, theta))
    return [("equal", "true" if equal else "false")], 0 if equal else 1


def _check(args, theta):
    reports = run_suite(args.suite, theta, args.seed, args.level, args.samples)
    passed = all(report.passed for report in reports)
    return [("theta", args.theta), ("m", theta.m), ("n", theta.n), ("seed", args.seed),
            ("level", f"{args.level[0]},{args.level[1]}"), ("samples", args.samples),
            *((f"case.{report.name}.{case.case_id}",
               f"{'PASS' if case.passed else 'FAIL'} {case.detail}")
              for report in reports for case in report.cases),
            ("result", "PASS" if passed else "FAIL")], 0 if passed else 1


def _result(compute) -> Callable:
    """The handler of a command whose one record is `result`, with exit 0."""
    return lambda args, theta: ([("result", compute(args, theta))], 0)


COMMANDS = {
    "nf": Command("word", "", _result(
        lambda args, theta: normal_form(theta, parse_word_letters(args.word)))),
    "mul": Command("left right", "", _result(
        lambda args, theta: operator.mul(*_operands(args, theta)))),
    "omega": Command("expr", "", _result(
        lambda args, theta: md.omega(parse_expression(args.expr, theta)))),
    "inner": Command("left right", "", _result(
        lambda args, theta: md.inner(*_operands(args, theta)))),
    "twisted": Command("u v", "", _twisted),
    "endo": Command("verb pairspec expr", "", _endo),
    "kms": Command("left right", "", _kms),
    "spectrum": Command("window", "", _spectrum),
    "gram": Command("level_k", "", _gram),
    "oracle": Command("left right", "", _oracle),
    "check": Command("suite", "--level --seed --samples", _check),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        theta = _load_config(args)
    except (TwoGraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        records, code = COMMANDS[args.command].handler(args, theta)
        sep = "\t" if args.format == "records" else ": "
        for key, value in records:
            print(f"{key}{sep}{value}")
        sys.stdout.flush()  # a closed stdout raises here, not in the exit flush
        return code
    except TwoGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
