"""Command-line surface.

Exit codes: 0 on success / all checks passing, 1 on a failed check, 2 on
usage or expression errors and when stdout is closed early, each reported
as one `error:` line on stderr.
With --format records the output is line-oriented `key<TAB>value` pairs;
reports are byte-identical for identical (theta, seed, level, samples)
configurations.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import endo as en
from . import modular as md
from .algebra import Element
from .errors import MalformedInput, TwoGraphError
from .exprs import parse_expression
from .oracle import GradedActionModel
from .semigroup import (
    Degree,
    Permutation2D,
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


class _Output:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def kv(self, key: str, value) -> None:
        if self.fmt == "records":
            print(f"{key}\t{value}")
        else:
            print(f"{key}: {value}")


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


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="twograph",
        description="Exact computations in the generator algebra of a "
                    "single-vertex 2-graph.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=int, default=2, help="number of e-generators")
    common.add_argument("--n", type=int, default=2, help="number of f-generators")
    common.add_argument("--theta", default="identity",
                        help="builtin name (identity, flip) or path to a table file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--level", type=_parse_level, default=(2, 2),
                        help="degree box for random elements, e.g. 2,2")
    common.add_argument("--samples", type=int, default=100)
    common.add_argument("--float-tol", type=float, default=1e-9)
    common.add_argument("--format", choices=("text", "records"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("nf", parents=[common]).add_argument("word")
    p_mul = sub.add_parser("mul", parents=[common])
    p_mul.add_argument("left")
    p_mul.add_argument("right")
    sub.add_parser("omega", parents=[common]).add_argument("expr")
    p_inner = sub.add_parser("inner", parents=[common])
    p_inner.add_argument("left")
    p_inner.add_argument("right")
    p_tw = sub.add_parser("twisted", parents=[common])
    p_tw.add_argument("u")
    p_tw.add_argument("v")
    p_endo = sub.add_parser("endo", parents=[common])
    p_endo.add_argument("verb", choices=("apply",))
    p_endo.add_argument("pairspec",
                        help="ex312 | ex313 | ex311 | ex39(U) | ex310(U,V) | "
                             "canonical(p,q) | inner(W) | pair(U,V)")
    p_endo.add_argument("expr")
    p_kms = sub.add_parser("kms", parents=[common])
    p_kms.add_argument("left")
    p_kms.add_argument("right")
    sub.add_parser("spectrum", parents=[common]).add_argument("window", type=int)
    sub.add_parser("gram", parents=[common]).add_argument("level_k", type=int)
    p_oracle = sub.add_parser("oracle", parents=[common])
    p_oracle.add_argument("left")
    p_oracle.add_argument("right")
    sub.add_parser("check", parents=[common]).add_argument(
        "suite", choices=SUITE_NAMES + ("all",)
    )
    return parser


def _load_config(args) -> Permutation2D:
    """Validate the common flags and return the table."""
    if args.theta in ("identity", "flip"):
        theta = make_theta(args.m, args.n, args.theta)
    else:
        # a table file fixes m and n itself; the flags are ignored
        theta = parse_theta_text(Path(args.theta).read_text())
    if not (args.level[0] >= 0 and args.level[1] >= 0):
        raise TwoGraphError("level components must be nonnegative")
    if args.level[0] > MAX_LEVEL[0] or args.level[1] > MAX_LEVEL[1]:
        raise TwoGraphError(f"level capped at {MAX_LEVEL} for cost control")
    if args.samples < 1:
        raise TwoGraphError("samples must be >= 1")
    if args.samples > MAX_SAMPLES:
        raise TwoGraphError(f"samples capped at {MAX_SAMPLES} for cost control")
    if not (math.isfinite(args.float_tol) and args.float_tol > 0):
        raise TwoGraphError("float-tol must be finite and > 0")
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
    """Refuse canonical(p,q) before its words are enumerated. Exponents are
    clipped where 2^clip already exceeds the cap, so no huge power is built."""
    if p < 0 or q < 0:
        return  # enumerate_words reports the negative degree
    clip = MAX_CANONICAL_LETTERS.bit_length()
    letters = theta.m ** min(p, clip) * theta.n ** min(q, clip) * (p + q)
    if letters > MAX_CANONICAL_LETTERS:
        raise TwoGraphError(f"canonical({p},{q}) on {theta.m}x{theta.n} writes "
                            f"{theta.m}^{p}*{theta.n}^{q} words of {p + q} letters, capped at "
                            f"{MAX_CANONICAL_LETTERS} letters for cost control")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        theta = _load_config(args)
    except (TwoGraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = _dispatch(args, theta, _Output(args.format))
        sys.stdout.flush()  # a closed stdout raises here, not in the exit flush
        return code
    except TwoGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 2


def _dispatch(args, theta: Permutation2D, out: _Output) -> int:
    cmd = args.command

    if cmd == "nf":
        word = normal_form(theta, parse_word_letters(args.word))
        out.kv("result", word)
        return 0

    if cmd == "mul":
        product = parse_expression(args.left, theta) * parse_expression(args.right, theta)
        out.kv("result", product)
        return 0

    if cmd == "omega":
        out.kv("result", md.omega(parse_expression(args.expr, theta)))
        return 0

    if cmd == "inner":
        value = md.inner(parse_expression(args.left, theta),
                         parse_expression(args.right, theta))
        out.kv("result", value)
        return 0

    if cmd == "twisted":
        ok, residual = en.twisted_check(parse_expression(args.u, theta),
                                        parse_expression(args.v, theta))
        out.kv("twisted", "true" if ok else "false")
        if not ok and residual is not None:
            out.kv("residual", residual)
        return 0 if ok else 1

    if cmd == "endo":
        pair = parse_pair_spec(args.pairspec, theta)
        lam = en.Endomorphism(pair)
        out.kv("result", lam.apply(parse_expression(args.expr, theta)))
        return 0

    if cmd == "kms":
        ok, lhs, rhs = md.kms_check(parse_expression(args.left, theta),
                                    parse_expression(args.right, theta))
        out.kv("lhs", lhs)
        out.kv("rhs", rhs)
        out.kv("equal", "true" if ok else "false")
        return 0 if ok else 1

    if cmd == "spectrum":
        points = (2 * args.window + 1) ** 2
        if points > MAX_SPECTRUM_POINTS:
            raise TwoGraphError(f"spectrum {args.window} computes {points} points, "
                                f"capped at {MAX_SPECTRUM_POINTS} for cost control")
        values = md.modular_spectrum_window(theta, args.window)
        out.kv("count", len(values))
        for value in values:
            out.kv("value", f"{value}\t{value.to_complex().real!r}")
        return 0

    if cmd == "gram":
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
        out.kv("size", len(basis))
        for row in gram:
            out.kv("row", "\t".join(str(x) for x in row))
        for row in md.gram_matrix_float(gram):
            out.kv("row-float", "\t".join(repr(x.real) for x in row))
        return 0

    if cmd == "oracle":
        model = GradedActionModel(theta, window=max(args.level) + 4)
        equal = model.oracle_equal(parse_expression(args.left, theta),
                                   parse_expression(args.right, theta))
        out.kv("equal", "true" if equal else "false")
        return 0 if equal else 1

    # argparse admits only the commands above and "check"
    reports = run_suite(args.suite, theta, args.seed, args.level,
                        args.samples, args.float_tol)
    out.kv("theta", args.theta)
    out.kv("m", theta.m)
    out.kv("n", theta.n)
    out.kv("seed", args.seed)
    out.kv("level", f"{args.level[0]},{args.level[1]}")
    out.kv("samples", args.samples)
    for report in reports:
        for case in report.cases:
            status = "PASS" if case.passed else "FAIL"
            out.kv(f"case.{report.name}.{case.case_id}", f"{status} {case.detail}")
    all_passed = all(report.passed for report in reports)
    out.kv("result", "PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
