"""The three benchmark workloads: inputs, decisions and their checks.

Every workload is a closed loop with one client in one process. Inputs are
made here from the workload seed with the benchmark's own generator; the
program sees only those inputs. Program entry points are looked up on their
module at call time (``md.kms_check``, ``sg.concat``, ...) so that the
tracer's wrappers apply in a traced run.

- ``check-all``: ``twograph check all`` in-process on flip 2x2, identity
  2x3 and the mixed 2x3 table. A round is one invocation per table, each at
  the ``check all`` seed that `check_seed` gives it.
- ``modular-2x4``: exact modular decisions on identity 2x4 with radical
  coefficients, plus controls known to be false.
- ``words-3x3``: word decisions on the mixed 3x3 table (common extensions,
  normal forms, factor round trips); only the word layers run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLES = HERE / "tables"

# count profiles of common_extensions(e_i, f_j), i-major; a typo in a table
# file would change them, so setup refuses to run on a mismatch
PROFILES = {
    "mixed23.txt": [2, 0, 1, 0, 2, 1],
    "mixed33.txt": [3, 0, 0, 0, 2, 1, 0, 1, 2],
}

CHECK_TABLES = (
    ("flip22", ["--m", "2", "--n", "2", "--theta", "flip"]),
    ("id23", ["--m", "2", "--n", "3", "--theta", "identity"]),
    # relative path: the records output prints it, so it must not depend on
    # where the checkout lives
    ("mixed23", ["--theta", "perfbench/tables/mixed23.txt"]),
)
CHECK_FIXED = ["--samples", "40", "--level", "2,2", "--format", "records"]

_CASE_RE = re.compile(r"^case\.[^\t]+\t(PASS|FAIL) (\d+)/(\d+) exact")


class SetupError(RuntimeError):
    pass


def load_table(name: str):
    from twograph import semigroup as sg

    ce_cache()
    theta = sg.parse_theta_text((TABLES / name).read_text())
    profile = [
        len(sg.common_extensions(theta, sg.Word((i,), ()), sg.Word((), (j,))))
        for i in range(1, theta.m + 1)
        for j in range(1, theta.n + 1)
    ]
    if profile != PROFILES[name]:
        raise SetupError(f"{name}: common-extension profile {profile} != {PROFILES[name]}")
    return theta


@functools.cache
def ce_cache():
    """The common-extension `lru_cache`, captured before any tracer wraps it."""
    from twograph import semigroup as sg

    return sg._common_extensions_cached


def clear_cache() -> None:
    """Each CLI invocation and each timed pass starts with a cold cache."""
    ce_cache().cache_clear()


def check_seed(seed: int, round_index: int, table_index: int) -> int:
    """The `check all` seed of a table in a round. Round 0 runs every table
    at the workload seed, so that seeds 0 and 7 meet the stored digests;
    later rounds give each table its own seed, because one seed tends to make
    every table heavy or light together."""
    return seed if round_index == 0 else seed + 1000 * round_index + 100 * table_index


# --- check-all ---------------------------------------------------------------

class CheckAll:
    name = "check-all"

    def __init__(self, seed: int):
        self.seed = seed
        load_table("mixed23.txt")
        self.digests = json.loads((HERE / "digests.json").read_text())

    def invoke(self, table: str, args: list[str], cseed: int, clock=time.perf_counter):
        """One `check all` run: (seconds on `clock`, decisions, failed
        decisions). Records that differ from the reference fail every decision."""
        from twograph import cli

        clear_cache()
        buf = io.StringIO()
        argv = ["check", "all", *args, "--seed", str(cseed), *CHECK_FIXED]
        start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
            print(f"error: check-all {table} seed {cseed} raised {exc!r}", file=sys.stderr)
            return clock() - start, 1, 1
        wall = clock() - start
        out = buf.getvalue()
        decisions = failed = 0
        for line in out.splitlines():
            m = _CASE_RE.match(line)
            if m:
                passed, total = int(m.group(2)), int(m.group(3))
                decisions += total
                failed += total - passed
        expected = self.digests.get(table, {}).get(str(cseed))
        if expected is not None:
            ok = hashlib.sha256(out.encode()).hexdigest() == expected
        else:
            ok = code == 0 and "result\tPASS\n" in out
        if not ok or decisions == 0:
            print(f"error: check-all {table} seed {cseed}: exit {code}, records "
                  f"{'differ from the reference' if expected else 'do not pass'}", file=sys.stderr)
            decisions = failed = max(decisions, 1)
        return wall, decisions, failed


# --- modular-2x4 -------------------------------------------------------------

_HALF = Fraction(1, 2)
_EXPONENTS = (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2))
# degree differences d with 2^d1 * 4^d2 = 1, i.e. fixed by the modular flow
_FIXED = ((0, 0), (2, -1), (-2, 1))


class Modular:
    name = "modular-2x4"
    size = 2400

    def __init__(self, seed: int):
        from twograph import semigroup as sg

        ce_cache()
        self.theta = sg.make_theta(2, 4, "identity")
        rng = random.Random(seed)
        self.coeffs = [self._coeff(rng) for _ in range(600)]
        kinds = ("kms", "polar", "multiplicative", "pairing", "fixed", "control")
        self.decisions = [self._make(rng, kinds[k % len(kinds)]) for k in range(self.size)]

    def _word(self, rng, a, b):
        from twograph.semigroup import Word

        return Word(tuple(rng.randint(1, 2) for _ in range(a)),
                    tuple(rng.randint(1, 4) for _ in range(b)))

    @staticmethod
    def _coeff(rng):
        """A Gaussian rational times 2^(k/6), sometimes also times 3^(1/2)."""
        from twograph.scalar import ExactScalar

        while True:
            re_ = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if re_ or im:
                break
        c = ExactScalar.gaussian(re_, im)
        k = rng.randint(0, 5)
        if k:
            c = c * ExactScalar.root(2, Fraction(k, 6))
        if rng.random() < 0.25:
            c = c * ExactScalar.root(3, _HALF)
        return c

    def _term(self, rng, diff=None):
        from twograph.algebra import GenTerm

        while True:
            u = self._word(rng, rng.randint(0, 2), rng.randint(0, 2))
            v = self._word(rng, rng.randint(0, 2), rng.randint(0, 2))
            d = (u.degree[0] - v.degree[0], u.degree[1] - v.degree[1])
            if diff is None or diff(d):
                return GenTerm(u, v)

    def _element(self, rng, terms, diff=None):
        from twograph.algebra import Element

        acc = {}
        while len(acc) < terms:
            acc[self._term(rng, diff)] = rng.choice(self.coeffs)
        return Element(self.theta, acc)

    def _make(self, rng, kind):
        from twograph import modular as md

        if kind == "kms":
            a, b = self._element(rng, 2), self._element(rng, 2)
            return kind, lambda: md.kms_check(a, b)[0], True
        if kind == "polar":
            x = self._element(rng, 2)
            relation = rng.randrange(4)
            if relation == 0:
                run = lambda: md.tomita_s(x) == md.modular_conjugation(md.modular_power(_HALF, x))
            elif relation == 1:
                run = lambda: md.tomita_f(x) == md.modular_conjugation(md.modular_power(-_HALF, x))
            elif relation == 2:
                run = lambda: md.modular_power(1, x) == md.tomita_f(md.tomita_s(x))
            else:
                run = lambda: md.modular_conjugation(md.modular_conjugation(x)) == x
            return kind, run, True
        if kind == "multiplicative":
            a, b = self._element(rng, 2), self._element(rng, 2)
            z = rng.choice(_EXPONENTS)
            return kind, lambda: md.modular_power(z, a * b) == md.modular_power(z, a) * md.modular_power(z, b), True
        if kind == "pairing":
            a, b = self._element(rng, 2), self._element(rng, 2)
            return kind, lambda: md.inner(md.tomita_s(a), b) == md.inner(md.tomita_f(b), a), True
        if kind == "fixed":
            # flow-fixed degrees only: 4^(1/2) * 2^(-1) must fold to 1
            a = self._element(rng, 2, diff=lambda d: d in _FIXED)
            return kind, lambda: md.modular_power(_HALF, a) == a, True
        # control: exactly one term of a degree the flow moves, so the
        # difference cannot cancel and the verdict must be False
        moved = self._element(rng, 1, diff=lambda d: d not in _FIXED)
        (moved_term,) = moved.terms()
        moved_diff = moved_term.degree
        rest = self._element(rng, 1, diff=lambda d: d != moved_diff)
        a = moved + rest
        return kind, lambda: md.modular_power(_HALF, a) == a, False

    def run(self, decision, clock=time.perf_counter):
        """(seconds on `clock`, verdict)"""
        _, run, _ = decision
        start = clock()
        verdict = run()
        return clock() - start, verdict

    def check(self, decision, verdict) -> bool:
        return verdict == decision[2]


# --- words-3x3 ---------------------------------------------------------------

class Words:
    name = "words-3x3"
    size = 8000
    brute_every = 25  # common-extension decisions also checked by brute force

    def __init__(self, seed: int):
        self.theta = load_table("mixed33.txt")
        rng = random.Random(seed)
        self.decisions = []
        ce = 0
        for k in range(self.size):
            kind = ("ce", "ce", "ce", "nf", "ce", "ce", "ce", "factor")[k % 8]
            if kind == "ce":
                brute = ce % self.brute_every == 0
                ce += 1
                self.decisions.append(("ce", (self._word(rng), self._word(rng)), brute))
            elif kind == "nf":
                letters = [rng.randint(1, 3) if rng.random() < 0.5 else -rng.randint(1, 3)
                           for _ in range(12)]
                self.decisions.append(("nf", letters, False))
            else:
                w = self._word(rng)
                delta = (rng.randint(0, w.degree[0]), rng.randint(0, w.degree[1]))
                self.decisions.append(("factor", (w, delta), False))

    def _word(self, rng):
        from twograph.semigroup import Word

        a, b = rng.randint(0, 3), rng.randint(0, 3)
        return Word(tuple(rng.randint(1, 3) for _ in range(a)),
                    tuple(rng.randint(1, 3) for _ in range(b)))

    def run(self, decision, clock=time.perf_counter):
        """(seconds on `clock`, output)"""
        from twograph import semigroup as sg

        kind, args, _ = decision
        theta = self.theta
        start = clock()
        if kind == "ce":
            out = sg.common_extensions(theta, *args)
        elif kind == "nf":
            out = sg.normal_form(theta, args)
        else:
            w, delta = args
            w1, w2 = sg.factor_at(theta, w, delta)
            out = sg.concat(theta, w1, w2) == w and w1.degree == delta
        return clock() - start, out

    def check(self, decision, out) -> bool:
        """Every returned pair satisfies v.w1 == u.w2 at the join degree,
        with no repeats; a fixed subset is also counted by brute force."""
        from twograph import semigroup as sg
        from twograph import suites

        kind, args, brute = decision
        theta = self.theta
        if kind == "ce":
            u, v = args
            join = (max(u.degree[0], v.degree[0]), max(u.degree[1], v.degree[1]))
            for w1, w2 in out:
                z = sg.concat(theta, v, w1)
                if z != sg.concat(theta, u, w2) or z.degree != join:
                    return False
            if len(set(out)) != len(out):
                return False
            return not brute or len(out) == len(suites.brute_force_common_extensions(theta, u, v))
        if kind == "nf":
            return out == suites.naive_normal_form(theta, args, "ltr")[0]
        return out is True


WORKLOADS = {cls.name: cls for cls in (CheckAll, Modular, Words)}
