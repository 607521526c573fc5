"""Words over two families of generators with permutation commutation.

The unital semigroup studied here has generators e_1..e_m and f_1..f_n,
free within each family, with the cross relations

    e_i f_j = f_{j'} e_{i'}   where theta(i, j) = (i', j')

for a permutation theta of the m*n index pairs. Every word has a
well-defined degree (number of e's, number of f's) and, for each prescribed
e/f pattern of that degree, exactly one spelling. We fix the e-first
spelling (all e-letters, then all f-letters) as the canonical
representative; `factor_at` recovers any other pattern.

A `Word` is just the canonical pair of blocks and knows nothing about
theta; all rewriting goes through a `Permutation2D`, which owns the
prepared kernel tables.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import product
from typing import Iterable, NamedTuple

from . import kernel
from .errors import (
    DegreeTooLarge,
    FlipRequiresSquare,
    IndexOutOfRange,
    MalformedInput,
    NotABijection,
    TableTooLarge,
)

Degree = tuple[int, int]


def deg_add(a: Degree, b: Degree) -> Degree:
    return (a[0] + b[0], a[1] + b[1])


def deg_sub(a: Degree, b: Degree) -> Degree:
    return (a[0] - b[0], a[1] - b[1])


def deg_join(a: Degree, b: Degree) -> Degree:
    """Componentwise maximum."""
    return (max(a[0], b[0]), max(a[1], b[1]))


def deg_le(a: Degree, b: Degree) -> bool:
    """Componentwise order (partial)."""
    return a[0] <= b[0] and a[1] <= b[1]


class Word(NamedTuple):
    """A semigroup element in canonical e-first spelling.

    Immutable as a tuple of its two blocks. Equality and hash are the
    tuple's, computed on demand (no hash is stored); words are dictionary
    keys in every algebra operation.

    The hot paths of the package build words with `_word((e, f))`, which
    skips the Python-level `__new__` that `NamedTuple` generates; the
    result is the same exact `Word` instance that `Word(e, f)` gives, with
    the same equality, hash and `str`.
    """

    e_block: tuple[int, ...] = ()
    f_block: tuple[int, ...] = ()

    @property
    def degree(self) -> Degree:
        return (len(self.e_block), len(self.f_block))

    @property
    def length(self) -> int:
        return len(self.e_block) + len(self.f_block)

    @property
    def is_empty(self) -> bool:
        return not self.e_block and not self.f_block

    @property
    def key(self):
        """Total order: by degree, then lexicographic on the blocks."""
        return (self.degree, self.e_block, self.f_block)

    def __str__(self) -> str:
        if self.is_empty:
            return "id"
        parts = [f"e{i}" for i in self.e_block] + [f"f{j}" for j in self.f_block]
        return ".".join(parts)

    def __repr__(self) -> str:
        return f"Word({self})"


# `Word` built at C level from an (e_block, f_block) pair, taken as it stands
_word = partial(tuple.__new__, Word)

EMPTY_WORD = Word((), ())

_LETTER_RE = re.compile(r"([ef])([1-9][0-9]*)$")


def _letter_of(match: re.Match) -> tuple[str, int]:
    """The (kind, index) of a `_LETTER_RE` match. An index with more digits
    than any table allows is refused before `int()` reads it (which rejects
    more than 4300 digits with a ValueError)."""
    kind, digits = match.group(1), match.group(2)
    if len(digits) > _MAX_INDEX_DIGITS:
        raise IndexOutOfRange(f"{kind}-index of {len(digits)} digits is out of range "
                              f"(a table has at most {MAX_TABLE_PAIRS} index pairs)")
    return kind, int(digits)


def parse_word_letters(text: str) -> list[tuple[str, int]]:
    """Parse `id` or dot-separated letters like `e1.f2` into (kind, index) pairs."""
    text = text.strip()
    if text == "id":
        return []
    out = []
    for piece in text.split("."):
        m = _LETTER_RE.match(piece.strip())
        if not m:
            raise MalformedInput(f"bad letter {piece!r} in word {text!r}")
        out.append(_letter_of(m))
    return out


# entries kept by each word cache: the common-extension `lru_cache`, and on
# every table the prefix memo and the words of its strata memo
_CACHE_ENTRIES = 1 << 16


class Permutation2D:
    """The defining data (m, n, theta) with prepared rewrite tables.

    A table also owns two word memos, each bounded by `_CACHE_ENTRIES`:
    `_prefixes`, (word, meet degree) -> the prefix `prefix_at` computes,
    holding at most that many entries; and `_strata`, degree -> the tuple of
    its words that `enumerate_words` returns, holding at most that many
    words in all (`_strata_words`). By unique factorization a
    prefix depends on nothing else, and a stratum of degree (a, b) is the
    m^a * n^b block pairs. Every table starts with empty memos, so an equal
    table built again (as each CLI invocation does) starts cold.
    """

    __slots__ = ("m", "n", "_handle", "_hash", "_prefixes", "_strata",
                 "_strata_words")

    def __init__(self, m: int, n: int, table: dict[tuple[int, int], tuple[int, int]]):
        if m < 1 or n < 1:
            raise IndexOutOfRange(f"need m, n >= 1, got m={m}, n={n}")
        _require_table_size(m, n)
        fwd = [-1] * (m * n)
        seen = set()
        for (i, j), (i2, j2) in table.items():
            if not (1 <= i <= m and 1 <= j <= n):
                raise IndexOutOfRange(f"source pair ({i},{j}) out of range")
            if not (1 <= i2 <= m and 1 <= j2 <= n):
                raise IndexOutOfRange(f"image pair ({i2},{j2}) out of range")
            dst = (i2 - 1) * n + (j2 - 1)
            if dst in seen:
                raise NotABijection(f"duplicate image pair ({i2},{j2})")
            seen.add(dst)
            fwd[(i - 1) * n + (j - 1)] = dst
        if len(table) != m * n or -1 in fwd:
            raise NotABijection("table does not cover all index pairs")
        self.m = m
        self.n = n
        self._handle = kernel.prepare(m, n, fwd)
        self._hash = hash((m, n, tuple(fwd)))
        self._prefixes: dict[tuple[Word, Degree], Word] = {}
        self._strata: dict[Degree, tuple[Word, ...]] = {}
        self._strata_words = 0

    @classmethod
    def identity(cls, m: int, n: int) -> "Permutation2D":
        _require_table_size(m, n)
        return cls(m, n, {(i, j): (i, j) for i in range(1, m + 1) for j in range(1, n + 1)})

    @classmethod
    def flip(cls, m: int, n: int) -> "Permutation2D":
        """e_i f_j = f_i e_j; only a permutation of m x n when m = n."""
        _require_table_size(m, n)
        if m != n:
            raise FlipRequiresSquare(f"flip needs m = n, got m={m}, n={n}")
        return cls(m, n, {(i, j): (j, i) for i in range(1, m + 1) for j in range(1, n + 1)})

    def apply(self, i: int, j: int) -> tuple[int, int]:
        """theta(i, j), read off the kernel's forward pair table; i must lie
        in 1..m and j in 1..n."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexOutOfRange(f"pair ({i},{j}) out of range (bounds {self.m}, {self.n})")
        return self._handle[2][i][j]

    def check_letter(self, kind: str, index: int) -> None:
        if kind not in ("e", "f"):
            raise MalformedInput(f"bad letter kind {kind!r}: need 'e' or 'f'")
        bound = self.m if kind == "e" else self.n
        if not 1 <= index <= bound:
            raise IndexOutOfRange(f"{kind}{index} out of range (bound {bound})")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Permutation2D):
            return NotImplemented
        return self._handle[:3] == other._handle[:3]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation2D(m={self.m}, n={self.n})"


# a table of m*n index pairs takes about 1.3 us and 320 bytes a pair at the peak
# to build and keeps 73, its kernel pair tables; 65536 is 256x256, about
# 0.09 s and 21 MB at the peak (CPython 3.11, 2-core x86_64, tracemalloc)
MAX_TABLE_PAIRS = 65536
# so a letter index with more digits than the cap is out of range on every
# table that `make_theta` builds
_MAX_INDEX_DIGITS = len(str(MAX_TABLE_PAIRS))


def _require_table_size(m: int, n: int) -> None:
    if m > 0 and n > 0 and m * n > MAX_TABLE_PAIRS:
        raise TableTooLarge(f"table {m}x{n} has {m * n} index pairs, capped at "
                            f"{MAX_TABLE_PAIRS} for cost control")


def make_theta(m: int, n: int, spec) -> Permutation2D:
    """Build a validated table from a builtin name or explicit entries.

    `spec` is "identity", "flip", or an iterable of ((i, j), (i2, j2)) pairs.
    Tables over MAX_TABLE_PAIRS index pairs are refused before any is built.
    """
    _require_table_size(m, n)
    if spec == "identity":
        return Permutation2D.identity(m, n)
    if spec == "flip":
        return Permutation2D.flip(m, n)
    if isinstance(spec, str):
        raise ValueError(f"unknown builtin table {spec!r}")
    table = {}
    for (i, j), (i2, j2) in spec:
        if (i, j) in table:
            raise NotABijection(f"duplicate source pair ({i},{j})")
        table[(i, j)] = (i2, j2)
    return Permutation2D(m, n, table)


def _to_signed(theta: Permutation2D, letters: Iterable) -> list[int]:
    """The signed ints of a letter sequence, checked against m and n in one
    pass: a letter is an int or an ("e" | "f", int) pair, anything else (a
    bool too) is malformed, and `check_letter` only words an index out of range."""
    m, n = theta.m, theta.n
    out = []
    for letter in letters:
        if type(letter) is int:
            if letter and -n <= letter <= m:
                out.append(letter)
                continue
            kind, idx = ("e", letter) if letter > 0 else ("f", -letter)
        elif (isinstance(letter, (tuple, list)) and len(letter) == 2
              and letter[0] in ("e", "f") and type(letter[1]) is int):
            kind, idx = letter
            if 1 <= idx <= (m if kind == "e" else n):
                out.append(idx if kind == "e" else -idx)
                continue
        else:
            raise MalformedInput(f"bad letter {letter!r}: need an int or an ('e'|'f', int) pair")
        theta.check_letter(kind, idx)
    return out


def normal_form(theta: Permutation2D, letters: Iterable) -> Word:
    """Canonical e-first word of an arbitrary letter sequence.

    Letters may be (kind, index) pairs or signed ints (+i for e_i, -j for
    f_j); any other letter raises `MalformedInput`, and an index out of range
    `IndexOutOfRange`. The result does not depend on the rewrite order.
    """
    return _word(kernel.normalize(theta._handle, _to_signed(theta, letters)))


def word(theta: Permutation2D, text: str) -> Word:
    """Parse and normalize a word literal like `e1.f2` or `id`."""
    return normal_form(theta, parse_word_letters(text))


def concat(theta: Permutation2D, w1: Word, w2: Word) -> Word:
    """Canonical form of the semigroup product w1 * w2.

    Only e-letters of w2 passing f-letters of w1 are rewritten; when there
    are none the blocks are joined as they stand, and an empty operand
    gives back the other one itself.
    """
    e1, f1 = w1
    e2, f2 = w2
    if e2 and f1:
        return _word(kernel.concat(theta._handle, e1, f1, e2, f2))
    if not (e2 or f2):
        return w1
    if not (e1 or f1):
        return w2
    return _word((e1 + e2, f1 + f2))


def factor_at(theta: Permutation2D, w: Word, delta: Degree) -> tuple[Word, Word]:
    """The unique split w = w1 * w2 with d(w1) = delta."""
    p, q = delta
    e, f = w
    if not (0 <= p <= len(e) and 0 <= q <= len(f)):
        raise DegreeTooLarge(f"cannot take degree {delta} from word of degree {w.degree}")
    e1, f1, e2, f2 = kernel.factor(theta._handle, e, f, p, q)
    return _word((e1, f1)), _word((e2, f2))


def prefix_at(theta: Permutation2D, w: Word, meet: Degree) -> Word:
    """The prefix of w of degree meet <= d(w), cut as it stands when it is all
    of w or takes no f-letter; any other split is looked up in the table's
    memo and stored there on a miss while it holds fewer than `_CACHE_ENTRIES`."""
    e, f = w
    p, q = meet
    if p == len(e) and q == len(f):
        return w
    if not q:
        return _word((e[:p], ()))
    memo = theta._prefixes
    key = (w, meet)
    prefix = memo.get(key)
    if prefix is None:
        prefix = factor_at(theta, w, meet)[0]
        if len(memo) < _CACHE_ENTRIES:
            memo[key] = prefix
    return prefix


# 2^20 words of degree (2,2) on 32x32: about 1 s and 90 MB (CPython 3.11, 2-core x86_64)
MAX_WORDS = 2 ** 20


def clipped_count(theta: Permutation2D, delta: Degree, cap: int) -> int:
    """m^a * n^b for delta = (a, b), with each exponent clipped at the bit
    length of `cap`: exact while at most `cap`, and above `cap` whenever the
    true count is, without building a huge power."""
    a, b = delta
    clip = cap.bit_length()
    return theta.m ** min(a, clip) * theta.n ** min(b, clip)


def enumerate_words(theta: Permutation2D, delta: Degree) -> tuple[Word, ...]:
    """All m^a * n^b canonical words of degree delta, lexicographically.

    Every pair of blocks is a distinct canonical word, so no rewriting is
    needed here. The stratum comes from the table's memo, or is built and
    stored there while the memo stays within `_CACHE_ENTRIES` words; a
    stored stratum is the same immutable tuple on every call. Refuses a
    negative degree, and more than MAX_WORDS words before any is looked up
    or built.
    """
    a, b = delta
    if a < 0 or b < 0:
        raise DegreeTooLarge(f"degree must be nonnegative, got {delta}")
    if clipped_count(theta, delta, MAX_WORDS) > MAX_WORDS:
        raise DegreeTooLarge(f"degree {delta} on {theta.m}x{theta.n} has {theta.m}^{a}*"
                             f"{theta.n}^{b} words, capped at {MAX_WORDS} for cost control")
    stratum = theta._strata.get((a, b))
    if stratum is None:
        e_blocks = product(range(1, theta.m + 1), repeat=a)
        stratum = tuple(map(_word, product(e_blocks, product(range(1, theta.n + 1), repeat=b))))
        if theta._strata_words + len(stratum) <= _CACHE_ENTRIES:
            theta._strata[(a, b)] = stratum
            theta._strata_words += len(stratum)
    return stratum


def words_up_to(theta: Permutation2D, bound: Degree) -> list[Word]:
    """All canonical words of degree <= bound componentwise."""
    out = []
    for a in range(bound[0] + 1):
        for b in range(bound[1] + 1):
            out.extend(enumerate_words(theta, (a, b)))
    return out


@lru_cache(maxsize=_CACHE_ENTRIES)
def _common_extensions_cached(theta: Permutation2D, u: Word, v: Word):
    raw = kernel.common_ext(
        theta._handle, u.e_block, u.f_block, v.e_block, v.f_block
    )
    return tuple([(_word((w1e, w1f)), _word((w2e, w2f))) for w1e, w1f, w2e, w2f in raw])


def common_extensions(theta: Permutation2D, u: Word, v: Word) -> list[tuple[Word, Word]]:
    """All (w1, w2) with v*w1 == u*w2 and d(v) + d(w1) = d(u) v d(v).

    This is the combinatorial kernel of the relation

        s_v* s_u = sum over (w1, w2) of s_{w1} s_{w2}*,

    the only place where adjoints meet isometries in the algebra product.
    """
    return list(_common_extensions_cached(theta, u, v))


# --- text format for tables ------------------------------------------------
#
# line 1: `m <int>`, line 2: `n <int>`, then either `builtin identity|flip`
# or exactly m*n lines `i j -> i' j'` (1-based).

def parse_theta_text(text: str) -> Permutation2D:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError("table file needs at least 3 lines")
    m_match = re.fullmatch(r"m\s+(\d+)", lines[0])
    n_match = re.fullmatch(r"n\s+(\d+)", lines[1])
    if not m_match or not n_match:
        raise ValueError("first two lines must be `m <int>` and `n <int>`")
    m, n = int(m_match.group(1)), int(n_match.group(1))
    builtin = re.fullmatch(r"builtin\s+(\w+)", lines[2])
    if builtin:
        if len(lines) != 3:
            raise ValueError("builtin line must be the last line")
        return make_theta(m, n, builtin.group(1))
    entries = []
    for ln in lines[2:]:
        em = re.fullmatch(r"(\d+)\s+(\d+)\s*->\s*(\d+)\s+(\d+)", ln)
        if not em:
            raise ValueError(f"bad table line {ln!r}")
        i, j, i2, j2 = map(int, em.groups())
        entries.append(((i, j), (i2, j2)))
    if len(entries) != m * n:
        raise NotABijection(f"expected {m * n} entries, got {len(entries)}")
    return make_theta(m, n, entries)


def theta_text(theta: Permutation2D) -> str:
    lines = [f"m {theta.m}", f"n {theta.n}"]
    for i in range(1, theta.m + 1):
        for j in range(1, theta.n + 1):
            i2, j2 = theta.apply(i, j)
            lines.append(f"{i} {j} -> {i2} {j2}")
    return "\n".join(lines) + "\n"
