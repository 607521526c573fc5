"""The word kernel: canonical forms, factorization and common extensions.

Letters are signed ints: e_i is +i, f_j is -j (1-based). A commutation
table is prepared once into a handle; all functions here are pure and
operate on plain int tuples. `factor` splits a word by rewriting only the
letters that cross the cut, and `common_ext` decides a pair of
comparable degrees with one factorization and a pair of incomparable
degrees by comparing the two words at their meet, then walking the
extension letter by letter and pruning every branch that leaves u.

Encoding of the table: the handle is (m, n, fwd, inv), two pair tables
indexed by letter (row and column 0 unused) that share one tuple per index
pair: fwd[i][j] is (i', j') for e_i f_j = f_{j'} e_{i'}, and inv[i'][j'] is
(i, j), so a letter crossing is one row read and one unpack. The forward
table pulls f-letters to the front (`to_f_first`, `factor`); the inverse
table pulls e-letters to the front (`normalize`, `concat`).
"""

BACKEND = "pure"


def prepare(m, n, fwd):
    """Build a kernel handle from a forward permutation of the m*n index
    pairs numbered i-major: entry (i-1)*n + (j-1) holds (i'-1)*n + (j'-1)."""
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    fwd_rows = [[None] * (n + 1) for _ in range(m + 1)]
    inv_rows = [[None] * (n + 1) for _ in range(m + 1)]
    for src, dst in zip(pairs, fwd):
        image = fwd_rows[src[0]][src[1]] = pairs[dst]
        inv_rows[image[0]][image[1]] = src
    return (m, n, tuple(map(tuple, fwd_rows)), tuple(map(tuple, inv_rows)))


def normalize(tables, letters):
    """Canonical (e-block, f-block) of a signed-letter sequence."""
    inv = tables[3]
    es = []
    fs = []
    for x in letters:
        if x > 0:
            cur = x
            for k in range(len(fs) - 1, -1, -1):
                cur, fs[k] = inv[cur][fs[k]]
            es.append(cur)
        else:
            fs.append(-x)
    return tuple(es), tuple(fs)


def concat(tables, e1, f1, e2, f2):
    """Canonical form of the juxtaposition of two canonical words."""
    inv = tables[3]
    es = list(e1)
    fs = list(f1)
    for cur in e2:
        for k in range(len(fs) - 1, -1, -1):
            cur, fs[k] = inv[cur][fs[k]]
        es.append(cur)
    fs.extend(f2)
    return tuple(es), tuple(fs)


def to_f_first(tables, es_in, fs_in):
    """Rewrite a canonical word into its unique f-first form (f-block, e-block)."""
    fwd = tables[2]
    es = list(es_in)
    fs = []
    for cur in fs_in:
        for k in range(len(es) - 1, -1, -1):
            es[k], cur = fwd[es[k]][cur]
        fs.append(cur)
    return tuple(fs), tuple(es)


def factor(tables, es, fs, p, q):
    """Split a canonical word at degree (p, q); caller checks bounds.

    Returns (e1, f1, e2, f2), both halves canonical. The prefix keeps the
    first p e-letters and the suffix the f-letters from q on, verbatim; only
    the middle e[p:].f[:q] is rewritten, into its f-first form f1.e2.
    """
    f1, e2 = to_f_first(tables, es[p:], fs[:q])
    return es[:p], f1, e2, fs[q:]


def common_ext(tables, eu, fu, ev, fv):
    """All (w1, w2) with v*w1 == u*w2 at the join degree of u and v.

    Returned as tuples (w1e, w1f, w2e, w2f) in lexicographic order of w1.
    If d(v) <= d(u), unique factorization leaves at most one pair: w2 is
    empty and v*w1 == u exactly when u splits at d(v) into (v, w1). One
    `factor` of u decides it, and symmetrically one of v if d(u) <= d(v).
    Incomparable degrees are decided by `_walk_from_meet`, with u and v
    swapped when v is the longer of the two in f.
    """
    au, bu = len(eu), len(fu)
    av, bv = len(ev), len(fv)
    if av <= au and bv <= bu:
        pe, pf, re_, rf = factor(tables, eu, fu, av, bv)
        return [(re_, rf, (), ())] if pe == ev and pf == fv else []
    if au <= av and bu <= bv:
        pe, pf, re_, rf = factor(tables, ev, fv, au, bu)
        return [((), (), re_, rf)] if pe == eu and pf == fu else []
    if av > au:
        return _walk_from_meet(tables, eu, fu, ev, fv)
    return sorted((h, (), (), g) for _, g, h, _ in _walk_from_meet(tables, ev, fv, eu, fu))


def _walk_from_meet(tables, eu, fu, ev, fv):
    """`common_ext` when d(v) exceeds d(u) in e and falls short of it in f.

    At the meet (|eu|, |fv|) u is x.u' and v is x.v' for one prefix x, or
    there is no extension; u' is a pure f-word and v' a pure e-word. Every
    extension is w1 = g, a pure f-word, and w2 = h, a pure e-word, with
    v'.g == u'.h. The walk pushes each candidate letter of g through the
    e-letters its branch has left, rewriting a copy of them in place, keeps
    the branch only while the letter that comes out continues u', and reads
    h off each leaf. Branches leave the stack in increasing order of their
    letter, depth first, so g comes out sorted.
    """
    n, fwd = tables[1], tables[2]
    au, bv = len(eu), len(fv)
    xf, rest = to_f_first(tables, ev[au:], fv)
    if ev[:au] != eu or xf != fu[:bv]:
        return []
    want = fu[bv:]
    out = []
    stack = [((), rest)]
    while stack:
        g, es = stack.pop()
        if len(g) == len(want):
            out.append(((), g, es, ()))
            continue
        target = want[len(g)]
        for j in range(n, 0, -1):
            pushed, cur = list(es), j
            for k in range(len(es) - 1, -1, -1):
                pushed[k], cur = fwd[pushed[k]][cur]
            if cur == target:
                stack.append((g + (j,), tuple(pushed)))
    return out
