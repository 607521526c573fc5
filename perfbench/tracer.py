"""Outside-in tracer for the twograph layers.

Nothing under ``src/`` is edited: `Tracer.install` replaces every module
attribute (in any ``twograph`` module) and every class attribute that is
bound to a wrapped function with a wrapper that counts calls and times
them. Names imported into other modules (``mul``, ``concat``,
``_common_extensions_cached``, ...) are therefore replaced wherever they
are bound, including inside their defining module, so calls within a layer
are counted too.

Every wrapped call is timed, and its self time (its duration minus the
durations of the wrapped calls nested in it) is added to its name as it
returns. Each call at an ordinary boundary also records a span (id, parent
id, name, start, end) in memory; `Tracer.write_spans` writes them out. The
hottest boundaries (scalar arithmetic, the common-extension cache lookup,
the word kernel and word products, millions of calls per batch) record no
span: they are timed into their self-time total only, which keeps the
memory bounded. A layer's self time is the sum over its names.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("kernel", "semigroup", "scalar", "algebra", "modular", "endo", "suites", "cli")

SUITES = ("semigroup", "algebra", "modular", "kms", "endo")

SPEC_PATH = Path(__file__).with_name("layers.json")


def _is_radical(x) -> bool:
    terms = getattr(x, "_terms", None)
    return terms is not None and any(terms)  # the empty monomial () is falsy


class Tracer:
    def __init__(self):
        self.cells: dict[str, list[int]] = {}
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._name_index: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.child_ns = [0]  # per open wrapped call: time spent in wrapped calls nested in it
        self.next_id = 0
        self.current = -1
        self._restore: list[tuple[object, str, object]] = []

    # --- counters -----------------------------------------------------------

    def cell(self, key: str) -> list[int]:
        c = self.cells.get(key)
        if c is None:
            c = self.cells[key] = [0]
        return c

    def count(self, key: str) -> int:
        return self.cell(key)[0]

    def snapshot(self) -> dict[str, int]:
        return {k: c[0] for k, c in self.cells.items()}

    def _name_id(self, label: str, layer: str) -> int:
        idx = self._name_index.get(label)
        if idx is None:
            idx = self._name_index[label] = len(self.names)
            self.names.append(label)
            self.name_layer.append(LAYERS.index(layer))
        return idx

    # --- wrappers -----------------------------------------------------------

    def wrap(self, fn, label: str, layer: str, hot: bool = False,
             on_call=None, on_result=None):
        """A counting, timing stand-in for `fn`; `hot` ones record no span."""
        tr = self
        calls = self.cell(label + ".calls")
        own = self.cell(label + ".self_ns")
        name_id = self._name_id(label, layer)
        stack = self.child_ns
        sid_a, par_a, name_a, t0_a, t1_a = self.sid, self.parent, self.name, self.t0, self.t1

        if hot:
            def wrapper(*args, **kwargs):
                calls[0] += 1
                if on_call is not None:
                    on_call(args)
                stack.append(0)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    d = perf_counter_ns() - start
                    own[0] += d - stack.pop()
                    stack[-1] += d
                if on_result is not None:
                    on_result(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[0] += 1
                if on_call is not None:
                    on_call(args)
                sid = tr.next_id
                tr.next_id = sid + 1
                parent = tr.current
                tr.current = sid
                stack.append(0)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    d = end - start
                    own[0] += d - stack.pop()
                    stack[-1] += d
                    tr.current = parent
                    sid_a.append(sid)
                    par_a.append(parent)
                    name_a.append(name_id)
                    t0_a.append(start)
                    t1_a.append(end)
                if on_result is not None:
                    on_result(args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def _rebind_modules(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twograph" or mod_name.startswith("twograph.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _rebind_class(self, cls, original, replacement) -> None:
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._restore.append((cls, attr, value))
                setattr(cls, attr, replacement)

    def function(self, original, label, layer, **kw):
        replacement = self.wrap(original, label, layer, **kw)
        self._rebind_modules(original, replacement)
        return replacement

    def method(self, cls, attr, label, layer, **kw):
        original = vars(cls)[attr]
        self._rebind_class(cls, original, self.wrap(original, label, layer, **kw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- the layer map ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer, L0 to L5."""
        from twograph import algebra, cli, endo, kernel, modular, scalar, semigroup, suites

        fn = self.function
        cell = self.cell

        # L0: the word kernel, through whatever backend `kernel` selected
        cand, found = cell("kernel.common_ext.candidates"), cell("kernel.common_ext.found")

        def ce_call(args):
            tables, eu, fu, ev, fv = args
            da = max(len(eu), len(ev)) - len(ev)
            db = max(len(fu), len(fv)) - len(fv)
            cand[0] += tables[0] ** da * tables[1] ** db

        def ce_result(args, result):
            found[0] += len(result)

        for op in ("normalize", "concat", "factor"):
            fn(getattr(kernel, op), "kernel." + op, "kernel", hot=True)
        fn(kernel.common_ext, "kernel.common_ext", "kernel", hot=True,
           on_call=ce_call, on_result=ce_result)

        # L1: words and the common-extension cache
        words = cell("semigroup.enumerate_words.words")

        def words_result(args, result):
            words[0] += len(result)

        fn(semigroup.enumerate_words, "semigroup.enumerate_words", "semigroup",
           on_result=words_result)
        for name in ("normal_form", "word", "factor_at", "words_up_to", "common_extensions",
                     "make_theta", "parse_theta_text"):
            fn(getattr(semigroup, name), "semigroup." + name, "semigroup")
        fn(semigroup.concat, "semigroup.concat", "semigroup", hot=True)
        lookup = fn(semigroup._common_extensions_cached, "semigroup.ce_cache.lookup", "semigroup", hot=True)
        # algebra uses the cache only inside `mul`: count the pairs that meet there
        matched = cell("algebra.mul.pairs_matched")

        def count_matched(theta, u, v):
            result = lookup(theta, u, v)
            if result:
                matched[0] += 1
            return result

        self._restore.append((algebra, "_common_extensions_cached", lookup))
        algebra._common_extensions_cached = count_matched

        # L2: exact scalars
        radical = cell("scalar.mul.radical_calls")

        def mul_call(args):
            if _is_radical(args[0]) or _is_radical(args[1]):
                radical[0] += 1

        ES = scalar.ExactScalar
        self.method(ES, "__mul__", "scalar.mul", "scalar", hot=True, on_call=mul_call)
        self.method(ES, "__add__", "scalar.add", "scalar", hot=True)
        for attr in ("__sub__", "__rsub__", "__neg__", "conjugate", "inverse", "__pow__", "to_complex"):
            self.method(ES, attr, "scalar." + attr.strip("_"), "scalar", hot=True)
        fn(scalar.power_of_base, "scalar.power_of_base", "scalar")

        # L3: the element product and canonical form
        scanned = cell("algebra.mul.pairs_scanned")

        def mul_pairs(args):
            scanned[0] += len(args[0]._terms) * len(args[1]._terms)

        fn(algebra.mul, "algebra.mul", "algebra", on_call=mul_pairs)
        t_in, t_out = cell("algebra.canonicalize.terms_in"), cell("algebra.canonicalize.terms_out")
        aligned = cell("algebra.canonicalize.aligned_calls")

        def canon_call(args):
            t_in[0] += len(args[0]._terms)

        def canon_result(args, result):
            t_out[0] += len(result._terms)
            if result is args[0]:
                aligned[0] += 1

        self.method(algebra.Element, "canonicalize", "algebra.canonicalize", "algebra",
                    on_call=canon_call, on_result=canon_result)
        for attr in ("__add__", "__sub__", "__neg__", "scaled", "adjoint"):
            self.method(algebra.Element, attr, "algebra.Element." + attr.strip("_"), "algebra")
        for name in ("raise_level", "gauge", "gauge_float", "degree_component", "support_degrees",
                     "is_unitary", "in_subalgebra", "permutation_unitary"):
            fn(getattr(algebra, name), "algebra." + name, "algebra")

        # L4: the state, modular objects and endomorphisms
        for name in ("omega", "inner", "tomita_s", "tomita_f", "modular_conjugation",
                     "modular_power", "modular_flow", "kms_check", "gram_matrix",
                     "gram_matrix_float", "modular_spectrum_window", "flow_fixed_degree"):
            fn(getattr(modular, name), "modular." + name, "modular")
        for attr in ("apply", "word_image", "__init__"):
            self.method(endo.Endomorphism, attr, "endo." + attr.strip("_"), "endo")
        self.method(endo.UnitaryPair, "__init__", "endo.UnitaryPair.init", "endo")
        for name in ("canonical_endomorphism_apply", "twisted_check", "ad_product_check",
                     "pair_from_generator_map", "canonical_pair", "compose", "pair_product",
                     "inner_pair", "preserves_subalgebra", "gallery"):
            fn(getattr(endo, name), "endo." + name, "endo")

        # L5: the suites and the CLI (the oracle and samplers run as suite code)
        for name in SUITES:
            fn(getattr(suites, name + "_suite"), "suites." + name, "suites")
        for name in ("run_suite", "naive_normal_form", "brute_force_common_extensions"):
            fn(getattr(suites, name), "suites." + name, "suites")
        fn(cli.main, "cli.main", "cli")

    # --- results ------------------------------------------------------------

    def suite_walls(self, start: int) -> dict[str, float]:
        """Total wall seconds per suite over the spans recorded since `start`."""
        out = {s: 0.0 for s in SUITES}
        ids = {self._name_index.get("suites." + s): s for s in SUITES}
        for k in range(start, len(self.sid)):
            suite = ids.get(self.name[k])
            if suite is not None:
                out[suite] += (self.t1[k] - self.t0[k]) / 1e9
        return out

    def self_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per layer and per wrapped name."""
        by_name = {name: self.count(name + ".self_ns") / 1e9 for name in self.names}
        by_layer = {layer: 0.0 for layer in LAYERS}
        for idx, name in enumerate(self.names):
            by_layer[LAYERS[self.name_layer[idx]]] += by_name[name]
        return by_layer, by_name

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names " + json.dumps(self.names) + "\n")
            fh.write("id,parent,name,start_ns,end_ns\n")
            cols = (self.sid, self.parent, self.name, self.t0, self.t1)
            fh.writelines(f"{a},{b},{c},{d},{e}\n" for a, b, c, d, e in zip(*cols))


def load_spec() -> list[dict]:
    return json.loads(SPEC_PATH.read_text())["per_layer"]
