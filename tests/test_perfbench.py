"""The benchmark's outside-in tracer (`perfbench/tracer.py`) wraps public
names of every layer by attribute lookup; a rename or deletion under `src/`
must fail here rather than only under `run.py --trace 1`."""

import importlib.util
from pathlib import Path

from twograph import algebra, endo, semigroup

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (algebra.mul, semigroup.concat, endo.Endomorphism.apply)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert algebra.mul.__wrapped__ is originals[0]
        assert endo.mul is algebra.mul
    finally:
        tracer.uninstall()
    assert (algebra.mul, semigroup.concat, endo.Endomorphism.apply) == originals
    assert endo.mul is algebra.mul


def test_tracer_counts_pairs_that_meet(id23):
    """`algebra.mul.pairs_matched` counts through the module-level name
    `algebra._common_extensions_cached`; binding the cache anywhere the
    tracer cannot rebind it would leave the metric at 0."""
    a = algebra.Element.gen(id23, semigroup.word(id23, "id"), semigroup.word(id23, "e1"))
    b = algebra.Element.gen(id23, semigroup.word(id23, "e1"), semigroup.word(id23, "id"))
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        algebra.mul(a, b)
    finally:
        tracer.uninstall()
    assert tracer.count("algebra.mul.pairs_matched") >= 1
