"""The benchmark's outside-in tracer (`perfbench/tracer.py`) wraps public
names of every layer by attribute lookup; a rename or deletion under `src/`
must fail here rather than only under `run.py --trace 1`. The benchmark's
reference records (`perfbench/digests.json`) are checked here too, so that
every test run gates their bytes."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from twograph import algebra, cli, endo, semigroup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module("perfbench_tracer", TRACER_PATH)


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


@pytest.mark.parametrize("table, seed", [
    (table, seed) for table in sorted(DIGESTS) for seed in sorted(DIGESTS[table])
])
def test_check_all_matches_the_benchmark_digests(table, seed, monkeypatch):
    """`check all` at the benchmark's fixed flags, in-process, prints the
    records whose sha256 `perfbench/digests.json` stores."""
    workloads = load_module("perfbench_workloads", PERFBENCH / "workloads.py")
    monkeypatch.chdir(PERFBENCH.parent)  # the table file's path is part of the output
    table_args = dict(workloads.CHECK_TABLES)[table]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", "all", *table_args, "--seed", seed, *workloads.CHECK_FIXED])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DIGESTS[table][seed]
