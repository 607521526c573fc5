#!/usr/bin/env python3
"""twograph benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload check-all --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, each in its own interpreter

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured untraced; with `--trace 1` they
are the per-layer ones from `tracer.py`, over one fixed batch so that the
counts repeat exactly. The exit code is 0 only when every verdict was right.
Times are read from `refclock.RefClock`: seconds at the speed of a fixed
reference loop, which takes the shared machine's changing speed out of them.
See README.md in this directory.
"""

import time

T_START = time.perf_counter()  # setup time counts from here, before the program is imported

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
TRACE_PASSES = 2  # stream passes in each half of a traced run
OUT = HERE / "out"


def import_program():
    """Import twograph from this checkout's `src`, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import twograph

    if Path(twograph.__file__).resolve().parent != (ROOT / "src" / "twograph").resolve():
        raise ImportError(f"twograph imported from {twograph.__file__}, not from this checkout")
    return twograph


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# --- set-up ------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import, parse and validate tables, make inputs: all before any timing.
    Returns the workload and its set-up time at reference speed."""
    import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    raw = time.perf_counter() - T_START
    import refclock

    return wl, refclock.scaled(raw)


def setup_samples(args, own: float) -> list[float]:
    """Set-up time of this process plus fresh interpreters that only set up,
    each at reference speed."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# --- timed runs ----------------------------------------------------------------

def time_cases(clock) -> list[float]:
    """Record milliseconds per exact decision for every suite case.

    A case runs from its suite's start or the previous case's
    `SuiteReport.add` to its own; the cost is one clock read per suite and
    per case (about 37 cases per `check all`).
    """
    from twograph import suites

    latencies: list[float] = []
    mark = [0.0]
    add = suites.SuiteReport.add

    def timed_add(self, case_id, total, failures):
        now = clock()
        if total:
            latencies.append((now - mark[0]) * 1000 / total)
        mark[0] = now
        return add(self, case_id, total, failures)

    suites.SuiteReport.add = timed_add
    for name in ("semigroup", "algebra", "modular", "kms", "endo"):
        fn = getattr(suites, name + "_suite")

        def marked(*a, _fn=fn, **kw):
            mark[0] = clock()
            return _fn(*a, **kw)

        setattr(suites, name + "_suite", marked)
    return latencies


def timed_check_all(wl, seconds: float):
    """Rounds of the three tables for `seconds`. Every table runs at least
    once; after that no invocation starts that its table's previous one says
    would end past `seconds`. The work of `check all` changes by 10-20% from
    one `check all` seed to the next, so the metrics average over every
    invocation of the run: per-table means, and percentiles over all cases."""
    from refclock import RefClock
    from workloads import CHECK_TABLES, check_seed

    walls = {t: [] for t, _ in CHECK_TABLES}
    decisions = {t: [] for t, _ in CHECK_TABLES}
    raw = {}  # perf_counter seconds of each table's last invocation
    clock = RefClock()
    latencies = time_cases(clock.now)
    attempted = failed = 0
    start = time.perf_counter()
    schedule = ((r, t, table, argv) for r in itertools.count()
                for t, (table, argv) in enumerate(CHECK_TABLES))
    with clock:
        for r, t, table, argv in schedule:
            if walls[table] and time.perf_counter() - start + raw[table] > seconds:
                break
            cseed = check_seed(wl.seed, r, t)
            began = time.perf_counter()
            wall, n, bad = wl.invoke(table, argv, cseed, clock.now)
            raw[table] = time.perf_counter() - began
            print(f"invocation {table} seed {cseed} wall {wall:.3f} s decisions {n} "
                  f"rss {peak_rss_mb():.1f} MB", flush=True)
            attempted += n
            failed += bad
            walls[table].append(wall)
            decisions[table].append(n)
    report_clock(clock)
    wall_s = sum(statistics.mean(w) for w in walls.values())
    per_round = sum(statistics.mean(d) for d in decisions.values())
    count = sum(map(len, walls.values()))
    note = f"n={len(latencies)} suite cases over {count} invocations"
    metrics = {
        "wall_s": (wall_s, "s", f"sum over 3 tables of the mean of {count} invocations"),
        "decisions_per_s": (per_round / wall_s, "1/s", f"{per_round:g} decisions per round"),
        "decision_p50_ms": (statistics.median(latencies), "ms", note),
    }
    return metrics, attempted, failed, p90(latencies)


def collect(wl, latencies, clock=time.perf_counter):
    """One pass over the generated decisions with a cold cache; the checks
    run afterwards, outside the timed regions."""
    from workloads import clear_cache

    clear_cache()
    outs = []
    for d in wl.decisions:
        try:
            elapsed, out = wl.run(d, clock)
        except Exception:  # a raised decision is a failed decision
            traceback.print_exc(limit=3)
            outs.append((None, None))
            continue
        latencies.append(elapsed)
        outs.append((elapsed, out))
    return outs


def verify(wl, outs) -> list[bool]:
    return [elapsed is not None and wl.check(d, out)
            for d, (elapsed, out) in zip(wl.decisions, outs)]


def timed_stream(wl, seconds: float):
    """Passes over the same decisions until `seconds` have gone by. The first
    pass is checked in full; later passes must reproduce its outputs. Each
    pass gives a wall time and latency percentiles; the metrics are their
    medians over the passes, which damps passes slowed by other load."""
    from refclock import RefClock

    walls, p50s, p90s = [], [], []
    attempted = failed = 0
    reference = ok = None
    clock = RefClock()
    start = time.perf_counter()
    with clock:
        while not walls or time.perf_counter() - start < seconds:
            latencies: list[float] = []
            outs = collect(wl, latencies, clock.now)
            if reference is None:
                reference, ok = [out for _, out in outs], verify(wl, outs)
            walls.append(sum(latencies))
            p50s.append(statistics.median(latencies) * 1000)
            p90s.append(p90(latencies) * 1000)
            attempted += len(outs)
            failed += sum(1 for k, (elapsed, out) in enumerate(outs)
                          if elapsed is None or not ok[k] or out != reference[k])
    report_clock(clock)
    wall_s = statistics.median(walls)
    note = f"median over {len(walls)} passes of {len(wl.decisions)} decisions"
    metrics = {
        "wall_s": (wall_s, "s", note),
        "decisions_per_s": (len(wl.decisions) / wall_s, "1/s", note),
        "decision_p50_ms": (statistics.median(p50s), "ms", note),
    }
    return metrics, attempted, failed, statistics.median(p90s)


def report_clock(clock) -> None:
    from refclock import R0

    refs = sorted(clock.refs)
    print(f"reference loop: {len(refs)} samples, median {statistics.median(refs) * 1000:.3f} ms, "
          f"min {refs[0] * 1000:.3f} ms, max {refs[-1] * 1000:.3f} ms; "
          f"times below are at {R0 * 1000:g} ms per loop")


# --- traced runs -----------------------------------------------------------------

def traced(wl, seed: int):
    """Run one fixed batch untraced, then the same batch traced."""
    import tracer as tr
    import workloads

    cache = workloads.ce_cache()
    ce = {"hits": 0, "misses": 0, "evictions": 0}

    def note_cache():
        info = cache.cache_info()
        ce["hits"] += info.hits
        ce["misses"] += info.misses
        ce["evictions"] += info.misses - info.currsize

    suite_walls: dict[str, float] = {}
    anchors = {}
    attempted = failed = 0
    t = tr.Tracer()
    if isinstance(wl, workloads.CheckAll):
        cseed = workloads.check_seed(seed, 0, 0)
        untraced_s = sum(wl.invoke(table, argv, cseed)[0] for table, argv in workloads.CHECK_TABLES)
        t.install()
        traced_s = 0.0
        try:
            for table, argv in workloads.CHECK_TABLES:
                before, first_span = t.snapshot(), len(t.sid)
                wall, n, bad = wl.invoke(table, argv, cseed)
                note_cache()
                traced_s += wall
                attempted += n
                failed += bad
                for suite, s in t.suite_walls(first_span).items():
                    suite_walls[f"suites.{table}.{suite}.wall_s"] = s
                if table == "id23":
                    after = t.snapshot()
                    anchors = {k: after[k] - before.get(k, 0) for k in after}
                    info = cache.cache_info()
                    anchors["semigroup.ce_cache.hits"] = info.hits
                    anchors["semigroup.ce_cache.misses"] = info.misses
        finally:
            t.uninstall()
    else:
        start = time.perf_counter()
        for _ in range(TRACE_PASSES):
            collect(wl, [])
        untraced_s = time.perf_counter() - start
        t.install()
        batches = []
        try:
            start = time.perf_counter()
            for _ in range(TRACE_PASSES):
                batches.append(collect(wl, []))
                note_cache()
            traced_s = time.perf_counter() - start
        finally:
            t.uninstall()
        for outs in batches:
            attempted += len(outs)
            failed += verify(wl, outs).count(False)

    t.write_spans(OUT / f"spans-{wl.name}-seed{seed}.csv.gz")
    by_layer, by_name = t.self_seconds()
    c = t.count
    values = {
        "kernel.common_ext.yield": c("kernel.common_ext.found") / max(c("kernel.common_ext.candidates"), 1),
        "semigroup.ce_cache.hits": ce["hits"],
        "semigroup.ce_cache.misses": ce["misses"],
        "semigroup.ce_cache.evictions": ce["evictions"],
        "semigroup.ce_cache.hit_ratio": ce["hits"] / max(ce["hits"] + ce["misses"], 1),
        "algebra.mul.match_ratio": c("algebra.mul.pairs_matched") / max(c("algebra.mul.pairs_scanned"), 1),
        "algebra.mul.self_s": by_name.get("algebra.mul", 0.0),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1,
    }
    for layer, s in by_layer.items():
        values[layer + ".self_s"] = s
    metrics = {}
    for spec in tr.load_spec():
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.startswith("suites.") and name.endswith(".wall_s"):
            value = suite_walls.get(name, 0.0)
        else:
            value = c(name)
        metrics[name] = (value, spec["unit"], "")
    if anchors:
        base = json.loads((HERE / "baseline.json").read_text())["anchors"]
        if seed == base["seed"]:
            for name, want in base["counts"].items():
                got = anchors.get(name, 0)
                print(f"anchor {base['table']}.seed{seed} {name} {got} "
                      f"baseline {want} {'same' if got == want else 'DIFFERS'}")
    print(f"trace spans {len(t.sid)} written; hot boundaries (scalar arithmetic, cache lookup, "
          "word kernel, word products) are timed without spans; all counts exact")
    return metrics, attempted, failed


# --- entry point -----------------------------------------------------------------

def run_all(args) -> int:
    import workloads

    merged, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "check-all", "modular-2x4", "words-3x3"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.chdir(ROOT)

    if args.workload == "all":
        sys.path.insert(0, str(HERE))
        return run_all(args)
    try:
        wl, own_setup = setup(args.workload, args.seed)
    except Exception as exc:  # missing program, bad table: refuse to run
        print(f"error: set-up failed: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(own_setup)
        return 0
    import twograph

    print(f"env python={sys.version.split()[0]} kernel={twograph.KERNEL_BACKEND} "
          f"nproc={os.cpu_count()} commit={git_commit()}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        metrics, attempted, failed = traced(wl, args.seed)
    else:
        timed = timed_check_all if args.workload == "check-all" else timed_stream
        metrics, attempted, failed, p90_ms = timed(wl, args.seconds)
        setup_s = statistics.median(setup_samples(args, own_setup))
        metrics["setup_s"] = (setup_s, "s", f"median of {SETUP_SAMPLES} set-ups at reference speed")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "ru_maxrss at the end of the run")
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} {value!r} {unit}" + (f" ({note})" if note else ""))
    if not args.trace:
        # printed, not gated: in check-all the 90th percentile falls on the
        # few suite cases whose cost swings most with the `check all` seed
        print(f"metric decision_p90_ms {p90_ms!r} ms (same samples as decision_p50_ms; "
              "not in the result line)")
    print(f"metric failed_frac {failed / max(attempted, 1)!r} ratio "
          f"({failed} of {attempted} decisions)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
