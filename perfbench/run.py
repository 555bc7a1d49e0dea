"""End-to-end FeatAug benchmark: one workload per invocation.

    python3 perfbench/run.py --workload search-small --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

Runs from the repository root (it imports ``src/repro``).  ``--trace 0``
measures with no wrappers installed and reports the end-to-end metrics;
``--trace 1`` runs every input twice, untraced and traced in alternating
order, and reports the per-layer ledger of the traced runs.  A readable report goes to
standard output, followed by one JSON line (the last line) holding
``correct``, ``attempted``, ``failed`` and ``metrics``; the same figures,
the environment and the span dump go under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics (``--trace 0``) with their units.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) with their units; ``/op`` values are
#: per traced op (per step on serve-append).
PER_LAYER = {
    "hpo.suggest_s": "s/op",
    "hpo.suggest_calls": "1/op",
    "hpo.observe_s": "s/op",
    "pool.build_s": "s/op",
    "pool.builds": "1/op",
    "engine.execute_s": "s/op",
    "engine.batches": "1/op",
    "engine.queries": "1/op",
    "engine.result_hit_rate": "ratio",
    "engine.mask_hit_rate": "ratio",
    "engine.sort_hit_rate": "ratio",
    "engine.group_index_builds": "1/op",
    "engine.staleness_evictions": "1/op",
    "engine.seconds_masking": "s/op",
    "engine.seconds_indexing": "s/op",
    "engine.seconds_sorting": "s/op",
    "engine.seconds_aggregating": "s/op",
    "table.left_join_s": "s/op",
    "table.left_join_calls": "1/op",
    "table.append_rows_s": "s/op",
    "io.read_csv_s": "s/op",
    "io.write_csv_s": "s/op",
    "io.rows_per_s": "rows/s",
    "proxy.score_s": "s/op",
    "proxy.score_calls": "1/op",
    "eval.fit_score_s": "s/op",
    "eval.fit_score_calls": "1/op",
    "qti.identify_s": "s/op",
    "sqlgen.generate_s": "s/op",
    "feataug.augment_s": "s/op",
    "feataug.apply_s": "s/op",
    "unattributed_s": "s/op",
    "unattributed_share": "ratio",
    "search.executed_per_candidate": "ratio",
    "search.candidates_per_s": "1/s",
    "trace_overhead_s": "s/op",
    "quality.test_loss": "loss",
}

#: Leaf spans (self time) reported under each metric name.
LEAF_METRICS = {
    "hpo.suggest": "hpo.suggest_s",
    "hpo.observe": "hpo.observe_s",
    "pool.build": "pool.build_s",
    "engine.execute": "engine.execute_s",
    "table.left_join": "table.left_join_s",
    "table.append_rows": "table.append_rows_s",
    "io.read_csv": "io.read_csv_s",
    "io.write_csv": "io.write_csv_s",
    "proxy.score": "proxy.score_s",
    "eval.fit_score": "eval.fit_score_s",
}
#: Phase spans (inclusive time) reported under each metric name.
PHASE_METRICS = {
    "qti.identify": "qti.identify_s",
    "sqlgen.generate": "sqlgen.generate_s",
    "feataug.augment": "feataug.augment_s",
    "feataug.apply": "feataug.apply_s",
}
CALL_METRICS = {
    "hpo.suggest.calls": "hpo.suggest_calls",
    "pool.build.calls": "pool.builds",
    "engine.execute.calls": "engine.batches",
    "engine.queries": "engine.queries",
    "table.left_join.calls": "table.left_join_calls",
    "proxy.score.calls": "proxy.score_calls",
    "eval.fit_score.calls": "eval.fit_score_calls",
}

#: Engine environment variables a caller (a CI matrix) may set; they would
#: change what is measured, so the benchmark drops them before importing.
SCRUBBED_PREFIXES = ("REPRO_ENGINE_", "REPRO_SERVICE_")
#: One BLAS thread: the benchmark runs in one process with no worker threads.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_environment() -> list:
    dropped = sorted(k for k in os.environ if k.startswith(SCRUBBED_PREFIXES))
    for key in dropped:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    return dropped


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(dropped: list) -> dict:
    import numpy

    from repro.core.config import FeatAugConfig

    engine = FeatAugConfig().engine_config()
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": {
            "backend": engine.backend_name,
            "workers": engine.worker_count,
            "shard_strategy": engine.shard_strategy_name,
            "executor": engine.executor_name,
            "incremental": engine.incremental_enabled,
            "memory_budget_bytes": engine.memory_budget_bytes,
        },
        "dropped_env": dropped,
        "pinned_env": PINNED_ENV,
    }


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
class Window:
    """Latency samples and failures of one measuring window."""

    def __init__(self):
        self.samples = defaultdict(list)  # op kind -> seconds
        self.ops: list = []  # (op class, seconds) of each passed op, in run order
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.check_s = 0.0
        self.suggestions = 0

    def all_samples(self) -> list:
        return [s for values in self.samples.values() for s in values]


def run_step(workload, step, window: Window, tracer=None) -> float:
    """Time one op, then check it outside the timed span."""
    start = time.perf_counter()
    output, error = None, None
    try:
        if tracer is None:
            output = workload.run(step)
        else:
            with tracer.op(step.kind):
                output = workload.run(step)
    except Exception as exc:  # an op that raises is a failed op
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            faults = workload.check(step, output)
        except Exception as exc:  # a check that cannot run fails the op
            faults = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        faults = [error]
    del output
    window.check_s += time.perf_counter() - start - elapsed
    window.attempted += 1
    if faults:
        window.failed += 1
        window.problems += [f"{step.kind} op {step.index}: {fault}" for fault in faults]
    else:
        window.samples[step.kind].append(elapsed)
        window.ops.append((workload.op_class(step), elapsed))
    return elapsed


def measure(workload, seconds: float, tracer=None, install=None) -> tuple:
    """Run ops from input 0 on until *seconds* of untraced op time are
    measured and the last cycle of ``workload.cycle_ops`` ops is complete.
    With a tracer, each input also runs traced (layer wrappers put
    in by *install*), right before or after its untraced run in alternation,
    so both windows see the same inputs under the same machine conditions;
    returns both windows and the per-input traced-minus-untraced op times."""
    untraced, traced = Window(), Window()
    overhead = []
    measured = 0.0
    index = 0
    cycle = workload.cycle_ops or 1
    wall_limit = time.perf_counter() + 3 * seconds + 30

    def plain():
        before = workload.suggestions.count
        elapsed = run_step(workload, workload.prepare(index), untraced)
        untraced.suggestions += workload.suggestions.count - before
        return elapsed

    def with_tracing():
        install(tracer)
        try:
            return run_step(workload, workload.prepare(index), traced, tracer)
        finally:
            tracer.uninstall()

    while (measured < seconds or index % cycle) and time.perf_counter() < wall_limit:
        if tracer is None:
            measured += plain()
        else:
            failed = untraced.failed + traced.failed
            if index % 2:
                traced_s = with_tracing()
                plain_s = plain()
            else:
                plain_s = plain()
                traced_s = with_tracing()
            measured += plain_s
            if untraced.failed + traced.failed == failed:
                overhead.append(traced_s - plain_s)
        index += 1
    return untraced, traced, overhead


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def repeat_costs(window: Window) -> list:
    """Each passed op's time, replaced by the lower quartile of the times of
    all ops of its class (the same input, run again); an op whose class ran
    once keeps its own time.  A class's fastest runs are the ones the host
    disturbed least, so the quartile tracks the program's cost while bursts
    of interference on a shared host come and go."""
    by_class = defaultdict(list)
    for key, seconds in window.ops:
        by_class[key].append(seconds)
    low = {
        key: statistics.quantiles(times, n=4, method="inclusive")[0] if len(times) > 1 else times[0]
        for key, times in by_class.items()
    }
    return [low[key] for key, _ in window.ops]


def end_to_end(setup_s: float, samples: list) -> dict:
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(samples) * 1e3 if samples else 0.0,
        "ops_per_s": len(samples) / sum(samples) if samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, overhead: list, workload) -> tuple:
    from perfbench.ledger import ratio

    ledger = tracer.ledger()
    op_s = ledger.op_seconds()
    n_ops = max(len(op_s), 1)
    self_s = ledger.self_by_name()
    total_s = ledger.total_by_name()
    counts = tracer.counts
    engine = tracer.engine_totals
    out = {name: 0.0 for name in PER_LAYER}
    for span, metric in LEAF_METRICS.items():
        out[metric] = self_s.get(span, 0.0) / n_ops
    for span, metric in PHASE_METRICS.items():
        out[metric] = total_s.get(span, 0.0) / n_ops
    for counter, metric in CALL_METRICS.items():
        out[metric] = counts.get(counter, 0.0) / n_ops
    for kind in ("result", "mask", "sort"):
        hits, misses = engine.get(f"{kind}_hits", 0.0), engine.get(f"{kind}_misses", 0.0)
        out[f"engine.{kind}_hit_rate"] = ratio(hits, hits + misses)
    for field in ("group_index_builds", "staleness_evictions", "seconds_masking",
                  "seconds_indexing", "seconds_sorting", "seconds_aggregating"):
        out[f"engine.{field}"] = engine.get(field, 0.0) / n_ops
    io_s = self_s.get("io.read_csv", 0.0) + self_s.get("io.write_csv", 0.0)
    out["io.rows_per_s"] = ratio(counts.get("io.rows", 0.0), io_s)
    leaf_total = sum(self_s.get(span, 0.0) for span in LEAF_METRICS)
    unattributed = sum(op_s) - leaf_total
    out["unattributed_s"] = unattributed / n_ops
    out["unattributed_share"] = ratio(unattributed, sum(op_s))
    candidates = counts.get("hpo.candidates", 0.0)
    out["search.executed_per_candidate"] = ratio(counts.get("engine.queries", 0.0), candidates)
    out["search.candidates_per_s"] = ratio(candidates, sum(op_s))
    if overhead:
        out["trace_overhead_s"] = statistics.median(overhead)
    out["quality.test_loss"] = workload.test_loss()
    shares = {
        kind: sorted(
            ((span, seconds / max(sum(ledger.op_seconds(kind)), 1e-12))
             for span, seconds in ledger.self_by_name(kind).items() if span in LEAF_METRICS),
            key=lambda item: -item[1],
        )
        for kind in sorted(set(ledger.root_kinds.values()))
    }
    return out, shares, ledger.double_counted()


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def timing_lines(window: Window) -> list:
    from perfbench.ledger import summarize

    lines = []
    for kind, samples in sorted(window.samples.items()):
        stats = summarize(samples)
        tail = (
            f"p{stats['tail_p']} {stats['tail'] * 1e3:.3f} ms"
            if stats["tail_p"] is not None
            else "no percentile has 10 samples beyond it"
        )
        lines.append(f"  {kind:<7} n={stats['n']:<5} p50 {stats['p50'] * 1e3:.3f} ms   {tail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    dropped = pin_environment()
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import ledger, workloads

    import_s = time.perf_counter() - start
    if args.workload == "all":
        argv = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name] + argv).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment(dropped)
    if env["engine"]["backend"] != "numpy" or env["engine"]["workers"] != 1:
        print(f"perfbench: engine is not serial numpy: {env['engine']}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / f"work-{os.getpid()}")
    problems: list = []
    warm = Window()
    try:
        setup_times = []
        for rep in range(workload.setup_reps):
            t0 = time.perf_counter()
            problems += workload.setup(rep)
            setup_times.append(time.perf_counter() - t0)
        warmup_s = sum(run_step(workload, step, warm) for step in workload.warmup_steps())
        setup_s = import_s + statistics.median(setup_times) + warmup_s

        tracer = ledger.Tracer() if args.trace else None
        untraced, traced, overhead = measure(
            workload, args.seconds, tracer, workloads.install_layers
        )
        if tracer is not None:
            tracer.dump(OUT / f"{stem}.spans.jsonl")
    finally:
        workload.close()

    windows = [warm, untraced] + ([traced] if tracer else [])
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    problems += [p for w in windows for p in w.problems]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"set-up: imports {import_s:.3f} s, repetitions "
          + ", ".join(f"{t:.3f}" for t in setup_times)
          + f" s (median used), warm-up {warmup_s:.3f} s")
    print("untraced op latency:")
    print("\n".join(timing_lines(untraced)))
    run_s = sum(untraced.all_samples())
    print(f"candidates_per_s {ledger.ratio(untraced.suggestions, run_s):.3f} 1/s (suggestions handed out by TPE per second of op time)")
    print(f"test_loss {workload.test_loss():.6f} (median held-out loss: 1-AUC on student, RMSE on merchant)")
    print(f"error_rate {ledger.ratio(failed, attempted):.4f} ({failed} failed of {attempted} attempted, warm-up included)")
    print("output checks took " + ", ".join(f"{w.check_s:.3f}" for w in windows) + " s (warm-up, untraced[, traced])")
    for problem in problems[:20]:
        print("  problem: " + problem)

    if args.trace:
        metrics, shares, double_counted = per_layer(tracer, overhead, workload)
        units = PER_LAYER
        if double_counted:
            problems.append(f"leaf self times exceed the op time on {len(double_counted)} traced op(s)")
        print("traced op latency:")
        print("\n".join(timing_lines(traced)))
        for kind, ranked in shares.items():
            print(f"leaf self time as a share of {kind} op time:")
            for span, share in ranked:
                print(f"  {span:<18} {share * 100:6.2f} %")
    else:
        metrics = end_to_end(setup_s, repeat_costs(untraced))
        if len({key for key, _ in untraced.ops}) < len(untraced.ops):
            whole = end_to_end(setup_s, untraced.all_samples())
            print(f"ops repeat in classes; op_p50_ms and ops_per_s use each class's lower quartile "
                  f"(raw op times: op_p50_ms {whole['op_p50_ms']:.3f}, ops_per_s {whole['ops_per_s']:.3f})")
        units = END_TO_END
    print(f"{'metric':<32} {'value':>16}  unit")
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]:>16.6g}  {unit}")

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, problems=problems,
                  setup={"import_s": import_s, "repetitions_s": setup_times, "warmup_s": warmup_s},
                  samples={k: v for k, v in untraced.samples.items()},
                  op_classes=[[str(key), seconds] for key, seconds in untraced.ops],
                  test_losses={str(k): v for k, v in workload.test_losses.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
