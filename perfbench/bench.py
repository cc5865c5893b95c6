"""Benchmark core: set-up, closed loop, traced passes and metrics (see run.py)."""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

from tracing import Tracer
from workloads import TRACE_EXPECT, WORKLOADS, Pipeline, import_cli, instance, warmup_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# traced runs replay the first TRACE_ROUNDS rounds (one instance per kind)
# in every pass, so work counts are exact per pass
TRACE_ROUNDS = 4

END_TO_END = (
    ("setup_s", "s"),
    ("pipelines_per_s", "1/s"),
    ("pipeline_s.p50", "s"),
    ("pipeline_s.tail", "s"),
    ("client_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit); the comment above each group names the end-to-end metric
# and workload the group should move, with the group's share of traced
# wall time (self time, 2-core machine, seeds 1, 2 and 7)
PER_LAYER = (
    # pipelines_per_s and peak_rss_mb on exact-verify (~89% energy_table,
    # ~3% brute_force); barely qaoa-decode (~0.6%); not client-large (0)
    ("oracle.energy_table.s", "s"),
    ("oracle.energy_table.calls", "count"),
    ("oracle.energy_table.term_states", "count"),
    ("oracle.brute_force.self_s", "s"),
    # pipelines_per_s on qaoa-decode only (~37-41% optimize, ~6% sample,
    # ~0.1% simulate)
    ("qaoa.optimize.evals", "count"),
    ("qaoa.optimize.s_per_eval", "s"),
    ("qaoa.simulate.s", "s"),
    ("qaoa.sample.s", "s"),
    ("qaoa.sample.outcomes", "count"),
    # pipeline_s.p50 on qaoa-decode (~34%: ar and rar, eval_ising inside)
    ("oracle.ar.s", "s"),
    ("oracle.rar.s", "s"),
    ("core.eval_ising.calls", "count"),
    # decrypt stages: client_s.p50 on client-large (~74%) and qaoa-decode
    # (~11%); nothing on exact-verify (~0.4%)
    ("scheme1.decrypt1.s", "s"),
    ("scheme2.permute_bits.s", "s"),
    ("scheme2.permute_bits.calls", "count"),
    ("scheme2.decrypt2.self_s", "s"),
    ("scheme2.decrypt2.outcomes_in", "count"),
    ("scheme2.decrypt2.outcomes_out", "count"),
    ("core.distribution_from_dict.s", "s"),
    ("core.distribution_to_dict.s", "s"),
    # encrypt stages: client_s.p50 on client-large, which they move little
    # (~5% of its wall time)
    ("core.ising_to_qubo.s", "s"),
    ("scheme2.build_roulette.s", "s"),
    ("scheme2.embed_decoys.s", "s"),
    ("scheme2.sample_weight.calls", "count"),
    ("scheme2.sample_weight.s", "s"),
    ("scheme3.regular_edge_set.s", "s"),
    ("scheme3.encrypt3.self_s", "s"),
    ("scheme2.apply_permutation.s", "s"),
    ("core.qubo_to_ising.s", "s"),
    ("scheme1.gen_key1.s", "s"),
    ("scheme1.encrypt1.s", "s"),
    # argparse, JSON, manifests and file writes: client_s.p50 on client-large
    # (~11-12%; ~8% on qaoa-decode, ~6% on exact-verify);
    # bytes are the sizes of the files a command names as inputs and outputs
    # (output manifests included)
    ("cli.self_s", "s"),
    ("cli.bytes_read", "B"),
    ("cli.bytes_written", "B"),
    # pipeline_s.p50 on client-large (~1.4%)
    ("benchmarks.generate.s", "s"),
    # traced against untraced wall time of the same instance set
    ("trace.overhead", "ratio"),
)

# per-layer baselines measured on a 2-core machine (numpy 2.4), recorded in
# ROADMAP.md item 1; printed next to this run's figures for comparison
ROADMAP_BASELINES = (
    "energy_table sk n=16 170 ms, n=20 3.35 s, n=22 16.2 s (~17-22 ns/term-state); "
    "optimize n=12 p=1 0.895 ms/eval; sample n=16 78 ms/10^4 shots; "
    "decrypt2 12.1 us/outcome"
)


def openblas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None without one."""
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def set_up(workload: str, seed: int, workdir: str):
    """Cold set-up time, then this process's own import and warm-up.

    Each of SETUP_REPEATS fresh interpreters imports the package and runs
    the workload's tiny warm-up pipeline (``setup_probe.py``); set-up time
    is the median of their wall times, interpreter start included.  This
    process then does the same once, untimed, so the measured loop starts
    warm.
    """
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if probe.returncode != 0:
            ok = False
            print(f"set-up probe exited with {probe.returncode}: {probe.stderr.strip()}", file=sys.stderr)
    cli = import_cli(ROOT)
    result = Pipeline(cli, workdir).run(warmup_instance(workload, seed))
    if not result.ok:
        ok = False
        print(f"warm-up pipeline failed: {result.error}", file=sys.stderr)
    return statistics.median(times), cli, ok


def tail(values: list) -> tuple:
    """Highest order statistic with at least ten samples beyond it."""
    ordered = sorted(values)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def measure(workload: str, seed: int, seconds: float, cli, workdir: str):
    round_size = len(WORKLOADS[workload])
    pipe = Pipeline(cli, workdir)
    results, elapsed = [], 0.0
    while elapsed < seconds or not results or len(results) % round_size:
        result = pipe.run(instance(workload, seed, len(results)))
        if not result.ok:
            print(f"pipeline {result.kind} failed: {result.error}", file=sys.stderr)
        results.append(result)
        elapsed += result.wall
    return results


def end_to_end(results: list, setup_s: float) -> tuple:
    walls = [r.wall for r in results]
    p_tail, pct = tail(walls)
    metrics = {
        "setup_s": setup_s,
        "pipelines_per_s": len(walls) / sum(walls),
        "pipeline_s.p50": statistics.median(walls),
        "pipeline_s.tail": p_tail,
        "client_s.p50": statistics.median(r.client for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = sum(not r.ok for r in results)
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r)
    notes = [f"pipeline_count = {len(walls)} (tail = p{pct:.1f})",
             f"failed_frac = {failed}/{len(walls)}"]
    notes += [
        f"  {kind}: {len(rs)} pipelines, pipeline_s.p50 = {statistics.median(r.wall for r in rs):.4f} s, "
        f"client_s.p50 = {statistics.median(r.client for r in rs):.4f} s"
        for kind, rs in by_kind.items()
    ]
    quality = [r.quality for r in results if "ar" in r.quality]
    if quality:
        notes.append(
            "ar.mean = {:.6f}  rar.mean = {:.6f}  (over {} pipelines)".format(
                statistics.fmean(q["ar"] for q in quality),
                statistics.fmean(q["rar"] for q in quality),
                len(quality),
            )
        )
    return metrics, notes


def pass_values(tracer) -> dict:
    busy, own = tracer.totals()
    counts = tracer.counts
    values = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead":
            continue
        if name == "qaoa.optimize.s_per_eval":
            evals = counts["qaoa.optimize.evals"]
            values[name] = own["qaoa.optimize"] / evals if evals else 0.0
        elif unit != "s":
            values[name] = counts[name]
        elif name.endswith(".self_s"):
            values[name] = own[name[: -len(".self_s")]]
        else:
            values[name] = busy[name[: -len(".s")]]
    return values


def measure_traced(workload: str, seed: int, seconds: float, cli, workdir: str):
    insts = [instance(workload, seed, i) for i in range(TRACE_ROUNDS * len(WORKLOADS[workload]))]
    plain_pipe = Pipeline(cli, workdir)
    passes, results, elapsed = [], [], 0.0
    while elapsed < seconds or not passes:
        plain = [plain_pipe.run(inst) for inst in insts]
        tracer = Tracer()
        tracer.install()
        try:
            traced_pipe = Pipeline(cli, workdir, tracer)
            traced = [traced_pipe.run(inst, i) for i, inst in enumerate(insts)]
        finally:
            tracer.uninstall()
        passes.append((plain, traced, tracer))
        results += plain + traced
        elapsed += sum(r.wall for r in plain + traced)
    return passes, results


def layer_shares(passes: list) -> dict:
    """Median over traced passes of each span name's self time / traced wall.

    "pipeline" is the benchmark's own share (the remote solver stand-in
    and the harness around each command); "cli" is the command-line
    layer's own work.
    """
    per_pass = []
    for _, traced, tracer in passes:
        wall = sum(r.wall for r in traced)
        per_pass.append({name: sec / wall for name, sec in tracer.totals()[1].items()})
    names = set().union(*per_pass)
    return {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in names}


def per_layer(workload: str, passes: list) -> tuple:
    """Per-layer metrics, trace consistency problems and printed notes."""
    per_pass = [pass_values(tracer) for _, _, tracer in passes]
    problems = []
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead":
            continue
        values = [p[name] for p in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between passes: {values}")
    overhead = statistics.median(
        sum(r.wall for r in traced) / sum(r.wall for r in plain) - 1.0
        for plain, traced, _ in passes
    )
    metrics["trace.overhead"] = overhead

    # the layers the workload's mix is meant to reach must be called in
    # every traced pass, the ones it bypasses never, and the layer spans
    # must cover a stated share of the traced wall time
    reach, bypass, floor = TRACE_EXPECT[workload]
    shares = layer_shares(passes)
    for _, _, tracer in passes:
        missed = [name for name in reach if not tracer.counts[name + ".calls"]]
        called = [name for name in bypass if tracer.counts[name + ".calls"]]
        if missed:
            problems.append(f"a traced pass never called {', '.join(missed)}")
        if called:
            problems.append(f"a traced pass called {', '.join(called)}, which {workload} bypasses")
    covered = sum(share for name, share in shares.items() if name not in ("pipeline", "cli"))
    if covered < floor:
        problems.append(f"layer spans cover {covered:.1%} of the traced wall time, below {floor:.0%}")

    notes_shares = "share of traced wall time (self): " + ", ".join(
        f"{name} {share:.1%}" for name, share in sorted(shares.items(), key=lambda kv: -kv[1]) if share >= 0.005
    )

    tracer = passes[0][2]
    shots = sum(t.sample_shots for _, _, t in passes) / len(passes)
    outcomes = metrics["scheme2.decrypt2.outcomes_in"]
    decrypt2 = statistics.median(t.totals()[0]["scheme2.decrypt2"] for _, _, t in passes)
    table = ", ".join(
        f"n={n} {sec / calls * 1e3:.1f} ms/call" for n, (calls, sec) in sorted(tracer.energy_table_by_n.items())
    )
    term_states = metrics["oracle.energy_table.term_states"]
    notes = [
        f"traced passes = {len(passes)}, layer spans cover {covered:.1%} of the traced wall time",
        "this run: energy_table {} ({}); optimize {}; sample {}; decrypt2 {}".format(
            table or "not called",
            f"{metrics['oracle.energy_table.s'] / term_states * 1e9:.1f} ns/term-state" if term_states else "-",
            f"{metrics['qaoa.optimize.s_per_eval'] * 1e3:.3f} ms/eval" if metrics["qaoa.optimize.evals"] else "not called",
            f"{metrics['qaoa.sample.s'] / shots * 1e7:.1f} ms/10^4 shots" if shots else "not called",
            f"{decrypt2 / outcomes * 1e6:.1f} us/outcome" if outcomes else "not called",
        ),
        "ROADMAP baselines: " + ROADMAP_BASELINES,
        notes_shares,
    ]
    return metrics, problems, notes


def write_spans(workload: str, seed: int, passes: list) -> Path:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for number, (_, _, tracer) in enumerate(passes):
            for record in tracer.records():
                record["pass"] = number
                fh.write(json.dumps(record) + "\n")
    return path


def main(argv, nproc: int, caps: dict) -> int:
    parser = argparse.ArgumentParser(description="Delegation-pipeline benchmark for isingcloak.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        import_cli(ROOT)
    except ImportError as exc:
        print(f"cannot import isingcloak from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    print(
        f"env: nproc={nproc} thread_caps={json.dumps(caps)} openblas_threads={openblas_threads()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    )
    workdir = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    try:
        setup_s, cli, setup_ok = set_up(args.workload, args.seed, workdir)
        problems = [] if setup_ok else ["warm-up pipeline failed"]
        if args.trace:
            passes, results = measure_traced(args.workload, args.seed, args.seconds, cli, workdir)
            metrics, trace_problems, notes = per_layer(args.workload, passes)
            problems += trace_problems
            notes.append(f"spans written to {write_spans(args.workload, args.seed, passes).relative_to(ROOT)}")
            units = dict(PER_LAYER)
        else:
            results = measure(args.workload, args.seed, args.seconds, cli, workdir)
            metrics, notes = end_to_end(results, setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in notes + problems:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    failed = sum(not r.ok for r in results)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0

