"""fdrlink benchmark: run one workload and print its metrics.

Usage::

    python3 bench/run.py --workload {mc-iid,dependent-link,presets-cli} \\
        --seed N --seconds S --trace {0,1}

The run times set-up in fresh interpreters, makes one warm-up call, then
repeats passes of the workload (a closed loop: each operation starts when the
previous one ends) until the next pass would end after S seconds, with at
least one pass (two with tracing). Every operation's output is checked. The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced passes; the per-layer numbers
come from the traced ones, and the ratio of their medians is the tracing
overhead. The full record (provenance, per-pass figures, statistical
z-scores) and the spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import Recorder, ancestors, install, summarize

# One BLAS/OpenMP thread in this process and in every process it starts, set
# before numpy is imported. The host has few cores; threaded BLAS inside pool
# workers or beside them would oversubscribe them, and the timings would follow
# the scheduler and the other tenants rather than the program.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5
CHILD_NOTE = ("work that --workers moves into pool processes is not traced: it shows only "
              "as mc.children_cpu_s and as the parent's wait in the mc.pool span")


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_seconds(who=resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def process_cpu() -> float:
    return cpu_seconds() + cpu_seconds(resource.RUSAGE_CHILDREN)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def provenance(args) -> dict:
    import numpy
    import scipy

    return dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=os.cpu_count(), cpu_model=cpu_model(),
                python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__, blas_threads=BLAS_THREADS, git_rev=git_rev(),
                loadavg_at_start=os.getloadavg())


def time_setup(name: str, seed: int, out: Path) -> float:
    """Seconds from start to exit of a fresh interpreter that sets up `name`."""
    from workloads import cli_env

    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed),
                           str(out)], env=cli_env(), capture_output=True, text=True,
                          timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr[-800:]}")
    return elapsed


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(workload, rec=None, trace_dir: Path | None = None) -> dict:
    """Run every operation once; time, check and count it.

    `rec` records a ``bench.op`` span around each in-process operation;
    `trace_dir` asks CLI operations to write their spans there.
    """
    from workloads import CliResult

    done, stats, op_walls, op_cpu = {}, [], {}, {}
    reps = failed = nonzero = 0
    for op in workload.ops:
        trace_file = trace_dir / f"{op.name}.json" if trace_dir else None
        sid = rec.open("bench.op", op=op.name) if rec else None
        c0, t0 = process_cpu(), perf_counter()
        try:
            result = op.call(trace_file)
        except Exception:
            result = None
            print(f"operation {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        finally:
            op_walls[op.name] = perf_counter() - t0
            op_cpu[op.name] = process_cpu() - c0
            if sid is not None:
                rec.close(sid)
        if isinstance(result, CliResult) and result.returncode != 0:
            nonzero += 1
        try:
            if result is None:
                raise BenchError("no result")
            stats += op.check(result, done)
        except Exception as exc:
            failed += 1
            print(f"operation {op.name} failed its check: {exc}", file=sys.stderr)
            continue
        done[op.name] = result
        reps += op.reps
    return dict(wall=sum(op_walls.values()), reps=reps, attempted=len(workload.ops),
                failed=failed, exit_nonzero=nonzero, op_walls=op_walls, op_cpu=op_cpu,
                stats=[dict(check=label, z=z, k=k) for label, z, k in stats])


def traced_pass(workload, out: Path, index: int) -> dict:
    """A pass with the recorder installed (in-process workloads; the pass
    keeps its recorder) or with every CLI invocation run through the
    recording shim, which writes its spans when its process ends. Adds the
    pass's layer summary."""
    if workload.in_process:
        rec = Recorder()
        children0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        undo = install(rec)
        try:
            result = run_pass(workload, rec)
        finally:
            undo()
        summary = summarize(rec)
        summary["children_cpu_s"] = cpu_seconds(resource.RUSAGE_CHILDREN) - children0
        summary["cells"] = cell_times(rec, workload)
        summary["import_s"] = []
        return dict(result, summary=summary, recorder=rec)

    trace_dir = out / f"spans-pass{index}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    result = run_pass(workload, trace_dir=trace_dir)
    summary = dict(summarize(Recorder()), children_cpu_s=0.0, cells={}, import_s=[])
    for op in workload.ops:
        path = trace_dir / f"{op.name}.json"
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        for key, value in summarize(Recorder.from_json(doc["recorder"])).items():
            summary[key] += value
        summary["children_cpu_s"] += doc["children_cpu_s"]
        summary["import_s"].append(doc["import_s"])
    return dict(result, summary=summary)


def cell_times(rec, workload) -> dict[str, list[float]]:
    """(seconds, reps) per mc.cell metric, from the estimate spans that each
    operation's ``cells`` map names."""
    cells_of = {op.name: op.cells for op in workload.ops if op.cells}
    out: dict[str, list[float]] = {}
    for i, name in enumerate(rec.names):
        if "reps" not in rec.attrs.get(i, {}):
            continue
        op = next((rec.attrs[a]["op"] for a in ancestors(rec, i)
                   if rec.names[a] == "bench.op"), None)
        metric = cells_of.get(op, {}).get(name)
        if metric:
            seconds_reps = out.setdefault(metric, [0.0, 0])
            seconds_reps[0] += rec.ends[i] - rec.starts[i]
            seconds_reps[1] += rec.attrs[i]["reps"]
    return out


def run_passes(workload, seconds: float, traced: bool, out: Path,
               after_pass=lambda: None) -> list[dict]:
    """Closed loop of passes; with tracing, untraced and traced passes alternate.
    `after_pass` runs after each pass, outside its timing."""
    passes = []
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        if traced and len(passes) % 2 == 1:
            passes.append(traced_pass(workload, out, len(passes)))
        else:
            passes.append(run_pass(workload))
        longest = max(longest, perf_counter() - t0)
        after_pass()
        enough = len(passes) >= (2 if traced else 1)
        if enough and perf_counter() - start + longest > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def typical_pass(passes: list[dict], key: str) -> float:
    """A pass's total, taking each operation at its median over the passes.

    Interference from other tenants of the machine comes in bursts that slow
    some operations of some passes; the per-operation median drops them.
    """
    return sum(median(p[key][op] for p in passes) for op in passes[0][key])


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall = typical_pass(passes, "op_walls")
    return {
        "wall_s": wall,
        "reps_per_s": median(p["reps"] for p in passes) / wall,
        "cpu_s": typical_pass(passes, "op_cpu"),
        "setup_s": median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }


CELLS = ("iid-informed", "iid-none", "equi-informed", "equi-none", "block-informed",
         "block-none", "simes-iid", "simes-block")


def per_layer(passes: list[dict]) -> dict[str, float]:
    """Medians over the traced passes; the tracing overhead compares them
    with the untraced passes of the same run."""
    from workloads import POOL_PAIRS

    traced = [p for p in passes if "summary" in p]
    untraced = [p for p in passes if "summary" not in p]

    def med(fn) -> float:
        return median(fn(p, p["summary"]) for p in traced)

    def per_rep(seconds: float, reps: int) -> float:
        return seconds * 1e6 / reps if reps else 0.0

    metrics = {}
    for layer in ("dependence", "procedures", "adversaries", "bounds"):
        metrics[f"{layer}.busy_s"] = med(lambda p, s: s[f"{layer}.busy_s"])
        metrics[f"{layer}.calls"] = med(lambda p, s: s[f"{layer}.calls"])
    for layer in ("dependence", "procedures"):
        metrics[f"{layer}.us_per_rep"] = med(lambda p, s: per_rep(s[f"{layer}.busy_s"],
                                                                  s["reps"]))
    metrics["mc.self_s"] = med(lambda p, s: s["mc.self_s"])
    metrics["mc.us_per_rep"] = med(lambda p, s: per_rep(s["mc.self_s"], s["reps"]))
    metrics["mc.seeds_per_rep"] = med(
        lambda p, s: s["derive_seed_calls"] / s["reps_in_process"] if s["reps_in_process"]
        else 0.0)
    metrics["mc.limit.us_per_rep"] = med(lambda p, s: per_rep(s["limit_s"], s["limit_reps"]))
    metrics["mc.pools_started"] = med(lambda p, s: s["pools_started"])
    metrics["mc.children_cpu_s"] = med(lambda p, s: s["children_cpu_s"])
    metrics["mc.pool_speedup"] = med(
        lambda p, s: next((p["op_walls"][one] / p["op_walls"][pooled]
                           for one, pooled in POOL_PAIRS if pooled in p["op_walls"]), 0.0))
    for cell in CELLS:
        key = f"mc.cell.{cell}.us_per_rep"
        metrics[key] = med(lambda p, s: per_rep(*s["cells"].get(key, (0.0, 0))))
    metrics["experiments.self_s"] = med(lambda p, s: s["experiments.self_s"])
    for key in ("estimate_calls", "reps_drawn", "write_s", "bytes_written"):
        metrics[f"experiments.{key}"] = med(lambda p, s: s[f"experiments.{key}"])
    metrics["cli.import_s"] = median(t for p in traced for t in p["summary"]["import_s"])
    metrics["cli.exit_nonzero"] = sum(p["exit_nonzero"] for p in passes)
    metrics["checks.stat_flags"] = max(sum(c["z"] > c["k"] for c in p["stats"])
                                       for p in passes)
    metrics["trace.wall_s"] = typical_pass(traced, "op_walls")
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                      / typical_pass(untraced, "op_walls") - 1.0)
    return metrics


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """Every metric BENCHMARK.json declares for this mode, with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json were not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fdrlink").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} holds no fdrlink source tree or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    record = provenance(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        setup: list[float] = []

        def probe() -> None:
            setup.append(time_setup(args.workload, args.seed, out / "setup"))

        probe()
        reps_per_rep = None
        if args.workload == "presets-cli":
            reps_per_rep = workloads.count_preset_reps(args.seed, out / "count")
        workload = workloads.build(args.workload, args.seed, out / "cli", 1.0, reps_per_rep)
        workload.warmup()
        if workload.in_process:
            # An untimed pass at a tenth of the size pays the first-pass costs
            # (allocator growth, first calls on each generator) that otherwise
            # slow the first timed pass.
            run_pass(workloads.build(args.workload, args.seed, out / "cli", 0.1))
        record["sizes"] = workload.sizes
        # One set-up probe follows each pass, so that the probes, like the
        # passes, sample the host's speed over the whole run.
        passes = run_passes(workload, args.seconds, bool(args.trace), out, probe)
        while len(setup) < SETUP_PROBES:
            probe()
        if args.trace:
            values = per_layer(passes)
            metrics = with_units(values, spec["per_layer"])
        else:
            values = end_to_end(passes, setup)
            metrics = with_units(values, spec["end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for i, p in enumerate(passes):
        if "recorder" in p:
            doc = p.pop("recorder").to_json()
            (out / f"spans-pass{i}.json").write_text(json.dumps(doc))
    record.update(setup_s=setup, passes=[{k: v for k, v in p.items() if k != "summary"}
                                         for p in passes],
                  failed_frac=failed / attempted, metrics=values,
                  note=CHILD_NOTE if args.trace else None)
    (out / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"nproc={record['nproc']} cpu={record['cpu_model']!r} git={record['git_rev']}")
    for stat in passes[0]["stats"]:
        flag = "FLAG" if stat["z"] > stat["k"] else "ok"
        print(f"# stat {flag:4s} z={stat['z']:+.2f} (k={stat['k']}) {stat['check']}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    if args.trace:
        print(f"# note: {CHILD_NOTE}")
    print(json.dumps(dict(correct=failed == 0, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
