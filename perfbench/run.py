#!/usr/bin/env python3
"""Benchmark of the lastsquares package, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --self-check

A run builds the workload's inputs from the seed, runs one warm-up pass
and then whole passes until --seconds have gone by, checks the outputs,
and prints one JSON object as its last line of output: `correct`,
`attempted` and `failed` operations, and the metrics. With --trace 0
these are the end-to-end metrics, with --trace 1 the per-layer metrics,
read from spans of traced passes that alternate with untraced ones.
See perfbench/README.md for the workloads and what each metric means.
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
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def use_source() -> None:
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "lastsquares" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'lastsquares'}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lastsquares

    if Path(lastsquares.__file__).resolve().parent != SRC / "lastsquares":
        sys.exit(f"error: lastsquares was imported from {lastsquares.__file__}, not {SRC}")


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# Set-up: fresh interpreters that import the package, build the command
# line parser and build the workload's inputs, then report the times.
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    use_source()
    from lastsquares import cli

    cli.build_parser()
    t_parser = time.monotonic_ns()
    import workloads

    workloads.WORKLOADS[workload].build(seed)
    print(json.dumps([t_parser, time.monotonic_ns()]))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(parser ready, inputs ready) in seconds after each probe started."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               workload, "--seed", str(seed)],
                              capture_output=True, text=True, check=True)
        t_parser, t_inputs = json.loads(proc.stdout.splitlines()[-1])
        out.append(((t_parser - t0) / 1e9, (t_inputs - t0) / 1e9))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics, from the span totals of one traced pass.
# ---------------------------------------------------------------------------

MAPS = ["board_to_domino", "domino_to_board", "domino_to_square", "square_to_domino", "conjugate"]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(totals: dict, gauges: dict) -> dict[str, tuple[float, str]]:
    def s(name):
        return totals.get(name, (0, 0, 0))[1] / 1e9

    def n(name):
        return totals.get(name, (0, 0, 0))[0]

    def work(name):
        return totals.get(name, (0, 0, 0))[2]

    j1 = s("enumeration.count_j1") + s("enumeration.list_j1")
    j2 = s("enumeration.count_j2") + s("enumeration.list_j2")
    m = {
        "formulas.eval_s": (s("formulas.eval"), "s"),
        "formulas.evals": (n("formulas.eval"), "count"),
        "formulas.aux_s": (s("formulas.aux"), "s"),
        "formulas.binom_cache_entries": (gauges.get("formulas.binom_cache_entries", 0), "count"),
        "enumeration.count_s": (s("enumeration.count"), "s"),
        "enumeration.count_members": (work("enumeration.count"), "count"),
        "enumeration.count_members_per_s": (ratio(work("enumeration.count"), s("enumeration.count")), "1/s"),
        "enumeration.stratify_s": (s("enumeration.stratify"), "s"),
        "enumeration.list_s": (s("enumeration.list"), "s"),
        "enumeration.listed": (work("enumeration.list"), "count"),
        "enumeration.count_j2_s": (s("enumeration.count_j2"), "s"),
        "enumeration.list_j2_s": (s("enumeration.list_j2"), "s"),
        "enumeration.count_j1_s": (s("enumeration.count_j1"), "s"),
        "enumeration.list_j1_s": (s("enumeration.list_j1"), "s"),
        "enumeration.j2_speedup": (ratio(j1, j2), "x"),
        "enumeration.count_j2_speedup": (ratio(s("enumeration.count_j1"), s("enumeration.count_j2")), "x"),
        "enumeration.list_j2_speedup": (ratio(s("enumeration.list_j1"), s("enumeration.list_j2")), "x"),
        "bijections.marked_boards_s": (s("bijections.marked_boards"), "s"),
        "bijections.maps": (sum(n("bijections." + k) for k in MAPS), "count"),
        "arrangements.decode_s": (s("arrangements.decode"), "s"),
        "arrangements.encode_s": (s("arrangements.encode"), "s"),
        "verify.theorem_s": (s("verify.theorem"), "s"),
        "verify.lemma_s": (s("verify.lemma"), "s"),
        "verify.strata_s": (s("verify.strata"), "s"),
        "verify.auxiliary_s": (s("verify.auxiliary"), "s"),
        "verify.serialize_s": (s("verify.serialize"), "s"),
        "verify.reports": (n("verify.serialize"), "count"),
        "cli.main_s": (s("cli.main"), "s"),
        "cli.output_bytes": (gauges.get("cli.output_bytes", 0), "bytes"),
    }
    for k in MAPS:
        m[f"bijections.{k}_s"] = (s("bijections." + k), "s")
    return m


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def machine() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        revision = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:
        revision = "unknown"
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"revision": revision, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": model}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    use_source()
    import reference
    import workloads
    from spans import Tracer

    reference.self_test()
    w = workloads.WORKLOADS[workload]
    inp = w.build(seed)
    ops = w.ops(inp)
    RESULTS.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    samples = {"wall": [], "cpu": [], "traced_wall": []}
    layer_passes = []
    first = None
    same = extra_ok = True

    def one_pass(pass_id: int, tr, timed: bool = True) -> None:
        """Run and time one pass; a pass that raises counts all its operations failed."""
        nonlocal attempted, failed, first, same, extra_ok
        if tr is not None:
            tr.begin_pass(pass_id)
            root = tr.open()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        out = None
        try:
            out = w.run(inp, tr)
        except Exception:
            traceback.print_exc()
            failed += ops
        finally:
            if tr is not None:
                tr.close(root, "pass")
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        attempted += ops
        if out is not None:
            if first is None:
                first = out
            same = same and out == first
        if not timed:
            return
        if tr is None:
            samples["wall"].append(wall)
            samples["cpu"].append(cpu)
        else:
            samples["traced_wall"].append(wall)
            try:
                w.traced_extra(inp, tr)
            except Exception:  # its outputs are checked as it runs
                traceback.print_exc()
                extra_ok = False
            layer_passes.append(layer_metrics(tr.totals(), tr.gauges))

    one_pass(0, None, timed=False)  # warm-up
    deadline = time.perf_counter() + seconds
    pass_id = 1
    while time.perf_counter() < deadline or not samples["wall"] or (trace and not layer_passes):
        one_pass(pass_id, tracer if trace and pass_id % 2 == 0 else None)
        pass_id += 1

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kib = kids if w.rss_of_children else max(own, kids)
    setup = measure_setup(workload, seed)

    correct = same and extra_ok and first is not None
    if not same:
        print("check failed: a pass gave other outputs than the first", file=sys.stderr)
    if first is not None:
        try:
            w.check(inp, first)
        except Exception:  # a malformed output fails its check as well
            traceback.print_exc()
            correct = False

    med = statistics.median
    if not trace:
        metrics = {
            "wall_s": med(samples["wall"]),
            "cpu_s": med(samples["cpu"]),
            "peak_rss_mib": peak_kib / 1024,
            "setup_s": med(t for _, t in setup),
        }
        units = END_TO_END
    else:
        metrics = {k: med(p[k][0] for p in layer_passes) for k in layer_passes[0]}
        units = {k: u for k, (_, u) in layer_passes[0].items()}
        overhead = med(samples["traced_wall"]) - med(samples["wall"])
        metrics.update({"cli.startup_s": med(t for t, _ in setup), "trace.overhead_s": overhead,
                        "trace.overhead_pct": 100 * overhead / med(samples["wall"])})
        units.update({"cli.startup_s": "s", "trace.overhead_s": "s", "trace.overhead_pct": "%"})
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            **machine(), "passes": len(samples["wall"]), "traced_passes": len(samples["traced_wall"]),
            "samples": samples, "setup": setup}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"run": info, "result": result}) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"trace-{workload}-seed{seed}.jsonl", info)
    print(json.dumps({"run": {k: v for k, v in info.items() if k != "samples"}}))
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """One small pass of every workload, untraced and traced, fully checked."""
    use_source()
    import reference
    import workloads
    from spans import Tracer

    reference.self_test()
    print("self-check reference: ok")
    RESULTS.mkdir(exist_ok=True)
    bad = 0
    for name, w in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        try:
            inp = w.build(1, "small")
            out = w.run(inp, None)
            w.check(inp, out)
            tr = Tracer()
            tr.begin_pass(1)
            workloads.expect(w.run(inp, tr) == out, "the traced pass gave other outputs")
            w.traced_extra(inp, tr)
            layers = layer_metrics(tr.totals(), tr.gauges)
            workloads.expect(all(v >= 0 for v, _ in layers.values()), "negative layer metric")
            busy = sorted(k for k, (v, _) in layers.items() if v)
            print(f"self-check {name}: ok in {time.perf_counter() - t0:.2f} s; layers seen: {', '.join(busy)}")
        except Exception:
            traceback.print_exc()
            print(f"self-check {name}: FAILED")
            bad += 1
    return 1 if bad else 0


def main() -> int:
    if sys.argv[1:2] == ["--trace-child"]:
        use_source()
        import workloads

        return workloads.verify_trace_child(sys.argv[2], sys.argv[4:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["verify", "census", "roundtrip"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true", help="a short pass of every workload")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
