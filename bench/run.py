"""fma-tv benchmark: time to verdict, checks per second and set-up time.

    python3 bench/run.py --workload canonical --seed 1 --seconds 30 --trace 0

Run from the repository root.  With `--trace 0` the run measures the
end-to-end metrics: it repeats one fresh-process `python -m fma_tv validate`
(seeded with `--seed`) for about `--seconds` seconds, one process at a time,
interleaved with set-up probes; it reports the slowest run for the times
and the median for set-up and memory (see ESTIMATORS).  With `--trace 1` it
runs the same validate in this process, alternating untraced and traced
runs, and reports per-layer metrics from spans recorded around the calls
into each module (see `tracing.py`).

Every run also checks the outputs: each validate verdict against its known
answer, the three criterion-6 mutants, both blocks' returns against the
exact-rational oracles, the worst sample against the exact bound, and that
every report of the run is identical modulo `timing`.  The last stdout line
is one JSON object; the exit code is 1 if any check failed and 2 if the
repository is not there to measure.  Metric names and units are read from
BENCHMARK.json.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_work")  # relative to ROOT, so report paths are the same in every checkout
REQUIRED = (
    "BENCHMARK.json",
    "src/fma_tv/cli.py",
    "tests/oracles.py",
    "testdata/fma.ll",
    "testdata/non_fma.ll",
    "testdata/alignment.json",
)
WORKLOADS = ("canonical", "full_range", "dot8")
SETUP_PROBES = 5
# set-up probes take about this share of each measuring step, so long
# validate runs still leave a median over many probes
PROBE_SHARE = 0.1
CHILD_TIMEOUT_S = 150
RSS_POLL_S = 0.01
# span time and the program's own clock must agree this closely (share)
RECONCILE_TOLERANCE = 0.02
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
try:
    import checks
    import tracing
    import workloads
    from fma_tv import cli, fp_semantics
except ImportError as exc:  # run outside a checkout: reported by main
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None

# ROADMAP item 1's baseline for the canonical pair, µs per sample
ROADMAP_BASELINE_US = {
    "sample": 5.4,
    "interp original": 27.3,
    "interp optimized": 23.4,
    "both bounds": 4.3,
    "whole check": 72.3,
    "cmd_validate": 91.0,
}


@dataclass
class Tally:
    """Known-answer bookkeeping: checks attempted, checks failed, and why."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, problems: list[str], weight: int = 1) -> None:
        """Record `weight` checks; each problem message fails one, at most all of them."""
        self.attempted += weight
        self.failed += min(len(problems), weight)
        self.failures.extend(problems)


@dataclass
class Child:
    spawned_at: float
    wall_s: float
    exit_code: int | None  # None: killed after CHILD_TIMEOUT_S
    peak_rss_mb: float  # 0 unless watched
    log: Path


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (VmHWM), 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except (OSError, ValueError):
        pass
    return 0.0


def run_child(args: list[str], log: Path, watch_rss: bool = False) -> Child:
    """Run `python args` to completion with src on the path, and time it.

    With `watch_rss` the child's VmHWM is sampled every RSS_POLL_S until it
    exits.  The rusage maxrss of a spawned child is no use here: Linux
    carries this process's own peak into the child until it execs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log, "wb") as fh:
        actions = [(os.POSIX_SPAWN_DUP2, fh.fileno(), 1), (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    peak = 0.0
    reaped = timed_out = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            poll = RSS_POLL_S if watch_rss else CHILD_TIMEOUT_S
            while not select.select([pidfd], [], [], poll)[0]:
                if watch_rss:
                    peak = max(peak, _vm_hwm_mb(pid))
                if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                    os.kill(pid, signal.SIGKILL)
                    timed_out = True
                    break
        finally:
            os.close(pidfd)
        _, status = os.waitpid(pid, 0)
        wall = time.perf_counter() - t0
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return Child(t0, wall, code, peak, log)


def read_report(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


# ---------------------------------------------------------------------------
# End-to-end: fresh processes, tracing off


def probe_setup(wl, tally: Tally) -> dict:
    child = run_child([str(BENCH / "probe.py"), wl.original, wl.optimized, wl.alignment], WORK / "probe.log")
    try:
        probe = json.loads(child.log.read_text().splitlines()[-1])
    except (IndexError, ValueError):
        probe = None
    ok = child.exit_code == 0 and probe is not None
    tally.check([] if ok else [f"set-up probe exited {child.exit_code}: {child.log.read_text()[-300:]}"])
    if not ok:
        return {}
    return {"setup_s": probe["ready"] - child.spawned_at,
            "in_call_s": probe["parse_s"] + probe["alignment_s"] + probe["checker_init_s"],
            **probe}


# How each end-to-end series is reduced to one value.  The 2-core box this
# was tuned on is shared: its speed switches between two states about 1.8x
# apart, each lasting seconds to minutes, so a window's median or best run
# moves with how much of it was fast.  Nearly every window holds some slow
# time, so the slowest run is the steadiest figure: validate_s is the
# longest fresh-process time to verdict of the window and checks_per_s the
# lowest per-run throughput.  Set-up time and memory report the median.
ESTIMATORS = {
    "validate_s": ("slowest", max),
    "checks_per_s": ("slowest", min),
    "setup_s": ("median", statistics.median),
    "peak_rss_mb": ("median", statistics.median),
}


def measure_end_to_end(wl, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    report = WORK / "report.json"
    args = ["-m", "fma_tv", *wl.validate_args(seed, str(report))]
    probe_setup(wl, Tally())  # warm-up: bytecode and page caches, which users do not pay per run
    probes, runs, first_doc, digest = [], [], {}, None
    per_step = 1
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        probes.extend(probe_setup(wl, tally) for _ in range(per_step))
        probe_s = (time.perf_counter() - began) / per_step
        report.unlink(missing_ok=True)
        child = run_child(args, WORK / "validate.log", watch_rss=True)
        doc = read_report(report)
        tally.check([f"validate run {len(runs)}: {p}" for p in checks.known_answer(wl, doc, child.exit_code)])
        this = checks.report_digest(doc)
        tally.check([] if digest in (None, this) else [f"validate run {len(runs)}: report digest {this} != {digest}"])
        digest = digest or this
        first_doc = first_doc or doc
        runs.append((child, doc))
        per_step = max(1, round(PROBE_SHARE * child.wall_s / probe_s))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(wl, tally))

    probes = [p for p in probes if p]
    good = [(c, d) for c, d in runs if d.get("timing")]
    in_call = statistics.median(p["in_call_s"] for p in probes) if probes else 0.0
    series = {
        "validate_s": [c.wall_s for c, _ in runs],
        "checks_per_s": [d["samples_run"]["total"] / (d["timing"]["seconds"] - in_call) for _, d in good],
        "setup_s": [p["setup_s"] for p in probes],
        "peak_rss_mb": [c.peak_rss_mb for c, _ in runs],
    }
    print(f"{len(runs)} fresh-process validate runs of {wl.samples + wl.corpus} checks, "
          f"{len(probes)} set-up probes; report digest {digest}")
    for phase in ("import_s", "parse_s", "alignment_s", "checker_init_s"):
        print(f"  set-up phase {phase:<16} median {statistics.median(p[phase] for p in probes):.6f} s")
    metrics = {}
    for name, values in series.items():
        if not values:
            continue
        how, reduce = ESTIMATORS[name]
        metrics[name] = reduce(values)
        print(f"  {name:<13} {how} {metrics[name]:.6g}  median {statistics.median(values):.6g}  "
              f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")
    return metrics, first_doc


# ---------------------------------------------------------------------------
# Per-layer: in-process, traced and untraced runs alternating


def run_in_process(args: list[str], report: Path) -> tuple[int | None, dict, float]:
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
        ended = time.perf_counter()
    return code, read_report(report), ended


def measure_layers(wl, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    report = WORK / "report.json"
    args = wl.validate_args(seed, str(report))
    tracer = tracing.Tracer()
    untraced, traced = [], []
    post_render = 0.0  # report write and summary line, after Report.render returns
    digest = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        code, doc, _ = run_in_process(args, report)
        untraced.append(doc)
        with tracer.install():
            code_t, doc_t, ended = run_in_process(args, report)
        traced.append(doc_t)
        post_render += ended - tracer.render_end
        for tag, c, d in (("untraced", code, doc), ("traced", code_t, doc_t)):
            tally.check([f"{tag} run {len(traced)}: {p}" for p in checks.known_answer(wl, d, c)])
            this = checks.report_digest(d)
            tally.check([] if digest in (None, this) else [f"{tag} run {len(traced)}: report digest differs"])
            digest = digest or this
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    if tracer.missing:
        print(f"trace targets not found (their layers read 0): {', '.join(tracer.missing)}")

    stat = tracer.stat

    def per_call(name: str) -> float:
        return stat(name).total / stat(name).calls if stat(name).calls else 0.0

    runs = len(traced)
    checks_run = sum(d.get("samples_run", {}).get("total", 0) for d in traced)
    counts = traced[-1].get("counts", {})
    total = traced[-1].get("samples_run", {}).get("total", 0) or 1
    loop_self = stat("cli.validate").self_time - post_render
    bound_calls = stat("error_model.derived_bound").calls + stat("error_model.paper_bound").calls
    timing_u = statistics.median(d["timing"]["seconds"] for d in untraced if d.get("timing"))
    timing_t = statistics.median(d["timing"]["seconds"] for d in traced if d.get("timing"))
    instrs = sum(
        stat(f"denotation.interp_{tag}").calls * len(block.body.blk_code)
        for tag, block in tracer.blocks.items()
    )
    metrics = {
        "cli.sample_us": per_call("cli.sample_tuple") * 1e6,
        "cli.loop_self_us": loop_self / checks_run * 1e6,
        "cli.report_ms": (stat("cli.report_render").total + post_render) / runs * 1e3,
        "ir_core.parse_ms": stat("ir_core.parse_module").total / runs * 1e3,
        "refinement.checker_init_ms": stat("refinement.checker_init").total / runs * 1e3,
        "refinement.check_us": per_call("refinement.check") * 1e6,
        "refinement.check_self_us": stat("refinement.check").self_time / checks_run * 1e6,
        "refinement.verdict_json_calls": stat("refinement.verdict_to_json").calls / runs,
        "denotation.interp_original_us": per_call("denotation.interp_original") * 1e6,
        "denotation.interp_optimized_us": per_call("denotation.interp_optimized") * 1e6,
        "denotation.instrs_per_check": instrs / checks_run,
        "error_model.compile_ms": stat("error_model.compile").total / runs * 1e3,
        "error_model.derived_bound_us": per_call("error_model.derived_bound") * 1e6,
        "error_model.paper_bound_us": per_call("error_model.paper_bound") * 1e6,
        "error_model.exact_share": stat("error_model.exact_eval").calls / bound_calls if bound_calls else 0.0,
        "fp_semantics.fma_us": per_call("fp_semantics.b64_fma") * 1e6,
        "fp_semantics.fma_calls_per_check": stat("fp_semantics.b64_fma").calls / checks_run,
        "report.nonzero_diff_share": counts.get("nonzero_diff", 0) / total,
        "report.vacuous_share": counts.get("vacuous_pass", 0) / total,
        "report.paper_discrepancies": traced[-1].get("paper_formula_discrepancies", 0),
        "trace.overhead_pct": (timing_t / timing_u - 1.0) * 100.0,
    }

    # Self time per module inside the sampling loop (set-up and report excluded).
    layers = {
        "cli": stat("cli.sample_tuple").self_time + stat("cli.corpus_tuples").self_time + loop_self,
        "refinement": stat("refinement.check").self_time + stat("refinement.verdict_to_json").self_time,
        "denotation": stat("denotation.interp_original").self_time + stat("denotation.interp_optimized").self_time,
        "error_model": sum(stat(n).self_time for n in (
            "error_model.derived_bound", "error_model.paper_bound", "error_model.exact_eval")),
        "fp_semantics": stat("fp_semantics.b64_fma").self_time,
    }
    loop = sum(layers.values())
    print(f"{runs} traced + {runs} untraced in-process runs of {total} checks; "
          f"untraced {timing_u / total * 1e6:.2f} us/check, traced {timing_t / total * 1e6:.2f} us/check")
    print("self time per layer in the sampling loop:")
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<13} {t / checks_run * 1e6:9.2f} us/check  {t / loop * 100:5.1f}%")
    print(f"  exact-fallback bound calls per run: {stat('error_model.exact_eval').calls / runs:g} "
          f"of {bound_calls / runs:g}, with {wl.samples} random samples and {wl.corpus} corpus entries")

    # Reconciliation: the span tree must account for the program's own clock
    # (timing.seconds runs from cmd_validate entry to the report write) and
    # see exactly one check per reported check.
    spans_pre_render = sum(s.self_time for n, s in tracer.stats.items() if n != "cli.report_render") - post_render
    program = sum(d["timing"]["seconds"] for d in traced if d.get("timing"))
    gap = spans_pre_render / program - 1.0 if program else float("inf")
    problems = []
    if abs(gap) > RECONCILE_TOLERANCE:
        problems.append(f"trace reconciliation: spans {spans_pre_render:.6f} s vs report timing {program:.6f} s")
    if stat("refinement.check").calls != checks_run:
        problems.append(f"trace reconciliation: {stat('refinement.check').calls} checks traced, {checks_run} reported")
    tally.check(problems)
    print(f"reconciliation: span self times {spans_pre_render:.6f} s vs report timing {program:.6f} s "
          f"({gap * 100:+.3f}%, tolerance {RECONCILE_TOLERANCE * 100:.0f}%); "
          f"{stat('refinement.check').calls} checks traced, {checks_run} reported")

    if wl.name == "canonical":
        measured = {
            "sample": metrics["cli.sample_us"],
            "interp original": metrics["denotation.interp_original_us"],
            "interp optimized": metrics["denotation.interp_optimized_us"],
            "both bounds": (stat("error_model.derived_bound").total + stat("error_model.paper_bound").total)
            / checks_run * 1e6,
            "whole check": metrics["refinement.check_us"],
            "cmd_validate": timing_u / total * 1e6,
        }
        print("canonical vs ROADMAP item 1 baseline (us/sample; all but cmd_validate traced):")
        for name, base in ROADMAP_BASELINE_US.items():
            print(f"  {name:<17} {measured[name]:8.2f}  baseline {base:6.1f}  ratio {measured[name] / base:.2f}")
    return metrics, traced[0]


# ---------------------------------------------------------------------------
# Provenance


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def fma_implementation() -> dict:
    """Which fma `b64_fma` dispatches to, read from outside, and its cost per call."""
    fp = fp_semantics
    impl = getattr(fp, "_FMA_IMPL", None)
    if impl is not None and impl is getattr(fp, "_LIBM_FMA", None):
        name = "libm"
    elif impl is not None and impl is getattr(fp, "_fma_exact", None):
        name = "exact fallback"
    else:
        name = "unknown"
    triple = (0.1, 0.2, 0.3)
    n = 5_000
    t0 = time.perf_counter()
    for _ in range(n):
        fp.b64_fma(*triple)
    return {"fma": name, "fma_us_per_call": (time.perf_counter() - t0) / n * 1e6}


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing or IMPORT_ERROR is not None:
        print(f"error: not a fma-tv checkout: missing {', '.join(missing) or IMPORT_ERROR}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    load_start = os.getloadavg()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        wl = workloads.make_workloads(WORK)[opts.workload]
        tally = Tally()
        tally.check(checks.mutants(WORK, opts.seed), weight=3)
        n_oracle, problems = checks.oracle_results(wl, opts.seed)
        tally.check(problems, weight=n_oracle)
        measure = measure_layers if opts.trace else measure_end_to_end
        metrics, doc = measure(wl, opts.seed, opts.seconds, tally)
        tally.check(checks.worst_sample(wl, doc))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "commit": git_commit(),
        **fma_implementation(),
    }
    print("provenance: " + json.dumps(provenance))
    for f in tally.failures[:20]:
        print(f"FAILED: {f}")
    failed = tally.failed
    print(f"failed_share {failed / tally.attempted:.6g} ({failed} of {tally.attempted} checks and runs)")
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: metrics not measured: {', '.join(absent)}", file=sys.stderr)
        return 1
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, r in result.items():
        print(f"{opts.workload} {name} = {r['value']:.6g} {r['unit']}")
    print(json.dumps({"correct": not failed, "attempted": tally.attempted, "failed": failed, "metrics": result}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
