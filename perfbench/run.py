"""The topolab benchmark.

    python3 perfbench/run.py --workload verify|query --seed N --seconds S --trace 0|1

Run from the root of a source checkout; topolab is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of one traced unit of work with --trace 1.
A fuller record (environment, failure reasons, output digest) is written to
.perfbench_out/results/.  The exit code is 0 only when every output was
checked correct.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("verify", "query")
SETUP_PROBES = 3        # fresh interpreters timed for setup_s before and again after the work
TAIL_BEYOND = 10        # op_tail_ms: the highest percentile with this many queries of a pass beyond it
VERIFY_SEEDS = 5        # verify seeds per run: the suites' cost depends on the seed
# op_tail_ms on verify: with five calls, the second slowest.  A few seeds
# cost much more than the rest (36 takes about 14 s and 87 about 12 s,
# against 7-10 s), so the slowest call would follow the seed draw, not the code.
VERIFY_TAIL_PERCENTILE = 80
VERIFY_TRACE_PAIRS = 3  # untraced and traced verify calls alternated in a traced run
RUN_SECONDS = 50.0      # BENCHMARK.json run_seconds
# Timings are reported at a fixed machine speed.  On the 2-core baseline
# machine one and the same pass of queries took from 11.9 to 19.7 s within
# half an hour, in CPU time as much as in wall time, so a run's timings are
# scaled by the time a fixed probe of pure-Python work takes during that run.
PROBE_REF_S = 0.030     # the probe's time at the reference speed; 16-34 ms on the baseline machine
PROBE_EVERY = 32        # queries between two probes
PROBE_INTERVAL_S = 0.5  # wall time between two probes during a verify call
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (the benchmark's own module, next to this file)


def import_topolab():
    """Import topolab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "topolab", "__init__.py")):
        raise SystemExit(f"perfbench: no topolab sources under {SRC}")
    sys.path.insert(0, SRC)
    import topolab

    if os.path.dirname(os.path.dirname(os.path.abspath(topolab.__file__))) != SRC:
        raise SystemExit(f"perfbench: topolab was imported from {topolab.__file__}")
    return topolab


def prepare(workload: str, seed: int, directory: str):
    """Everything a run needs before its timed work: the import, plus the
    generated documents and query list for the query workloads."""
    if workload == "verify":
        os.environ.pop("TOPOLAB_CAP", None)  # acceptance defaults
        topolab = import_topolab()
        return topolab.VerifyConfig(seed=seed)
    os.environ["TOPOLAB_CAP"] = workloads.QUERY_CAP
    import_topolab()
    return workloads.make_inputs(seed, directory)


def measure_setup(workload: str, seed: int, tag: str) -> list[float]:
    """Times, in SETUP_PROBES fresh interpreters, from process start until
    `prepare` has finished."""
    times = []
    for k in range(SETUP_PROBES):
        directory = os.path.join(OUT, "tmp", f"probe-{os.getpid()}-{tag}{k}")
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed), "--dir", directory],
                stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        shutil.rmtree(directory, ignore_errors=True)
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no code
    with topolab: bit masks, small frozensets, a dict and a sort.  The
    collector is off while it runs, so that the heap the program under test
    leaves behind does not change its cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for m in range(1 << 15):
            key = (bin(m).count("1"), m & 0x3F)
            counts[key] = counts.get(key, 0) + 1
            if m & (m >> 1) == 0:
                counts[key] += len(frozenset(i for i in range(15) if m >> i & 1))
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def speed_scale(probes: list[float]) -> float:
    """The factor that turns timings taken alongside `probes` into timings
    at the reference speed."""
    return PROBE_REF_S / statistics.fmean(probes)


# ---------------------------------------------------------------------------
# verify


def verify_child(seed: int, trace: bool, result_path: str, spans_path: str) -> int:
    """One `topolab.verify` at acceptance defaults in this fresh process."""
    config = prepare("verify", seed, "")
    import topolab

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # The probes run from a timer signal, between two bytecodes of the call,
    # so that they follow the machine through it; their own time is taken
    # out of the call's.  A traced call has none: they would land in spans.
    probes: list[float] = []
    if not trace:
        signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(speed_probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        report = topolab.verify(config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - sum(probes)
        if tracer is not None:
            tracer.uninstall()
    body = {
        "seconds": seconds,
        "probes": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report": report_dict(report),
    }
    if tracer is not None:
        body["layers"] = tracer.metrics()
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(body, handle)
    return 0


def report_dict(report) -> dict:
    cfg = report.config
    return {
        "ok": report.ok,
        "config": {"seed": cfg.seed, "samples": cfg.samples,
                   "categories": len(cfg.categories),
                   "universal_samples": cfg.universal_samples,
                   "closure_samples": cfg.closure_samples,
                   "rudin_instances": cfg.rudin_instances},
        "suites": [{"name": s.name, "passed": s.passed, "failed": s.failed,
                    "skipped": s.skipped, "notes": s.notes[:5]} for s in report.suites],
    }


def run_verify_child(seed: int, tag: str, spans_path: str = "") -> dict:
    """One verify call in a fresh interpreter, traced when given `spans_path`."""
    result_path = os.path.join(OUT, "tmp", f"verify-{os.getpid()}-{tag}.json")
    env = {k: v for k, v in os.environ.items() if k != "TOPOLAB_CAP"}
    subprocess.run([sys.executable, os.path.abspath(__file__), "--verify-child",
                    "--seed", str(seed), "--trace", str(int(bool(spans_path))),
                    "--result", result_path, "--spans", spans_path],
                   env=env, check=True, timeout=CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as handle:
        body = json.load(handle)
    os.remove(result_path)
    return body


def run_verify(seed: int, seconds: float, trace: bool) -> dict:
    """Fresh-process verify calls on VERIFY_SEEDS seeds derived from `seed`,
    in whole cycles over those seeds: one, and another while it is expected
    to end within `seconds`.  Each call's time is scaled by its own speed
    probes.  With tracing, VERIFY_TRACE_PAIRS untraced and traced calls
    alternate on the first seed, so that drift in machine speed cancels out
    of trace.overhead_s, a difference of unscaled medians."""
    seeds = [seed * VERIFY_SEEDS + k for k in range(VERIFY_SEEDS)]
    runs, traced = [], []
    if trace:
        spans_path = os.path.join(OUT, "traces", f"verify-seed{seed}.spans.tsv.gz")
        for k in range(VERIFY_TRACE_PAIRS):
            runs.append(run_verify_child(seeds[0], f"u{k}"))
            traced.append(run_verify_child(seeds[0], f"t{k}", spans_path))
    else:
        t_begin = time.perf_counter()
        cycles = 0
        while not cycles or (time.perf_counter() - t_begin) * (cycles + 1) / cycles <= seconds:
            runs += [run_verify_child(s, str(len(runs) + k)) for k, s in enumerate(seeds)]
            cycles += 1
    attempted = failed = 0
    reasons = []
    if any(b["report"] != runs[0]["report"] for b in traced):
        reasons.append("a traced verify report differs from the untraced one")
    for body in runs + traced:
        report = body["report"]
        attempted += sum(s["passed"] + s["failed"] + s["skipped"] for s in report["suites"])
        problems = workloads.verify_count_violations(report)
        failed += sum(s["failed"] for s in report["suites"]) + len(problems)
        reasons += problems
    # checker self-test: the same report with one check turned into a failure
    mutated = copy.deepcopy(runs[0]["report"])
    mutated["ok"] = False
    mutated["suites"][0]["passed"] -= 1
    mutated["suites"][0]["failed"] += 1
    if not workloads.verify_count_violations(mutated):
        reasons.append("self-test: a report with one failed check was not flagged")
    raw = [body["seconds"] for body in runs]
    scales = [speed_scale(body["probes"]) for body in runs]
    times = [t * k for t, k in zip(raw, scales)]
    result = {
        "attempted": attempted, "failed": failed, "reasons": reasons,
        "verify_seconds": raw, "speed_scales": scales,
        "speed_scale": speed_scale([p for body in runs for p in body["probes"]]),
        "raw": {"run_s": statistics.fmean(raw), "op_p50_ms": statistics.median(raw) * 1000,
                "op_tail_ms": percentile(sorted(raw), VERIFY_TAIL_PERCENTILE) * 1000},
        "metrics": {
            "run_s": (statistics.fmean(times), "s"),
            "op_p50_ms": (statistics.median(times) * 1000, "ms"),
            "op_tail_ms": (percentile(sorted(times), VERIFY_TAIL_PERCENTILE) * 1000, "ms"),
            # median over the calls: a few seeds (36 and 87 among them) peak
            # about 10 MB above the rest
            "peak_rss_mb": (statistics.median(b["maxrss_kb"] for b in runs) / 1024, "MB"),
        },
        "verify_seeds": seeds, "tail_percentile": VERIFY_TAIL_PERCENTILE, "latency_samples": len(times),
        "output_digest": workloads.digest(
            [json.dumps(b["report"], sort_keys=True).encode() for b in runs[:len(seeds)]]),
    }
    if trace:
        result["layers"] = {k: statistics.median(b["layers"][k] for b in traced)
                            for k in traced[0]["layers"]}
        result["layers"]["trace.overhead_s"] = (
            statistics.median(b["seconds"] for b in traced) - statistics.median(raw))
    return result


# ---------------------------------------------------------------------------
# query streams


def run_query(main, query) -> tuple[int, str, float]:
    """Exit code, captured stdout plus stderr, and latency of one CLI call.
    A call that raises counts as a failed query, not as a benchmark crash."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(query.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            traceback.print_exc()
    elapsed = time.perf_counter() - t0
    return code, out.getvalue() + err.getvalue(), elapsed


def run_queries(queries, seconds: float, tracer=None) -> dict:
    """The query stream, one client in a closed loop: passes over every query,
    in the same shuffled order, until `seconds` have passed (at least one
    whole pass), with a speed probe every PROBE_EVERY queries.  run_s is the
    query time per pass, the last, partial pass counted by the share of its
    queries that ran.  With a tracer, one pass in which each query runs
    untraced and then traced, and no probes: the per-layer metrics are not
    scaled."""
    from topolab import cli_io

    first: list = [None] * len(queries)  # each query's first output
    first_ok = [False] * len(queries)    # whether that output passed its check
    latencies: list[float] = []
    probes: list[float] = []
    attempted = failed = 0
    reasons: list[str] = []

    def check(i, code, out):
        nonlocal attempted, failed
        attempted += 1
        data = f"{code}\n{out}".encode()
        if first[i] is None:
            first[i] = data
            problem = workloads.check_query(queries[i], code, out)
            first_ok[i] = problem is None
        else:
            problem = None if data == first[i] else "output differs from the first pass"
        if problem:
            failed += 1
            if len(reasons) < 20:
                reasons.append(f"{' '.join(queries[i].argv)}: {problem}")

    result = {}
    if tracer is None:
        t_begin = time.perf_counter()
        while len(latencies) < len(queries) or time.perf_counter() - t_begin < seconds:
            if len(latencies) % PROBE_EVERY == 0:
                probes.append(speed_probe())
            i = len(latencies) % len(queries)
            code, out, elapsed = run_query(cli_io.main, queries[i])
            latencies.append(elapsed)
            check(i, code, out)
        passes = len(latencies) / len(queries)
        run_s = sum(latencies) / passes
    else:
        # Each query runs untraced and then traced straight after, so that
        # drift in machine speed cancels out of trace.overhead_s.
        traced_s = 0.0
        for i, query in enumerate(queries):
            code, out, elapsed = run_query(cli_io.main, query)
            latencies.append(elapsed)
            check(i, code, out)
            tracer.current_request = i
            tracer.install()
            try:
                code, out, elapsed = run_query(cli_io.main, query)
            finally:
                tracer.uninstall()
            traced_s += elapsed
            check(i, code, out)
        passes, run_s = 1, sum(latencies)
        result["layers"] = dict(tracer.metrics())
        result["layers"]["trace.overhead_s"] = traced_s - run_s

    # checker self-test: every correct first-pass output with one fact changed
    missed = sum(
        workloads.check_query(q, 0, workloads.mutate_output(q, data.decode().split("\n", 1)[1]))
        is None
        for q, data, ok in zip(queries, first, first_ok) if ok)
    if missed:
        reasons.append(f"self-test: {missed} corrupted outputs were not flagged")

    scale = speed_scale(probes) if probes else 1.0
    lat = sorted(latencies)
    tail_pct = tail_percentile(len(queries))
    raw = {"run_s": run_s, "op_p50_ms": statistics.median(lat) * 1000,
           "op_tail_ms": percentile(lat, tail_pct) * 1000}
    result.update({
        "passes": passes, "speed_scale": scale, "raw": raw,
        "attempted": attempted, "failed": failed, "reasons": reasons,
        "metrics": {
            "run_s": (raw["run_s"] * scale, "s"),
            "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
            "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "tail_percentile": tail_pct, "latency_samples": len(lat),
        "output_digest": workloads.digest(first),
    })
    return result


def tail_percentile(pass_size: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of a pass's
    queries beyond it.  It depends on the pass, not on how many passes fit
    in a run, so it does not shift as throughput changes."""
    return 100 - -(-100 * TAIL_BEYOND // pass_size)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


# ---------------------------------------------------------------------------
# environment and output


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "topolab"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "topolab", name), "rb") as handle:
                src.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": sys.version.split()[0], "commit": commit,
        "src_sha256": src.hexdigest(),
        "topolab_cap": os.environ.get("TOPOLAB_CAP"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="topolab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    parser.add_argument("--verify-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.verify_child:
        return verify_child(args.seed, bool(args.trace), args.result, args.spans)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        prepare(args.workload, args.seed, args.dir)
        print("ready", flush=True)
        return 0

    import_topolab()
    for sub in ("tmp", "traces", "results"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    # Probes before and after the timed work, so that the median spans two
    # moments of the machine's speed, not one.
    setup_times = measure_setup(args.workload, args.seed, "a")
    trace = bool(args.trace)
    if args.workload == "verify":
        result = run_verify(args.seed, args.seconds, trace)
    else:
        directory = os.path.join(OUT, "tmp", f"inputs-{os.getpid()}")
        try:
            queries = prepare(args.workload, args.seed, directory)
            tracer = None
            if trace:
                from tracing import Tracer

                tracer = Tracer()
            result = run_queries(queries, args.seconds, tracer)
            if tracer is not None:
                tracer.write(os.path.join(
                    OUT, "traces", f"{args.workload}-seed{args.seed}.spans.tsv.gz"))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    setup_times += measure_setup(args.workload, args.seed, "b")
    result["raw"]["setup_s"] = statistics.median(setup_times)
    result["metrics"]["setup_s"] = (result["raw"]["setup_s"] * result["speed_scale"], "s")
    result["setup_seconds"] = setup_times

    correct = result["failed"] == 0 and not result["reasons"]
    record = {
        "environment": environment(args.workload, args.seed, args.seconds, trace),
        "correct": correct,
        "failed_ratio": result["failed"] / result["attempted"],
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed}: attempted={result['attempted']} "
          f"failed={result['failed']} failed_ratio={record['failed_ratio']} "
          f"digest={result['output_digest'][:16]}")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")
    for key, (value, unit) in sorted(result["metrics"].items()):
        raw = f" (unscaled {result['raw'][key]:.6g})" if key in result["raw"] else ""
        print(f"  {key} = {value:.6g} {unit}{raw}")
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(result["layers"].items())}
        for key, body in metrics.items():
            print(f"  {key} = {body['value']:.6g} {body['unit']}")
    else:
        metrics = record["metrics"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
