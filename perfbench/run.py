#!/usr/bin/env python3
"""Benchmark entry point: seeded, closed-loop workloads over the octformer CLI/API.

One caller runs ops back to back; the next op starts when the previous one
returns. Usage, from the repository root:

    python3 perfbench/run.py --workload segment-60k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0            # every workload, one table
    python3 perfbench/run.py --workload train-toy --seed 3 --record-reference

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run plus the tracing overhead. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with the machine record goes to
``perfbench/out/``. See ``perfbench/README.md`` for the metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: with two, a single busy process on the other core made
# train-toy ops 75% slower, while one thread costs the wide-channel
# workloads about 10% on an idle machine.
BLAS_THREADS = 1
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the host's speed


def pin_blas_threads() -> None:
    """BLAS reads these once, when numpy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import octformer from this checkout's ``src/``, and the benchmark package."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "octformer", "__init__.py")):
        sys.exit(f"perfbench: no octformer package under {src}")
    sys.path[:0] = [src, ROOT]
    import octformer

    if not os.path.abspath(octformer.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported octformer from {octformer.__file__}, not {src}")
    from perfbench import tracing, workloads

    return tracing, workloads


PROGRAM_IMPORTS = ("import octformer.cli, octformer.network, octformer.partition, "
                   "octformer.pointcloud, octformer.synthetic")


def time_setup(workload, timings: dict) -> None:
    """Set-up samples: fresh interpreters that each import the program, then
    set-ups of the workload (the last one leaves it ready to run)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROGRAM_IMPORTS], env=env, check=True)
        timings["import_s"].append(time.perf_counter() - t0)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        timings["setup_s"].append(time.perf_counter() - t0)
        timings["generate_s"].append(workload.generate_s)


def machine_record(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    return {"nproc": NPROC, "cpu": cpu, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": platform.python_version(), "workload_seed": seed}


def run_ops(workload, seconds: float, tracer=None):
    """Closed loop for about ``seconds``: returns [(op seconds or None, problems, summary)].

    Another op starts only if it is expected to end less than half an op
    past ``seconds``, so the timed phase is the whole number of ops nearest
    to ``seconds`` (at least one); a 35 s op with ``seconds`` at 30 runs once,
    not twice.
    """
    records = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_op(workload.root_span)
        t0 = time.perf_counter()
        try:
            out = workload.op()
            elapsed = time.perf_counter() - t0
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, elapsed, summary = None, None, {}
            problems = [f"op raised {type(e).__name__}: {e}"]
        finally:
            if tracer is not None:
                tracer.end_op()
        if elapsed is not None:
            problems = workload.check(out)
            summary = workload.summary(out)
        out = None  # the next op must not share peak memory with this output
        records.append((elapsed, problems, summary))
        so_far = time.perf_counter() - start
        if so_far + 0.5 * so_far / len(records) >= seconds:
            return records


def guarded(fn) -> list[str]:
    """Run a once-per-run step; an exception becomes one problem."""
    try:
        return fn() or []
    except Exception as e:  # reported as a failed attempt
        return [f"{getattr(fn, '__name__', 'step')} raised {type(e).__name__}: {e}"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tracing, workloads = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        timings = {"import_s": [], "setup_s": [], "generate_s": []}
        time_setup(workload, timings)

        # once per run: the 64-bit dense-oracle check, then warm-up
        checks = [guarded(lambda: workloads.attention_oracle_check(seed)),
                  guarded(workload.warmup)]
        if trace:
            untraced = run_ops(workload, 0.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                timed = run_ops(workload, seconds, tracer)
                # peaks come from one more op with allocation tracing on,
                # which would otherwise distort the timed ops; it is skipped
                # when it could not finish within the run limit
                slowest = max((r[0] for r in timed if r[0] is not None), default=0.0)
                memory_op = []
                if time.perf_counter() - _START + 1.5 * slowest < RUN_LIMIT_S:
                    tracer.memory = True
                    memory_op = run_ops(workload, 0.0, tracer)
            finally:
                tracer.uninstall()
            records = untraced + timed + memory_op
        else:
            records = run_ops(workload, seconds)
            timed = records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for c in checks for p in c] + [p for r in records for p in r[1]]
    attempted = len(records) + len(checks)
    failed = sum(1 for c in checks if c) + sum(1 for r in records if r[1])
    times = [r[0] for r in timed if r[0] is not None]
    summary = next((r[2] for r in reversed(records) if r[0] is not None), {})
    result = {
        "machine": machine_record(seed),
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "op_count": len(timed), "attempted": attempted, "failed": failed,
        "problems": problems[:20], "op_times_s": times,
        "setup_timings": timings,
        "work_unit": workload.work_unit, "work_per_op": workload.work_per_op,
        "summary": summary,
    }
    if trace:
        ok_ops = [i for i, r in enumerate(timed) if r[0] is not None]
        per_op = [tracer.op_layer_metrics(i) for i in ok_ops]
        layer = tracing.median_metrics(per_op) if per_op else {}
        result["memory_op"] = "skipped: run limit" if not memory_op else "ran"
        if memory_op and memory_op[0][0] is not None:
            peaks = tracer.op_layer_metrics(len(timed))
            layer.update({k: v for k, v in peaks.items() if k.endswith(".peak_mb")})
            ok_ops.append(len(timed))
        digests = sorted({tracer.structure_digest(i) for i in ok_ops})
        if len(digests) > 1:
            problems.append("structural counters differ between ops of one run")
            failed += 1
            result.update(failed=failed, problems=problems[:20])
        traced_p50 = statistics.median(times) if times else 0.0
        untraced_s = untraced[0][0] or 0.0
        layer["synthetic.generate_s"] = statistics.median(timings["generate_s"])
        layer["trace.op_p50_s"] = traced_p50
        layer["trace.untraced_op_s"] = untraced_s
        layer["trace.overhead_s"] = traced_p50 - untraced_s
        units = tracing.per_layer_units()
        result["metrics"] = {k: {"value": layer.get(k, 0.0), "unit": u}
                             for k, u in units.items()}
        result["structure_digest"] = digests
        result["structure"] = tracer.op_counters[0].structure() if ok_ops else {}
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
        tracer.dump(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        values = {
            "setup_s": (statistics.median(timings["import_s"])
                        + statistics.median(timings["setup_s"])),
            "op_p50_s": statistics.median(times) if times else 0.0,
            "work_per_s": (workload.work_per_op * len(times) / sum(times)
                           if times else 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in END_TO_END_UNITS.items()}
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return result


def report(result: dict) -> None:
    """Human-readable lines: every metric with its unit and the op count."""
    n = result["op_count"]
    unit = f"{result['work_unit']}/s"
    print(f"perfbench {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {n} timed ops, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        shown = unit if name == "work_per_s" else m["unit"]
        print(f"  {name:32s} {m['value']:.6g} {shown} (ops={n})")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':32s} {error_rate:.6g} failed/attempted "
          f"({result['failed']}/{result['attempted']})")
    for name, value in result["summary"].items():
        print(f"  {name:32s} {value:.6g} (ops={n})")
    if "structure_digest" in result:
        print(f"  structure digest {' '.join(result['structure_digest'])}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def final_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": result["metrics"]})


def record_reference(name: str, seed: int) -> None:
    """Run one op and store its reference values in ``reference.json``."""
    _, workloads = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.reference = None
        workload.setup()
        out = workload.op()
        problems = workload.check(out)
        if problems:
            sys.exit(f"perfbench: {name} seed {seed} fails its checks: {problems}")
        with open(workloads.REFERENCE_PATH) as f:
            refs = json.load(f)
        refs.setdefault(name, {})[str(seed)] = workload.reference_record(out)
        with open(workloads.REFERENCE_PATH, "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"recorded {name} seed {seed}")


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), one table."""
    rows = []
    for name in ("segment-60k", "train-toy", "attn-sweep"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(json.dumps({"correct": all(r["correct"] for r in rows),
                      "attempted": sum(r["attempted"] for r in rows),
                      "failed": sum(r["failed"] for r in rows)}))
    return 0


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("segment-60k", "train-toy", "attn-sweep"))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    if args.record_reference:
        record_reference(args.workload, args.seed)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
