"""Benchmark of the protoform reconstruction toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The seed only seeds ``synth.generate_tsv``: the program
sees just the generated corpus.  The run times ``SETUPS`` set-ups back to
back, then an untimed warm-up on small splits fills lazy caches and grows
the heap, which a real run pays once, not per epoch.  Then each repetition
is a set-up followed by one timed operation, closed loop in this one
process, repeated until the time budget is spent and at least twice.  Outputs are checked outside the timed region;
a failed check counts its units as failed and does not stop the run.

End-to-end metrics (``--trace 0``):

- ``sets_per_s``: cognate sets per second through the timed operation,
  median over repetitions.  On the train workloads, training-split sets
  over the whole ``train`` call, validation decode included; on
  ``evaluate``, test sets over the whole evaluate-baseline-probe sequence.
- ``setup_s``: median of the timed set-ups (corpus generation, parsing,
  split, vocabulary, model initialisation and checkpoint writing).
- ``peak_rss_mb``: peak resident memory of the process.

The error rate is ``failed / attempted`` from the result line, where a unit
is a train step, a decoded set or a baseline reconstruction.

``--trace 1`` traces every repetition and prints the per-layer metrics of
``tracing.PER_LAYER`` (medians over repetitions), including
``trace.sets_per_s``: the traced run's own throughput, which against
``sets_per_s`` of an untraced run gives the tracing overhead.  Work
counters must repeat exactly between repetitions.

Human-readable lines, including an environment block, go first; the last
line of standard output is one JSON object.  A full report and the raw
spans are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Timed set-ups, back to back at the start of the run as in a fresh CLI
# process.  After an operation the heap holds its freed memory, and set-up
# then runs ~40% faster or not, at random; so repetitions' set-ups are
# not timed.
SETUPS = 5

# Repetitions at least, so that every run checks byte-identity and, when
# tracing, that work counters repeat.
MIN_REPS = 2

END_TO_END = (("sets_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_program():
    """Import the package from this checkout's ``src/``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "protoform", "__init__.py")):
        raise SystemExit(f"perfbench: no protoform sources under {SRC}")
    sys.path.insert(0, SRC)
    import protoform
    if not os.path.abspath(protoform.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported protoform from {protoform.__file__}, not {SRC}")


def _read_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "protoform")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            path = os.path.join(base, f)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _blas():
    """(library description, thread count) of the BLAS numpy loaded."""
    np.dot(np.ones((2, 2)), np.ones((2, 2)))
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        if threads is not None:
            break
    return name, threads


def environment(workload) -> dict:
    blas, threads = _blas()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "dtype": workload.dtype,
        "commit": _read_commit(),
        "src_digest": _src_digest(),
        "machine": platform.machine(),
    }


def _failed_units(wl, st, out, refs: list) -> int:
    """Units of one operation that failed: all of them if it or its check
    raised, else those its check flags.  ``refs`` holds the fingerprint of
    the first repetition, which later ones must reproduce."""
    units = wl.units(st)
    if out is None:
        return units
    try:
        fingerprint, failed = wl.check(st, out, refs[0] if refs else None)
    except Exception:  # a check that cannot run fails its units; the run goes on
        print(traceback.format_exc(), file=sys.stderr)
        return units
    if not refs:
        refs.append(fingerprint)
    return min(units, failed)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str,
            workload=None) -> dict:
    """Run one workload for about ``seconds`` and return the full report."""
    import tracing
    import workloads as W

    wl = workload if workload is not None else W.WORKLOADS[name]
    dtype = W.E.default_dtype()
    W.E.set_default_dtype(wl.dtype)
    tracer = tracing.Tracer()
    if trace:
        tracer.install(tracing.sites())
    reps, refs, setup_s = [], [], []
    try:
        warm_dir = os.path.join(workdir, "warm-up")
        os.makedirs(warm_dir)
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl.setup(seed, warm_dir)
            setup_s.append(time.perf_counter() - t0)
        try:
            wl.warm_up(seed, warm_dir)
        except Exception:  # the repetitions below fail and count it
            print(traceback.format_exc(), file=sys.stderr)
        shutil.rmtree(warm_dir, ignore_errors=True)
        began = time.perf_counter()
        while True:
            rep_began = time.perf_counter()
            rep_dir = os.path.join(workdir, f"rep{len(reps)}")
            os.makedirs(rep_dir)
            tracer.on = trace
            lo = len(tracer)
            st = wl.setup(seed, rep_dir)
            t1 = time.perf_counter()
            mid = len(tracer)
            try:
                out = wl.run(st)
            except Exception:  # keep measuring; the failure is counted below
                out = None
                print(traceback.format_exc(), file=sys.stderr)
            t2 = time.perf_counter()
            tracer.on = False
            hi = len(tracer)

            rep = {"setup_s": t1 - rep_began, "op_s": t2 - t1, "sets": wl.sets(st),
                   "units": wl.units(st), "failed": _failed_units(wl, st, out, refs)}
            if trace:
                rep["layers"] = tracing.per_layer(tracer, (lo, mid), (mid, hi),
                                                  wl.steps(st), wl.step_scope)
            reps.append(rep)
            shutil.rmtree(rep_dir, ignore_errors=True)
            del st, out
            elapsed = time.perf_counter() - began
            if len(reps) >= MIN_REPS and elapsed + (t2 - rep_began) > seconds:
                break
    finally:
        tracer.on = False
        tracer.uninstall()
        W.E.set_default_dtype(np.dtype(dtype).name)

    attempted = sum(r["units"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    ok = [r for r in reps if r["failed"] < r["units"]]
    sets_per_s = statistics.median(r["sets"] / r["op_s"] for r in ok) if ok else 0.0
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "setup_s": setup_s, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "correct": failed == 0,
    }
    if not trace:
        report["metrics"] = {
            "sets_per_s": sets_per_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return report

    layers = {}
    for metric, _unit in tracing.PER_LAYER:
        if not metric.startswith("trace."):
            layers[metric] = statistics.median(r["layers"][metric] for r in ok) if ok else 0.0
    layers["trace.sets_per_s"] = sets_per_s
    layers["trace.absent_spans"] = len(tracer.absent)
    repeats = bool(ok) and all(r["layers"][c] == ok[0]["layers"][c]
                               for r in ok for c in tracing.COUNTERS)
    if not repeats:
        print("perfbench: work counters differ between repetitions", file=sys.stderr)
    report.update(metrics=layers, absent_spans=tracer.absent, counters_repeat=repeats,
                  correct=report["correct"] and repeats, spans=tracer.arrays())
    return report


def result_line(report: dict, units: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads as W
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")

    env = environment(W.WORKLOADS[args.workload])
    print("environment: " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"perfbench: BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs",
              file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"] = env

    stem = os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}")
    spans = report.pop("spans", None)
    if spans is not None:
        np.savez_compressed(stem + ".spans.npz", **spans)
    with open(stem + ".report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)

    units = dict(END_TO_END) | dict(tracing.PER_LAYER)
    print("setup " + " ".join(f"{t:.3f}" for t in report["setup_s"]) + " s")
    for r in report["repetitions"]:
        print(f"rep setup {r['setup_s']:.3f}s op {r['op_s']:.3f}s "
              f"sets {r['sets']} units {r['units']} failed {r['failed']}")
    print(f"error_rate {report['error_rate']:.6g} ({report['failed']}/{report['attempted']})")
    for k, v in report["metrics"].items():
        print(f"{k} {v:.6g} {units[k]}")
    if report.get("absent_spans"):
        print("absent spans: " + ", ".join(report["absent_spans"]))
    print(result_line(report, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
