"""qnlp benchmark: one command per workload, checked outputs, JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` measures the same work untraced and traced (see
``tracing.py``) and reports the per-layer metrics plus the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is the result object; the line before it holds
the machine facts.  ``correct`` is false when any output check failed.
"""

import time

_T0 = time.perf_counter()  # a set-up probe's clock starts at interpreter entry

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
SCRATCH = ROOT / ".bench_runs"
POOL_METRICS = (
    "experiment.cell_s_p50",
    "experiment.cell_s_p90",
    "experiment.cell_s_n",
    "experiment.pool_idle_frac",
    "experiment.resume_s",
    "experiment.report_s",
    "experiment.bytes_written",
)


def _workers() -> int:
    """Pool size for the sweep: the cores this process may run on, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _rounds(step, seconds: float) -> list[float]:
    """Repeat ``step`` until the next round would end well past ``seconds``."""
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        t = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(walls) > seconds:
            return walls


def _setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up of fresh processes: import, corpus, models.

    Returns it in reference seconds and in plain seconds.  Each probe is
    scaled by the calibration kernel run here just before it and in the
    probe just after its set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    scaled, plain = [], []
    for _ in range(SETUP_PROBES):
        before = speed.calibrate()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        scaled.append(speed.scale(probe["setup_s"], before, probe["calibrate_s"]))
        plain.append(probe["setup_s"])
    return statistics.median(scaled), statistics.median(plain)


def _self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(**extra) -> dict:
    """Machine and program facts recorded next to every result."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qnlp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        **extra,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "sweep_workers": _workers(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _end_to_end(wl, args, scratch, ledger) -> tuple[dict, dict]:
    from workloads import Sweep

    st = wl.setup(args.seed)
    if isinstance(wl, Sweep):
        workers = _workers()
        rounds = len(_rounds(lambda: wl.run_pass(st, workers, scratch, ledger), args.seconds))
        wall = wl.wall(st)
        plain_wall = wl.wall(st, scaled=False)
        first = st.passes[0]
        cells, epochs, test_acc = first["cells"], first["epochs"], first["test_acc"]
        # Every pool worker has been joined by now; the largest of them
        # counts once per worker, so pages they share count more than once.
        child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        peak = _self_peak_mb() + workers * child_mb
    else:
        rounds = len(_rounds(lambda: wl.run_round(st, ledger), args.seconds))
        wall = wl.round_wall(st)
        plain_wall = wl.round_wall(st, scaled=False)
        cells = len(st.cases)
        epochs = sum(c.train.epochs for c in st.cases)
        test_acc = statistics.fmean(st.test_acc)
        peak = _self_peak_mb()
    wl.check(wl.cases(st), ledger)
    # the probes are child processes too, so they run after the pool's
    # peak has been read
    setup, plain_setup = _setup_s(args.workload, args.seed)
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "cells_per_s": cells / wall,
        "epochs_per_s": epochs / wall,
        "peak_rss_mb": peak,
        "test_acc": test_acc,
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }
    return metrics, {"rounds": rounds, "plain_wall_s": plain_wall, "plain_setup_s": plain_setup}


def _per_layer(wl, args, scratch, ledger) -> tuple[dict, dict]:
    import tracing
    from workloads import Sweep, work_counts

    tracer = tracing.Tracer()
    with tracer:
        st = wl.setup(args.seed)
    metrics: dict[str, float] = {}
    totals: list[tuple[float, float]] = []  # untraced and traced twins
    if isinstance(wl, Sweep):
        # Spans stay in the process that records them, so the traced cells
        # run with one worker, each after an untraced twin.  The pool's own
        # figures come from a pass at full width.
        pool = wl.run_pass(st, _workers(), scratch, ledger)
        _rounds(lambda: totals.append(wl.twins(st, scratch, ledger, tracer)),
                args.seconds - pool["wall"])
        walls = pool["ok_walls"]
        metrics.update(zip(POOL_METRICS, (
            statistics.median(walls),
            statistics.quantiles(walls, n=10)[-1],
            len(walls),
            # the calibration kernels' time is neither a cell's nor idle
            1.0 - pool["busy"] / (pool["workers"] * pool["wall"] - pool["kernel_busy"]),
            pool["resume"],
            pool["report"],
            pool["bytes"],
        )))
        with_grad, rounds = False, 1 + len(totals)
    else:
        rounds = len(_rounds(lambda: totals.append(wl.run_round(st, ledger, tracer)),
                             args.seconds))
        metrics.update(dict.fromkeys(POOL_METRICS, 0))  # no pool in a fit
        with_grad = True
    cases = wl.cases(st)
    wl.check(cases, ledger)
    metrics.update(tracing.layer_metrics(tracer))
    metrics.update(work_counts(cases, with_grad))
    plain, traced = (sum(col) for col in zip(*totals))
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["trace.workers"] = 1
    return metrics, {"rounds": rounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qnlp" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no qnlp sources under {SRC} (run from a full checkout)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup(args.seed)
        setup_s = time.perf_counter() - _T0
        print(json.dumps({"setup_s": setup_s, "calibrate_s": speed.calibrate()}))
        return 0

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    ledger = Ledger()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        measure = _per_layer if args.trace else _end_to_end
        values, measured = measure(wl, args, scratch, ledger)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = sorted({m["name"] for m in wanted} - set(values))
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    for msg in ledger.messages:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    facts = machine_facts(workload=args.workload, seed=args.seed, seconds=args.seconds,
                          trace=args.trace, ref_kernel_s=speed.REF_S, **measured)
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
