"""Benchmark of the poisson-cs CLI workloads.

    python3 perfbench/run.py --workload sweep-p2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  The
run cycles through the workload's seeded problems for ``--seconds`` seconds
(and at least one full pass), checks every output, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
The run record (machine, digests, defect counts) and the spans are written
under ``perfbench/out/``.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import io
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
SETUP_REPEATS = 5
# The references' nominal seconds, about what they take on a quiet host.
# Fixed constants, so that figures of different commits stay comparable.
VECTOR_MIX_SECONDS = 0.15
IMPORT_PROBE_SECONDS = 0.3
# A fresh interpreter importing the program's third-party dependencies: the
# reference for set-up time, which is mostly imports.  A fixed list, so that
# it does not change with the program.
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                "import numpy, scipy.fft, scipy.special; "
                "print(repr(time.perf_counter() - t0))")
FIT_CALLS = 1000
FIT_REPEATS = 5
# Never used while the benchmark was tuned; a gain claim must also hold on it.
HELD_OUT_SEED = 97


def master_seed(seed: int, problem: int) -> int:
    # Seed 0's first problem is master_seed 1, the acceptance suite's seed.
    return seed * 1000 + problem + 1


def _blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Reference:
    """Fixed work that measures how fast the host runs now.

    On a shared host the same code runs up to twice as slowly while a
    neighbour is busy, and the share of slow time drifts over seconds to
    minutes.  The reference runs before and after every timed step; the
    step's slowdown is the mean of the two runs over their nominal seconds,
    raised to the step's sensitivity (how strongly its time follows the
    reference's, on log scales), and its seconds divided by that slowdown
    are its reference seconds.
    """

    def __init__(self, run, nominal: float, sensitivity: float = 1.0):
        self._run, self.nominal, self.sensitivity = run, nominal, sensitivity
        self.runs = [run()]

    def scale(self, seconds: float) -> float:
        """Reference seconds of a step that ran just after the last run."""
        self.runs.append(self._run())
        slowdown = (self.runs[-2] + self.runs[-1]) / 2.0 / self.nominal
        return seconds / slowdown ** self.sensitivity


def vector_mix():
    """The program's two kinds of numeric work, as a timed function.

    Many calls on short vectors, as in the solvers, and Poisson draws with
    logs on a wide array, as in the Monte-Carlo statistics.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 100))
    x = rng.standard_normal(100)
    lam = rng.uniform(1.0, 100.0, (2000, 50))

    def run() -> float:
        draws = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(18000):
            np.log1p(np.abs(a @ x)).sum()
        for _ in range(15):
            p = draws.poisson(lam)
            (p * np.log1p(p)).sum(axis=1)
        return time.perf_counter() - t0

    return run


def _probe(argv: list[str]) -> float:
    """Seconds a probe in a fresh interpreter reports as its last word."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure_setup(name: str, out: Path) -> tuple[float, dict]:
    """Median set-up time in reference seconds, and the record's figures.

    Each set-up probe runs between two import probes, its reference.
    """
    ref = Reference(lambda: _probe(["-c", IMPORT_PROBE]), IMPORT_PROBE_SECONDS)
    wall, scaled = [], []
    for k in range(SETUP_REPEATS):
        wall.append(_probe([str(HERE / "setup_probe.py"), name, str(out / f"setup{k}")]))
        scaled.append(ref.scale(wall[-1]))
    return statistics.median(scaled), {
        "setup_s_wall": wall, "setup_s_ref": scaled, "import_probe_s": ref.runs}


def fit_microbench(seed: int) -> dict:
    """Median microseconds per standalone fit_value_and_gradient call.

    Averaged over N=25 (image patches) and N=50 (sweeps).
    """
    import numpy as np
    from poisson_cs.solvers import FitKind, FitTerm, fit_value_and_gradient

    rng = np.random.default_rng([seed, 7])
    out = {}
    for kind in FitKind:
        per_n = []
        for n in (25, 50):
            u = rng.uniform(50.0, 150.0, n)
            y = np.maximum(rng.poisson(u), 1).astype(float)
            fit = FitTerm(kind)
            runs = []
            for _ in range(FIT_REPEATS):
                t0 = time.perf_counter()
                for _ in range(FIT_CALLS):
                    fit_value_and_gradient(fit, y, u)
                runs.append((time.perf_counter() - t0) / FIT_CALLS * 1e6)
            per_n.append(statistics.median(runs))
        out[f"solvers.fit_value_and_gradient.us.{kind.value}"] = statistics.fmean(per_n)
    return out


class Runner:
    """Runs rounds of one workload and keeps what the run record needs."""

    def __init__(self, wl, seed: int, out: Path):
        self.wl, self.seed, self.out = wl, seed, out
        self.inputs = out / "inputs"
        self.inputs.mkdir(parents=True)
        wl.prepare(self.inputs)
        self.log = io.StringIO()
        self.attempted = self.failed = 0
        self.faults: list[str] = []   # failed checks
        self.rounds: list[dict] = []
        self.first_pass: dict = {}

    def round(self, problem: int, trace_id=None, scale=None):
        from workloads import RoundResult, fresh, unscaled

        master = master_seed(self.seed, problem)
        work = fresh(self.out / "round")
        try:
            res = self.wl.run_round(self.inputs, master, work, self.log, scale or unscaled)
        except Exception:  # a raising round fails every unit in it
            res = RoundResult(units=self.wl.units, failed=self.wl.units,
                              faults=[traceback.format_exc()])
        self.attempted += res.units
        self.failed += res.failed
        self.faults += res.faults
        self.rounds.append({"problem": problem, "master_seed": master, "trace": trace_id,
                            "units": res.units, "failed": res.failed,
                            "seconds": res.seconds, "digest": res.digest})
        seen = self.first_pass.setdefault(problem, res)
        if seen is not res and seen.digest != res.digest:
            self.faults.append(f"problem {problem} gave a different digest when repeated")
        return res

    def summary(self) -> tuple[float, float, dict]:
        from workloads import pooled_errors

        first = [self.first_pass[p] for p in sorted(self.first_pass)]
        err_low, err_high, medians = pooled_errors(first)
        self.faults += self.wl.check_pooled(medians)
        counts: dict = {}
        for r in first:
            for k, v in r.counts.items():
                counts[k] = counts.get(k, 0) + v
        record = {
            "first_pass_digest": [r.digest for r in first],
            "median_error": {f"{g} I={i:g}": m for (g, i), m in sorted(medians.items())},
            "counts": counts,
        }
        if "p2_trials" in counts:
            record["p2_contract_miss_frac"] = counts["p2_contract_misses"] / counts["p2_trials"]
        if "ks_cells" in counts:
            record["ks_pass_frac"] = counts["ks_passes"] / counts["ks_cells"]
        return err_low, err_high, record


def run_untraced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    setup_s, setup_runs = measure_setup(runner.wl.name, runner.out)
    ref = Reference(vector_mix(), VECTOR_MIX_SECONDS, runner.wl.host_sensitivity)
    deadline = time.perf_counter() + seconds
    rates, ref_rates = [], []
    r = 0
    while r < runner.wl.problems or time.perf_counter() < deadline:
        res = runner.round(r % runner.wl.problems, scale=ref.scale)
        if res.seconds > 0.0:
            rates.append(res.units / res.seconds)
            ref_rates.append(res.units / res.ref_seconds)
        r += 1
    err_low, err_high, record = runner.summary()
    metrics = {
        "setup_s": (setup_s, "s"),
        "units_per_ref_s": (statistics.median(ref_rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "err_low_I": (err_low, "ratio"),
        "err_high_I": (err_high, "ratio"),
    }
    record.update(setup_runs)
    record["units_per_s_wall"] = statistics.median(rates)
    record["units_per_s_rounds"] = rates
    record["units_per_ref_s_rounds"] = ref_rates
    record["vector_mix_s"] = ref.runs
    return metrics, record


def run_traced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics
    from workloads import fresh, run_probe

    tracer = Tracer()
    tracer.trace_id = -1
    tracer.install()
    try:
        run_probe(runner.inputs, fresh(runner.out / "probe"),
                  master_seed(runner.seed, 0), runner.log)
    finally:
        tracer.uninstall()
    fit_us = fit_microbench(runner.seed)

    deadline = time.perf_counter() + seconds
    ratios = []
    r = 0
    while r < runner.wl.problems or time.perf_counter() < deadline:
        problem = r % runner.wl.problems
        timed = {}
        # Alternate which side runs first so that drift favours neither.
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                tracer.trace_id = r
                tracer.install()
            try:
                timed[traced] = runner.round(problem, trace_id=r if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
        if timed[True].digest != timed[False].digest:
            runner.faults.append(f"problem {problem}: traced and untraced outputs differ")
        if timed[False].seconds > 0.0:
            ratios.append(timed[True].seconds / timed[False].seconds)
        r += 1
    _, _, record = runner.summary()
    tracer.write(runner.out / "spans.json")

    values = {**layer_metrics(tracer.spans), **fit_us,
              "trace.overhead_frac": statistics.median(ratios) - 1.0}
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    record["overhead_ratios"] = ratios
    record["spans"] = len(tracer.spans)
    return metrics, record


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.endswith("_s"):
        return "s"
    if "_ms." in name:
        return "ms"
    if ".us." in name or last == "us_per_iter":
        return "us"
    if last == "bytes_computed":
        return "B"
    if last.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = ROOT / "src"
    if not (src / "poisson_cs").is_dir():
        print(f"perfbench: no package to benchmark at {src / 'poisson_cs'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, fresh

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    out = fresh(HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}")
    runner = Runner(wl, args.seed, out)
    machine = machine_info()
    run = run_traced if args.trace else run_untraced
    metrics, record = run(runner, args.seconds)

    result = {
        "correct": not runner.faults,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": wl.name, "unit": wl.unit, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
              "machine": machine, **record, "faults": runner.faults,
              "rounds": runner.rounds, "result": result}
    with open(out / "record.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for fault in runner.faults:
        print(f"check failed: {fault}", file=sys.stderr)
    print(f"machine: {json.dumps(machine)}")
    print(f"record: {out / 'record.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
