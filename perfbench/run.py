"""Step benchmark of the real `AsyncCoordinator` driver.

Run from the repository root::

    python3 perfbench/run.py --workload water8-mbe2 --seed 0 --seconds 55 --trace 0

Workloads (see ``BENCHMARK.json``): ``water8-mbe2`` and ``serve-mixed``.
Each run repeats cold trials of fixed work (so counts repeat exactly)
for about ``--seconds``, and reports each metric as the median over its
trials. The program is imported from ``src/`` of the same
checkout. BLAS is pinned to one thread through this runner's own
environment before numpy loads.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced trials and reports the
per-layer metrics (self time per layer from an in-memory span tree,
written as a chrome trace under ``perfbench/out/``), plus
``unattributed_frac`` and ``trace_overhead_frac``. Every run checks
correctness: each tenant's step-0 potential energy against an
independent `mbe_energy_gradient` evaluation (stored per seed in
``perfbench/reference.json``, computed live for other seeds), finite
energies, every step retired, and exact counts. A failed check prints
the result with ``"correct": false`` and exits with status 1.

The last line of standard output is the result JSON; the full record
(provenance, machine-speed probe, raw per-trial samples, counts) goes
to ``perfbench/out/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import os
import time

_T_SCRIPT = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
#: |E0(coordinator) - E0(independent)| allowed per tenant (Hartree)
E0_TOL = 1e-8
#: fresh processes started to sample set-up time (besides this one)
SETUP_PROBES = 2


def seconds_since_process_start() -> float:
    """Wall time since this process was created (falls back to the
    script start where /proc is unavailable)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_SCRIPT


def import_program():
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as err:
        sys.exit(f"perfbench: cannot import the program from {src}: {err}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    import numpy as np

    return float(np.percentile(xs, q)) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


# ----------------------------------------------------------------------
# provenance and machine speed
# ----------------------------------------------------------------------
def blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports (queried through ctypes)."""
    import ctypes

    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    libs = {ln.split()[-1] for ln in maps.splitlines()
            if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def provenance() -> dict:
    import numpy as np

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def machine_probe() -> float:
    """Seconds for a fixed calibration kernel (BLAS GEMMs plus a Python
    loop), median of three; reported beside the metrics, never folded
    into them."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160))
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(200):
            a = np.tanh(a @ a)
        acc = 0
        for i in range(1_000_000):
            acc += i & 7
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def serial_step_costs(trial) -> dict[int, float]:
    """Serial-driver wall time charged to each MD step: the interval from
    each task's issue to the next issue (solve plus the coordinator's
    completion bookkeeping) goes to the task's step, so the intervals
    tile the trajectory. Retirements of one plan window arrive in a burst
    under asynchronous stepping, so retirement gaps do not measure a
    step."""
    issued = trial.obs.issued
    ends = [t for t, *_ in issued[1:]] + [trial.t_end]
    costs: dict[int, float] = {}
    for (t, _, step), end in zip(issued, ends):
        costs[step] = costs.get(step, 0.0) + end - t
    return costs


def retirement_gaps(retired: dict) -> list[float]:
    steps = sorted(retired)
    return [retired[s] - retired[p] for p, s in zip(steps, steps[1:])]


def end_to_end(trial, workload: str, wl) -> dict:
    """End-to-end metrics of one trial (seconds unless stated). A tenant
    that never retired step 0 (a failed trial) counts until the end."""
    retired = trial.obs.retired
    start = trial.t_first_issue
    span = trial.t_end - start
    steps_done = sum(len(r) for r in retired.values())
    first_step = max(r.get(0, trial.t_end) for r in retired.values()) - start
    if workload == wl.SERVE:
        gaps = {t: retirement_gaps(r) for t, r in retired.items()}
        step_p50 = median([g for gs in gaps.values() for g in gs])
        small = median([g for t in wl.SMALL_TENANTS for g in gaps[t]])
        large = median([g for t, gs in gaps.items()
                        if t not in wl.SMALL_TENANTS for g in gs])
    else:
        step_p50 = median([c for step, c in serial_step_costs(trial).items()
                           if step >= 1])
        small = large = step_p50
    drifts = [wl.drift_ha_per_fs(e) for e in trial.energies.values()]
    return {
        "first_step_s": first_step,
        "step_s_p50": step_p50,
        "steps_per_hour": 3600.0 * steps_done / span,
        "small_tenant_step_s_p50": small,
        "large_tenant_step_s_p50": large,
        "energy_drift_ha_per_fs": max(drifts, key=abs),
        "failed_frac": ratio(trial.failed, len(trial.obs.solves)),
    }


def layer_metrics(trial, rec, recoveries: int, nworkers: int) -> dict:
    """Per-layer metrics of one traced trial."""
    self_t, calls = rec.self_times()
    c = trial.counters
    obs = trial.obs
    solves = [t1 - t0 for _, t0, t1, _ in obs.solves]
    waits = [t0 - ti for ti, t0, _, _ in obs.solves if ti is not None]
    gflop = c["gemm_flops"] / 1e9
    wall = trial.t_end - trial.t_build
    steps_done = sum(len(r) for r in obs.retired.values())
    s = self_t.get
    return {
        "int.1e_s": s("int.1e", 0.0),
        "int.2c_s": s("int.2c", 0.0),
        "int.3c_s": s("int.3c", 0.0),
        "int.3c_calls": calls.get("int.3c", 0),
        "int.3c_deriv_s": s("int.3c_deriv", 0.0),
        "int.3c_deriv_calls": calls.get("int.3c_deriv", 0),
        "int.2c_deriv_s": s("int.2c_deriv", 0.0),
        "int.1e_deriv_s": s("int.1e_deriv", 0.0),
        "int.workspace_hit_ratio": ratio(c["ws_hits"],
                                         c["ws_hits"] + c["ws_misses"]),
        "int.pairs_skipped_frac": ratio(c["pairs_skipped"],
                                        c["pairs_total"]),
        "scf.self_s": s("scf", 0.0),
        "scf.diag_s": s("scf.diag", 0.0),
        "scf.iters": c["scf_iters"],
        "scf.iters_per_solve": ratio(c["scf_iters"], c["scf_solves"]),
        "scf.warm_hit_ratio": ratio(c["warm_hits"], c["scf_solves"]),
        "scf.recoveries": recoveries,
        "mp2.grad_self_s": s("mp2.grad", 0.0),
        "mp2.coeffs_s": s("mp2.coeffs", 0.0),
        "mp2.zvector_s": s("mp2.zvector", 0.0),
        "gemm.gflop": gflop,
        "gemm.calls": c["gemm_calls"],
        "gemm.s": s("gemm", 0.0),
        "gemm.gflop_per_s": ratio(gflop, s("gemm", 0.0)),
        "gemm.tuner_trials": c["tuner_trials"],
        "calc.solves": len(solves),
        "calc.solve_s_p50": percentile(solves, 50),
        "calc.solve_s_p95": percentile(solves, 95),
        "calc.self_s": s("calc.solve", 0.0),
        "frag.plan_s": s("frag.plan", 0.0),
        "frag.fragment_molecule_s": s("frag.fragment_molecule", 0.0),
        "frag.polymers_per_step": ratio(trial.tasks, steps_done),
        "md.sched_self_s": s("md.sched", 0.0),
        "md.max_live_steps": trial.max_live_steps,
        "md.ckpt_write_s": s("md.ckpt_write", 0.0),
        "md.ckpt_bytes": obs.ckpt_bytes,
        "serve.sched_self_s": s("serve.sched", 0.0),
        "serve.dispatch_wait_s_p50": percentile(waits, 50),
        "serve.result_lag_s_p50": percentile(obs.lags, 50),
        "serve.worker_busy_frac": ratio(
            sum(solves), nworkers * (trial.t_end - trial.t_first_issue)
        ),
        "serve.lock_contentions": (c["cache_contentions"]
                                   + c["ws_contentions"]
                                   + c["tuner_contentions"]),
        "unattributed_frac": 1.0 - ratio(sum(self_t.values()),
                                         rec.threads() * wall),
    }


def exact_counts(trial, workload: str, wl) -> dict:
    """Counts that must repeat exactly for one seed. GEMM FLOPs and SCF
    iterations are exact only on the serial workloads: on serve-mixed
    the energy reduction order follows the worker race."""
    counts = {
        "calc_solves": len(trial.obs.solves),
        "tasks_issued": trial.tasks,
        "steps_retired": sum(len(r) for r in trial.obs.retired.values()),
        "ckpt_writes": trial.obs.ckpt_writes,
    }
    if workload != wl.SERVE:
        counts["gemm_flops"] = trial.counters["gemm_flops"]
        counts["scf_iters"] = trial.counters["scf_iters"]
    return counts


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def traced_trial(inputs, wl, spans, seams):
    """One trial with every seam in `seams.SEAMS` and the calculator
    instance recorded as spans; also counts SCF solves that needed the
    recovery cascade. Returns ``(trial, recorder, recoveries)``."""
    import repro.calculators

    obs, rec, recovered, saved = wl.Observer(), spans.SpanRecorder(), [], []

    def count_recoveries(fn):
        def solve(*args, **kwargs):
            res = fn(*args, **kwargs)
            recovered.append(bool(res.recovery))
            return res
        return solve

    seams.rebind(repro.calculators, "rhf_with_recovery", count_recoveries,
                 saved)
    try:
        with seams.spans_installed(rec):
            trial = wl.run_trial(
                inputs, OUT_DIR, obs=obs,
                wrap_calc=lambda fn: rec.wrap("calc.solve", fn, obs.tag_of),
            )
    finally:
        seams.restore(saved)
    return trial, rec, sum(recovered)


def run_trials(args, inputs, wl, spans, seams):
    """Trials (with tracing: untraced/traced pairs) while the next one is
    expected to end within ``--seconds``; always at least one."""
    plain, traced = [], []
    t_loop = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(wl.run_trial(inputs, OUT_DIR))
        if args.trace:
            traced.append(traced_trial(inputs, wl, spans, seams))
        now = time.perf_counter()
        if now - t_loop + (now - t0) > args.seconds:
            return plain, traced


def setup_probe(args) -> float:
    """Set-up seconds of a fresh process (this script, ``--setup-probe``)."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def load_reference(workload: str, seed: int):
    if not REFERENCE.exists():
        return None
    table = json.loads(REFERENCE.read_text())
    return table.get(workload, {}).get(str(seed))


def check(args, trials, wl):
    """The correctness gate: every trial finished with finite energies
    and all steps retired, each tenant's step-0 energy matches the
    independent reference, and the exact counts repeat (across trials
    and against the stored counts). Returns ``(problems, reference,
    counts)``."""
    problems = []
    for t in trials:
        if not t.complete or t.error:
            problems.append(f"trial did not finish: {t.error}")
        for tenant, (times, pe, ke) in t.energies.items():
            if len(times) != t.nsteps + 1:
                problems.append(f"{tenant}: {len(times)} of {t.nsteps + 1} "
                                "steps retired")
            if not all(map(math.isfinite, [*pe, *ke])):
                problems.append(f"{tenant}: non-finite energy")
    stored = load_reference(args.workload, args.seed)
    if args.write_reference or stored is None:
        e0, source = wl.reference_e0(args.workload, args.seed), "computed"
    else:
        e0, source = stored["e0"], "stored"
    deviation = {}
    for tenant, e_ref in e0.items():
        devs = [abs(t.e0[tenant] - e_ref) if t.e0.get(tenant) is not None
                else float("inf") for t in trials]
        deviation[tenant] = max(devs)
        if not deviation[tenant] <= E0_TOL:
            problems.append(f"{tenant}: step-0 energy off the reference by "
                            f"{deviation[tenant]:.3e} Ha")
    counts = [exact_counts(t, args.workload, wl) for t in trials]
    if any(c != counts[0] for c in counts):
        problems.append(f"counts differ between trials: {counts}")
    if stored is not None and not args.write_reference \
            and stored["counts"] != counts[0]:
        problems.append(f"counts {counts[0]} differ from the stored "
                        f"{stored['counts']}")
    reference = {"source": source, "e0": e0, "max_deviation_ha": deviation}
    return problems, reference, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's independent step-0 "
                             "energies and exact counts in "
                             "perfbench/reference.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    import_program()
    import seams
    import spans
    import workloads as wl

    import_s = seconds_since_process_start()
    OUT_DIR.mkdir(exist_ok=True)
    inputs = wl.make_inputs(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": import_s + wl.build_only(inputs, OUT_DIR)}))
        return 0
    prov = provenance()
    probe_before = machine_probe()

    # set-up: this process and SETUP_PROBES fresh ones, each from process
    # start to the first task issued (input generation excluded)
    setups = [import_s + wl.build_only(inputs, OUT_DIR)]
    setups += [setup_probe(args) for _ in range(SETUP_PROBES)]
    plain, traced = run_trials(args, inputs, wl, spans, seams)
    probe_after = machine_probe()

    trials = plain + [t for t, _, _ in traced]
    attempted = sum(len(t.obs.solves) for t in trials)
    failed = sum(t.failed for t in trials)

    problems, reference, counts = check(args, trials, wl)
    correct = not problems

    # ---- metrics ---------------------------------------------------------
    per_trial = [end_to_end(t, args.workload, wl) for t in plain]
    metrics = {k: median([m[k] for m in per_trial]) for k in per_trial[0]}
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = []
    if traced:
        nworkers = wl.SERVE_WORKERS if args.workload == wl.SERVE else 1
        layers = [layer_metrics(t, rec, n, nworkers) for t, rec, n in traced]
        traced_step = median([end_to_end(t, args.workload, wl)["step_s_p50"]
                              for t, _, _ in traced])
        per_layer = {k: median([m[k] for m in layers]) for k in layers[0]}
        per_layer["trace_overhead_frac"] = traced_step / metrics["step_s_p50"] - 1
        last, rec, _ = traced[-1]
        rec.write_chrome(
            OUT_DIR / f"{args.workload}-s{args.seed}.trace.json", last.t_build
        )

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else metrics
    reported = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in bench[section]
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "problems": problems,
        "provenance": prov,
        "machine_probe_s": {"before": probe_before, "after": probe_after},
        "reference": reference,
        "counts": counts,
        "end_to_end": metrics,
        "per_layer": per_layer if traced else None,
        "layer_notes": {k: {"seam": v[0], "moves": v[1]}
                        for k, v in seams.LAYER_NOTES.items()},
        "samples": {
            "setup_s": setups,
            "import_s": import_s,
            "trial_build_s": [t.build_s for t in plain],
            "trials": per_trial,
            "step_costs": [serial_step_costs(t) for t in plain]
            if args.workload != wl.SERVE else None,
            "retired": [{k: dict(v) for k, v in t.obs.retired.items()}
                        for t in plain],
            "traced_trials": layers,
            "traced_solve_s": [[t1 - t0 for _, t0, t1, _ in t.obs.solves]
                               for t, _, _ in traced],
        },
    }
    (OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    if args.write_reference and correct:
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        table.setdefault(args.workload, {})[str(args.seed)] = {
            "e0": reference["e0"], "counts": counts[0],
        }
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced trial(s), "
          f"src {prov['src_sha256'][:12]}, numpy {prov['numpy']}, "
          f"BLAS threads {prov['blas_threads'] or prov['blas_env']}, "
          f"nproc {prov['nproc']}")
    print(f"machine probe: {probe_before:.4f} s before, "
          f"{probe_after:.4f} s after")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(energy_drift_ha_per_fs="Ha/fs", failed_frac="frac")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<28s} {value:>14.6g} {units.get(name, '')}")
    if traced:
        for m in bench["per_layer"]:
            print(f"  {m['name']:<28s} {per_layer[m['name']]:>14.6g} "
                  f"{m['unit']}")
    print(f"step-0 energy vs {reference['source']} reference: max "
          f"deviation {max(reference['max_deviation_ha'].values()):.2e} Ha")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
