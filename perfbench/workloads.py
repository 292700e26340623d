"""Workloads: each builds its inputs from a seed and runs cold trials.

Every trial drives the real `AsyncCoordinator` configured as ``repro
aimd`` (serial workloads, `run_serial`) or ``repro serve`` (the
multi-tenant `TrajectoryService`) configure it: SCF warm starts on,
``int_screen = DEFAULT_INT_SCREEN``, the GEMM autotuner on, not
deterministic, surrogate tail and MTS off. Process-wide caches are
reset before each trial, so every trial starts as cold as a fresh
``repro`` process.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import analyze_conservation
from repro.calculators import RIMP2Calculator
from repro.constants import BOHR_PER_ANGSTROM
from repro.frag import FragmentedSystem
from repro.frag.mbe import build_plan, mbe_energy_gradient
from repro.gemm import GLOBAL_COUNTER, GLOBAL_TUNER
from repro.integrals import engine, hermite
from repro.integrals import workspace as workspace_mod
from repro.integrals.workspace import DEFAULT_INT_SCREEN, IntegralWorkspace
from repro.md import AsyncCoordinator, run_serial
from repro.md import scheduler as scheduler_mod
from repro.md.integrators import maxwell_boltzmann_velocities
from repro.serve import JobSpec, TrajectoryService
from repro.serve.session import build_system
from repro.systems import water_cluster

from seams import rebind, restore

WATER8 = "water8-mbe2"
SERVE = "serve-mixed"

#: steps after step 0 in one trial (the trajectory has NSTEPS + 1 steps)
NSTEPS = {WATER8: 4, SERVE: 4}
SERVE_WORKERS = 2
RIMP2 = {"kind": "rimp2", "basis": "sto-3g", "int_screen": DEFAULT_INT_SCREEN}


def reset_process_caches() -> None:
    """Return process-wide caches to their fresh-process state: the
    integral workspace, the GEMM winner table and the memoized integral
    index tables."""
    workspace_mod._GLOBAL_WORKSPACE = None
    GLOBAL_TUNER.reset()
    GLOBAL_TUNER.contentions = 0
    GLOBAL_TUNER.tenant_calls.clear()
    for fn in (engine.comp_arrays, engine.hermite_box,
               hermite.cartesian_components):
        fn.cache_clear()


def water_seed(n: int, seed: int) -> int:
    """First placement seed derived from ``seed`` whose ``n``-water
    cluster splits into ``n`` monomers (close contacts can merge two)."""
    for k in range(1000):
        s = seed + 7919 * k
        if FragmentedSystem.by_components(water_cluster(n, seed=s)).nmonomers == n:
            return s
    raise RuntimeError(f"no {n}-monomer water cluster for seed {seed}")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def rimp2_calculator() -> RIMP2Calculator:
    """RI-MP2/STO-3G as both ``repro aimd`` and ``repro serve`` build it."""
    return RIMP2Calculator(basis="sto-3g", int_screen=DEFAULT_INT_SCREEN)


#: ``repro aimd --r-dimer 6 --order 2 --checkpoint-every 2
#: --checkpoint-keep 2`` (dt, r_trimer: CLI defaults). Checkpoints land
#: on replan-window starts, so a trial writes one, at step 4.
AIMD_ARGS = dict(
    dt_fs=0.5, r_dimer_bohr=6.0 * BOHR_PER_ANGSTROM,
    r_trimer_bohr=12.0 * BOHR_PER_ANGSTROM, mbe_order=2,
    checkpoint_every=2, checkpoint_keep=2,
)


@dataclass
class SerialInputs:
    """water8-mbe2 inputs: an 8-water cluster run as ``repro aimd`` runs
    it (RI-MP2/STO-3G, `AIMD_ARGS`, `run_serial`)."""

    mol: object
    seed: int
    nsteps: int = NSTEPS[WATER8]

    def system(self) -> FragmentedSystem:
        return FragmentedSystem.by_components(self.mol)

    def coordinator(self, checkpoint_path) -> AsyncCoordinator:
        """Fragmentation and coordinator exactly as ``repro aimd`` builds
        them (the set-up a CLI user pays)."""
        v0 = maxwell_boltzmann_velocities(
            self.mol.masses_au, 300.0, seed=self.seed
        )
        return AsyncCoordinator(
            self.system(), nsteps=self.nsteps, velocities=v0,
            checkpoint_path=checkpoint_path, **AIMD_ARGS,
        )


def make_inputs(workload: str, seed: int):
    """The workload's generated inputs (not part of the timed set-up)."""
    if workload == SERVE:
        return serve_specs(seed)
    return SerialInputs(water_cluster(8, seed=water_seed(8, seed)), seed)


def serve_specs(seed: int) -> list[JobSpec]:
    """Three small water tenants and one heavier glycine tenant, as
    ``repro submit`` writes them (RI-MP2/STO-3G, MBE2 6 A / MBE1)."""
    specs = []
    for i in range(3):
        sub = 10 * seed + i
        specs.append(JobSpec(
            job_id=f"water-{i}",
            system={"kind": "water", "n": 3, "seed": water_seed(3, sub)},
            method=dict(RIMP2), nsteps=NSTEPS[SERVE], seed=sub, mbe_order=2,
        ))
    specs.append(JobSpec(
        job_id="glycine", system={"kind": "glycine-fragmented", "n": 2},
        method=dict(RIMP2), nsteps=NSTEPS[SERVE], seed=10 * seed + 3,
        mbe_order=1,
    ))
    return specs


#: tenants whose steps count as "small" on serve-mixed (fewest atoms)
SMALL_TENANTS = ("water-0", "water-1", "water-2")


# ----------------------------------------------------------------------
# observation of the driver protocol (untraced and traced trials alike)
# ----------------------------------------------------------------------
@dataclass
class Observer:
    """Timestamps the coordinator/calculator protocol of one trial.

    Wraps instance attributes only (``next_task``, ``complete``,
    ``step_callback`` of each coordinator, ``energy_gradient`` of each
    calculator) plus the checkpoint writer at its scheduler import
    site, so the same cheap bookkeeping runs with tracing on or off.
    """

    clock: object = time.perf_counter
    #: (time, tenant, step) per issued task, in issue order
    issued: list = field(default_factory=list)
    #: tenant -> {step: retirement time}
    retired: dict = field(default_factory=lambda: defaultdict(dict))
    #: (issue time or None, solve start, solve end, thread id)
    solves: list = field(default_factory=list)
    lags: list = field(default_factory=list)
    ckpt_writes: int = 0
    ckpt_bytes: int = 0
    #: id(fragment molecule) -> (issue time, (step, (tenant, key)))
    inflight: dict = field(default_factory=dict)
    _solve_end: dict = field(default_factory=dict)
    _saved: list = field(default_factory=list)

    def watch(self, tenant: str, co: AsyncCoordinator, calc) -> None:
        clock, issued, inflight = self.clock, self.issued, self.inflight
        issue, complete, callback = co.next_task, co.complete, co.step_callback
        solve = calc.energy_gradient
        retired = self.retired[tenant]
        solves, solve_end, lags = self.solves, self._solve_end, self.lags

        def next_task():
            task = issue()
            if task is not None:
                t = clock()
                issued.append((t, tenant, task.step))
                inflight[id(task.molecule)] = (t, (task.step, (tenant, task.key)))
            return task

        def complete_task(task, energy, grad):
            end = solve_end.pop(id(task.molecule), None)
            if end is not None:
                lags.append(clock() - end)
            complete(task, energy, grad)

        def on_step(step, e_pot, e_kin, coords):
            retired[step] = clock()
            if callback is not None:
                callback(step, e_pot, e_kin, coords)

        def energy_gradient(mol, *args, **kwargs):
            entry = inflight.pop(id(mol), None)
            t0 = clock()
            try:
                return solve(mol, *args, **kwargs)
            finally:
                t1 = clock()
                solves.append((entry and entry[0], t0, t1,
                               threading.get_ident()))
                solve_end[id(mol)] = t1

        co.next_task, co.complete, co.step_callback = (
            next_task, complete_task, on_step
        )
        calc.energy_gradient = energy_gradient

    def install(self) -> None:
        """Count checkpoint writes and bytes at the scheduler's import."""

        def make(write):
            def counted(path, *args, **kwargs):
                out = write(path, *args, **kwargs)
                self.ckpt_writes += 1
                self.ckpt_bytes += Path(path).stat().st_size
                return out
            return counted

        rebind(scheduler_mod, "write_checkpoint", make, self._saved)

    def uninstall(self) -> None:
        restore(self._saved)

    def tag_of(self, args):
        """Span tag of a calculator call (its issuing task)."""
        entry = self.inflight.get(id(args[0]))
        return entry[1] if entry else None


# ----------------------------------------------------------------------
# trials
# ----------------------------------------------------------------------
@dataclass
class Trial:
    """Raw record of one cold trajectory (serial) or service run."""

    t_build: float = 0.0
    t_first_issue: float | None = None
    t_end: float = 0.0
    obs: Observer = field(default_factory=Observer)
    #: tenant -> (times_fs, potential, kinetic)
    energies: dict = field(default_factory=dict)
    #: tenant -> step-0 potential energy
    e0: dict = field(default_factory=dict)
    nsteps: int = 0
    tasks: int = 0
    failed: int = 0
    error: str | None = None
    max_live_steps: int = 0
    counters: dict = field(default_factory=dict)
    complete: bool = False

    @property
    def build_s(self) -> float:
        return self.t_first_issue - self.t_build


def _finish_counters(trial: Trial, before: tuple, caches) -> None:
    flops, calls = GLOBAL_COUNTER.snapshot()
    ws = workspace_mod.get_workspace().stats()
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    trial.counters = {
        "gemm_flops": flops - before[0],
        "gemm_calls": calls - before[1],
        "tuner_trials": sum(len(v) for v in GLOBAL_TUNER.trials.values()),
        "tuner_contentions": GLOBAL_TUNER.contentions,
        "ws_hits": ws["hits"],
        "ws_misses": ws["misses"],
        "ws_contentions": ws["contentions"],
        "pairs_total": ws["pairs_total"],
        "pairs_skipped": ws["pairs_skipped"],
        "scf_iters": sum(c.iters_warm + c.iters_cold for c in caches),
        "scf_solves": hits + misses,
        "warm_hits": hits,
        "cache_contentions": sum(c.contentions for c in caches),
    }


def run_serial_trial(inputs: SerialInputs, workdir: Path, wrap_calc=None,
                     obs: Observer | None = None) -> Trial:
    """One cold `run_serial` trajectory, as ``repro aimd`` runs it."""
    trial = Trial(obs=obs or Observer())
    reset_process_caches()
    before = GLOBAL_COUNTER.snapshot()
    trial.t_build = time.perf_counter()
    co = inputs.coordinator(workdir / "checkpoint.npz")
    calc = rimp2_calculator()
    trial.obs.watch("main", co, calc)
    if wrap_calc is not None:
        calc.energy_gradient = wrap_calc(calc.energy_gradient)
    trial.obs.install()
    try:
        run_serial(co, calc)
        trial.complete = True
    except Exception as err:  # the gate reports it; the run goes on
        trial.failed += 1
        trial.error = repr(err)
    finally:
        trial.t_end = time.perf_counter()
        trial.obs.uninstall()
    issued = trial.obs.issued
    trial.t_first_issue = issued[0][0] if issued else trial.t_end
    trial.nsteps = inputs.nsteps
    trial.tasks = co.tasks_issued
    trial.max_live_steps = co.max_live_steps
    trial.energies["main"] = co.trajectory_energies()
    trial.e0["main"] = co.potential_energies.get(0)
    caches = [co.guess_cache] if co.guess_cache is not None else []
    _finish_counters(trial, before, caches)
    return trial


def run_service_trial(specs, workdir: Path, wrap_calc=None,
                      obs: Observer | None = None) -> Trial:
    """One cold service run of every tenant, as ``repro serve`` runs it
    (thread pool of `SERVE_WORKERS`, shared warm layer)."""
    trial = Trial(obs=obs or Observer())
    reset_process_caches()
    before = GLOBAL_COUNTER.snapshot()
    trial.t_build = time.perf_counter()
    service = TrajectoryService(workdir, nworkers=SERVE_WORKERS)
    for spec in specs:
        job = service.submit(spec)
        trial.obs.watch(spec.job_id, job.coordinator, job.calculator)
        if wrap_calc is not None:
            job.calculator.energy_gradient = wrap_calc(
                job.calculator.energy_gradient
            )
    trial.obs.install()
    try:
        summary = service.run()
    finally:
        trial.t_end = time.perf_counter()
        trial.obs.uninstall()
    issued = trial.obs.issued
    trial.t_first_issue = issued[0][0] if issued else trial.t_end
    trial.nsteps = NSTEPS[SERVE]
    trial.failed = summary["tasks_failed"]
    trial.complete = all(
        info["state"] == "completed" for info in summary["jobs"].values()
    )
    if not trial.complete:
        trial.error = "; ".join(
            f"{j}: {info['state']} {info.get('error', '')}"
            for j, info in summary["jobs"].items()
            if info["state"] != "completed"
        )
    for job_id, job in service.jobs.items():
        co = job.coordinator
        trial.tasks += co.tasks_issued
        trial.max_live_steps = max(trial.max_live_steps, co.max_live_steps)
        trial.energies[job_id] = co.trajectory_energies()
        trial.e0[job_id] = co.potential_energies.get(0)
    _finish_counters(trial, before, [service.guess_cache])
    return trial


def run_trial(inputs, workdir: Path, wrap_calc=None,
              obs: Observer | None = None) -> Trial:
    """One cold trial on `make_inputs` output, in a fresh scratch
    directory under ``workdir``."""
    tmp = Path(tempfile.mkdtemp(dir=workdir))
    try:
        if isinstance(inputs, SerialInputs):
            return run_serial_trial(inputs, tmp, wrap_calc, obs)
        return run_service_trial(inputs, tmp, wrap_calc, obs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def build_only(inputs, workdir: Path) -> float:
    """Seconds of cold set-up: serial, until the first task is issued;
    service, until every job is submitted (the pump's first draw
    follows immediately)."""
    tmp = Path(tempfile.mkdtemp(dir=workdir))
    try:
        reset_process_caches()
        t0 = time.perf_counter()
        if isinstance(inputs, SerialInputs):
            inputs.coordinator(tmp / "checkpoint.npz").next_task()
            rimp2_calculator()
        else:
            service = TrajectoryService(tmp, nworkers=SERVE_WORKERS)
            for spec in inputs:
                service.submit(spec)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# independent reference: step-0 MBE energy via mbe_energy_gradient
# ----------------------------------------------------------------------
def reference_e0(workload: str, seed: int) -> dict[str, float]:
    """Step-0 potential energy of every tenant from an independent
    `mbe_energy_gradient` evaluation (fresh calculator, no warm start,
    private integral workspace) of the same geometry and plan."""
    if workload == SERVE:
        out = {}
        for spec in serve_specs(seed):
            system = build_system(spec)
            plan = build_plan(
                system, spec.r_dimer_angstrom * BOHR_PER_ANGSTROM,
                None, order=spec.mbe_order,
            )
            calc = rimp2_calculator()
            calc.workspace = IntegralWorkspace()
            out[spec.job_id] = mbe_energy_gradient(system, plan, calc)[0]
        return out
    inputs = make_inputs(workload, seed)
    system = inputs.system()
    plan = build_plan(
        system, AIMD_ARGS["r_dimer_bohr"], AIMD_ARGS["r_trimer_bohr"],
        order=AIMD_ARGS["mbe_order"],
    )
    calc = rimp2_calculator()
    calc.workspace = IntegralWorkspace()
    return {"main": mbe_energy_gradient(system, plan, calc)[0]}


def drift_ha_per_fs(energies) -> float:
    """Linear-fit total-energy drift (Ha/fs) of one trajectory."""
    return analyze_conservation(*energies).drift_hartree_per_fs
