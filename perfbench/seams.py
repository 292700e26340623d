"""Import-site seams of the traced run and what each layer metric means.

The traced run records a span around every call into a layer's public
functions by rebinding the name where the caller imported it (the
"import site"), so the program under ``src/`` is run unmodified. A
class-level seam rebinds the method on the class. The calculator itself
is timed on its instance (see `workloads.Observer`).
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

#: modules that call `repro.gemm.gemm` through a module-level import
GEMM_SITES = (
    "repro.scf.rhf",
    "repro.scf.grad",
    "repro.mp2.rimp2_grad",
    "repro.mp2.zvector",
    "repro.mp2.mp2",
    "repro.gemm.linalg",
    "repro.properties",
)

#: (span name, owner "module" or "module:Class", attribute)
SEAMS = (
    ("int.1e", "repro.scf.rhf", "overlap"),
    ("int.1e", "repro.scf.rhf", "hcore"),
    ("int.2c", "repro.scf.rhf", "eri2c"),
    ("int.3c", "repro.scf.rhf", "eri3c"),
    ("int.3c_deriv", "repro.mp2.rimp2_grad", "contract_eri3c_deriv"),
    ("int.2c_deriv", "repro.mp2.rimp2_grad", "contract_eri2c_deriv"),
    ("int.1e_deriv", "repro.mp2.rimp2_grad", "contract_hcore_deriv"),
    ("int.1e_deriv", "repro.mp2.rimp2_grad", "contract_overlap_deriv"),
    ("scf", "repro.calculators", "rhf_with_recovery"),
    ("scf.diag", "repro.scf.rhf", "eigh_gen"),
    ("mp2.grad", "repro.calculators", "rimp2_gradient"),
    ("mp2.coeffs", "repro.mp2.rimp2_grad", "mp2_correction_coefficients"),
    ("mp2.zvector", "repro.mp2.rimp2_grad", "solve_zvector"),
    *(("gemm", site, "gemm") for site in GEMM_SITES),
    ("frag.plan", "repro.md.scheduler", "build_plan"),
    ("frag.plan", "repro.md.scheduler", "update_plan"),
    ("frag.fragment_molecule", "repro.frag.monomer:FragmentedSystem",
     "fragment_molecule"),
    ("md.sched", "repro.md.scheduler:AsyncCoordinator", "next_task"),
    ("md.sched", "repro.md.scheduler:AsyncCoordinator", "complete"),
    ("md.ckpt_write", "repro.md.scheduler", "write_checkpoint"),
    ("serve.sched", "repro.serve.scheduler:FragmentScheduler", "next_task"),
)


def _task_tag(args):
    """Step/task tag of ``AsyncCoordinator.complete(self, task, ...)``."""
    task = args[1]
    return task.step, task.key


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def rebind(owner, attr: str, make, saved: list) -> None:
    """Replace ``owner.attr`` with ``make(original)``; remember the
    original in ``saved`` for `restore`."""
    original = owner.__dict__[attr] if isinstance(owner, type) else \
        getattr(owner, attr)
    saved.append((owner, attr, original))
    setattr(owner, attr, make(original))


def restore(saved: list) -> None:
    """Undo `rebind` calls, newest first."""
    while saved:
        owner, attr, original = saved.pop()
        setattr(owner, attr, original)


@contextmanager
def spans_installed(recorder):
    """Every seam in `SEAMS` recorded as a span while the block runs."""
    saved: list = []
    try:
        for name, owner, attr in SEAMS:
            tag_of = _task_tag if attr == "complete" else None
            rebind(_owner(owner), attr,
                   lambda fn, n=name, t=tag_of: recorder.wrap(n, fn, t),
                   saved)
        yield
    finally:
        restore(saved)


_DRIVER = "steps_per_hour; a small share of the wall on both workloads"

#: per-layer metric -> (seam it is measured at, the end-to-end metric
#: and workload it should move). ``self`` times exclude child spans.
LAYER_NOTES = {
    "int.1e_s": ("repro.scf.rhf.{overlap,hcore}",
                 "step_s_p50 on water8-mbe2 and serve-mixed"),
    "int.2c_s": ("repro.scf.rhf.eri2c",
                 "step_s_p50 on water8-mbe2 and serve-mixed"),
    "int.3c_s": ("repro.scf.rhf.eri3c",
                 "step_s_p50 on water8-mbe2 and serve-mixed"),
    "int.3c_calls": ("repro.scf.rhf.eri3c", "count; same targets"),
    "int.3c_deriv_s": ("repro.mp2.rimp2_grad.contract_eri3c_deriv",
                       "step_s_p50 on water8-mbe2 and serve-mixed"),
    "int.3c_deriv_calls": ("repro.mp2.rimp2_grad.contract_eri3c_deriv",
                           "count; same targets"),
    "int.2c_deriv_s": ("repro.mp2.rimp2_grad.contract_eri2c_deriv",
                       "step_s_p50 on water8-mbe2 and serve-mixed"),
    "int.1e_deriv_s": ("repro.mp2.rimp2_grad.contract_{hcore,overlap}_deriv",
                       "step_s_p50 on water8-mbe2 and serve-mixed"),
    "int.workspace_hit_ratio": ("IntegralWorkspace.stats() delta",
                                "first_step_s vs step_s_p50 on water8-mbe2"),
    "int.pairs_skipped_frac": ("IntegralWorkspace.stats() delta",
                               "step_s_p50 on water8-mbe2"),
    "scf.self_s": ("repro.calculators.rhf_with_recovery minus children",
                   "step_s_p50 and first_step_s on water8-mbe2"),
    "scf.diag_s": ("repro.scf.rhf.eigh_gen",
                   "step_s_p50 on water8-mbe2"),
    "scf.iters": ("GuessCache iters_warm + iters_cold",
                  "first_step_s vs step_s_p50 on water8-mbe2"),
    "scf.iters_per_solve": ("GuessCache stats", "same as scf.iters"),
    "scf.warm_hit_ratio": ("GuessCache hits / lookups",
                           "step_s_p50 on water8-mbe2 and serve-mixed"),
    "scf.recoveries": ("rhf_with_recovery results with a recovery path",
                       "step_s_p50 on water8-mbe2"),
    "mp2.grad_self_s": ("repro.calculators.rimp2_gradient minus children",
                        "step_s_p50 on water8-mbe2 and serve-mixed"),
    "mp2.coeffs_s": ("repro.mp2.rimp2_grad.mp2_correction_coefficients",
                     "step_s_p50 on water8-mbe2 and serve-mixed"),
    "mp2.zvector_s": ("repro.mp2.rimp2_grad.solve_zvector",
                      "step_s_p50 on water8-mbe2 and serve-mixed"),
    "gemm.gflop": ("GLOBAL_COUNTER delta (exact 2mnk)",
                   "count; FLOP-bound work, flat on water8-mbe2"),
    "gemm.calls": ("GLOBAL_COUNTER delta", "count"),
    "gemm.s": ("repro.gemm.gemm at " + ", ".join(GEMM_SITES),
               "flat on water8-mbe2 (dispatch-bound)"),
    "gemm.gflop_per_s": ("gemm.gflop / gemm.s",
                         "flat on water8-mbe2 (dispatch-bound)"),
    "gemm.tuner_trials": ("GLOBAL_TUNER.trials", "first_step_s"),
    "calc.solves": ("calculator instance energy_gradient", "count"),
    "calc.solve_s_p50": ("calculator instance energy_gradient",
                         "small_tenant_step_s_p50 on serve-mixed"),
    "calc.solve_s_p95": ("calculator instance energy_gradient",
                         "small_tenant_step_s_p50 on serve-mixed"),
    "calc.self_s": ("calculator instance minus children",
                    _DRIVER),
    "frag.plan_s": ("repro.md.scheduler.{build_plan,update_plan}",
                    _DRIVER),
    "frag.fragment_molecule_s": ("FragmentedSystem.fragment_molecule",
                                 _DRIVER),
    "frag.polymers_per_step": ("tasks issued / step evaluations", "count"),
    "md.sched_self_s": ("AsyncCoordinator.{next_task,complete} minus "
                        "children", _DRIVER),
    "md.max_live_steps": ("AsyncCoordinator.max_live_steps",
                          _DRIVER),
    "md.ckpt_write_s": ("repro.md.scheduler.write_checkpoint",
                        _DRIVER),
    "md.ckpt_bytes": ("checkpoint file sizes after each write",
                      _DRIVER),
    "serve.sched_self_s": ("FragmentScheduler.next_task minus children",
                           "steps_per_hour on serve-mixed"),
    "serve.dispatch_wait_s_p50": ("task issue -> solve start",
                                  "small_tenant_step_s_p50 on serve-mixed"),
    "serve.result_lag_s_p50": ("solve end -> AsyncCoordinator.complete",
                               "small_tenant_step_s_p50 on serve-mixed"),
    "serve.worker_busy_frac": ("solve time / (workers x wall)",
                               "steps_per_hour on serve-mixed"),
    "serve.lock_contentions": ("guess cache + workspace + tuner "
                               "contention counters", "serve-mixed only"),
    "unattributed_frac": ("1 - sum of self times / (threads x wall)", "-"),
    "trace_overhead_frac": ("traced / untraced step_s_p50 - 1", "-"),
}
