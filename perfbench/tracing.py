"""Outside-in tracing of the four hoisearch layers.

`Tracer.install` wraps the public functions of ``hoisearch.subsets``,
``hoisearch.models``, ``hoisearch.search`` and ``hoisearch.cli`` (each
module's ``__all__`` functions, plus ``Schedule.step`` and ``cli.main``) and
puts each wrapper into every ``hoisearch.*`` namespace that holds the same
function object, so calls through ``from .models import ...`` bindings are
timed too. `Tracer.restore` puts the originals back; a later `install`
reuses the same wrappers.

A span is ``(function, start, end, parent span, raised)``; spans stay in
memory until `Tracer.metrics` reduces them. A span's self time is its
duration minus the time its child spans cover.

Counters named ``*_computed`` are derived from the traced calls' arguments,
not measured: flops, bytes and ratios that the inputs imply.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

# Group membership of every traced function, by module. A function that a
# later version adds to a module's __all__ falls into the module's "other"
# group: it counts towards the module's totals and has no group metric.
GROUPS: dict[str, dict[str, tuple[str, ...]]] = {
    "subsets": {
        "enumerate_sectors": ("enumerate_sectors",),
        "exact": ("decomposition_coefficient", "identity_decomposition", "coherence_expansion"),
        "pairing": ("signed_pairing_count", "signed_pairing_count_closed"),
    },
    "models": {
        "build": ("build_sector_space", "classical_model", "quantum_model", "synthetic_model",
                  "model_from_descriptor"),
        "oracle": ("sign_flip_oracle",),
        "verify": ("verify_oracle", "coherence_projector", "slit_projector", "inner", "norm",
                   "coherence_completeness_defect", "verify_coherence_completeness",
                   "coherence_orthogonality_defects", "verify_coherence_orthogonality",
                   "coherence_from_slit_projectors", "interference_order"),
        "lift": ("embed_density", "unembed_density", "lift_superoperator",
                 "lift_unitary_conjugation"),
        "haar": ("haar_orthogonal", "random_reversible"),
    },
    "search": {
        "schedule": ("Schedule.step", "diffusion_unitary", "reflection_about", "grover_schedule",
                     "reflection_schedule", "random_schedule", "constant_schedule",
                     "make_schedule"),
        "propagate": ("uniform_start", "run_search"),
        "amplitude": ("quantum_grover_report",),
        "measures": ("success_probability", "oracle_displacement", "progress_measures"),
        "checks": ("check_upper_bound", "analytic_crossing_floor", "check_lower_bound"),
        "sweep": ("scaling_sweep", "default_k_max"),
        "serialise": ("write_report_csv", "write_sweep_csv", "reports_to_json",
                      "sweep_to_json"),
    },
    "cli": {
        "main": ("main",),
    },
}
MODULES = tuple(GROUPS)


# Units of the counters beyond self time, calls and errors, in report order.
COUNTERS = {
    "subsets.pairing.triples": "count",
    "models.oracle.calls": "count",
    "models.lift.calls": "count",
    "models.lift.columns_computed": "count",
    "models.haar.draws": "count",
    "models.haar.flops_computed": "flop",
    "models.haar.cols_computed": "count",
    "models.haar.useful_col_ratio_computed": "ratio",
    "search.schedule.steps": "count",
    "search.propagate.queries": "count",
    "search.propagate.flops_computed": "flop",
    "search.propagate.state_mb_computed": "MB",
    "search.amplitude.queries": "count",
    "search.amplitude.bytes_computed": "B",
    "search.trajectory.simulated_computed": "count",
    "search.trajectory.distinct_ratio_computed": "ratio",
    "search.serialise.bytes": "B",
}


def metric_unit(name: str) -> str:
    if name in COUNTERS:
        return COUNTERS[name]
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Wraps the hoisearch layers, records spans, reduces them to metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._names: list[tuple[str, str, str]] = []  # function id -> (module, group, name)
        self._patches: list[tuple[object, str, object, object]] | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.state_mb_max = 0.0
        self.hook_errors = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches or ()):
            setattr(owner, attr, original)

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced binding."""
        import hoisearch.cli
        import hoisearch.search

        patches = []
        targets: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for module in MODULES:
            mod = sys.modules[f"hoisearch.{module}"]
            names = ("main",) if module == "cli" else tuple(getattr(mod, "__all__", ()))
            for name in names:
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and id(fn) not in targets:
                    targets[id(fn)] = (fn, self._wrap(fn, module, name))
        for module_name, mod in list(sys.modules.items()):
            if module_name != "hoisearch" and not module_name.startswith("hoisearch."):
                continue
            for attr, value in vars(mod).items():
                if id(value) in targets and targets[id(value)][0] is value:
                    patches.append((mod, attr, value, targets[id(value)][1]))
        schedule = getattr(hoisearch.search, "Schedule", None)
        step = getattr(schedule, "__dict__", {}).get("step")
        if isinstance(step, types.FunctionType):
            patches.append((schedule, "step", step, self._wrap(step, "search", "Schedule.step")))
        return patches

    def _wrap(self, fn, module: str, name: str):
        group = next((g for g, members in GROUPS[module].items() if name in members), "other")
        fid = len(self._names)
        self._names.append((module, group, name))
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn) if hook is not None else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, raised)
                if hook is not None and not raised:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        hook(bound.arguments, result)
                    except Exception:  # a changed signature must not stop the run
                        self.hook_errors += 1

        return traced

    # -- counters derived from arguments ------------------------------------

    def _hook_main(self, _a, result) -> None:
        if result != 0:
            self.counts["cli.nonzero_exits"] += 1

    def _hook_lift_superoperator(self, a, _result) -> None:
        self.counts["models.lift.columns_computed"] += a["model"].space.total_dim

    def _hook_haar_orthogonal(self, a, _result) -> None:
        dim = a["dim"]
        self.counts["models.haar.flops_computed"] += (4.0 / 3.0) * dim**3

    def _hook_run_search(self, a, _result) -> None:
        model, schedule, k_max = a["model"], a["schedule"], a["k_max"]
        m_dim = model.space.total_dim
        n_marked = model.n_slits if a["marked"] is None else len(a["marked"])
        c = self.counts
        c["search.propagate.queries"] += k_max * n_marked
        c["search.propagate.flops_computed"] += k_max * (n_marked + 1) * m_dim**2
        state_mb = (k_max + 1) * (n_marked + 1) * m_dim * 8 / 1e6
        self.state_mb_max = max(self.state_mb_max, state_mb)
        c["search.trajectory.simulated_computed"] += n_marked
        random = schedule.name.startswith("random")
        if not random and a["start"] is None and a["marked"] is None:
            # a schedule that commutes with relabelling the items, from the
            # uniform start: every marked trajectory is a relabelled copy of one
            c["search.trajectory.distinct"] += 1
        else:
            c["search.trajectory.distinct"] += n_marked
        if random:
            c["models.haar.useful_cols"] += k_max * min(n_marked + 1, m_dim)
            c["models.haar.cols_computed"] += k_max * m_dim

    def _hook_quantum_grover_report(self, a, _result) -> None:
        n, k_max = a["n_items"], a["k_max"]
        c = self.counts
        c["search.amplitude.queries"] += k_max * n
        c["search.amplitude.bytes_computed"] += k_max * n * n * 8
        c["search.trajectory.simulated_computed"] += n
        c["search.trajectory.distinct"] += 1

    def _hook_write_report_csv(self, a, _result) -> None:
        self.counts["search.serialise.bytes"] += a["fh"].tell()

    _hook_write_sweep_csv = _hook_write_report_csv

    def _hook_reports_to_json(self, _a, result) -> None:
        self.counts["search.serialise.bytes"] += len(result.encode("utf-8"))

    _hook_sweep_to_json = _hook_reports_to_json

    # -- reduction ----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        by_name: dict[str, int] = defaultdict(int)
        top_level = 0.0
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            fid, start, end, parent, raised = span
            module, group, name = self._names[fid]
            own = (end - start) - child[index]
            self_s[module] += own
            self_s[f"{module}.{group}"] += own
            calls[module] += 1
            by_name[name] += 1
            errors[module] += int(raised)
            if parent < 0:
                top_level += end - start

        c = self.counts
        out: dict[str, float] = {}
        for module, groups in GROUPS.items():
            out[f"{module}.self_s"] = self_s[module]
            out[f"{module}.calls"] = calls[module]
            out[f"{module}.errors"] = errors[module]
            if len(groups) > 1:
                for group in groups:
                    out[f"{module}.{group}.self_s"] = self_s[f"{module}.{group}"]
        derived = {
            "subsets.pairing.triples": by_name["signed_pairing_count"],
            "models.oracle.calls": by_name["sign_flip_oracle"],
            "models.lift.calls": by_name["lift_superoperator"],
            "models.haar.draws": by_name["haar_orthogonal"],
            "models.haar.useful_col_ratio_computed": _ratio(
                c["models.haar.useful_cols"], c["models.haar.cols_computed"]),
            "search.schedule.steps": by_name["Schedule.step"],
            "search.propagate.state_mb_computed": self.state_mb_max,
            "search.trajectory.distinct_ratio_computed": _ratio(
                c["search.trajectory.distinct"], c["search.trajectory.simulated_computed"]),
        }
        out["cli.errors"] += c["cli.nonzero_exits"]
        for name in COUNTERS:
            out[name] = derived[name] if name in derived else c[name]
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        # the job loop's own time inside the job timings, outside cli.main
        out["trace.residual_s"] = traced_wall - top_level
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
