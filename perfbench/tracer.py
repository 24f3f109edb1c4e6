"""Run the shotfactor CLI with timing wrappers on each layer's public functions.

    python3 perfbench/tracer.py TRACE_JSON <shotfactor arguments...>

The wrappers are installed from outside the package: nothing under ``src/``
knows it is traced.  ``pipeline.py`` and ``evaluate.py`` import the functions
they call by name, and ``fit_nmf`` looks its update and loss up in module
dicts, so every wrapper replaces the original wherever a module namespace or
module-level dict holds it.  When the CLI returns, the per-layer metrics are
written to TRACE_JSON, and the process exits with the CLI's exit code.

A layer is a package module.  Each wrapped call is a span: its self time is
its duration minus that of the wrapped calls made inside it, and a layer's
self time is the sum over its spans.  Hot kernels (per sampler move, per NMF
iteration, per held-out row) are aggregated into a count and a total time;
every other call also keeps a span record (name, start, end, parent).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = (
    "pipeline",
    "court",
    "gp",
    "lgcp",
    "backend",
    "nmf",
    "efficiency",
    "evaluate",
    "synth",
)

# backend binds each kernel's public name to one implementation at import
# time; only these public names are wrapped, whichever implementation it is.
KERNELS = (
    "poisson_field_loglik",
    "bernoulli_logits_loglik",
    "draw_type_indices",
    "aggregate_outcomes",
    "sq_exp_matrix",
    "mixture_probability_surface",
)

# Called per sampler move, NMF iteration, held-out row or shot: count and
# total time only, no span record per call.
HOT = {
    "court.tile_index",
    "gp.sample_field",
    "lgcp.ess_step",
    "lgcp.ess_update",
    "lgcp.poisson_loglik",
    "lgcp.poisson_count_loglik",
    "nmf.nmf_step_kl",
    "nmf.nmf_step_frobenius",
    "nmf.kl_loss",
    "nmf.frobenius_loss",
    "efficiency.sample_shot_types",
    "efficiency.gibbs_beta_step",
    "efficiency.gibbs_sigma_update",
    "efficiency.efficiency_surface",
    "evaluate.heldout_loglik",
} | {f"backend.{k}" for k in KERNELS}

# Calls of the inner function made while the outer one runs.
INNER_COUNTS = {
    "lgcp.fit_lgcp": "backend.poisson_field_loglik",
    "efficiency.fit_efficiency": "backend.bernoulli_logits_loglik",
}

STAGES = ("ingest", "lgcp", "factorize", "efficiency", "evaluate")
NMF_LOSSES = ("kl", "frobenius")

# Every per-layer metric with its unit.  synth.* come from the traced synth
# run; pipeline.cpu_s, pipeline.artifact_bytes and trace.* are measured by
# the benchmark around the traced process.
UNITS = {
    **{f"pipeline.stage_s.{s}": "s" for s in STAGES},
    "pipeline.stages_skipped": "count",
    "pipeline.skip_check_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "pipeline.cpu_s": "s",
    "court.read_shot_csv_s": "s",
    "court.split_holdout_s": "s",
    "court.build_count_matrix_s": "s",
    "court.read_count_csv_s": "s",
    "gp.build_cov_factor_s": "s",
    "gp.cov_factor_bytes": "bytes",
    "gp.sample_field.calls": "count",
    "gp.sample_field.s": "s",
    "gp.sample_field.bytes": "bytes",
    "lgcp.fit_cohort_s": "s",
    "lgcp.fit_lgcp_s.p50": "s",
    "lgcp.fit_lgcp_s.p90": "s",
    "lgcp.ess_moves": "count",
    "lgcp.loglik_evals": "count",
    "lgcp.evals_per_move": "evals/move",
    **{f"backend.{k}.calls": "count" for k in KERNELS},
    **{f"backend.{k}.s": "s" for k in KERNELS},
    "nmf.fit_nmf.factorize.calls": "count",
    "nmf.fit_nmf.factorize.s": "s",
    "nmf.fit_nmf.evaluate.calls": "count",
    "nmf.fit_nmf.evaluate.s": "s",
    **{f"nmf.step.{loss}.calls": "count" for loss in NMF_LOSSES},
    **{f"nmf.step.{loss}.s": "s" for loss in NMF_LOSSES},
    **{f"nmf.loss.{loss}.calls": "count" for loss in NMF_LOSSES},
    **{f"nmf.loss.{loss}.s": "s" for loss in NMF_LOSSES},
    "nmf.capped": "fits/fit",
    "efficiency.fit_efficiency_s": "s",
    "efficiency.sweeps_per_s": "1/s",
    "efficiency.sample_shot_types_s": "s",
    "efficiency.gibbs_beta_step_s": "s",
    "efficiency.efficiency_surface_s": "s",
    "efficiency.slice_evals_per_sweep": "evals/sweep",
    "evaluate.compare_surfaces_s": "s",
    "evaluate.heldout_loglik.calls": "count",
    "evaluate.heldout_loglik.s": "s",
    "evaluate.fit_pca_s": "s",
    "synth.generate_dataset_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_share": "s/s",
}


class Tracer:
    """Span bookkeeping for one traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # wrapped-child time of each open span
        self.calls = {}  # name -> [count, total seconds]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.spans = []  # [name, start, end, parent index] of non-hot calls
        self.open_spans = []
        self.inner = dict.fromkeys(INNER_COUNTS, 0)
        self.stage = None
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.stages_skipped = 0
        self.skip_check_s = 0.0
        self.cov_dim = 0
        self.nmf = {"factorize": [0, 0.0], "evaluate": [0, 0.0]}
        self.nmf_fits = 0
        self.nmf_capped = 0
        self.sweeps = 0

    def _stat(self, name):
        return self.calls.setdefault(name, [0, 0.0])

    def hot(self, fn, name, layer):
        stat = self._stat(name)
        stack, clock, layer_self = self.stack, self.clock, self.layer_self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = stack.pop()
                stat[0] += 1
                stat[1] += duration
                layer_self[layer] += duration - inner
                if stack:
                    stack[-1] += duration

        return wrapper

    def cold(self, fn, name, layer, hook=None):
        stat = self._stat(name)
        inner_name = INNER_COUNTS.get(name)
        inner_stat = self._stat(inner_name) if inner_name else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.open_spans[-1] if self.open_spans else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
            self.open_spans.append(index)
            inner_before = inner_stat[0] if inner_stat else 0
            self.stack.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                duration = end - start
                inner = self.stack.pop()
                self.open_spans.pop()
                self.spans[index][1:3] = [start, end]
                stat[0] += 1
                stat[1] += duration
                self.layer_self[layer] += duration - inner
                if self.stack:
                    self.stack[-1] += duration
                if inner_stat:
                    self.inner[name] += inner_stat[0] - inner_before
            if hook:
                hook(args, kwargs, result, duration)
            return result

        return wrapper

    # -- hooks for functions whose arguments or results feed a metric ------

    def stage_runner(self, run):
        """Wrap StageRunner.run: time each stage and its skip decision."""

        def traced_run(runner, name, outputs, fn):
            entered = self.clock()
            body_start = []

            def body():
                body_start.append(self.clock())
                return fn()

            self.stage = name
            try:
                return run(runner, name, outputs, body)
            finally:
                left = self.clock()
                self.stage = None
                self.stage_s[name] = self.stage_s.get(name, 0.0) + left - entered
                self.skip_check_s += (body_start[0] if body_start else left) - entered
                if not body_start:
                    self.stages_skipped += 1

        return self.cold(traced_run, "pipeline.StageRunner.run", "pipeline")

    def on_cov_factor(self, args, kwargs, result, duration):
        self.cov_dim = result.dim

    def on_fit_efficiency(self, args, kwargs, result, duration):
        self.sweeps += result.config.sweeps

    def nmf_hook(self, fit_nmf, default_iters):
        signature = inspect.signature(fit_nmf)

        def hook(args, kwargs, result, duration):
            bound = signature.bind(*args, **kwargs)
            config = bound.arguments.get("config")
            max_iters = config.max_iters if config is not None else default_iters
            stat = self.nmf.get(self.stage)
            if stat is not None:
                stat[0] += 1
                stat[1] += duration
            self.nmf_fits += 1
            self.nmf_capped += int(result.n_iters >= max_iters)

        return hook

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions wherever the package holds them."""
        modules = {
            name: importlib.import_module(f"shotfactor.{name}") for name in LAYERS
        }
        modules["cli"] = importlib.import_module("shotfactor.cli")
        package = importlib.import_module("shotfactor")
        nmf_module = modules["nmf"]
        default_iters = nmf_module.NmfConfig().max_iters
        hooks = {
            "gp.build_cov_factor": self.on_cov_factor,
            "nmf.fit_nmf": self.nmf_hook(nmf_module.fit_nmf, default_iters),
            "efficiency.fit_efficiency": self.on_fit_efficiency,
        }
        replacements = {}  # id(original) -> wrapper; wrappers keep originals alive
        for layer in LAYERS:
            module = modules[layer]
            if layer == "backend":
                names = KERNELS
            else:
                names = [
                    n
                    for n, obj in vars(module).items()
                    if not n.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ]
            for fn_name in names:
                original = getattr(module, fn_name)
                name = f"{layer}.{fn_name}"
                if name in HOT:
                    wrapper = self.hot(original, name, layer)
                else:
                    wrapper = self.cold(original, name, layer, hooks.get(name))
                replacements[id(original)] = wrapper
        runner = modules["pipeline"].StageRunner
        runner.run = self.stage_runner(runner.run)
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replacements:
                            value[key] = replacements[id(item)]
        return modules["cli"]

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics this process can see (see UNITS)."""

        def count(name):
            return self.calls.get(name, [0, 0.0])[0]

        def total(name):
            return self.calls.get(name, [0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        fit_lgcp = [end - start for name, start, end, _ in self.spans if name == "lgcp.fit_lgcp"]
        p50 = statistics.median(fit_lgcp) if fit_lgcp else 0.0
        p90 = (
            statistics.quantiles(fit_lgcp, n=10)[8]
            if len(fit_lgcp) > 1
            else (fit_lgcp[0] if fit_lgcp else 0.0)
        )
        cov_bytes = self.cov_dim**2 * 8
        out = {
            **{f"pipeline.stage_s.{s}": self.stage_s[s] for s in STAGES},
            "pipeline.stages_skipped": self.stages_skipped,
            "pipeline.skip_check_s": self.skip_check_s,
            "court.read_shot_csv_s": total("court.read_shot_csv"),
            "court.split_holdout_s": total("court.split_holdout"),
            "court.build_count_matrix_s": total("court.build_count_matrix"),
            "court.read_count_csv_s": total("court.read_count_csv"),
            "gp.build_cov_factor_s": total("gp.build_cov_factor"),
            "gp.cov_factor_bytes": cov_bytes,
            "gp.sample_field.calls": count("gp.sample_field"),
            "gp.sample_field.s": total("gp.sample_field"),
            "gp.sample_field.bytes": count("gp.sample_field") * cov_bytes,
            "lgcp.fit_cohort_s": total("lgcp.fit_cohort"),
            "lgcp.fit_lgcp_s.p50": p50,
            "lgcp.fit_lgcp_s.p90": p90,
            "lgcp.ess_moves": count("lgcp.ess_step"),
            "lgcp.loglik_evals": self.inner["lgcp.fit_lgcp"],
            "lgcp.evals_per_move": ratio(
                self.inner["lgcp.fit_lgcp"], count("lgcp.ess_step")
            ),
            **{f"backend.{k}.calls": count(f"backend.{k}") for k in KERNELS},
            **{f"backend.{k}.s": total(f"backend.{k}") for k in KERNELS},
            **{f"nmf.fit_nmf.{stage}.calls": c for stage, (c, _) in self.nmf.items()},
            **{f"nmf.fit_nmf.{stage}.s": s for stage, (_, s) in self.nmf.items()},
            **{f"nmf.step.{loss}.calls": count(f"nmf.nmf_step_{loss}") for loss in NMF_LOSSES},
            **{f"nmf.step.{loss}.s": total(f"nmf.nmf_step_{loss}") for loss in NMF_LOSSES},
            **{f"nmf.loss.{loss}.calls": count(f"nmf.{loss}_loss") for loss in NMF_LOSSES},
            **{f"nmf.loss.{loss}.s": total(f"nmf.{loss}_loss") for loss in NMF_LOSSES},
            "nmf.capped": ratio(self.nmf_capped, self.nmf_fits),
            "efficiency.fit_efficiency_s": total("efficiency.fit_efficiency"),
            "efficiency.sweeps_per_s": ratio(
                self.sweeps, total("efficiency.fit_efficiency")
            ),
            "efficiency.sample_shot_types_s": total("efficiency.sample_shot_types"),
            "efficiency.gibbs_beta_step_s": total("efficiency.gibbs_beta_step"),
            "efficiency.efficiency_surface_s": total("efficiency.efficiency_surface"),
            "efficiency.slice_evals_per_sweep": ratio(
                self.inner["efficiency.fit_efficiency"], self.sweeps
            ),
            "evaluate.compare_surfaces_s": total("evaluate.compare_surfaces"),
            "evaluate.heldout_loglik.calls": count("evaluate.heldout_loglik"),
            "evaluate.heldout_loglik.s": total("evaluate.heldout_loglik"),
            "evaluate.fit_pca_s": total("nmf.fit_pca"),
            "synth.generate_dataset_s": total("synth.generate_dataset"),
            **{f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS},
        }
        return out


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_JSON <shotfactor arguments...>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.install()
    code = cli.main(cli_args)
    with open(trace_path, "w") as f:
        json.dump(
            {
                "metrics": tracer.metrics(),
                "calls": tracer.calls,
                "spans": tracer.spans,
            },
            f,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
