"""In-process spans around calls into magsense's layers, and per-layer metrics.

magsense binds its cross-module calls at import time (``from .lindblad import
evolve_lindblad``), so each wrapper replaces the name in the module that
calls it, not in the module that defines it. No code under ``src/`` changes.

Each span records its name, start, end, parent span and the id of the CLI
command it ran under. Spans stay in memory until the run ends. A layer's self
time is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

PROTOCOL_KINDS = (
    "spectroscopy",
    "ramsey",
    "ramsey-series",
    "relaxation",
    "decay-phase",
    "decay-spectroscopy",
    "parametric-scan",
)
FIT_FAMILIES = (
    "gaussian",
    "lorentzian",
    "exponential-decay",
    "saturating-exponential",
    "sinusoid",
    "damped-sinusoid",
    "double-gaussian",
    "polynomial",
)

# Counts that must repeat exactly between two traced runs of the same inputs.
REPEATABLE = (
    "lindblad.rk4_steps",
    "readout.shots_drawn",
    *(f"fitting.fit_calls.{f}" for f in FIT_FAMILIES),
    *(f"fitting.lm_iters.{f}" for f in FIT_FAMILIES),
    "sweep.bytes_written",
    "sweep.bytes_read",
)

# Span name (or name prefix) -> metric that takes the span's self time.
_SELF_TIME = {
    "config.load": "config.load_s",
    "lindblad.evolve": "lindblad.evolve_s",
    "readout.sample": "readout.sample_s",
    "sweep.write": "sweep.write_s",
    "sweep.read": "sweep.read_s",
    "subsample.draw": "subsample.draw_s",
    "lifetimes.estimate": "lifetimes.estimate_s",
    "sensitivity.curve": "sensitivity.curve_s",
    "runner.analyses": "runner.analyses_s",
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"config.load_s": "s"}
    units.update({f"protocols.execute_s.{k}": "s" for k in PROTOCOL_KINDS})
    units.update(
        {
            "lindblad.evolve_s": "s",
            "lindblad.evolve_calls": "count",
            "lindblad.rk4_steps": "count",
            "lindblad.max_trace_drift": "dimensionless",
            "readout.sample_s": "s",
            "readout.sample_calls": "count",
            "readout.shots_drawn": "count",
            "sweep.write_s": "s",
            "sweep.bytes_written": "B",
            "sweep.sidecar_bytes": "B",
            "sweep.read_s": "s",
            "sweep.bytes_read": "B",
        }
    )
    for family in FIT_FAMILIES:
        units[f"fitting.fit_s.{family}"] = "s"
        units[f"fitting.fit_calls.{family}"] = "count"
        units[f"fitting.lm_iters.{family}"] = "count"
    units.update(
        {
            "fitting.converged_ratio": "ratio",
            "subsample.draw_s": "s",
            "subsample.draw_calls": "count",
            "lifetimes.estimate_s": "s",
            "sensitivity.curve_s": "s",
            "runner.analyses_s": "s",
            "runner.self_s": "s",
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    command: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    # (path, opened for writing) of files opened inside an I/O span
    opened: list | None = None


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    Files opened inside ``sweep`` spans are seen through an audit hook, so
    byte counts follow whatever files the dataset layer reads or writes.
    """

    def __init__(self, work: Path):
        self.work = work.resolve()
        self.enabled = False
        self.command = ""
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        sys.addaudithook(self._audit)

    def _audit(self, event, args):
        if event != "open" or not self._stack or self._stack[-1].opened is None:
            return
        path, mode, flags = args
        if path is None or isinstance(path, int):
            return
        if isinstance(mode, str):
            writing = any(c in mode for c in "wax+")
        else:
            writing = bool(flags & (os.O_WRONLY | os.O_RDWR))
        self._stack[-1].opened.append((os.fsdecode(os.fspath(path)), writing))

    def wrap(self, module, attr: str, name, observe=None, io: bool = False) -> None:
        """Replace ``module.attr`` with a wrapper that records a span.

        ``name`` is the span name, or a function of the call's arguments that
        returns it. ``observe(span, arguments, result)`` sets the span's
        counts; ``arguments()`` binds the call's arguments to their names.
        """
        fn = getattr(module, attr)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1].id if tracer._stack else None
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            span = Span(len(tracer.spans), span_name, parent, tracer.command, 0.0, opened=[] if io else None)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(span, lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(module, attr, traced)

    def install(self, magsense) -> None:
        """Wrap the layer entry points where magsense's modules bind them."""
        cli, runner, protocols = magsense.cli, magsense.runner, magsense.protocols
        self.wrap(cli, "load_config", "config.load")
        self.wrap(runner, "execute_protocol", lambda node, config: f"protocols.execute.{node.kind}")
        self.wrap(protocols, "evolve_lindblad", "lindblad.evolve", _observe_evolve)
        self.wrap(protocols, "sample_readout", "readout.sample", _observe_sample)
        self.wrap(runner, "write_dataset", "sweep.write", self._observe_write, io=True)
        for module in (runner, cli):
            self.wrap(module, "read_dataset", "sweep.read", self._observe_read, io=True)
            self.wrap(module, "run_analyses", "runner.analyses")
        self.wrap(cli, "load_artifact", "runner.load_artifact")
        for module in (runner, magsense.lifetimes, magsense.sensitivity, magsense.analysis):
            self.wrap(module, "fit_curve", "fitting.fit", _observe_fit)
        self.wrap(runner, "subsample_time_budget", "subsample.draw", _observe_draw)
        for attr in ("lifetime_from_phase", "lifetime_from_frequency", "extract_kappa_m_from_scan"):
            self.wrap(runner, attr, "lifetimes.estimate")
        for attr in ("fit_power_spectra", "fit_noise_profile", "sensitivity_curve"):
            self.wrap(runner, attr, "sensitivity.curve")

    def _sizes(self, span: Span, writing: bool) -> dict:
        """Size of each distinct work-directory file the span opened."""
        sizes = {}
        for raw, was_writing in span.opened:
            path = Path(raw).resolve()
            if was_writing == writing and path.is_relative_to(self.work) and path.is_file():
                sizes[path] = path.stat().st_size
        return sizes

    def _observe_write(self, span, arguments, result):
        sizes = self._sizes(span, writing=True)
        target = Path(arguments()["path"]).resolve()
        span.counts = {
            "sweep.bytes_written": sum(sizes.values()),
            "sweep.sidecar_bytes": sum(n for p, n in sizes.items() if p != target),
        }

    def _observe_read(self, span, arguments, result):
        span.counts = {"sweep.bytes_read": sum(self._sizes(span, writing=False).values())}


def _observe_evolve(span, arguments, result):
    bound = arguments()
    t0, t1 = bound["tspan"]
    span.counts = {
        "lindblad.evolve_calls": 1,
        "lindblad.rk4_steps": round((t1 - t0) / bound["dt"]),
        "lindblad.max_trace_drift": result.max_trace_drift,
    }


def _observe_sample(span, arguments, result):
    span.counts = {"readout.sample_calls": 1, "readout.shots_drawn": result.n_shots}


def _observe_draw(span, arguments, result):
    span.counts = {"subsample.draw_calls": 1}


def _observe_fit(span, arguments, result):
    family = result.model.family
    span.name = f"fitting.fit.{family}"
    span.counts = {
        f"fitting.fit_calls.{family}": 1,
        f"fitting.lm_iters.{family}": result.n_iter,
        "fitting.converged": int(result.converged),
    }


def layer_metrics(spans: list[Span], wall: float) -> dict:
    """Per-layer self times and counts of one traced session of ``wall`` seconds."""
    metrics = {name: 0 for name in metric_units() if not name.startswith("trace.")}
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    accounted = 0.0
    converged = 0
    for span in spans:
        own = span.end - span.start - covered[span.id]
        if span.name.startswith("protocols.execute."):
            metric = "protocols.execute_s." + span.name[len("protocols.execute."):]
        elif span.name.startswith("fitting.fit."):
            metric = "fitting.fit_s." + span.name[len("fitting.fit."):]
        elif span.name == "runner.load_artifact":
            continue  # artifact bookkeeping belongs to the runner's own time
        else:
            metric = _SELF_TIME[span.name]
        if metric not in metrics:
            raise KeyError(f"span {span.name!r} has no metric; add it to BENCHMARK.json")
        metrics[metric] += own
        accounted += own
        for key, value in span.counts.items():
            if key == "fitting.converged":
                converged += value
            elif key == "lindblad.max_trace_drift":
                metrics[key] = max(metrics[key], value)
            else:
                metrics[key] += value
    fits = sum(metrics[f"fitting.fit_calls.{f}"] for f in FIT_FAMILIES)
    metrics["fitting.converged_ratio"] = converged / fits if fits else 0.0
    metrics["runner.self_s"] = wall - accounted
    return metrics


def span_records(spans: list[Span]) -> list[dict]:
    return [{k: v for k, v in asdict(s).items() if k != "opened"} for s in spans]
