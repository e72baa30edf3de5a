"""The ambient observability context: one (tracer, metrics) pair per run.

Instrumented layers read the context through :func:`get_obs` instead of
threading an argument through every signature; by default it is
:data:`NULL_OBS` (no-op tracer, no-op metrics) so an unobserved run pays
one branch per instrumentation site.  Enable observation for a scope with::

    ctx = observe()                    # fresh Tracer + MetricsRegistry
    with use_obs(ctx):
        report = run_end_to_end(...)
    ctx.tracer.summary()               # run-summary JSON payload
    ctx.metrics.snapshot()             # every counter/gauge/histogram

The context is intentionally a plain module global, not a thread-local:
trial-chunk stream threads spawned inside an observed run must see the
same tracer as the driver thread.  Process-pool workers do not inherit it —
they build their own worker tracer and metrics registry and ship records
and counters back with results (see
:func:`repro.sequence.homology.build_homology_graph`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ObsContext:
    """A tracer and a metrics registry, either of which may be the null one."""

    tracer: Tracer = field(default=NULL_TRACER)
    metrics: MetricsRegistry = field(default=NULL_METRICS)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled


NULL_OBS = ObsContext()

_current: ObsContext = NULL_OBS


def get_obs() -> ObsContext:
    """The ambient context (``NULL_OBS`` unless observation is active)."""
    return _current


def set_obs(ctx: ObsContext) -> ObsContext:
    """Install ``ctx`` as ambient; returns the previous context."""
    global _current
    previous = _current
    _current = ctx
    return previous


@contextmanager
def use_obs(ctx: ObsContext) -> Iterator[ObsContext]:
    """Scope ``ctx`` as the ambient context, restoring the old one after."""
    previous = set_obs(ctx)
    try:
        yield ctx
    finally:
        set_obs(previous)


def observe(trace: bool = True, metrics: bool = True,
            clock: Callable[[], float] | None = None) -> ObsContext:
    """A fresh context with real instruments (selectively disableable)."""
    return ObsContext(
        tracer=Tracer(clock=clock) if trace else NULL_TRACER,
        metrics=MetricsRegistry() if metrics else NULL_METRICS)
