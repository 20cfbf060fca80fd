"""The one worker pool behind every process fan-out.

The grid-chunk fan-out of
:func:`repro.analysis.sweep.simulate_selected` (for in-memory traces
and streams alike) and the claim-queue drain
(:func:`repro.campaign.service.queue.drain_campaign`) both fan out
through :func:`worker_pool`. Its initializer ships three things to
every worker, once:

* the parent's plugin registrations — custom engines, metrics and
  templates. Built-ins re-register themselves on import, but a plugin
  exists only in the process that registered it, so a worker started
  with ``spawn`` would otherwise not know a custom engine name (crash)
  or silently drop a custom metric's values. Plugins must pickle;
* the parent's kernel backend (:func:`repro.kernels.dispatch.active_backend`),
  so a backend pinned with ``use_backend`` holds in the workers too,
  not only one pinned through ``REPRO_KERNELS``;
* one per-pool state object (a trace plan, a stream factory, drain
  parameters), which task functions read back with
  :func:`worker_state`, so task payloads stay a few hundred bytes no
  matter how long the trace is.

Workers start with the platform's default method, except from a process
with other threads running — the campaign server's HTTP handlers, a
drain worker's lease heartbeat — where they spawn: a forked child
inherits every lock held at that instant, SQLite's own mutexes among
them, and would block on the first one forever.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.core.engine import Engine, custom_engines, install_engines
from repro.core.metrics import (
    MeasurementTemplate,
    Metric,
    custom_metrics,
    custom_templates,
    install_metrics,
    install_templates,
)
from repro.kernels import dispatch

#: This worker's per-pool state, installed by :func:`_install_worker`.
_pool_state: Any = None


def _install_worker(
    state: Any,
    engines: tuple[Engine, ...],
    metrics: tuple[Metric, ...],
    templates: tuple[MeasurementTemplate, ...],
    backend: str,
) -> None:
    """Pool initializer: the parent's plugins and backend, then the pool's state."""
    install_templates(templates)
    install_metrics(metrics)
    install_engines(engines)
    dispatch.set_backend(backend)
    global _pool_state
    _pool_state = state


def worker_state() -> Any:
    """The state object the running pool shipped to this worker."""
    return _pool_state


def worker_pool(max_workers: int, state: Any) -> ProcessPoolExecutor:
    """A process pool whose workers hold the parent's plugins and ``state``.

    Tasks submitted to it must be top-level functions (they pickle by
    reference) and read the shared state through :func:`worker_state`.
    """
    threaded = threading.active_count() > 1
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context("spawn") if threaded else None,
        initializer=_install_worker,
        initargs=(
            state,
            custom_engines(),
            custom_metrics(),
            custom_templates(),
            dispatch.active_backend(),
        ),
    )
