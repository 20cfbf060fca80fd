"""The ``compiled`` engine: the fast engine on the active kernel backend.

A second :class:`~repro.core.fastsim.FastEngine` instance with
``backend=None``, so every kernel call goes to the dispatcher's active
backend: ``REPRO_KERNELS`` when set (an unknown value fails on the
first simulation), else the C extension when it loads, else numpy.
Registered unconditionally so the name always resolves; its ``auto``
priority depends on whether the C backend loads:

* C backend available → priority 20, above ``fast`` (10), so
  ``engine="auto"`` picks it up;
* numpy-only environment → priority 5, below ``fast``: the engine
  still runs, but ``auto`` keeps selecting the plain numpy engine.

Same ``family="banked"`` as ``fast``/``reference`` — the differential
fuzz suite pins both backends bit-identical, so results share store
records.
"""

from __future__ import annotations

from repro.core.engine import register_engine
from repro.core.fastsim import FastEngine
from repro.kernels import dispatch

register_engine(
    FastEngine(
        name="compiled",
        backend=None,
        priority=20 if dispatch.compiled_backend() else 5,
        description="fast-engine semantics on the active kernel backend "
        "(REPRO_KERNELS, else the best available)",
    )
)
