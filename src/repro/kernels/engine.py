"""``compiled``: a second, explicit-only name for the ``fast`` engine.

The ``fast`` engine already runs its kernels on the dispatcher's
process-wide backend (the C extension when it loads), so this name
adds nothing but compatibility: campaign spec files that name
``"engine": "compiled"`` keep loading, and their points key like
``auto`` because both produce the ``banked`` result family. ``auto``
never picks it.
"""

from __future__ import annotations

from repro.core.engine import register_engine
from repro.core.fastsim import FastEngine


class _CompiledAlias(FastEngine):
    name = "compiled"
    description = "alias of 'fast', kept for spec files that name it"
    auto_eligible = False


register_engine(_CompiledAlias())
