"""The traced benchmark's layer table names code that exists.

``perfbench/run.py --trace 1`` times each layer of ``perfbench/layers.json``
by wrapping its ``module:function`` or ``module:Class.method`` targets.
A method is looked up in the owning class's own ``__dict__`` (a wrapper
installed on a subclass or a base would time the wrong calls), so a
renamed target, or a pinned method that a refactor leaves inherited,
breaks the traced run. This test resolves every target the same way,
reading ``perfbench/`` without running it.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"
TARGETS = [
    target
    for layer in json.loads(LAYERS.read_text(encoding="utf-8"))["layers"]
    for target in layer["targets"]
]


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{target}: not defined on {owner.__name__} itself"
        value = owner.__dict__[attr]
    else:
        value = getattr(owner, attr)
    assert callable(value), target
