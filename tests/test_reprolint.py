"""reprolint: rule firing/near-miss fixtures, baseline, CLI, self-check.

Every built-in rule gets (a) a fixture snippet that MUST fire placed at
a path inside the rule's scope, and (b) a near-miss snippet that must
NOT fire — the compliant spelling of the same operation. The self-check
test then asserts the real tree is clean with an empty baseline, which
is the CI gate's contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import reprolint
from reprolint import (
    Finding,
    LintError,
    Rule,
    apply_baseline,
    get_rule,
    load_baseline,
    register_rule,
    rule_ids,
    run_lint,
    save_baseline,
    unregister_rule,
)
from reprolint.framework import Module
from reprolint.report import render_github, render_json, render_sarif

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint_snippet(tmp_path, rel, code, select):
    """Write ``code`` at ``rel`` under tmp_path and lint it with one rule."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(code)
    return run_lint([os.fspath(path)], select=(select,))


# ---------------------------------------------------------------------------
# Rule fixtures: (rule, path-in-scope, firing snippet, near-miss snippet)
# ---------------------------------------------------------------------------

RULE_FIXTURES = [
    (
        "REPRO001",
        "power/idleness.py",
        # The PR 2 bug class: weights= bincount accumulates in float64.
        "import numpy as np\n"
        "def kernel(banks, gaps):\n"
        "    return np.bincount(banks, weights=gaps)\n",
        "import numpy as np\n"
        "def kernel(banks, gaps, n):\n"
        "    out = np.zeros(n, dtype=np.int64)\n"
        "    np.add.at(out, banks, gaps)\n"
        "    return out\n",
    ),
    (
        "REPRO001",
        "core/fastsim.py",
        # Float dtype and true division inside a counter kernel.
        "import numpy as np\n"
        "def kernel(n):\n"
        "    buf = np.zeros(n, dtype=np.float64)\n"
        "    return buf.sum() / n\n",
        # Derived rates live in @property accessors; // is integer math.
        "import numpy as np\n"
        "class Stats:\n"
        "    def __init__(self, hits, accesses):\n"
        "        self.hits = hits\n"
        "        self.accesses = accesses\n"
        "    @property\n"
        "    def hit_rate(self):\n"
        "        return self.hits / self.accesses\n"
        "def kernel(total, n):\n"
        "    return total // n\n",
    ),
    (
        "REPRO002",
        "campaign/codec.py",
        "import json\n"
        "def canonical(payload):\n"
        "    return json.dumps(payload, indent=2)\n",
        "import json\n"
        "def canonical(payload):\n"
        "    return json.dumps(payload, sort_keys=True,\n"
        "                      separators=(',', ':'), allow_nan=False)\n",
    ),
    (
        "REPRO002",
        "campaign/tracespec.py",
        # Set iteration order feeding a hashed payload.
        "def payload_fields(params):\n"
        "    return list({k for k in params})\n",
        "def payload_fields(params):\n"
        "    return sorted({k for k in params})\n",
    ),
    (
        "REPRO003",
        "campaign/store.py",
        # Exactly the save_trace_mmap meta.json bug this rule caught.
        "import json\n"
        "def put(path, payload):\n"
        "    with open(path, 'w') as handle:\n"
        "        json.dump(payload, handle)\n",
        "from repro.core.serialize import write_json_atomic\n"
        "def put(path, payload):\n"
        "    write_json_atomic(path, payload)\n",
    ),
    (
        "REPRO004",
        "analysis/sweep.py",
        "def pick(engine, configs):\n"
        "    if engine == 'fast':\n"
        "        return group_path(configs)\n"
        "    return slow_path(configs)\n",
        # Capability query instead of a name check; unrelated string
        # comparisons (policy names) stay silent.
        "def pick(engine_obj, configs, policy):\n"
        "    if policy == 'static':\n"
        "        configs = configs[:1]\n"
        "    run_group = getattr(engine_obj, 'run_group', None)\n"
        "    if run_group is not None:\n"
        "        return run_group(configs)\n"
        "    return slow_path(configs)\n",
    ),
    (
        "REPRO005",
        "analysis/sweep.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def fan_out(payloads, trace):\n"
        "    with ProcessPoolExecutor(max_workers=4) as pool:\n"
        "        return [pool.submit(lambda p: simulate(p, trace), p)\n"
        "                for p in payloads]\n",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def fan_out(payloads, trace, lut):\n"
        "    with ProcessPoolExecutor(max_workers=4, initializer=_init_worker,\n"
        "                             initargs=(trace, lut)) as pool:\n"
        "        return list(pool.map(_simulate_chunk, payloads))\n",
    ),
    (
        "REPRO006",
        "core/anything.py",
        "def load(path):\n"
        "    try:\n"
        "        return _read(path)\n"
        "    except:\n"
        "        pass\n"
        "    raise ValueError('bad file')\n",
        "from repro.errors import SerializationError\n"
        "def load(path):\n"
        "    try:\n"
        "        return _read(path)\n"
        "    except OSError:\n"
        "        pass\n"
        "    raise SerializationError('bad file')\n",
    ),
    (
        "REPRO007",
        "trace/synthetic.py",
        "import time\n"
        "import numpy as np\n"
        "def jitter(n):\n"
        "    np.random.seed(int(time.time()))\n"
        "    return np.random.randint(0, 10, size=n)\n",
        "import time\n"
        "import numpy as np\n"
        "def jitter(n, seed):\n"
        "    start = time.perf_counter()\n"
        "    rng = np.random.default_rng(seed)\n"
        "    draws = rng.integers(0, 10, size=n)\n"
        "    _ = time.perf_counter() - start\n"
        "    return draws\n",
    ),
    (
        "REPRO008",
        "core/streamsim.py",
        # Resetting carry state per chunk: results silently diverge on
        # multi-chunk inputs only.
        "import numpy as np\n"
        "class Tracker:\n"
        "    def __init__(self, n):\n"
        "        self.last_access = np.zeros(n, dtype=np.int64)\n"
        "    def process_chunk(self, chunk):\n"
        "        self.last_access = np.zeros(chunk.size, dtype=np.int64)\n",
        "import numpy as np\n"
        "class Tracker:\n"
        "    def __init__(self, n):\n"
        "        self.last_access = np.zeros(n, dtype=np.int64)\n"
        "        self.hits = 0\n"
        "    def process_chunk(self, chunk, idx):\n"
        "        self.hits += int(chunk.size)\n"
        "        self.last_access[idx] = chunk.cycles\n"
        "        self.last_access = np.maximum(self.last_access, 0)\n",
    ),
    (
        "REPRO009",
        "core/fastsim.py",
        # Bypassing the dispatch layer pins one backend and crashes
        # numpy-only environments when that backend is cext.
        "from repro.kernels import _cext\n"
        "import repro.kernels._numpy as fallback\n"
        "def kernel(tags, starts, ways):\n"
        "    return _cext.lru_walk(tags, starts, ways)\n",
        # The dispatch layer owns backend selection and fallback.
        "from repro.kernels import dispatch as kernels\n"
        "def kernel(tags, starts, ways, backend=None):\n"
        "    return kernels.lru_walk(tags, starts, ways, backend=backend)\n",
    ),
    (
        "REPRO003",
        "campaign/records.py",
        # Interprocedural: json.dump hidden in a helper whose caller is
        # NOT an atomic writer still fires.
        "import json\n"
        "def _emit(handle, payload):\n"
        "    json.dump(payload, handle)\n"
        "def save(path, payload):\n"
        "    with open(path, 'w') as handle:\n"
        "        _emit(handle, payload)\n",
        # The same helper reached only from write_json_atomic is the
        # sanctioned delegation pattern.
        "import json, os, tempfile\n"
        "def _emit(handle, payload):\n"
        "    json.dump(payload, handle)\n"
        "def write_json_atomic(path, payload):\n"
        "    fd, tmp = tempfile.mkstemp(dir='.')\n"
        "    with os.fdopen(fd, 'w') as handle:\n"
        "        _emit(handle, payload)\n"
        "    os.replace(tmp, path)\n",
    ),
    (
        "REPRO010",
        "campaign/service/index.py",
        # Interprocedural: the index module may *hold* connections but a
        # public method handing one out (via a private wrapper) leaks
        # the fork-hostile handle to arbitrary callers.
        "import sqlite3\n"
        "class CampaignIndex:\n"
        "    def _connect(self):\n"
        "        return sqlite3.connect(':memory:')\n"
        "    def connection(self):\n"
        "        return self._connect()\n",
        # Private plumbing plus operation-shaped public surface.
        "import sqlite3\n"
        "class CampaignIndex:\n"
        "    def _connect(self) -> sqlite3.Connection:\n"
        "        return sqlite3.connect(':memory:')\n"
        "    def count(self):\n"
        "        return self._connect().execute('select 1').fetchone()[0]\n",
    ),
    (
        "REPRO011",
        "campaign/service/state.py",
        # A module-global sqlite connection read by pool-worker code is
        # inherited across fork() with shared locking state.
        "import sqlite3\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "_DB = sqlite3.connect('index.db')\n"
        "def _task(key):\n"
        "    return _DB.execute('select 1').fetchone()\n"
        "def run(keys):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(_task, keys))\n",
        # The _pool_state pattern: a None-initialized slot the pool
        # initializer fills inside each worker.
        "from concurrent.futures import ProcessPoolExecutor\n"
        "_state = None\n"
        "def _init(path):\n"
        "    global _state\n"
        "    _state = {'path': path}\n"
        "def _task(key):\n"
        "    return (_state['path'], key)\n"
        "def run(keys, path):\n"
        "    with ProcessPoolExecutor(initializer=_init,\n"
        "                             initargs=(path,)) as pool:\n"
        "        return list(pool.map(_task, keys))\n",
    ),
    (
        "REPRO012",
        "campaign/service/server.py",
        # self.active written by the Thread-target loop AND by ordinary
        # code, with neither side holding the class's lock.
        "import threading\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.active = None\n"
        "    def start(self):\n"
        "        threading.Thread(target=self._loop, daemon=True).start()\n"
        "    def _loop(self):\n"
        "        self.active = 'draining'\n"
        "    def reset(self):\n"
        "        self.active = None\n",
        "import threading\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.active = None\n"
        "    def start(self):\n"
        "        threading.Thread(target=self._loop, daemon=True).start()\n"
        "    def _loop(self):\n"
        "        with self._lock:\n"
        "            self.active = 'draining'\n"
        "    def reset(self):\n"
        "        with self._lock:\n"
        "            self.active = None\n",
    ),
    (
        "REPRO013",
        "campaign/service/tasks.py",
        # A handle escaping a pool-reachable function outlives the call.
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def _work(path):\n"
        "    handle = open(path)\n"
        "    return handle.read()\n"
        "def run(paths):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(_work, paths))\n",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def _work(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
        "def run(paths):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(_work, paths))\n",
    ),
    (
        "REPRO014",
        "campaign/service/__init__.py",
        "def compute():\n"
        "    return 1\n"
        "__all__ = ['compute', 'missing']\n",
        "def compute():\n"
        "    return 1\n"
        "__all__ = ['compute']\n",
    ),
    (
        "REPRO015",
        "estimate/model.py",
        # Importing the replay machinery would let a tagged "estimate"
        # secretly replay the trace, voiding the fidelity contract.
        "from repro.core import fastsim\n"
        "def predict(trace):\n"
        "    return fastsim.run(trace)\n",
        # The sanctioned route: closed-form synthesis through the same
        # assembly funnel the simulators use.
        "from repro.core.simulator import assemble_result\n"
        "def predict(profile):\n"
        "    return assemble_result\n",
    ),
    (
        "REPRO010",
        "campaign/store.py",
        # A connection opened here would be inherited across the work
        # queue's fork and corrupt the index's locking state.
        "import sqlite3\n"
        "def count(path):\n"
        "    conn = sqlite3.connect(path)\n"
        "    return conn.execute('SELECT COUNT(*) FROM records').fetchone()[0]\n",
        # Going through the index keeps connections per pid/thread.
        "from repro.campaign.service.index import CampaignIndex\n"
        "def count(index: CampaignIndex) -> int:\n"
        "    return index.count()\n",
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule_id,rel,firing,_",
        RULE_FIXTURES,
        ids=[f"{r}-{os.path.basename(p)}" for r, p, _, __ in RULE_FIXTURES],
    )
    def test_rule_fires(self, tmp_path, rule_id, rel, firing, _):
        findings = lint_snippet(tmp_path, rel, firing, rule_id)
        assert findings, f"{rule_id} must fire on the fixture"
        assert all(f.rule_id == rule_id for f in findings)

    @pytest.mark.parametrize(
        "rule_id,rel,_,near_miss",
        RULE_FIXTURES,
        ids=[f"{r}-{os.path.basename(p)}" for r, p, _, __ in RULE_FIXTURES],
    )
    def test_rule_near_miss_is_silent(self, tmp_path, rule_id, rel, _, near_miss):
        assert lint_snippet(tmp_path, rel, near_miss, rule_id) == []

    def test_every_builtin_rule_has_a_firing_fixture(self):
        covered = {rule_id for rule_id, *_ in RULE_FIXTURES}
        assert set(rule_ids()) <= covered
        assert len(rule_ids()) >= 14

    def test_scoping_confines_rules(self, tmp_path):
        # A counter-purity violation outside the counter kernels is not
        # this rule's business (the energy model is float math by design).
        code = "import numpy as np\nbuf = np.zeros(4, dtype=np.float64)\n"
        assert lint_snippet(tmp_path, "power/energy.py", code, "REPRO001") == []
        assert lint_snippet(tmp_path, "power/idleness.py", code, "REPRO001") != []

    def test_registry_module_exempt_from_name_checks(self, tmp_path):
        code = "def resolve(engine):\n    return engine == 'auto'\n"
        assert lint_snippet(tmp_path, "core/engine.py", code, "REPRO004") == []
        assert lint_snippet(tmp_path, "campaign/run.py", code, "REPRO004") != []

    def test_kernels_package_exempt_from_backend_encapsulation(self, tmp_path):
        # The dispatch layer itself wires the backends together.
        code = "from repro.kernels import _cext\n"
        assert lint_snippet(tmp_path, "kernels/dispatch.py", code, "REPRO009") == []
        assert lint_snippet(tmp_path, "power/idleness.py", code, "REPRO009") != []

    def test_estimator_isolation_scoped_to_estimate_package(self, tmp_path):
        # The sweep layer legitimately drives the replay engines; only
        # the estimate tier is barred from them.
        code = "from repro.core import fastsim\n"
        assert lint_snippet(tmp_path, "analysis/sweep.py", code, "REPRO015") == []
        assert lint_snippet(tmp_path, "estimate/engine.py", code, "REPRO015") != []
        # kernels are off limits however they are spelled
        relative = "from ..kernels import dispatch\n"
        assert lint_snippet(tmp_path, "estimate/model.py", relative, "REPRO015") != []

    def test_index_module_exempt_from_sqlite_encapsulation(self, tmp_path):
        # The index module is the one sanctioned connect site.
        code = "import sqlite3\nconn = sqlite3.connect(':memory:')\n"
        assert (
            lint_snippet(tmp_path, "campaign/service/index.py", code, "REPRO010")
            == []
        )
        assert lint_snippet(tmp_path, "campaign/run.py", code, "REPRO010") != []
        imported = "from sqlite3 import connect\n"
        assert lint_snippet(tmp_path, "campaign/store.py", imported, "REPRO010") != []

    def test_json_dump_inside_write_json_atomic_is_exempt(self, tmp_path):
        code = (
            "import json, os, tempfile\n"
            "def write_json_atomic(path, payload):\n"
            "    fd, tmp = tempfile.mkstemp(dir='.')\n"
            "    with os.fdopen(fd, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
            "    os.replace(tmp, path)\n"
        )
        assert lint_snippet(tmp_path, "core/serialize.py", code, "REPRO003") == []

    def test_inline_pragma_suppresses(self, tmp_path):
        code = (
            "import json\n"
            "def put(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)  # reprolint: disable=REPRO003\n"
        )
        assert lint_snippet(tmp_path, "campaign/store.py", code, "REPRO003") == []

    def test_syntax_error_is_reported_not_fatal(self, tmp_path):
        findings = lint_snippet(tmp_path, "core/broken.py", "def broken(:\n", "REPRO003")
        assert [f.rule_id for f in findings] == ["REPRO000"]


class TestRegistry:
    def test_mirrors_engine_registry_semantics(self):
        class Probe(Rule):
            rule_id = "REPRO999"
            title = "probe"

            def check(self, module):
                return []

        register_rule(Probe())
        try:
            assert "REPRO999" in rule_ids()
            assert isinstance(get_rule("REPRO999"), Probe)
            with pytest.raises(LintError, match="already registered"):
                register_rule(Probe())
            register_rule(Probe(), replace=True)
        finally:
            unregister_rule("REPRO999")
        assert "REPRO999" not in rule_ids()

    def test_malformed_id_rejected(self):
        class Bad(Rule):
            rule_id = "LINT1"

            def check(self, module):
                return []

        with pytest.raises(LintError, match="malformed"):
            register_rule(Bad())

    def test_unknown_rule_is_self_diagnosing(self):
        with pytest.raises(LintError, match="REPRO001"):
            get_rule("REPRO404")

    def test_custom_rule_participates_in_run_lint(self, tmp_path):
        class NoTodo(Rule):
            rule_id = "REPRO900"
            title = "no TODO identifiers"
            scope = ("*.py",)

            def check(self, module: Module):
                import ast

                for node in ast.walk(module.tree):
                    if isinstance(node, ast.Name) and node.id == "TODO":
                        yield self.finding(module, node, "TODO found")

        register_rule(NoTodo())
        try:
            findings = lint_snippet(tmp_path, "core/x.py", "TODO = 1\n", "REPRO900")
            assert [f.rule_id for f in findings] == ["REPRO900"]
        finally:
            unregister_rule("REPRO900")


class TestBaseline:
    def test_round_trip_and_consumption(self, tmp_path):
        finding = Finding("src/x.py", 10, 1, "REPRO003", "direct json.dump")
        twin = Finding("src/x.py", 99, 1, "REPRO003", "direct json.dump")
        path = os.fspath(tmp_path / "baseline.json")
        save_baseline(path, [finding])
        entries = load_baseline(path)
        # Line drift does not resurrect a grandfathered finding...
        fresh, suppressed = apply_baseline([twin], entries)
        assert fresh == [] and suppressed == 1
        # ...but the baseline is a multiset: a second identical
        # violation is new debt.
        fresh, suppressed = apply_baseline([finding, twin], entries)
        assert len(fresh) == 1 and suppressed == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(os.fspath(tmp_path / "nope.json")) == []

    def test_corrupt_baseline_is_loud(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(LintError, match="baseline"):
            load_baseline(os.fspath(path))

    def test_truncated_baseline_is_loud(self, tmp_path):
        # A partially written baseline (crash mid-write, bad merge) must
        # fail loudly, not silently grandfather nothing.
        path = os.fspath(tmp_path / "baseline.json")
        save_baseline(path, [Finding("src/x.py", 1, 1, "REPRO003", "boom")])
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(LintError, match="baseline"):
            load_baseline(path)

    def test_repo_baseline_is_empty(self):
        entries = load_baseline(os.path.join(REPO_ROOT, ".reprolint-baseline.json"))
        assert entries == []


class TestSelfCheck:
    def test_src_tree_is_clean_with_empty_baseline(self):
        # The CI gate's contract: the shipped tree has zero findings
        # and needs zero grandfathering.
        findings = run_lint([os.path.join(REPO_ROOT, "src", "repro")])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_seeded_violation_is_caught(self, tmp_path):
        # Reverting the meta.json atomic write (the rule's historical
        # catch) must flip the gate red: copy the real module, put the
        # bug back, lint the copy.
        import re

        source_path = os.path.join(REPO_ROOT, "src", "repro", "trace", "stream.py")
        with open(source_path, encoding="utf-8") as handle:
            source = handle.read()
        assert "write_json_atomic" in source
        seeded = source.replace(
            "from repro.core.serialize import write_json_atomic\n\n"
            "    write_json_atomic(os.path.join(directory, MMAP_META), meta)",
            'with open(os.path.join(directory, MMAP_META), "w") as handle:\n'
            "        json.dump(meta, handle, indent=2)",
        )
        assert seeded != source
        target = tmp_path / "trace" / "stream.py"
        target.parent.mkdir(parents=True)
        target.write_text(seeded)
        findings = run_lint([os.fspath(target)], select=("REPRO003",))
        assert [f.rule_id for f in findings] == ["REPRO003"]
        assert re.search(r"write_json_atomic", findings[0].message)


class TestProjectModel:
    """Unit coverage for the whole-program model the project rules share."""

    @staticmethod
    def make_project(files):
        from reprolint.project import Project

        return Project(Module(rel, rel, text) for rel, text in files.items())

    def test_entry_points_cover_pools_threads_and_handlers(self):
        text = (
            "import threading\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from http.server import BaseHTTPRequestHandler\n"
            "def _task(key):\n"
            "    return key\n"
            "def _init():\n"
            "    pass\n"
            "class Handler(BaseHTTPRequestHandler):\n"
            "    def do_GET(self):\n"
            "        pass\n"
            "class Service:\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._loop).start()\n"
            "    def _loop(self):\n"
            "        pass\n"
            "def run(keys):\n"
            "    with ProcessPoolExecutor(initializer=_init) as pool:\n"
            "        return list(pool.map(_task, keys))\n"
        )
        project = self.make_project({"service/app.py": text})
        entries = {(e.function.qualname, e.kind) for e in project.entry_points()}
        assert ("_task", "process") in entries
        assert ("_init", "process") in entries
        assert ("Service._loop", "thread") in entries
        assert ("Handler.do_GET", "thread") in entries

    def test_reachability_follows_calls_across_modules(self):
        files = {
            "service/helpers.py": (
                "def helper(x):\n"
                "    return leaf(x)\n"
                "def leaf(x):\n"
                "    return x\n"
                "def unused(x):\n"
                "    return x\n"
            ),
            "service/app.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from service.helpers import helper\n"
                "def _task(key):\n"
                "    return helper(key)\n"
                "def run(keys):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(_task, keys))\n"
            ),
        }
        project = self.make_project(files)
        reached = {qualname for _, qualname in project.service_reachable()}
        assert {"_task", "helper", "leaf"} <= reached
        assert "unused" not in reached
        assert "run" not in reached

    def test_callers_are_the_reverse_call_graph(self):
        project = self.make_project(
            {
                "pkg/mod.py": (
                    "def leaf():\n"
                    "    return 1\n"
                    "def a():\n"
                    "    return leaf()\n"
                    "def b():\n"
                    "    return leaf()\n"
                )
            }
        )
        symbols = project.module_symbols("pkg/mod.py")
        leaf = symbols.functions["leaf"]
        assert {fn.qualname for fn in project.callers(leaf)} == {"a", "b"}

    def test_global_readers_cross_module_alias(self):
        files = {
            "service/state.py": (
                "import sqlite3\n"
                "_DB = sqlite3.connect('x.db')\n"
                "def reads():\n"
                "    return _DB.execute('select 1')\n"
                "def ignores():\n"
                "    return 1\n"
            ),
            "service/user.py": (
                "from service.state import _DB\n"
                "def touch():\n"
                "    return _DB\n"
            ),
        }
        project = self.make_project(files)
        readers = {
            fn.qualname
            for fn in project.global_readers("service/state.py", "_DB")
        }
        assert readers == {"reads", "touch"}


class TestDeadPragmas:
    def test_dead_pragma_is_reported(self, tmp_path):
        path = tmp_path / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("X = 1  # reprolint: disable=REPRO003\n")
        findings = run_lint([os.fspath(path)])
        assert [f.rule_id for f in findings] == ["REPRO000"]
        assert "dead pragma" in findings[0].message
        assert "REPRO003" in findings[0].message

    def test_live_pragma_is_not_dead(self, tmp_path):
        path = tmp_path / "campaign" / "store.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import json\n"
            "def put(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)  # reprolint: disable=REPRO003\n"
        )
        findings = run_lint([os.fspath(path)])
        assert not any(f.rule_id == "REPRO000" for f in findings)

    def test_opt_out_flag_silences_dead_pragmas(self, tmp_path):
        path = tmp_path / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("X = 1  # reprolint: disable=REPRO003\n")
        assert run_lint([os.fspath(path)], check_pragmas=False) == []

    def test_narrowed_run_does_not_judge_unran_rules(self, tmp_path):
        # disable=REPRO007 cannot be proven dead by a run that only
        # executed REPRO003.
        path = tmp_path / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("X = 1  # reprolint: disable=REPRO007\n")
        assert run_lint([os.fspath(path)], select=("REPRO003",)) == []

    def test_docstring_mention_is_not_a_pragma(self, tmp_path):
        # Prose *about* the pragma syntax (this file's own docs do
        # this) has no comment token and is never audited.
        path = tmp_path / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            '"""Example:\n'
            "\n"
            "    # reprolint: disable=REPRO003\n"
            '"""\n'
            "X = 1\n"
        )
        assert run_lint([os.fspath(path)]) == []


class TestReports:
    def test_render_json_round_trip(self):
        finding = Finding("src/x.py", 10, 2, "REPRO003", "direct json.dump")
        payload = json.loads(render_json([finding], suppressed=3))
        assert payload["version"] == 1
        assert payload["count"] == 1
        assert payload["suppressed"] == 3
        assert payload["findings"] == [finding.to_dict()]

    def test_render_github_escapes_workflow_syntax(self):
        finding = Finding("src/x.py", 3, 5, "REPRO007", "50% of runs\ndiverge")
        out = render_github([finding])
        assert out == (
            "::error file=src/x.py,line=3,col=5,"
            "title=REPRO007::50%25 of runs%0Adiverge"
        )

    def test_render_sarif_document(self):
        finding = Finding("src/x.py", 3, 5, "REPRO003", "boom")
        document = json.loads(render_sarif([finding]))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["REPRO003"]
        result = run["results"][0]
        assert result["ruleId"] == "REPRO003"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/x.py"
        assert location["region"] == {"startLine": 3, "startColumn": 5}

    def test_render_sarif_empty_run_is_valid(self):
        document = json.loads(render_sarif([]))
        assert document["runs"][0]["results"] == []
        assert document["runs"][0]["tool"]["driver"]["rules"] == []


class TestCli:
    def run_cli(self, *argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "reprolint", *argv],
            capture_output=True,
            text=True,
            cwd=cwd or REPO_ROOT,
        )

    def test_repo_root_invocation_is_clean(self):
        # The acceptance-criterion spelling, from an uninstalled
        # checkout: `python -m reprolint src/repro` exits 0.
        proc = self.run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_findings_fail_with_json_report(self, tmp_path):
        bad = tmp_path / "campaign" / "store.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import json\n"
            "def put(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
        )
        proc = self.run_cli(os.fspath(bad), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "REPRO003"

    def test_baseline_flow(self, tmp_path):
        bad = tmp_path / "campaign" / "store.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import json\n"
            "def put(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
        )
        baseline = os.fspath(tmp_path / "baseline.json")
        wrote = self.run_cli(os.fspath(bad), "--baseline", baseline, "--write-baseline")
        assert wrote.returncode == 0
        gated = self.run_cli(os.fspath(bad), "--baseline", baseline)
        assert gated.returncode == 0
        assert "suppressed" in gated.stdout

    def test_default_scope_is_clean(self):
        # No paths → src/repro + tools/reprolint + benchmarks, the CI
        # invocation. Whole tree, whole-program rules, zero findings.
        proc = self.run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_select_unknown_rule_is_usage_error(self):
        proc = self.run_cli("src/repro", "--select", "REPRO404")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_nonexistent_path_is_usage_error(self, tmp_path):
        proc = self.run_cli(os.fspath(tmp_path / "nope"))
        assert proc.returncode == 2
        assert "no such file or directory" in proc.stderr

    def test_default_paths_missing_is_usage_error(self, tmp_path):
        # From a directory with none of the default trees, the implicit
        # invocation refuses rather than lint nothing and exit 0.
        env = dict(os.environ, PYTHONPATH=REPO_ROOT)
        proc = subprocess.run(
            [sys.executable, "-m", "reprolint"],
            capture_output=True,
            text=True,
            cwd=os.fspath(tmp_path),
            env=env,
        )
        assert proc.returncode == 2
        assert "none of the default paths" in proc.stderr

    def test_github_format_annotates(self, tmp_path):
        bad = tmp_path / "campaign" / "store.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import json\n"
            "def put(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
        )
        proc = self.run_cli(os.fspath(bad), "--format", "github")
        assert proc.returncode == 1
        assert proc.stdout.startswith("::error file=")
        assert "title=REPRO003" in proc.stdout

    def test_sarif_format_parses(self, tmp_path):
        bad = tmp_path / "campaign" / "store.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import json\n"
            "def put(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
        )
        proc = self.run_cli(os.fspath(bad), "--format", "sarif")
        assert proc.returncode == 1
        document = json.loads(proc.stdout)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "REPRO003"

    def test_no_check_pragmas_flag(self, tmp_path):
        stale = tmp_path / "core" / "x.py"
        stale.parent.mkdir(parents=True)
        stale.write_text("X = 1  # reprolint: disable=REPRO003\n")
        audited = self.run_cli(os.fspath(stale))
        assert audited.returncode == 1
        assert "REPRO000" in audited.stdout and "dead pragma" in audited.stdout
        opted_out = self.run_cli(os.fspath(stale), "--no-check-pragmas")
        assert opted_out.returncode == 0, opted_out.stdout + opted_out.stderr

    def test_list_rules_names_all_builtins(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in rule_ids():
            assert rule_id in proc.stdout

    def test_repro_lint_subcommand(self):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src/repro"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_version_importable(self):
        assert reprolint.__version__
