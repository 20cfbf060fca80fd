"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import main


class TestCLI:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_cell_command(self, capsys):
        assert main(["cell"]) == 0
        out = capsys.readouterr().out
        assert "fresh read SNM" in out
        assert "2.93 years" in out

    def test_cell_with_sleep(self, capsys):
        assert main(["cell", "--psleep", "0.68"]) == 0
        out = capsys.readouterr().out
        assert "lifetime: 5.9" in out

    def test_arch_command(self, capsys):
        assert main(["arch", "--size", "16", "--banks", "4"]) == 0
        out = capsys.readouterr().out
        assert "breakeven time" in out
        assert "5 bits" in out or "6 bits" in out

    def test_policies_command(self, capsys):
        assert main(["policies", "--banks", "4"]) == 0
        out = capsys.readouterr().out
        assert "probing" in out
        assert "scrambling" in out

    def test_engines_marks_the_pinned_backend_selected(self, capsys, kernels_env):
        kernels_env("numpy")
        assert main(["engines"]) == 0
        lines = capsys.readouterr().out.splitlines()
        selected = [line.split()[0] for line in lines if "(selected)" in line]
        assert selected == ["numpy"]

    def test_engines_rejects_a_bogus_backend(self, capsys, kernels_env):
        kernels_env("bogus")
        assert main(["engines"]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert "registered simulation engines" not in captured.out

    def test_engine_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["--engine", "warp", "cell"])

    def test_sweep_command(self, capsys):
        assert main(
            ["sweep", "--windows", "40", "--banks", "2,4", "--breakevens", "20,80"]
        ) == 0
        out = capsys.readouterr().out
        assert "8 points" in out
        assert "probing" in out
        assert "best lifetime" in out
        assert "points/s" in out

    def test_sweep_chunk_cycles_streams_identically(self, capsys):
        args = ["sweep", "--windows", "40", "--banks", "2,4",
                "--breakevens", "20,80"]
        assert main(args) == 0
        in_memory = capsys.readouterr().out
        assert main(args + ["--chunk-cycles", "4096"]) == 0
        streamed = capsys.readouterr().out
        assert "[streamed, 4,096-cycle chunks]" in streamed
        # Identical point rows and best-point line; only the header
        # suffix and the timing line may differ.
        strip = lambda out: [
            line for line in out.splitlines()
            if not line.startswith(("dijkstra:", "swept "))
        ]
        assert strip(in_memory) == strip(streamed)

    def test_sweep_rejects_bad_chunk_cycles(self, capsys):
        assert main(["sweep", "--windows", "40", "--chunk-cycles", "-1"]) == 2
        assert "--chunk-cycles" in capsys.readouterr().err

    def test_sweep_rejects_bad_updates(self, capsys):
        assert main(["sweep", "--updates", "0"]) == 2
        assert "--updates must be >= 1" in capsys.readouterr().err
        assert main(["sweep", "--windows", "40", "--updates", "999999999"]) == 2
        assert "exceeds the trace horizon" in capsys.readouterr().err

    def test_sweep_reports_invalid_grid_cleanly(self, capsys):
        """--banks 1 with the default dynamic-policy axis is an invalid
        grid point; the CLI must report it, not dump a traceback."""
        assert main(["sweep", "--windows", "40", "--banks", "1"]) == 2
        assert "at least two banks" in capsys.readouterr().err

    def test_sweep_rejects_malformed_axes(self, capsys):
        assert main(["sweep", "--banks", "2,"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err
        assert main(["sweep", "--breakevens", "5,x"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["policies", "--banks", "3"],
            ["arch", "--banks", "3"],
            ["cell", "--p0", "2"],
            ["profile", "nosuch"],
            ["sweep", "--windows", "5"],
            ["estimate", "validate", "--banks", "2,x"],
        ],
        ids=["policies", "arch", "cell", "profile", "sweep", "estimate"],
    )
    def test_invalid_input_exits_2_without_traceback(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "stats", "sha", "--windows", "20", "--json"],
            ["profile", "sha", "--size", "8"],
            ["estimate", "validate", "--benchmarks", "sha", "--banks", "2",
             "--windows", "20"],
        ],
        ids=["trace-stats", "profile", "estimate-validate"],
    )
    def test_global_seed_reaches_generated_workloads(self, capsys, argv):
        outputs = []
        for seed in ("7", "2011"):
            assert main(["--seed", seed, *argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]
        # The default seed is 2011.
        assert main(argv) == 0
        assert capsys.readouterr().out == outputs[1]

    def test_sweep_save_writes_loadable_results(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--windows", "40", "--banks", "2",
             "--policies", "static,probing", "--save", str(path)]
        ) == 0
        assert "saved 2 results" in capsys.readouterr().out
        from repro.core.serialize import load_results

        records = load_results(path)
        assert len(records) == 2
        assert records[0].architecture().num_banks == 2

    def test_engine_flag_accepted(self, capsys):
        """--engine threads through to the runner settings; the cheap
        cell command just checks the flag parses."""
        assert main(["--engine", "reference", "cell"]) == 0
        assert "fresh read SNM" in capsys.readouterr().out

    @pytest.mark.slow
    def test_table1_quick(self, capsys):
        assert main(["--quick", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "vs paper" in out

    @pytest.mark.slow
    def test_table4_quick_with_compare(self, capsys):
        assert main(["--quick", "table4", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "Idle_M8" in out

    @pytest.mark.slow
    def test_headline_quick(self, capsys):
        assert main(["--quick", "headline"]) == 0
        out = capsys.readouterr().out
        assert "power management only" in out


class TestCampaignCLI:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-test",
                    "traces": [
                        {"kind": "synthetic",
                         "params": {"benchmark": "sha", "num_windows": 40}}
                    ],
                    "base": {
                        "geometry": {"size_bytes": 8192, "line_size": 16},
                        "num_banks": 4,
                        "policy": "probing",
                        "update_period_cycles": 5120,
                    },
                    "axes": {"num_banks": [2, 4]},
                }
            )
        )
        return path

    def test_run_then_rerun_reuses_everything(self, capsys, spec_path, tmp_path):
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec_path), "--dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "simulated 2, reused 0" in out
        assert "sha" in out
        assert main(["campaign", "run", str(spec_path), "--dir", str(store)]) == 0
        assert "simulated 0, reused 2" in capsys.readouterr().out

    def test_status_tracks_store_coverage(self, capsys, spec_path, tmp_path):
        store = tmp_path / "store"
        assert main(["campaign", "status", str(spec_path), "--dir", str(store)]) == 0
        assert "0/2 points done, 2 missing" in capsys.readouterr().out
        assert main(["campaign", "run", str(spec_path), "--dir", str(store)]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(spec_path), "--dir", str(store)]) == 0
        assert "2/2 points done, 0 missing" in capsys.readouterr().out

    def test_show_renders_store_and_saved_files(self, capsys, spec_path, tmp_path):
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec_path), "--dir", str(store)]) == 0
        capsys.readouterr()
        assert main(["campaign", "show", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2 stored records" in out
        assert "sha" in out

    def test_bad_spec_reports_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert main(["campaign", "run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["campaign", "run", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Every command that synthesizes a workload runs with its defaults
# ----------------------------------------------------------------------
def leaf_commands(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """Each runnable command path of an argparse tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from leaf_commands(child, (*path, name))
            return
    yield path


SMOKE_SPEC = {
    "name": "smoke",
    "traces": [{"kind": "synthetic", "params": {"benchmark": "sha", "num_windows": 20}}],
    "base": {"geometry": {"size_bytes": 8192, "line_size": 16}},
}

#: The commands that synthesize a workload, each with the arguments of
#: its smoke run: its required positionals and its tiny-size flags
#: (``--quick``, ``--windows``), nothing else. ``{spec}`` is a spec
#: file naming a 20-window synthetic trace.
SYNTHESIZING = {
    ("table1",): ["--quick", "table1"],
    ("table2",): ["--quick", "table2"],
    ("table3",): ["--quick", "table3"],
    ("table4",): ["--quick", "table4"],
    ("headline",): ["--quick", "headline"],
    ("profile",): ["profile", "dijkstra"],
    ("trace", "stats"): ["trace", "stats", "dijkstra", "--windows", "20"],
    ("sweep",): ["sweep", "--windows", "20"],
    ("estimate", "validate"): ["estimate", "validate", "--windows", "20"],
    ("campaign", "run"): ["campaign", "run", "{spec}"],
}

#: The commands that synthesize nothing themselves.
NOT_SYNTHESIZING = {
    ("cell",), ("arch",), ("policies",), ("engines",), ("metrics",), ("lint",),
    ("campaign", "show"), ("campaign", "migrate"),
    # Coverage comes from the spec's keys, not from its traces.
    ("campaign", "status"),
    # A long-running service, and its client: the service's drain is
    # the campaign runner smoked above.
    ("campaign", "serve"), ("campaign", "submit"),
}


def test_every_command_is_classified():
    from repro.cli import build_parser

    assert set(leaf_commands(build_parser())) == set(SYNTHESIZING) | NOT_SYNTHESIZING


@pytest.mark.parametrize("path", sorted(SYNTHESIZING), ids=" ".join)
def test_synthesizing_command_runs_with_defaults(path, capsys, monkeypatch, tmp_path):
    from repro.trace.generator import WorkloadGenerator

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMOKE_SPEC))
    built = []
    init = WorkloadGenerator.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WorkloadGenerator, "__init__", spy)
    monkeypatch.chdir(tmp_path)
    code = main([arg.replace("{spec}", str(spec)) for arg in SYNTHESIZING[path]])
    err = capsys.readouterr().err
    assert code == 0 or (code == 2 and err.startswith("error: ")), err
    assert "Traceback" not in err
    assert built, "the command synthesized no workload"
