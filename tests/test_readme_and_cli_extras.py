"""Executable-documentation tests: README snippets and new CLI commands."""

from __future__ import annotations

import functools

import pytest

from repro.cli import main


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs_as_documented(self):
        """The README's quickstart, verbatim in spirit (shorter trace)."""
        from repro import (
            ArchitectureConfig,
            CacheGeometry,
            WorkloadGenerator,
            profile_for,
            simulate,
        )

        geometry = CacheGeometry(size_bytes=16 * 1024, line_size=16)
        trace = WorkloadGenerator(geometry, num_windows=200).generate(
            profile_for("sha")
        )
        config = ArchitectureConfig(
            geometry,
            num_banks=4,
            policy="probing",
            update_period_cycles=trace.horizon // 16,
        )
        result = simulate(config, trace)
        text = result.describe()
        assert "sha" in text
        assert result.lifetime_years > 2.93
        assert 0.0 < result.energy_savings < 1.0

    def test_package_docstring_doctest(self):
        """The example in repro/__init__.py must stay runnable."""
        import doctest

        import repro

        result = doctest.testmod(repro, verbose=False)
        assert result.attempted > 0
        assert result.failed == 0

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestReadmeStreaming:
    def test_streaming_snippet_runs_as_documented(self, tmp_path):
        """The README's 'Streaming large traces' example, smaller sizes."""
        from repro import (
            ArchitectureConfig,
            CacheGeometry,
            WorkloadGenerator,
            open_trace_stream,
            profile_for,
            save_trace_mmap,
            simulate,
            simulate_stream,
            stream_sweep,
        )

        geometry = CacheGeometry(size_bytes=16 * 1024, line_size=16)
        generator = WorkloadGenerator(geometry, num_windows=40)
        profile = profile_for("dijkstra")

        # file-backed stream (memory-mapped directory format)
        trace = generator.generate(profile)
        save_trace_mmap(trace, tmp_path / "huge.mmap")
        stream = open_trace_stream(tmp_path / "huge.mmap", chunk_cycles=4096)
        config = ArchitectureConfig(geometry, num_banks=4)
        assert (
            simulate_stream(config, stream).bank_stats
            == simulate(config, trace).bank_stats
        )

        # whole grid in one pass over the synthetic stream
        base = ArchitectureConfig(
            geometry,
            num_banks=4,
            policy="probing",
            update_period_cycles=generator.horizon // 16,
        )
        grid = stream_sweep(
            base,
            generator.stream(profile, chunk_cycles=4096),
            {"num_banks": [2, 4], "breakeven_override": [5, 20]},
        )
        assert len(grid) == 4
        assert grid.best("lifetime_years").result.lifetime_years > 0

        # the same grid split across worker processes, one pass each,
        # from a picklable factory
        factory = functools.partial(generator.stream, profile, 4096)
        split = stream_sweep(
            base,
            factory,
            {"num_banks": [2, 4], "breakeven_override": [5, 20]},
            parallel=2,
        )
        assert [p.result for p in split] == [p.result for p in grid]


class TestCLIExtras:
    def test_profile_command(self, capsys):
        assert main(["profile", "sha", "--size", "8"]) == 0
        out = capsys.readouterr().out
        assert "bank shares" in out
        assert "footprint" in out

    def test_profile_unknown_benchmark_raises_helpfully(self, capsys):
        assert main(["profile", "nosuch"]) == 2
        assert "known:" in capsys.readouterr().err

    def test_arch_includes_gate_overhead(self, capsys):
        assert main(["arch", "--banks", "4"]) == 0
        out = capsys.readouterr().out
        assert "gate-equivalents" in out
        assert "access-path depth" in out

    def test_version_attribute(self):
        import repro

        assert repro.__version__ == "1.0.0"
