"""Unit tests for the command-line front-end."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E4"])
        assert args.experiments == ["E4"]
        assert args.preset == "quick"

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policy == "odd-even"
        assert args.n == 128

    def test_adversary_choices_come_from_the_adversaries_package(self):
        from repro.adversaries import ADVERSARY_NAMES

        parser = build_parser()
        for name in ADVERSARY_NAMES:
            assert parser.parse_args(
                ["simulate", "--adversary", name]
            ).adversary == name
        assert parser.parse_args(
            ["certify", "--adversary", "attack"]
        ).adversary == "attack"

    @pytest.mark.parametrize("argv, lanes", [
        (["serve"], 64),
        (["serve", "--batch-max-lanes", "8"], 8),
        (["serve", "--no-batching"], 1),
        (["serve", "--no-batching", "--batch-max-lanes", "8"], 1),
    ])
    def test_no_batching_means_one_lane_batches(
        self, monkeypatch, argv, lanes
    ):
        import repro.service.app as app

        seen = []
        monkeypatch.setattr(app, "run_service", lambda cfg: seen.append(cfg) or 0)
        assert main(argv) == 0
        assert seen[0].batch_max_lanes == lanes


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "odd-even" in out

    def test_describe(self, capsys):
        assert main(["describe", "e2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.13" in out

    def test_describe_unknown(self, capsys):
        assert main(["describe", "E99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "E99" in err

    def test_run_single_quick(self, capsys, tmp_path):
        code = main(["run", "E6", "--preset", "quick", "--out",
                     str(tmp_path), "--no-artifacts"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert (tmp_path / "e6.json").exists()

    def test_simulate_prints_profile(self, capsys):
        code = main(["simulate", "--policy", "greedy",
                     "--adversary", "seesaw", "-n", "32",
                     "--steps", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max height" in out
        assert "height profile" in out

    def test_simulate_uniform_seeded(self, capsys):
        main(["simulate", "--adversary", "uniform", "-n", "16",
              "--steps", "64", "--seed", "7"])
        first = capsys.readouterr().out
        main(["simulate", "--adversary", "uniform", "-n", "16",
              "--steps", "64", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_simulate_tree_engine(self, capsys):
        code = main(["simulate", "--engine", "tree",
                     "--topology", "binary:4", "--adversary", "far-end",
                     "--steps", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine=tree" in out and "n=31" in out

    def test_simulate_dag_engine(self, capsys):
        code = main(["simulate", "--engine", "dag",
                     "--topology", "diamond:3x8", "--adversary", "uniform",
                     "--steps", "64", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine=dag" in out and "n=25" in out

    def test_simulate_engine_topology_mismatch_is_friendly(self, capsys):
        code = main(["simulate", "--engine", "path",
                     "--topology", "binary:4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "path topologies" in err

    def test_simulate_engine_adversary_mismatch_is_friendly(self, capsys):
        code = main(["simulate", "--engine", "dag",
                     "--adversary", "seesaw"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "seesaw" in err

    def test_simulate_engine_policy_mismatch_is_friendly(self, capsys):
        code = main(["simulate", "--engine", "dag",
                     "--policy", "downhill"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "downhill" in err

    def test_simulate_policy_capacity_mismatch_is_friendly(self, capsys):
        # scaled-odd-even-2 requires c = 2; the CLI runs at c = 1 and
        # must fail with a clean message, not a traceback
        code = main(["simulate", "--policy", "scaled-odd-even-2",
                     "-n", "16", "--steps", "8"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_certify_path(self, capsys):
        code = main(["certify", "--topology", "path:32",
                     "--adversary", "seesaw", "--steps", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CERTIFIED path run" in out

    def test_certify_path_attack_with_figure(self, capsys):
        code = main(["certify", "--topology", "path:48",
                     "--adversary", "attack", "--show-figure"])
        assert code == 0
        out = capsys.readouterr().out
        assert "attack forced" in out
        assert "packet" in out  # figure rendered

    def test_certify_tree(self, capsys):
        code = main(["certify", "--topology", "spider:3x3",
                     "--adversary", "uniform", "--steps", "150"])
        assert code == 0
        assert "crossover pairs" in capsys.readouterr().out

    def test_certify_bad_topology(self, capsys):
        assert main(["certify", "--topology", "moebius:9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "moebius:9" in err

    @pytest.mark.parametrize("argv", [
        ["certify", "--topology", "foo:3"],
        ["certify", "--topology", "binary:3", "--adversary", "pressure",
         "--steps", "50"],
        ["certify", "--topology", "binary:0", "--steps", "10"],
        ["certify", "--topology", "layered:3x4"],
        ["simulate", "--engine", "tree", "--topology", "binary:0",
         "--steps", "10"],
        ["simulate", "--engine", "path", "--topology", "path:1",
         "--steps", "10"],
        ["simulate", "--engine", "tree", "--topology", "spider:0x3",
         "--steps", "10"],
        ["simulate", "--engine", "tree", "--topology", "layered:2x2"],
        ["describe", "E99"],
        ["simulate", "--engine", "dag", "--adversary", "seesaw"],
        ["simulate", "--engine", "path", "--topology", "binary:4"],
    ])
    def test_refusals_are_one_error_line_and_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("engine, adversary", [
        ("path", "pressure"), ("tree", "pre-sink"), ("tree", "seesaw"),
        ("dag", "far-end"), ("dag", "max-chaser"),
    ])
    def test_adversaries_run_where_their_reset_accepts(
        self, capsys, engine, adversary
    ):
        assert main(["simulate", "--engine", engine, "--adversary",
                     adversary, "-n", "17", "--steps", "20"]) == 0
        assert f"engine={engine}" in capsys.readouterr().out


class TestRunJobsAndBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "E4"])
        assert args.jobs == 1
        assert args.bench is None

    def test_parallel_run(self, capsys, tmp_path):
        code = main(["run", "E1", "E6", "--preset", "quick",
                     "--jobs", "2", "--out", str(tmp_path),
                     "--no-artifacts"])
        assert code == 0
        out = capsys.readouterr().out
        # results stream in submission order despite the pool
        assert out.index("E1") < out.index("E6")
        assert "(--jobs 2)" in out

    def test_bench_record_written(self, capsys, tmp_path):
        code = main(["run", "E6", "--preset", "quick",
                     "--out", str(tmp_path), "--no-artifacts",
                     "--bench", "clitest"])
        assert code == 0
        bench = tmp_path / "BENCH_clitest.json"
        assert bench.exists()
        from repro.runner import load_bench

        record = load_bench(bench)
        assert record["sweep"]["experiments"][0]["id"] == "E6"
        assert record["engine"]["batched_sps"] > 0

    def test_failing_sweep_exits_nonzero(self, capsys, tmp_path):
        # E6 runs; the bogus preset error is isolated per experiment
        # and surfaces as exit code 1, not a traceback
        code = main(["run", "E6", "--preset", "quick", "--jobs", "1",
                     "--no-artifacts", "--faults", "/no/such/plan.json"])
        assert code == 2  # unreadable fault plan is a clean CLI error

    def test_overflow_choices_are_enum_derived(self):
        from repro.network.buffers import Overflow

        parser = build_parser()
        for o in Overflow:
            args = parser.parse_args(["simulate", "--overflow", o.value])
            assert args.overflow == o.value
        with pytest.raises(SystemExit):
            parser.parse_args(["simulate", "--overflow", "push_back"])
