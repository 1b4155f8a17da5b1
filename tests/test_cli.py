import dataclasses
import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftadd
from shiftadd import bits, cli, datapath, harness, packed, power
from shiftadd.bits import Word
from shiftadd.cli import main
from shiftadd.datapath import (
    DEFAULT_BLOCK_SIZE,
    LEDGER_CATEGORIES,
    RingCostModel,
    SimResult,
    Variant,
    make_config,
)


def run_cli(*argv):
    return main(list(argv))


def check_recorded_block_size(tmp_path, flags, recorded):
    """A 5-trial sweep with ``flags`` records ``recorded`` as its block
    size in both report formats."""
    argv = ["sweep", *flags, "--trials", "5"]
    assert run_cli(*argv, "--out", str(tmp_path / "r.json"), "--format", "json") == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["metadata"]["block_size"] == recorded
    assert run_cli(*argv, "--out", str(tmp_path / "r.csv")) == 0
    comment = (tmp_path / "r.csv").read_text().splitlines()[0]
    text = ",".join(map(str, recorded)) if isinstance(recorded, list) else str(recorded)
    assert comment.split()[-1] == f"block_size={text}"


class TestVerifyCommand:
    @pytest.mark.parametrize("width", range(1, 9))
    def test_every_width_passes(self, width, capsys):
        # from a one-stage adder, 4 trials in less than a byte, to 8; widths
        # 2 and 3 repeat the shortest byte patterns of the operand slices
        assert run_cli("verify", "--width", str(width)) == 0
        pairs = 4 ** width
        assert capsys.readouterr().out.splitlines() == [
            f"width {width}: {pairs}/{pairs} products match "
            "(both architectures, native-multiply oracle)", "PASS"]

    def test_width_required(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("verify")
        assert excinfo.value.code == 2

    def test_mismatches_listed_up_to_ten(self, monkeypatch, capsys):
        # every width-3 pair misses by one on the low-power kernel: 64 mismatches
        def off_by_one(a, b, cfg):
            result = harness.run_lowpower(a, b, cfg)
            return SimResult(Word(result.product.value ^ 1, 6), result.ledger)

        monkeypatch.setattr(cli, "exhaustive_verify",
                            functools.partial(harness.exhaustive_verify, lowpower=off_by_one))
        assert run_cli("verify", "--width", "3") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("width 3: 0/64 products match "
                            "(both architectures, native-multiply oracle)")
        # the first ten in operand order: (0, 0) .. (0, 7), (1, 0), (1, 1)
        assert lines[1:9] == [f"MISMATCH lowpower: 0 x {b} -> 1, expected 0" for b in range(8)]
        assert lines[9:11] == ["MISMATCH lowpower: 1 x 0 -> 1, expected 0",
                               "MISMATCH lowpower: 1 x 1 -> 0, expected 1"]
        assert lines[11:] == ["... and 54 more", "FAIL"]

    def test_pair_missed_by_both_counted_once(self, monkeypatch, capsys):
        # both datapaths miss every width-3 pair: 128 mismatches over 64 pairs
        def off_by_one(a, b, cfg):
            result = harness.run_lowpower(a, b, cfg)  # the one packed kernel, either config
            return SimResult(Word(result.product.value ^ 1, 6), result.ledger)

        monkeypatch.setattr(cli, "exhaustive_verify", functools.partial(
            harness.exhaustive_verify, conventional=off_by_one, lowpower=off_by_one))
        assert run_cli("verify", "--width", "3") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("width 3: 0/64 products match "
                            "(both architectures, native-multiply oracle)")
        assert lines[1:3] == ["MISMATCH conv: 0 x 0 -> 1, expected 0",
                              "MISMATCH lowpower: 0 x 0 -> 1, expected 0"]
        assert lines[11:] == ["... and 118 more", "FAIL"]

    @pytest.mark.parametrize("flag", ["--ffs-cost", "--gate-cost", "--block-size"])
    def test_cost_flags_refused(self, flag, capsys):
        # a product depends on the operands and the width alone
        with pytest.raises(SystemExit) as excinfo:
            run_cli("verify", "--width", "4", flag, "2")
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestRunCommand:
    def test_product_and_ledger(self, capsys):
        assert run_cli("run", "--arch", "conv", "--width", "8", "--a", "255", "--b", "255") == 0
        out = capsys.readouterr().out
        assert "product: 65025" in out
        assert "multiplier_shift:" in out

    @pytest.mark.parametrize("arch", [variant.value for variant in Variant])
    def test_product_of_the_widest_operands(self, arch, capsys):
        # the widest product, 64 bits, out of one run at the top width
        top = str(2**32 - 1)
        assert run_cli("run", "--arch", arch, "--width", "32", "--a", top, "--b", top) == 0
        assert "product: 18446744065119617025" in capsys.readouterr().out.splitlines()

    def test_trace_output(self, capsys):
        code = run_cli(
            "run", "--arch", "lowpower", "--width", "3", "--a", "3", "--b", "2", "--trace"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "B(0)=0  000" in out
        assert "B(1)=1  011" in out
        assert "B(2)=0  000" in out
        assert "Answer -> 000110  (6)" in out
        assert "adder firings: 1" in out
        assert "product: 6" in out

    def test_rejects_out_of_range_operand(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--arch", "conv", "--width", "3", "--a", "9", "--b", "1")
        assert excinfo.value.code == 2

    def test_rejects_unknown_arch(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--arch", "fast", "--width", "3", "--a", "1", "--b", "1")
        assert excinfo.value.code == 2


class TestWidthErrors:
    @pytest.mark.parametrize("argv, named", [
        pytest.param(["run", "--arch", "conv", "--width", "0", "--a", "0", "--b", "0"],
                     "width must be in 1..32, got 0", id="argv0-width must be in 1..32, got 0"),
        pytest.param(["run", "--arch", "lowpower", "--width", "-1", "--a", "0", "--b", "0"],
                     "width must be in 1..32, got -1", id="argv1-width must be in 1..32, got -1"),
        pytest.param(["run", "--arch", "conv", "--width", "33", "--a", "0", "--b", "0"],
                     "width must be in 1..32, got 33", id="argv2-width must be in 1..32, got 33"),
        pytest.param(["verify", "--width", "0"], "width must be in 1..32, got 0",
                     id="argv3-width must be in 1..32, got 0"),
        pytest.param(["verify", "--width", "-1"], "width must be in 1..32, got -1",
                     id="argv4-width must be in 1..32, got -1"),
        pytest.param(["verify", "--width", "9"], "refused for width 9 > 8",
                     id="argv5-refused for width 9 > 8"),
    ])
    def test_usage_error_names_the_width(self, argv, named, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err


RUN_4 = ["run", "--arch", "lowpower", "--width", "4", "--a", "1", "--b", "1"]
SWEEP_4 = ["sweep", "--widths", "4", "--trials", "5", "--out", "r.csv"]


class TestCostFlagErrors:
    @pytest.mark.parametrize("argv, named", [
        pytest.param(RUN_4 + ["--ffs-cost", "0"], "--ffs-cost must be >= 1, got 0",
                     id="argv0---ffs-cost must be >= 1, got 0"),
        pytest.param(RUN_4 + ["--gate-cost", "-1"], "--gate-cost must be >= 0, got -1",
                     id="argv1---gate-cost must be >= 0, got -1"),
        pytest.param(RUN_4 + ["--block-size", "0"], "--block-size must be >= 1, got 0",
                     id="argv2---block-size must be >= 1, got 0"),
        pytest.param(SWEEP_4 + ["--ffs-cost", "-2"], "--ffs-cost must be >= 1, got -2",
                     id="argv3---ffs-cost must be >= 1, got -2"),
        pytest.param(SWEEP_4 + ["--dist", "exhaustive", "--block-size", "0"],
                     "--block-size must be >= 1, got 0",
                     id="argv4---block-size must be >= 1, got 0"),
        pytest.param(SWEEP_4 + ["--gate-cost", "-1"], "--gate-cost must be >= 0, got -1",
                     id="argv5---gate-cost must be >= 0, got -1"),
        pytest.param(SWEEP_4 + ["--block-size", "0"], "--block-size must be >= 1, got 0",
                     id="argv6---block-size must be >= 1, got 0"),
    ])
    def test_usage_error_names_the_flag(self, argv, named, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_defaults_are_the_cost_models(self, capsys):
        # s and g are defaulted once, in RingCostModel: make_config, sweep
        # and both commands' flags read it, and the help text says its values
        default = RingCostModel()
        for function in (make_config, harness.sweep):
            parameters = inspect.signature(function).parameters
            assert (parameters["s"].default, parameters["g"].default) == (
                default.s, default.g), function.__name__
        parser = cli.build_parser()
        for argv in (RUN_4, SWEEP_4):
            args = parser.parse_args(argv)
            assert (args.ffs_cost, args.gate_cost) == (default.s, default.g), argv[0]
            with pytest.raises(SystemExit):
                parser.parse_args([argv[0], "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            assert f"per clocked flip-flop (default {default.s})" in help_text
            assert f"per block per clock (default {default.g})" in help_text

    def test_least_values_accepted(self, capsys):
        assert run_cli(*RUN_4, "--ffs-cost", "1", "--gate-cost", "0", "--block-size", "1") == 0

    @pytest.mark.parametrize("argv", [
        ["run", "--arch", "lowpower", "--width", "2", "--a", "1", "--b", "1"],
    ])
    def test_block_size_above_width_runs_with_blocks_of_the_width(self, argv, capsys):
        # as a sweep does: the config clamps the block size to the width
        assert run_cli(*argv, "--block-size", "4") == 0

    @pytest.mark.parametrize("arch, flag, cost", [
        ("conv", "--ffs-cost", 10**309),
        ("lowpower", "--ffs-cost", 10**309),
        ("lowpower", "--gate-cost", 10**309),
        ("conv", "--ffs-cost", 10**307),
        ("lowpower", "--gate-cost", 3 * 10**307),
    ], ids=["conv-ffs", "lowpower-ffs", "lowpower-gate", "conv-ffs-sum", "lowpower-gate-sum"])
    def test_run_energy_beyond_floats_usage_error(self, arch, flag, cost, capsys):
        # a count too large for a float; in the -sum cases, counts that fit
        # in floats but whose sum does not
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--arch", arch, "--width", "4", "--a", "1", "--b", "1",
                    "--trace", flag, str(cost))
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert "energy inf is beyond the float range" in err
        assert out == ""

    def test_sweep_energy_beyond_floats_usage_error(self, tmp_path, capsys):
        out_file = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "10", "--out", str(out_file),
                    "--ffs-cost", str(10**309))
        assert excinfo.value.code == 2
        assert "overflows at width 4" in capsys.readouterr().err
        assert not out_file.exists()

    def test_sweep_count_beyond_floats_weighted_zero_runs(self, tmp_path, capsys):
        # a gate cost of 10**309 reaches only the categories this model weighs 0
        model = tmp_path / "model.cfg"
        model.write_text("gating = 0\nfeeder_bypass_clock = 0\n")
        out_file = tmp_path / "x.json"
        assert run_cli("sweep", "--widths", "4", "--trials", "10", "--out", str(out_file),
                       "--format", "json", "--gate-cost", str(10**309),
                       "--model", str(model)) == 0
        conv, low = json.loads(out_file.read_text())["rows"]
        assert low["gating"] > 10**309 and 0 < low["energy"] < conv["energy"]


MT = "python-random-mersenne-twister"


class TestSweepCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code = run_cli(
            "sweep", "--widths", "4,8", "--dist", "uniform", "--trials", "500",
            "--seed", "9", "--out", str(out_file), "--format", "csv",
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "rng=" in lines[0]
        assert len(lines) == 2 + 4  # comment, header, two rows per width
        console = capsys.readouterr().out
        assert "modeled reduction" in console
        assert "20.51%" in console and "35.25%" in console

    # each id is written out, as pytest generated it before the widths were
    # a parameter, so that adding a case renames no other
    @pytest.mark.parametrize("dist, rng, widths", [
        *(pytest.param(dist, rng, "4", id=f"{dist}-{rng}") for dist, rng in (
            ("uniform", MT), ("exhaustive", MT), ("fixed", MT),
            ("sparse", f"{MT}/b-and-of-two-draws"), ("dense", f"{MT}/b-or-of-two-draws"))),
        # from the narrowest width to the widest, across byte boundaries of a draw
        pytest.param("sparse", f"{MT}/b-and-of-two-draws", "1,8,9,17,32", id="sparse-widths-1-32"),
        pytest.param("dense", f"{MT}/b-or-of-two-draws", "1,8,9,17,32", id="dense-widths-1-32"),
    ])
    def test_rng_id_names_the_multiplier_recipe(self, tmp_path, dist, rng, widths):
        # a sparse or dense report of another recipe cannot pass for this one;
        # the id has no spaces, which split the CSV metadata line
        out_file = tmp_path / "report.csv"
        operands = ["--a", "3", "--b", "5"] if dist == "fixed" else []
        assert run_cli("sweep", "--widths", widths, "--dist", dist, "--trials", "10",
                       *operands, "--out", str(out_file)) == 0
        metadata = out_file.read_text().splitlines()[0][2:].split(" ")
        assert f"rng={rng}" in metadata and not any(c.isspace() for c in rng)

    def test_json_format(self, tmp_path):
        out_file = tmp_path / "report.json"
        code = run_cli(
            "sweep", "--widths", "4", "--trials", "200", "--seed", "1",
            "--out", str(out_file), "--format", "json",
        )
        assert code == 0
        assert [row["arch"] for row in json.loads(out_file.read_text())["rows"]] == [
            "conv", "lowpower"]

    def test_exhaustive_metadata_omits_trials(self, tmp_path):
        # an exhaustive sweep ignores --trials, so the report must not record it
        out_file = tmp_path / "report.json"
        code = run_cli("sweep", "--widths", "2,3", "--dist", "exhaustive", "--trials", "7",
                       "--out", str(out_file), "--format", "json")
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert "trials" not in payload["metadata"]
        assert [row["trials"] for row in payload["rows"]] == [16, 16, 64, 64]

    @pytest.mark.parametrize("widths, recorded", [
        ("1,2,3,4", [1, 2, 3, 3]),
        ("4,2", [3, 2]),
        ("3,8", 3),
    ])
    def test_metadata_records_block_sizes_that_ran(self, tmp_path, widths, recorded):
        # an explicit --block-size runs clamped to each narrower width
        check_recorded_block_size(tmp_path, ["--widths", widths, "--block-size", "3"], recorded)

    @pytest.mark.parametrize("widths, recorded", [
        ("1,2,3,4", [1, 2, 3, 4]),
        ("4,8", 4),
    ])
    def test_metadata_records_default_block_sizes_that_ran(self, tmp_path, widths, recorded):
        # the default block size, min(4, width), is clamped the same way
        check_recorded_block_size(tmp_path, ["--widths", widths], recorded)

    @pytest.mark.parametrize("block_size", [1, 2, 3, 4, 5, None])
    def test_metadata_block_sizes_are_those_of_make_config(self, tmp_path, block_size):
        # the recorded sizes are those of the configs make_config builds for
        # the sweep, listed only when some width ran a size not requested
        widths = range(1, 7)
        sized = {} if block_size is None else {"block_size": block_size}
        ran = [make_config(Variant.LOW_POWER, width, **sized).cost.block_size
               for width in widths]
        requested = DEFAULT_BLOCK_SIZE if block_size is None else block_size
        recorded = requested if ran == [requested] * len(ran) else ran
        flags = [] if block_size is None else ["--block-size", str(block_size)]
        check_recorded_block_size(
            tmp_path, ["--widths", ",".join(map(str, widths)), *flags], recorded)

    @pytest.mark.parametrize("flags", [["--a", "3"], ["--b", "5"], ["--a", "3", "--b", "5"]])
    def test_operands_without_fixed_dist_usage_error_before_any_run(self, tmp_path, ran,
                                                                    capsys, flags):
        # uniform would ignore them, and the report would not record them
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--dist", "uniform", *flags, "--trials", "10",
                    "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2
        assert "fixed distribution, not 'uniform'" in capsys.readouterr().err
        assert ran == []
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_usage_error_before_any_run(self, tmp_path, ran, capsys):
        # it would write seed 1's rows under metadata that records -1
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "10", "--seed", "-1",
                    "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert ran == []
        assert not (tmp_path / "x.csv").exists()

    def test_fixed_metadata_records_pair(self, tmp_path):
        # the report names the pair that ran, so it can be reproduced
        argv = ["sweep", "--widths", "4", "--dist", "fixed", "--a", "6", "--b", "5",
                "--trials", "3"]
        assert run_cli(*argv, "--out", str(tmp_path / "r.json"), "--format", "json") == 0
        metadata = json.loads((tmp_path / "r.json").read_text())["metadata"]
        assert (metadata["a"], metadata["b"]) == (6, 5)
        assert run_cli(*argv, "--out", str(tmp_path / "r.csv")) == 0
        comment = (tmp_path / "r.csv").read_text().splitlines()[0].split()
        assert comment[-2:] == ["a=6", "b=5"]

    def test_fixed_dist_requires_operands(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "8", "--dist", "fixed", "--trials", "10",
                    "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("widths, a", [("4", "-1"), ("4,8", "200"), ("8,4", "200")])
    def test_fixed_operand_outside_width_usage_error(self, tmp_path, widths, a):
        # rejected, not masked to the width, before any width runs
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", widths, "--dist", "fixed", "--a", a, "--b", "3",
                    "--trials", "10", "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_bad_widths_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4,eight", "--trials", "10",
                    "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("widths", ["4,,8", "4,", ",4"])
    def test_empty_width_entry_usage_error(self, tmp_path, ran, capsys, widths):
        # refused like any entry that is not an int, not dropped: the sweep
        # and scripts/reduction_vs_width.py share the one parser
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", widths, "--trials", "10",
                    "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2
        assert f"bad --widths value {widths!r}" in capsys.readouterr().err
        assert ran == []
        assert not (tmp_path / "x.csv").exists()

    def test_empty_widths_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", ",", "--trials", "10",
                    "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2
        assert "--widths is empty" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_oversized_width_usage_error(self, tmp_path, ran, capsys):
        # every width is checked before width 4 runs
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4,33", "--trials", "10",
                    "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2
        assert "--widths: width must be in 1..32, got 33" in capsys.readouterr().err
        assert ran == []
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("widths", ["4,4", "4,8,4"])
    def test_repeated_width_usage_error(self, tmp_path, ran, capsys, widths):
        # a repeated width would run twice and write its two rows twice
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", widths, "--trials", "5",
                    "--out", str(tmp_path / "x.csv"))
        assert excinfo.value.code == 2
        assert "--widths: width 4 is given more than once" in capsys.readouterr().err
        assert ran == []
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_destination_fails(self, tmp_path, capsys):
        # its directory exists, so the write fails only after the sweep: the
        # file name is longer than a file system allows
        code = run_cli(
            "sweep", "--widths", "4", "--trials", "50", "--seed", "1",
            "--out", str(tmp_path / ("r" * 300)),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_out_usage_error_before_any_run(self, tmp_path, monkeypatch, ran, capsys):
        # it names no file: refused before the sweep, not when the report is written
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "5", "--out", "")
        assert excinfo.value.code == 2
        assert "--out is empty" in capsys.readouterr().err
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_empty_model_usage_error_before_any_run(self, tmp_path, ran, capsys):
        # it names no file: refused as --out '' is, not run with the default model
        out_file = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "10", "--model", "",
                    "--out", str(out_file))
        assert excinfo.value.code == 2
        assert "--model is empty" in capsys.readouterr().err
        assert ran == []
        assert not out_file.exists()

    def test_missing_out_directory_usage_error_before_any_run(self, tmp_path, ran, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "10",
                    "--out", str(tmp_path / "missing" / "r.csv"))
        assert excinfo.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert ran == []

    @pytest.mark.parametrize("out", ["outdir", "outdir/", "."])
    def test_out_naming_a_directory_usage_error_before_any_run(self, tmp_path, monkeypatch,
                                                               ran, capsys, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "10", "--out", out)
        assert excinfo.value.code == 2
        assert f"--out {out} is a directory" in capsys.readouterr().err
        assert ran == []
        assert sorted(os.listdir(tmp_path)) == ["outdir"]
        assert os.listdir(tmp_path / "outdir") == []

    def test_model_file(self, tmp_path, capsys):
        model = tmp_path / "model.cfg"
        model.write_text("adder = 0.5\nvdd = 1.0\nf_clk = 1.0\n")
        out_file = tmp_path / "r.csv"
        code = run_cli(
            "sweep", "--widths", "4", "--trials", "100", "--seed", "2",
            "--out", str(out_file), "--model", str(model),
        )
        assert code == 0

    def test_model_file_with_byte_order_mark(self, tmp_path):
        # as some editors write it: the mark is skipped, not read as a key
        model = tmp_path / "model.cfg"
        argv = ["sweep", "--widths", "4", "--trials", "10", "--model", str(model), "--out"]
        model.write_bytes(b"adder = 0.5\n")
        assert run_cli(*argv, str(tmp_path / "plain.csv")) == 0
        model.write_bytes(b"\xef\xbb\xbfadder = 0.5\n")
        assert run_cli(*argv, str(tmp_path / "marked.csv")) == 0
        assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize("content, named", [
        (b"adder = nan\n", ":1: "),
        (b"vdd = 1.0\nf_clk = inf\n", ":2: "),
        (b"adder = 2\nadder = 0\n", ":2: "),
        (b"\xffadder = 1\n", ": 'utf-8' codec can't decode byte 0xff"),
        (b"adder = -1\n", ": weight for 'adder' must be finite and >= 0"),
        (b"vdd = 0\n", ": vdd must be finite and > 0"),
    ], ids=["nan", "inf", "duplicate", "not-utf8", "negative-weight", "zero-vdd"])
    def test_bad_model_file_usage_error(self, tmp_path, capsys, content, named):
        model = tmp_path / "model.cfg"
        model.write_bytes(content)
        out_file = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "10", "--seed", "2",
                    "--out", str(out_file), "--model", str(model))
        assert excinfo.value.code == 2
        assert f"{model}{named}" in capsys.readouterr().err
        assert not out_file.exists()

    def test_vdd_overflow_model_usage_error_before_any_run(self, tmp_path, ran, capsys):
        model = tmp_path / "model.cfg"
        model.write_text("vdd = 1e200\n")
        out_file = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "50",
                    "--out", str(out_file), "--model", str(model))
        assert excinfo.value.code == 2
        assert f"{model}: vdd squared" in capsys.readouterr().err
        assert ran == []
        assert not out_file.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("content", ["adder = 1e308\n", "f_clk = 1e308\n"],
                             ids=["energy", "power"])
    def test_overflowing_row_usage_error_names_the_width(self, tmp_path, capsys, content, fmt):
        # every number in the model is finite, but the width-4 energy or
        # average power is not: no report may hold inf or nan
        model = tmp_path / "model.cfg"
        model.write_text(content)
        out_file = tmp_path / f"r.{fmt}"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "50", "--format", fmt,
                    "--out", str(out_file), "--model", str(model))
        assert excinfo.value.code == 2
        assert "overflows at width 4" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("name, reason", [
        ("missing.cfg", "No such file or directory"),
        ("modeldir", "Is a directory"),
    ])
    def test_unreadable_model_usage_error_before_any_run(self, tmp_path, ran, capsys,
                                                         name, reason):
        (tmp_path / "modeldir").mkdir()
        model = tmp_path / name
        out_file = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "10",
                    "--out", str(out_file), "--model", str(model))
        assert excinfo.value.code == 2
        assert f"--model {model} cannot be read: {reason}" in capsys.readouterr().err
        assert ran == []
        assert not out_file.exists()

    def test_all_zero_model_usage_error_before_any_run(self, tmp_path, ran, capsys):
        model = tmp_path / "model.cfg"
        model.write_text("".join(f"{cat} = 0\n" for cat in LEDGER_CATEGORIES))
        out_file = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--trials", "10",
                    "--out", str(out_file), "--model", str(model))
        assert excinfo.value.code == 2
        assert "weights are all 0" in capsys.readouterr().err
        assert ran == []
        assert not out_file.exists()

    @pytest.mark.parametrize("charged", ["counter_output", "feeder_bypass_clock", "gating"])
    def test_zero_conventional_weight_model_usage_error_before_any_run(
            self, tmp_path, ran, capsys, charged):
        # weight only on a category the conventional datapath never charges:
        # its energy, the baseline of every reduction, is 0
        model = tmp_path / "model.cfg"
        model.write_text("".join(f"{cat} = {int(cat == charged)}\n" for cat in LEDGER_CATEGORIES))
        out_file = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4,16", "--trials", "10",
                    "--out", str(out_file), "--model", str(model))
        assert excinfo.value.code == 2
        assert "conventional datapath charges" in capsys.readouterr().err
        assert ran == []
        assert not out_file.exists()

    def test_fixed_pair_with_no_conventional_energy_usage_error(self, tmp_path, capsys):
        # an adder-only model weighs the pair at 0 where a = 0 never moves the adder
        model = tmp_path / "model.cfg"
        model.write_text("".join(f"{cat} = {int(cat == 'adder')}\n" for cat in LEDGER_CATEGORIES))
        out_file = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "16", "--dist", "fixed", "--a", "0", "--b", "5",
                    "--trials", "10", "--out", str(out_file), "--model", str(model))
        assert excinfo.value.code == 2
        assert ("the conventional datapath has no energy at width 16 over 10 trials of fixed "
                "pair a=0, b=5 under the power model, which weighs only adder, so no reduction "
                "can be computed") in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("seed", ["0", "1", "3"])
    def test_width_with_no_conventional_energy_usage_error(self, tmp_path, capsys, seed):
        # these seeds draw a = 0 or b = 0 for the one width-1 trial: an
        # adder-only model weighs its conventional energy at 0
        model = tmp_path / "model.cfg"
        model.write_text("".join(f"{cat} = {int(cat == 'adder')}\n" for cat in LEDGER_CATEGORIES))
        out_file = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "1", "--trials", "1", "--seed", seed,
                    "--out", str(out_file), "--model", str(model))
        assert excinfo.value.code == 2
        assert ("the conventional datapath has no energy at width 1 over 1 trial under the "
                "power model, which weighs only adder, so no reduction can be computed"
                ) in capsys.readouterr().err
        assert not out_file.exists()


COMMAND_ARGV = {
    "verify": ["verify", "--width", "2"],
    "run": ["run", "--arch", "conv", "--width", "2", "--a", "3", "--b", "2"],
    "sweep": ["sweep", "--widths", "2", "--trials", "5", "--out", "r.csv"],
}


class TestCommandParsers:
    """A known command is parsed by its own parser alone; the full parser
    serves --help, no command and an unknown one."""

    def test_known_command_never_builds_the_full_parser(self, tmp_path, monkeypatch, capsys):
        assert set(COMMAND_ARGV) == set(cli.COMMANDS)
        monkeypatch.chdir(tmp_path)

        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv in COMMAND_ARGV.values():
            assert run_cli(*argv) == 0, argv[0]
        assert (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_help_is_the_full_parsers(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0
        full = capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, "--help")
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == full
        assert full.startswith(f"usage: shiftadd {command} [-h]")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--widths", "4,4", "--trials", "5", "--out", "r.csv"],
        ["verify", "--width", "4", "--bogus"],
    ], ids=["own-check", "unrecognized"])
    def test_usage_error_names_the_command(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: shiftadd {argv[0]} [-h]")
        assert f"\nshiftadd {argv[0]}: error: " in err

    @pytest.mark.parametrize("argv, named", [
        ([], "the following arguments are required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
    ], ids=["none", "unknown"])
    def test_no_known_command_full_parser_usage_error(self, argv, named, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: shiftadd [-h] {verify,run,sweep}")
        assert "\nshiftadd: error: " in err and named in err

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--help")
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command, (help_text, _, _) in cli.COMMANDS.items():
            assert f"{command} " in out and help_text in out


class TestEntryPoint:
    def test_module_invocation_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shiftadd", "bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_module_invocation_verify(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shiftadd", "verify", "--width", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    @staticmethod
    def loaded_after_import(*modules, then=""):
        """Those of ``modules`` loaded after ``import shiftadd.cli`` in a
        fresh ``python -I -S``, which imports nothing else, and then the
        statements ``then``."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = "\n".join([f"import sys; sys.path.insert(0, {str(src)!r}); import shiftadd.cli",
                          then, f"print(*[m for m in {modules!r} if m in sys.modules])"])
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                              capture_output=True, text=True, check=True)
        return proc.stdout.split()

    @staticmethod
    def running(runs) -> str:
        """Statements that run each argv of ``runs`` through ``cli.main``,
        which must exit 0, with its output discarded."""
        return "\n".join(["import contextlib, io", f"for argv in {runs!r}:",
                          "    with contextlib.redirect_stdout(io.StringIO()):",
                          "        assert shiftadd.cli.main(argv) == 0, argv"])

    def test_csv_and_random_load_only_where_used(self, tmp_path):
        # verify, run and the sweeps that draw no operand import neither
        # random nor csv; a uniform sweep draws, and its CSV report loads csv
        runs = [["verify", "--width", "4"]]
        runs += [["run", "--arch", "lowpower", "--width", "5", "--a", "19", "--b", "22", *trace]
                 for trace in ([], ["--trace"])]
        runs += [["sweep", "--widths", "3", "--dist", kind, "--trials", "20", *operands,
                  "--format", "json", "--out", str(tmp_path / f"{kind}.json")]
                 for kind, operands in (("fixed", ["--a", "6", "--b", "5"]), ("exhaustive", []))]
        assert self.loaded_after_import("csv", "random", then=self.running(runs)) == []
        uniform = [["sweep", "--widths", "3", "--trials", "20", "--format", "csv",
                    "--out", str(tmp_path / "uniform.csv")]]
        assert self.loaded_after_import("csv", "random", then=self.running(uniform)) == [
            "csv", "random"]

    def test_import_loads_no_json(self):
        # only a JSON report needs the json module; verify, run and CSV
        # sweeps do not pay for importing it
        assert not self.loaded_after_import("json")

    def test_import_loads_no_typing(self):
        # the records are collections.namedtuple classes and the annotations
        # name collections.abc types: no command pays for typing's import
        assert not self.loaded_after_import("typing")

    def test_simresult_is_the_only_dataclass(self):
        # every other record is a named tuple or a plain slotted class, with
        # no generated code to build at import.  SimResult stays a dataclass
        # only because perfbench's self-test (_wrong_product) calls
        # dataclasses.replace on it
        classes = {obj for module in (bits, datapath, harness, packed, power, cli)
                   for obj in vars(module).values()
                   if isinstance(obj, type) and obj.__module__ == module.__name__}
        assert {cls for cls in classes if dataclasses.is_dataclass(cls)} == {packed.SimResult}

    def test_import_loads_no_packed_kernel(self):
        # the packed per-pair kernel, and the dataclasses (and inspect) its
        # SimResult needs, load on first use of one of its names
        assert self.loaded_after_import("dataclasses", "inspect", "shiftadd.packed") == []

    def test_no_command_loads_packed_kernel(self, tmp_path):
        # every command runs the bit-sliced engine, so none of them makes
        # that first use: verify, run with and without its trace on both
        # datapaths, and a sweep of every kind in both report formats
        runs = [["verify", "--width", "4"]]
        runs += [["run", "--arch", arch, "--width", "5", "--a", "19", "--b", "22", *trace]
                 for arch in ("conv", "lowpower") for trace in ([], ["--trace"])]
        runs += [["sweep", "--widths", "3,4", "--dist", kind, "--trials", "20",
                  *(["--a", "6", "--b", "5"] if kind == "fixed" else []),
                  "--format", fmt, "--out", str(tmp_path / f"{kind}.{fmt}")]
                 for kind in harness.DIST_KINDS for fmt in ("csv", "json")]
        assert self.loaded_after_import("dataclasses", "shiftadd.packed",
                                        then=self.running(runs)) == []
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{kind}.{fmt}" for kind in harness.DIST_KINDS for fmt in ("csv", "json"))

    def test_packed_names_forwarded(self):
        # the packed kernel's old names still resolve in the modules that
        # held or imported them, to the objects in packed; others do not
        for module, names in ((datapath, datapath.PACKED_NAMES),
                              (harness, ("run_conventional", "run_lowpower")),
                              (shiftadd, ("SimResult", "run_conventional", "run_lowpower",
                                          "simulate"))):
            for name in names:
                assert getattr(module, name) is getattr(packed, name), (module, name)
            with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no "
                               "attribute 'nonexistent'"):
                module.nonexistent
        assert not hasattr(harness, "Lanes") and not hasattr(shiftadd, "_packed")

    def test_import_loads_no_pathlib(self):
        # os.path and open write reports and read models: no command pays
        # for pathlib's import
        assert not self.loaded_after_import("pathlib")

    def test_closed_stdout_pipe_exits_quietly(self):
        # the reader of the pipe stopped early, like ``| head -n 1``; its read
        # end is closed before the spawn, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "shiftadd", "run", "--arch", "lowpower",
                 "--width", "16", "--a", "3", "--b", "2", "--trace"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


class TestExperimentScripts:
    # each case's id is written out, as pytest once generated it, so that
    # deleting one case renames no other
    @pytest.mark.parametrize("script, argv, flag", [
        pytest.param("reduction_vs_width.py", ["--widths", "4,"], "--widths",
                     id="reduction_vs_width.py-argv0---widths"),
        pytest.param("reduction_vs_width.py", ["--dist", "uniform,bimodal"],
                     "--dist: unknown distribution 'bimodal'",
                     id="reduction_vs_width.py-argv1---dist: unknown distribution 'bimodal'"),
        pytest.param("reduction_vs_width.py", ["--ffs-cost", "0"], "--ffs-cost",
                     id="reduction_vs_width.py-argv2---ffs-cost"),
        pytest.param("reduction_vs_width.py", ["--gate-cost", "-1"], "--gate-cost",
                     id="reduction_vs_width.py-argv3---gate-cost"),
        pytest.param("reduction_vs_width.py", ["--block-size", "0"], "--block-size",
                     id="reduction_vs_width.py-argv4---block-size"),
        pytest.param("reduction_vs_width.py", ["--seed", "-1"], "seed must be >= 0",
                     id="reduction_vs_width.py-argv5-seed must be >= 0"),
        pytest.param("reduction_vs_width.py", ["--dist", "sparse,dense,sparse"],
                     "--dist: distribution sparse is given more than once",
                     id="reduction_vs_width.py-argv6---dist: distribution sparse is given "
                        "more than once"),
        pytest.param("reduction_vs_width.py", ["--widths", "8,4,8"],
                     "--widths: width 8 is given more than once",
                     id="reduction_vs_width.py-argv7---widths: width 8 is given more than once"),
        pytest.param("reduction_vs_width.py", ["--dist", ""], "--dist is empty",
                     id="reduction_vs_width.py-argv8---dist is empty"),
    ])
    def test_bad_input_usage_error(self, script, argv, flag):
        env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
        proc = subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert flag in proc.stderr.splitlines()[-1]  # the message, below the usage lines

    @pytest.mark.parametrize("name, named", [
        ("missing.cfg", "cannot be read: No such file or directory"),
        ("nan.cfg", "nan.cfg:1: adder must be finite"),
        ("", "--model is empty"),
    ], ids=["unreadable", "malformed", "empty"])
    def test_model_error_as_sweep_reports(self, tmp_path, capsys, name, named):
        # the script loads --model with the CLI's own loader
        (tmp_path / "nan.cfg").write_text("adder = nan\n")
        model = str(tmp_path / name) if name else ""
        env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
        proc = subprocess.run([sys.executable, str(SCRIPTS / "reduction_vs_width.py"),
                               "--model", model], capture_output=True, text=True, env=env)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--widths", "4", "--out", str(tmp_path / "r.csv"), "--model", model)
        assert proc.returncode == excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1].partition(" error: ")[2]
        assert named in message
        assert proc.stderr.splitlines()[-1].partition(" error: ")[2] == message

    def test_one_block_per_distribution_as_sweep_reports(self):
        # each block's header names the distribution and its p(bit = 1), and
        # its reduction is the one sweep gives under the script's default seed
        env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "reduction_vs_width.py"), "--widths", "8",
             "--dist", "sparse,uniform,dense", "--trials", "200"],
            capture_output=True, text=True, env=env, check=True)
        blocks = [block.splitlines() for block in proc.stdout.split("\n\n")]
        for (kind, p1), (header, _, row) in zip(
                (("sparse", "0.25"), ("uniform", "0.50"), ("dense", "0.75")), blocks, strict=True):
            assert header.startswith(f"dist={kind} p(bit=1)={p1} trials=200 seed=20250811 ")
            rows = harness.sweep([8], harness.OperandDistribution(kind, seed=20250811), 200)
            reduction = next(r.reduction_pct for r in rows if r.arch == "lowpower")
            assert row.split()[3] == f"{reduction:.2f}%", kind
