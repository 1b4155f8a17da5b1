import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftadd.datapath import LEDGER_CATEGORIES, ToggleLedger, Variant, make_config
from shiftadd.power import (
    PowerModel,
    area_proxy,
    average_power,
    estimate_energy,
    reduction_percent,
)


def ledgers():
    return st.builds(
        ToggleLedger, **{cat: st.integers(0, 10_000) for cat in LEDGER_CATEGORIES}
    )


class TestPowerModel:
    def test_defaults_are_uniform(self):
        model = PowerModel()
        assert set(model.weights) == set(LEDGER_CATEGORIES)
        assert all(w == 1.0 for w in model.weights.values())

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            PowerModel(weights={"nonsense": 1.0})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            PowerModel(weights={"adder": -0.5})

    @pytest.mark.parametrize("kwargs", [dict(vdd=0), dict(vdd=-1.2), dict(f_clk=0),
                                        dict(vdd=float("nan")), dict(f_clk=float("inf"))])
    def test_rejects_bad_scalars(self, kwargs):
        with pytest.raises(ValueError):
            PowerModel(**kwargs)

    def test_rejects_vdd_whose_square_overflows(self, tmp_path):
        # vdd**2 scales every charge; a square that is not finite would turn
        # each energy into inf, or raise OverflowError, after the sweep ran
        with pytest.raises(ValueError, match="vdd squared"):
            PowerModel(vdd=1e200)
        cfg = tmp_path / "model.cfg"
        cfg.write_text("vdd = 1e200\n")
        with pytest.raises(ValueError, match=r"model\.cfg: vdd squared"):
            PowerModel.from_file(cfg)
        assert PowerModel(vdd=1e150).vdd == 1e150

    def test_rejects_all_zero_weights(self, tmp_path):
        # every energy would be 0, and no reduction could be computed
        zero = {cat: 0.0 for cat in LEDGER_CATEGORIES}
        with pytest.raises(ValueError, match="weights are all 0"):
            PowerModel(weights=zero)
        cfg = tmp_path / "model.cfg"
        cfg.write_text("".join(f"{cat} = 0\n" for cat in LEDGER_CATEGORIES))
        with pytest.raises(ValueError, match="weights are all 0"):
            PowerModel.from_file(cfg)
        for cat in LEDGER_CATEGORIES:  # one weight above 0 is enough
            assert PowerModel(weights={**zero, cat: 0.5}).weights[cat] == 0.5

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, value):
        with pytest.raises(ValueError):
            PowerModel(weights={"adder": value})

    def test_from_file_skips_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_bytes("adder = 2.5\nvdd = 1.2\n".encode("utf-8-sig"))
        model = PowerModel.from_file(cfg)
        assert model.weights["adder"] == 2.5 and model.vdd == 1.2

    def test_from_file(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(
            "# capacitance weights\n"
            "adder = 2.5\n"
            "mux_data = 0.5   # lighter load\n"
            "\n"
            "vdd = 1.2\n"
            "f_clk = 2e6\n"
        )
        model = PowerModel.from_file(cfg)
        assert model.weights["adder"] == 2.5
        assert model.weights["mux_data"] == 0.5
        assert model.weights["gating"] == 1.0
        assert model.vdd == 1.2
        assert model.f_clk == 2e6

    def test_from_file_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("adder 2.5\n")
        with pytest.raises(ValueError):
            PowerModel.from_file(cfg)
        cfg.write_text("adder = lots\n")
        with pytest.raises(ValueError):
            PowerModel.from_file(cfg)

    @pytest.mark.parametrize("line", ["adder = nan", "vdd = inf", "f_clk = -inf", "gating = nan"])
    def test_from_file_rejects_non_finite(self, tmp_path, line):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"# weights\n{line}\n")
        with pytest.raises(ValueError, match=r"model\.cfg:2: "):
            PowerModel.from_file(cfg)

    @pytest.mark.parametrize("key", ["adder", "vdd"])
    def test_from_file_rejects_duplicate_key(self, tmp_path, key):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"{key} = 2\nmux_data = 1\n{key} = 0.5\n")
        with pytest.raises(ValueError, match=rf"model\.cfg:3: .*{key}"):
            PowerModel.from_file(cfg)

    def test_from_file_unknown_key_names_line(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("adder = 1\naddr = 2\n")
        with pytest.raises(ValueError, match=r"model\.cfg:2: .*addr"):
            PowerModel.from_file(cfg)


class TestEstimateEnergy:
    def test_zero_ledger(self):
        assert estimate_energy(ToggleLedger(), PowerModel()) == 0

    def test_single_category(self):
        assert estimate_energy(ToggleLedger(adder=10), PowerModel()) == 10.0

    def test_count_beyond_floats_in_zero_weight_category_skipped(self):
        # the only categories a gate cost of 10**309 reaches, weighted 0
        led = ToggleLedger(adder=5, feeder_bypass_clock=10**309, gating=10**309)
        model = PowerModel(weights={"feeder_bypass_clock": 0, "gating": 0})
        assert estimate_energy(led, model) == 5.0
        assert estimate_energy(led, PowerModel()) == math.inf

    def test_vdd_squares(self):
        led = ToggleLedger(adder=7, gating=3)
        base = estimate_energy(led, PowerModel(vdd=1.0))
        assert estimate_energy(led, PowerModel(vdd=2.0)) == pytest.approx(4 * base)

    @given(ledgers(), st.floats(0.1, 8.0))
    def test_linear_in_weights(self, led, scale):
        base = estimate_energy(led, PowerModel())
        scaled = PowerModel(weights={cat: scale for cat in LEDGER_CATEGORIES})
        assert estimate_energy(led, scaled) == pytest.approx(scale * base)

    @given(ledgers())
    def test_nonnegative_and_zero_iff_counts_zero(self, led):
        energy = estimate_energy(led, PowerModel())
        assert energy >= 0
        assert (energy == 0) == (sum(led.as_dict().values()) == 0)


class TestAveragePower:
    def test_formula(self):
        model = PowerModel(f_clk=2.0)
        assert average_power(100.0, 10, model) == 20.0

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            average_power(1.0, 0, PowerModel())


class TestAreaProxy:
    def test_conventional_8bit(self):
        inv = area_proxy(make_config(Variant.CONVENTIONAL, 8))
        assert inv.flip_flops == 8 + 17 + 3 == 28
        assert inv.full_adders == 8
        assert inv.mux_inputs == 16

    def test_lowpower_8bit(self):
        inv = area_proxy(make_config(Variant.LOW_POWER, 8, block_size=4))
        assert inv.flip_flops == 8 + 8 + 9 + 8 + 2 == 35
        assert inv.full_adders == 8
        assert inv.mux_inputs == 8
        assert inv.gates == 3

    @pytest.mark.parametrize("variant", list(Variant))
    def test_degenerate_width_counts_positive(self, variant):
        inv = area_proxy(make_config(variant, 1))
        assert inv.flip_flops >= 1
        assert inv.full_adders >= 1
        assert inv.mux_inputs >= 1
        assert inv.gates >= 1

    def test_depends_only_on_config(self):
        a = area_proxy(make_config(Variant.LOW_POWER, 12, block_size=4))
        b = area_proxy(make_config(Variant.LOW_POWER, 12, block_size=4))
        assert a == b


class TestCompare:
    """Reduction of a new design's figure against a baseline's."""

    def test_reported_power_figures(self):
        assert reduction_percent(151.11, 97.85) == pytest.approx(35.25, abs=0.005)

    def test_simple_percentage(self):
        assert reduction_percent(100.0, 80.0) == pytest.approx(20.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            reduction_percent(0.0, 10.0)
