"""Bit-exact, cycle-accurate simulator of shift-and-add multiplier datapaths
with per-block switching-activity ledgers and dynamic-energy estimation."""

from .bits import Word
from .datapath import (
    ArchConfig,
    CycleTrace,
    RingCostModel,
    ToggleLedger,
    Variant,
    make_config,
    render_trace,
    trace_rows,
)
from .harness import (
    OperandDistribution,
    ReportRow,
    VerifyOutcome,
    emit_report,
    exhaustive_verify,
    gen_operands,
    sweep,
)
from .power import (
    AreaInventory,
    PowerModel,
    area_proxy,
    average_power,
    estimate_energy,
)

__all__ = [
    "ArchConfig",
    "AreaInventory",
    "CycleTrace",
    "OperandDistribution",
    "PowerModel",
    "ReportRow",
    "RingCostModel",
    "ToggleLedger",
    "Variant",
    "VerifyOutcome",
    "Word",
    "area_proxy",
    "average_power",
    "emit_report",
    "estimate_energy",
    "exhaustive_verify",
    "gen_operands",
    "make_config",
    "render_trace",
    "sweep",
    "trace_rows",
]

__version__ = "0.1.0"
