"""README.md against the code: the names it cites resolve, and its
deterministic figures are what the code computes."""

import importlib
import re
from pathlib import Path

import pytest

import shiftadd
from shiftadd.cli import main
from shiftadd.harness import OperandDistribution, sweep

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = ("bits", "datapath", "harness", "power", "cli", "packed")


def cited_names() -> list[str]:
    """Every backticked dotted name under a ``MODULES`` module, outside code
    blocks and up to any call parentheses: ``datapath.fixed_charges(cfg)``
    cites ``datapath.fixed_charges``."""
    text = re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text))
    pattern = re.compile(rf"(?:{'|'.join(MODULES)})\.[A-Za-z_][\w.]*")
    return sorted({match.group().rstrip(".") for span in spans
                   if (match := pattern.match(span))})


def test_names_are_cited():
    # the scan finds the names, so an empty scan cannot pass the next test
    assert {"datapath.sliced_cycles", "harness._bit_slices", "cli.COMMANDS"} <= set(cited_names())


@pytest.mark.parametrize("name", cited_names())
def test_cited_name_resolves(name):
    # a lazily loaded name (the packed kernel's) resolves as well
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"shiftadd.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)


def exported_names() -> list[str]:
    """The bare backticked names README's API section lists as exported: the
    "`shiftadd` exports ..." sentence and the subject of each record bullet,
    up to its first " are "."""
    api = README.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    exports = re.search(r"`shiftadd` exports[^:]*:(.*?)\.\s", api, flags=re.S)
    assert exports is not None
    subjects = [exports.group(1)] + [
        bullet.split(" are ", 1)[0] for bullet in re.findall(r"^- (.*?)(?=^- |^$)", api,
                                                           flags=re.M | re.S)]
    return [name for text in subjects for name in re.findall(r"`([A-Za-z_]\w*)`", text)]


def test_api_exports_are_in_all():
    # a name the API section calls exported is in shiftadd.__all__
    names = exported_names()
    assert {"make_config", "RingCostModel", "Word"} <= set(names)
    assert sorted(set(names) - set(shiftadd.__all__)) == []


def test_duplicate_width_message(tmp_path, capsys):
    # README quotes the usage error a repeated --widths entry prints
    quoted = re.search(r"\(`(shiftadd sweep: error: --widths: [^`]*)`\)", README)
    assert quoted is not None
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--widths", "4,4", "--trials", "5", "--out", str(tmp_path / "r.csv")])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == quoted.group(1)
    assert list(tmp_path.iterdir()) == []


def test_reduction_by_distribution():
    # "62.46 / 55.44 / 47.81 % for sparse / uniform / dense at 2,000
    # trials": the experiment script's width-8 blocks under its default seed
    quoted = re.search(r"([\d.]+) / ([\d.]+) / ([\d.]+) % for sparse / uniform / dense "
                       r"at 2,000 trials", " ".join(README.split()))
    assert quoted is not None
    for kind, figure in zip(("sparse", "uniform", "dense"), quoted.groups()):
        _, low = sweep([8], OperandDistribution(kind, seed=20250811), 2000)
        assert f"{low.reduction_pct:.2f}" == figure, kind
