"""Host-time benchmark of the shiftadd simulator, driven through its CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_uniform_mixed --seed 1 --seconds 40 --trace 0

Every sample is a fresh single-threaded interpreter (child.py) that times a
fixed reference loop and ``import shiftadd``, runs ``shiftadd.cli.main``
with the argv a user would type and checks the outputs.  Samples run one
after another on one CPU until ``--seconds`` are used, and medians are
reported.  The bounded timings are divided by the reference loop that the
same process ran just before: ``wall_ref`` is the ``cli.main`` wall time
in reference-loop durations, and ``setup_s`` is the import time scaled to
a host on which the reference loop takes ``NOMINAL_REF_S``.  On a shared
host the raw times drift by tens of percent within minutes (README.md has
the figures); the ratio cancels that drift.  Raw ``wall_s`` and
``sims_per_s`` are printed and recorded beside them.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced samples and reports the per-layer split of the
fastest traced sample.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  README.md
gives the reasons for each workload and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench-work"  # the children's working directory; removed after each run
# setup_s is the import time on a host where the reference loop takes this long.
NOMINAL_REF_S = 0.1
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    command: str  # "sweep" or "verify"
    widths: tuple[int, ...]
    dist: str | None = None
    trials: int = 0

    @property
    def pairs(self) -> int:
        if self.command == "verify":
            return 4 ** self.widths[0]
        return self.trials * len(self.widths)

    def spec(self, seed: int, out: str) -> dict:
        """What an untraced child needs to run this workload and check its outputs."""
        return {"command": self.command, "argv": self.argv(seed, out), "widths": list(self.widths),
                "dist": self.dist, "trials": self.trials, "seed": seed, "out": out, "trace": False}

    def argv(self, seed: int, out: str) -> list[str]:
        if self.command == "verify":
            return ["verify", "--width", str(self.widths[0])]
        return ["sweep", "--widths", ",".join(map(str, self.widths)), "--dist", self.dist,
                "--trials", str(self.trials), "--seed", str(seed), "--out", out]


# Trial counts put one sweep sample at about 0.3-0.7 s of host time on a
# 2-vCPU x86 guest; verify_w8 is fixed at all 65,536 pairs (1.1-2.2 s).
WORKLOADS = {
    "sweep_uniform_mixed": Workload("sweep", (4, 8, 16), "uniform", 3_000),
    "sweep_sparse_narrow": Workload("sweep", (4,), "sparse", 20_000),
    "verify_w8": Workload("verify", (8,)),
}

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

TRACED_WIDTHS = (4, 8, 16)
# Layers only ever entered with no width open are reported as totals only.
WIDTHLESS = (tracer.EMIT, tracer.ROOT)
# Counted, not timed: identical in every traced sample of one workload and seed.
COUNT_SUFFIXES = (".calls", ".pairs", ".cycles", ".adds", ".bytes", ".add_cycle_ratio")


def per_layer_units() -> dict[str, str]:
    units = {}
    for prefix in ("",) + tuple(f"w{w}." for w in TRACED_WIDTHS):
        for layer in tracer.LAYERS:
            if prefix and layer in WIDTHLESS:
                continue
            units[f"{prefix}{layer}.self_s"] = "s"
            if not prefix or layer not in (tracer.SWEEP, tracer.VERIFY):
                units[f"{prefix}{layer}.calls"] = "count"
        units[f"{prefix}{tracer.GEN}.pairs"] = "count"
        units[f"{prefix}{tracer.CONV}.ns_per_cycle"] = "ns"
        units[f"{prefix}{tracer.LOW}.ns_per_cycle"] = "ns"
        units[f"{prefix}{tracer.LOW}.add_cycle_ratio"] = "ratio"
    units[f"{tracer.EMIT}.bytes"] = "B"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(payload, cpu: int, cwd: Path) -> dict:
    arg = payload if isinstance(payload, str) else json.dumps(payload)
    cmd = [sys.executable, "-s", str(HERE / "child.py"), str(ROOT / "src"), str(cpu), arg]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shiftadd").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _distribution(values: list[float]) -> tuple[int, float, float, float]:
    """(count, q1, median, q3) of one series of samples."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return len(values), only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return len(values), q1, median, q3


def bench(work: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return the result object and the run record."""
    spec = work.spec(seed, "report.csv")
    cpu = max(os.sched_getaffinity(0))
    cwd = ROOT / WORK_DIR
    cwd.mkdir(exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        _child("import", cpu, cwd)  # warm-up: writes the bytecode caches; not measured
        start = time.monotonic()
        while True:
            began = time.monotonic()
            plain.append(_child(spec, cpu, cwd))
            if trace:
                traced.append(_child({**spec, "trace": True}, cpu, cwd))
            now = time.monotonic()
            if now - start + (now - began) > seconds:
                break
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    samples = plain + traced
    attempted = sum(s["checks"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    notes = [note for s in samples for note in s["notes"]][:5]
    # Tracing and repetition must not change a single output byte.
    digests = {(s["report_sha256"], s["stdout_sha256"]) for s in samples}
    attempted += 1
    if len(digests) != 1:
        failed += 1
        notes.append(f"{len(digests)} distinct report digests across samples")
    if traced:
        counts = {json.dumps({k: v for k, v in s["layers"].items() if k.endswith(COUNT_SUFFIXES)},
                             sort_keys=True) for s in traced}
        attempted += 1
        if len(counts) != 1:
            failed += 1
            notes.append("per-layer counts differ between traced samples")

    walls = [s["wall_s"] for s in plain]
    setup = [s["setup_s"] for s in samples]
    rss = [s["peak_rss_mb"] for s in plain]
    if trace:
        units = PER_LAYER
        fastest = min(traced, key=lambda s: s["wall_s"])
        values = {name: fastest["layers"].get(name, 0.0) for name in PER_LAYER}
        values["trace.overhead_s"] = fastest["wall_s"] - min(walls)
    else:
        units = END_TO_END
        values = {
            "wall_ref": statistics.median(s["wall_s"] / s["ref_s"] for s in plain),
            "setup_s": statistics.median(s["setup_s"] * NOMINAL_REF_S / s["ref_s"]
                                         for s in samples),
            "peak_rss_mb": statistics.median(rss),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload_argv": spec["argv"],
        "seed": seed,
        "rng": samples[0]["rng"],
        "report_sha256": samples[0]["report_sha256"],
        "stdout_sha256": samples[0]["stdout_sha256"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "cpu": cpu,
        "pairs": work.pairs,
        # Every sample, for reading the spread: (count, q1, median, q3).
        "distribution": {
            "wall_s": _distribution(walls),
            "ref_s": _distribution([s["ref_s"] for s in plain]),
            "setup_s (not scaled)": _distribution(setup),
            "peak_rss_mb": _distribution(rss),
            "traced_wall_s": _distribution([s["wall_s"] for s in traced]),
        },
        "failures": notes,
    }
    if traced:
        record["spans"] = fastest["spans"]
    return result, record


def _print_table(name: str, result: dict, record: dict) -> None:
    print(f"{name}, seed {record['seed']}, host time on CPU {record['cpu']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:48s} {entry['value']:>16.6g} {entry['unit']}")
    count, _, wall_s, _ = record["distribution"]["wall_s"]
    print(f"  {'wall_s (median, not bounded)':48s} {wall_s:>16.6g} s")
    print(f"  {'sims_per_s (from median wall_s, not bounded)':48s} "
          f"{2 * record['pairs'] / wall_s:>16.6g} 1/s")
    print(f"  {'failed_checks':48s} {result['failed']:>16d} count")
    print(f"  {'checks':48s} {result['attempted']:>16d} count")
    for series, (count, q1, median, q3) in record["distribution"].items():
        if count:
            print(f"  all {count} samples of {series}: median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shiftadd" / "__init__.py").is_file():
        print(f"error: no shiftadd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_table(args.workload, result, record)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
