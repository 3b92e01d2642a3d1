"""The golden-hash tool still names configs and scenarios the package accepts,
and its compare mode reads every kind of output file; the line-trace tool
lists what a test run leaves out; the trajectory tool reads both BENCH pair
layouts; the Picard digest reads a sweep's bits."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from elastomag.harness import SimulationConfig, generate_initial_data, write_snapshot
from elastomag.harness.scenarios import SCENARIOS
from elastomag.spectral import TorusGrid, VectorField

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tools" / "golden_hashes.py"
LINE_TRACE = ROOT / "tools" / "line_trace.py"
RSS_TRACE = ROOT / "tools" / "rss_trace.py"


def load_tool(path: Path = GOLDEN):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()
TRAJECTORY = load_tool(ROOT / "tools" / "bench_trajectory.py")
PICARD_DIGEST = load_tool(ROOT / "tools" / "picard_digest.py")
RUNS = TOOL.RUNS


@pytest.mark.parametrize("name", list(RUNS))
def test_every_golden_run_parses(name: str) -> None:
    args, config, _seed = RUNS[name]
    if isinstance(config, dict):
        SimulationConfig.from_dict(config)
    else:
        SimulationConfig.from_file(config)
    assert args[0] in ("run", "scenario")
    if args[0] == "scenario":
        assert args[1] in SCENARIOS


def test_compare_reports_each_files_largest_relative_change(tmp_path: Path, capsys) -> None:
    """Two kept trees that differ by a factor 1 + 1e-6 in one entry of each
    file: the compare mode reads 1e-6 from the snapshot field, the CSV column
    and the JSON leaf, reports a rounding-sized residual by its absolute
    change, and a file with the same bytes as identical."""
    grid = TorusGrid(dim=2, n=8)
    state = generate_initial_data(grid, "random_small", "A", seed=1)
    for side, scale, residual in (("old", 1.0, 1e-17), ("new", 1.0 + 1e-6, 3e-17)):
        root = tmp_path / side / "run"
        root.mkdir(parents=True)
        v = VectorField(grid, scale * state.v.values)
        write_snapshot(replace(state, v=v, hats=None), root / "final.snap")
        row = f"0,{2 * scale!r},{residual!r}"
        (root / "diagnostics.csv").write_text(f"t,e_basic,div_v_res\n{row}\n")
        verdict = {"pass": True, "checks": [{"value": scale}]}
        (root / "verdict.json").write_text(json.dumps(verdict))
        (root / "same.csv").write_text("t\n0\n")
    TOOL.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")])
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines.pop("run/same.csv") == "identical"
    assert lines["run/diagnostics.csv"].endswith("max_abs 2e-17 (div_v_res)")
    for name, entry in (("final.snap", "v"), ("diagnostics.csv", "e_basic"),
                        ("verdict.json", "checks[0].value")):
        match = re.match(r"max_rel (\S+) \(([^)]+)\)", lines.pop(f"run/{name}"))
        assert match[2] == entry
        assert float(match[1]) == pytest.approx(1e-6, rel=1e-3)
    assert lines == {}


def test_compare_reads_the_shared_entries_of_files_whose_entries_differ(
        tmp_path: Path, capsys) -> None:
    """A CSV that loses a column and changes another by a factor 1 + 1e-6:
    the compare line reports the shared column's 1e-6 and names the
    dropped one."""
    for side, columns, row in (("old", "t,e_basic,variant", "0,2.0,x"),
                               ("new", "t,e_basic", f"0,{2.0 * (1.0 + 1e-6)!r}")):
        root = tmp_path / side / "run"
        root.mkdir(parents=True)
        (root / "diagnostics.csv").write_text(f"{columns}\n{row}\n")
    TOOL.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")])
    (line,) = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"run/diagnostics\.csv max_rel (\S+) \(e_basic\); "
                         r"entries differ: \['variant'\]", line)
    assert match is not None, line
    assert float(match[1]) == pytest.approx(1e-6, rel=1e-3)


def test_line_trace_lists_the_statements_a_run_leaves_out() -> None:
    """tests/test_package.py only imports the package: the trace lists the
    mollified march's blow-up raise but no statement that import runs, each
    listed line is its file's source, none is a def, class, import or
    docstring, and the count is the number of lines listed."""
    out = subprocess.run(
        [sys.executable, str(LINE_TRACE), "-q", "-p", "no:cacheprovider", "tests/test_package.py"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout.splitlines()
    listed = [re.fullmatch(r"(src/\S+\.py):(\d+): (.*)", line) for line in out]
    listed = [(path, int(line), text) for path, line, text in (m.groups() for m in listed if m)]
    count = re.fullmatch(r"(\d+) of (\d+) statements not run", out[-1])
    assert int(count[1]) == len(listed) < int(count[2])
    for path, line, text in listed:
        assert (ROOT / path).read_text().splitlines()[line - 1].strip() == text
        assert not text.startswith(("def ", "class ", "import ", "from ", '"""'))
    schemes = [(path, text) for path, _, text in listed if path == "src/elastomag/schemes.py"]
    assert ("src/elastomag/schemes.py", "raise BlowUpError(t)") in schemes
    assert not any(text.startswith("SPHERE_TOL = ") for _, text in schemes)


def test_rss_trace_prints_each_rise_and_the_peak() -> None:
    """A one-round replica of run3d_sparse at n = 8: a header, then each rise
    of ru_maxrss with its total, phase and call path, the totals rising, then
    the peak, at least the last total. Paths are elastomag frames, innermost
    first, or a function outside the package. Only the format is checked.
    The tool starts from a small process: Linux starts a child's ru_maxrss at
    its parent's peak, and this test process may be larger than the replica."""
    launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, str(RSS_TRACE), "run3d_sparse",
         "--n", "8", "--rounds", "1", "--min-mb", "0.1"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout.splitlines()
    assert out[0] == "rss_trace: run3d_sparse seed 0, 1 rounds, ru_maxrss in MB"
    rises = [re.fullmatch(r"  \+(\d+\.\d\d) -> (\d+\.\d\d)  (setup|round0)  (\S+( < \S+)*)",
                          line) for line in out[1:-1]]
    assert rises and all(rises)
    totals = [float(m[2]) for m in rises]
    assert totals == sorted(totals) and all(float(m[1]) >= 0.1 for m in rises)
    frame = re.compile(r"elastomag(\.[\w<>]+)+:\d+")
    for m in rises:
        path = m[4].split(" < ")
        assert all(frame.fullmatch(f) for f in path) or (len(path) == 1 and ":" not in path[0])
    peak = re.fullmatch(r"peak (\d+\.\d\d) MB in (setup|round0) at (\S.*)", out[-1])
    assert peak and float(peak[1]) >= totals[-1]


def test_bench_trajectory_reads_both_pair_layouts(tmp_path: Path, capsys) -> None:
    """Two files outside git, so in name order: per-run records with a side,
    their metrics numbers or {"value": ...} objects, in "metrics" or in the
    record itself, and records that hold both sides. Each prints the median
    of each side's runs per workload and metric; run keys are not metrics,
    and a workload without pairs or a metric only one side reports is left out."""
    def run(side: str, wall: float, count: int, **extra) -> dict:
        return {"pair": 0, "seed": 1, "side": side, "correct": True, "attempted": 3,
                "failed": 0, "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                         "fft_scalar_count": count}, **extra}

    per_run = {"what": "per-run records", "workloads": {
        "schemes_2d": {"stats": {}, "pairs": [
            run("parent", 10.0, 100), run("change", 8.0, 90),
            run("parent", 12.0, 100), run("change", 9.0, 90),
            run("parent", 11.0, 100), run("change", 7.0, 90, run_order=1)]},
        "run2d_diag": {"pairs": [{"seed": 2, "side": "parent", "wall_s": 2.0},
                                 {"seed": 2, "side": "change", "wall_s": 1.0,
                                  "peak_rss_mb": 70.0}]},
        "no_pairs": {"medians": {"wall_s": 1.0}}}}
    both = {"workloads": {"run3d_sparse": {"pairs": [
        {"seed": 3, "first": "parent", "parent": {"wall_s": 4.0, "correct": True},
         "change": {"wall_s": 3.0, "correct": True}},
        {"seed": 4, "first": "change", "parent": {"wall_s": 6.0}, "change": {"wall_s": 5.0}}]}}}
    (tmp_path / "BENCH_b.json").write_text(json.dumps(both))
    (tmp_path / "BENCH_a.json").write_text(json.dumps(per_run))
    (tmp_path / "other.json").write_text(json.dumps(both))
    TRAJECTORY.main(["--dir", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_a.json",
        "  schemes_2d  wall_s  11 -> 8  (-27.3%, 3/3 runs)",
        "  schemes_2d  fft_scalar_count  100 -> 90  (-10.0%, 3/3 runs)",
        "  run2d_diag  wall_s  2 -> 1  (-50.0%, 1/1 runs)",
        "BENCH_b.json",
        "  run3d_sparse  wall_s  5 -> 4  (-20.0%, 2/2 runs)",
    ]


def test_picard_digest_reads_the_sweeps_bits() -> None:
    """One tiny configuration (2D n = 8 with a field, 2 iterates of 1 step):
    its digest is a sha256, the same on a second run, and moves with kappa.
    The tool runs 16 larger ones the same way."""
    def digest(kappa: float) -> bytes:
        return PICARD_DIGEST.config_digest(2, 8, kappa, True, True, n_max=2, steps=1)

    one = digest(0.0)
    assert len(one) == 32
    assert digest(0.0) == one
    assert digest(0.1) != one
    assert len(PICARD_DIGEST.CONFIGS) == 16
