"""The CSV number format of `cli.write_table`: byte for byte what Python's
'%.17g' prints (`oracles.percent_table`), LF line endings on every
platform, and memory that stays flat in the table length."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from collective_mode import _g17
from collective_mode._g17 import CHUNK_ROWS
from collective_mode.cli import main, write_table
from oracles import percent_table
from test_cli import write_config


def assert_matches_oracle(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path / "table.csv"
    write_table(path, header, columns)
    assert path.read_bytes() == percent_table(header, columns)


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    both = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([both, -both])


def test_random_bit_patterns_print_as_percent_g(tmp_path):
    # 2^20 uniform 64-bit patterns cover every exponent, subnormals and
    # nan payloads; zeros, infinities and signed nans are put in by hand
    bits = np.random.default_rng(20).integers(0, 2**64, size=2**20, dtype=np.uint64)
    bits[:8] = [0, 2**63, 0x7FF0000000000000, 0xFFF0000000000000,
                0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0xFFFFFFFFFFFFFFFF]
    values = bits.view(np.float64)
    assert np.isnan(values).sum() > 100 and (np.abs(values) < 2.3e-308).sum() > 100
    assert_matches_oracle(tmp_path, list(values.reshape(4, -1)))


def test_decade_edges_print_as_percent_g(tmp_path):
    # fl(10^k) and its neighbours for k in -320..308; '%.17g' switches to
    # exponent notation below 1e-4 and from 1e17 on; a few fl(10^k) lie
    # just below 10^k and round up into the next decade
    tens = with_neighbours([float(f"1e{k}") for k in range(-320, 309)])
    switch = with_neighbours([1e-5, 1e-4, 1e16, 1e17])
    assert Fraction(1e-14) < Fraction(1, 10**14) and "%.17g" % 1e-14 == "1e-14"
    assert_matches_oracle(tmp_path, [tens])
    assert_matches_oracle(tmp_path, list(switch.reshape(3, -1)))


def test_powers_of_two_print_as_percent_g(tmp_path):
    assert_matches_oracle(tmp_path, [with_neighbours(2.0 ** np.arange(-1074, 1024))])


@pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                  2 * CHUNK_ROWS + 1])
@pytest.mark.parametrize("width", [1, 4])
def test_chunk_boundaries_print_as_percent_g(tmp_path, rows, width):
    rng = np.random.default_rng(rows + width)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 20, rows)
               for _ in range(width)]
    assert_matches_oracle(tmp_path, columns)


def test_unequal_columns_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])


def reprinted(path):
    """The file's values, parsed and printed again through the oracle."""
    header, *lines = path.read_bytes().decode().split("\n")[:-1]
    header = header.split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines]
    columns = np.array(rows, dtype=float).reshape(len(rows), len(header)).T
    return percent_table(header, list(columns))


@pytest.mark.parametrize("case", ["underdamped", "decoupled", "overdamped", "figure1"])
def test_csv_outputs_are_their_values_reprinted_with_lf_endings(tmp_path, case):
    # decoupled: the spectra are skipped, so strengths.csv and the
    # one-column spectrum.csv have no rows; overdamped: x_closed_form is
    # all nan
    out = tmp_path / "out"
    if case == "figure1":
        assert main(["figure1", str(out), "--quiet"]) == 0
    else:
        shape = {"underdamped": dict(n=32, alpha=0.5, t_max=32.0, steps=3200),
                 "decoupled": dict(n=8, alpha=0.0, t_max=10.0, steps=1000),
                 "overdamped": dict(n=4, alpha=1000.0, t_max=1.0, steps=2000)}[case]
        cfg = tmp_path / "run.ini"
        write_config(cfg, outdir=out, **shape)
        assert main(["run", str(cfg), "--quiet"]) == 0
    paths = sorted(out.glob("*.csv"))
    assert len(paths) == (2 if case == "figure1" else 4)
    for path in paths:
        data = path.read_bytes()
        assert b"\r" not in data
        assert data == reprinted(path)
    if case == "decoupled":
        assert (out / "spectrum.csv").read_bytes() == b"omega\n"
        assert (out / "strengths.csv").read_bytes() == b"omega,weight\n"
    if case == "overdamped":
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert {line.rsplit(",", 1)[1] for line in lines} == {"nan"}


def test_fast_path_prints_nearly_every_run_value(tmp_path):
    # the per-value '%.17g' fallback is slow; on a run's tables it should
    # see only values at a power of ten or near a rounding tie
    cfg = tmp_path / "run.ini"
    out = write_config(cfg, n=64, alpha=0.5, t_max=50.0, steps=5000)
    assert main(["run", str(cfg), "--quiet"]) == 0
    values = np.concatenate([np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2).ravel()
                             for p in out.glob("*.csv")])
    mag = np.abs(values[np.isfinite(values) & (values != 0)])
    assert ((mag > 1e-280) & (mag < 1e280)).all()
    _, _, provable = _g17._digits(mag)
    assert values.size > 25000 and (~provable).sum() <= 1e-3 * values.size


def test_write_table_memory_stays_flat(tmp_path):
    # the whole-table '%' format held the table as Python floats and text,
    # 13 MB above its baseline for memory-long's 50001 x 4 trajectory
    t = np.linspace(0.0, 500.0, 50001)
    columns = [t, np.sin(t), 1e-3 * np.cos(t), np.exp(-t)]
    tracemalloc.start()
    try:
        write_table(tmp_path / "t.csv", ["t", "a", "b", "c"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
