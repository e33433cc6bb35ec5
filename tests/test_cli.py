import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from collective_mode.cli import main


def write_config(path, n=16, alpha=0.5, t_max=16.0, steps=1600, outdir=None,
                 extra_model="", formats="csv", mass=1.0, omega0=1.0):
    outdir = outdir or (path.parent / "out")
    path.write_text(f"""
[model]
kind = next_neighbor
n = {n}
mass = {mass}
omega0 = {omega0}
alpha = {alpha}
{extra_model}

[dynamics]
p0 = 1.0
t_max = {t_max}
steps = {steps}

[spectra]
omega_max = 4.0
grid_points = 1200
powers = 2

[output]
directory = {outdir}
formats = {formats}
""")
    return outdir


def write_general_config(path, n=16, alpha=0.5, mass=1.0, omega0=1.0,
                         **kwargs):
    """The chain pair of write_config, as a general model whose W and K
    are read from CSV files."""
    from collective_mode import build_next_neighbor_model

    model = build_next_neighbor_model(n, mass, omega0, alpha)
    w_file, k_file = path.with_suffix(".w.csv"), path.with_suffix(".k.csv")
    np.savetxt(w_file, model.w_matrix, delimiter=",")
    np.savetxt(k_file, model.k_matrix, delimiter=",")
    outdir = write_config(path, n=n, alpha=alpha, mass=mass, omega0=omega0,
                          **kwargs)
    path.write_text(path.read_text().replace(
        "kind = next_neighbor",
        f"kind = general\nw_file = {w_file}\nk_file = {k_file}"))
    return outdir


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def test_run_writes_all_outputs(tmp_path):
    cfg = tmp_path / "demo.ini"
    out = write_config(cfg, n=32, alpha=0.5, t_max=32.0, steps=3200)
    assert main(["run", str(cfg), "--quiet"]) == 0
    for name in ("trajectory.csv", "sigma.csv", "strengths.csv",
                 "spectrum.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["regime"] == "underdamped"
    assert summary["cross_route_error"]["volterra_vs_exact_linf"] < 1e-4
    header, data = read_csv(out / "trajectory.csv")
    assert header == ["t", "x_exact", "x_volterra", "x_closed_form"]
    assert data.shape == (3201, 4)
    header, _ = read_csv(out / "spectrum.csv")
    assert header == ["omega", "s_smoothed", "s_fdt", "s_ohmic", "s_power_2"]


def test_run_decoupled_scenario(tmp_path):
    # no interaction: no damping, ballistic collective coordinate, all
    # trajectory routes identical; strength spectra are not defined
    cfg = tmp_path / "free.ini"
    out = write_config(cfg, n=8, alpha=0.0, t_max=10.0, steps=1000)
    assert main(["run", str(cfg), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma0"] == 0.0
    assert "spectra_skipped" in summary
    _, data = read_csv(out / "trajectory.csv")
    x_exact, x_volt, x_closed = data[:, 1], data[:, 2], data[:, 3]
    scale = np.abs(x_exact).max()
    assert np.abs(x_exact - x_volt).max() < 1e-10 * scale
    assert np.abs(x_exact - x_closed).max() < 1e-10 * scale


def test_run_json_format(tmp_path):
    cfg = tmp_path / "demo.ini"
    out = write_config(cfg, n=8, alpha=1.0, t_max=8.0, steps=800,
                       formats="csv,json")
    assert main(["run", str(cfg), "--quiet"]) == 0
    payload = json.loads((out / "trajectory.json").read_text())
    assert set(payload) == {"t", "x_exact", "x_volterra", "x_closed_form"}
    assert len(payload["t"]) == 801


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("""
[model]
kind = next_neighbor
mass = 1.0

[dynamics]
p0 = 1.0
t_max = 1.0
steps = 10

[spectra]

[output]
directory = out
""")
    assert main(["run", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "'n'" in err and "[model]" in err


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini"), "--quiet"]) == 2


def test_unparseable_value(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    write_config(cfg)
    cfg.write_text(cfg.read_text().replace("alpha = 0.5", "alpha = banana"))
    assert main(["run", str(cfg), "--quiet"]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("grid_points", "1"), ("grid_points", "0"), ("grid_points", "-5"),
    ("omega_max", "0"), ("omega_max", "-1"), ("epsilon", "-0.1"),
    # non-finite numbers and a zero kick, [dynamics] keys included
    ("t_max", "nan"), ("t_max", "inf"), ("p0", "nan"), ("p0", "0"),
    ("omega_max", "inf"), ("epsilon", "inf"),
])
def test_bad_spectra_value(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.ini"
    out = write_config(cfg)
    text = cfg.read_text().replace("powers = 2", "powers = 2\nepsilon = 0")
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in text.splitlines()]
    cfg.write_text("\n".join(lines))
    assert main(["run", str(cfg), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("key, value", [
    ("n", "1"), ("alpha", "-0.5"), ("mass", "-1"), ("omega0", "0"), ("hbar", "0"),
])
def test_bad_model_value(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "bad.ini"
    out = write_config(cfg, extra_model="hbar = 1.0")
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in cfg.read_text().splitlines()]
    cfg.write_text("\n".join(lines))
    assert main([command, str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [model] ") and key in err
    assert not out.exists()


def count_calls(monkeypatch, targets):
    """Count calls to each (module, function) of the package.

    Every package module attribute bound to the function is rebound, so
    names imported directly into another module are counted too.
    """
    counts = {}
    for modname, fname in targets:
        fn = getattr(importlib.import_module(f"collective_mode.{modname}"), fname)
        counts[fname] = 0

        def counted(*args, _fn=fn, _name=fname, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "collective_mode" or name.startswith("collective_mode."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
    return counts


def decomposition_counts(tmp_path, monkeypatch, command, write=write_config):
    counts = count_calls(monkeypatch, [
        ("model", "phonon_spectrum"), ("mapping", "caldeira_leggett_form"),
        ("mapping", "collective_sector_eigensystem"),
        ("mapping", "interaction_in_phonon_basis")])
    cfg = tmp_path / "demo.ini"
    write(cfg, n=16, alpha=0.5, t_max=16.0, steps=1600)
    assert main([command, str(cfg), "--quiet"]) == 0
    return counts


@pytest.mark.parametrize("command, expected", [
    # a point-coupled chain maps by the secular route: no dense eigensolve
    ("run", {"phonon_spectrum": 0, "caldeira_leggett_form": 0,
             "collective_sector_eigensystem": 0,
             "interaction_in_phonon_basis": 0}),
    # verify's phonons, shared by its dense form (which also returns U),
    # and one sector eigensystem, shared by its sector modes and the
    # energy reconstruction; the symmetric sector forms its own
    # congruence, so only the dense form transforms K
    ("verify", {"phonon_spectrum": 1, "caldeira_leggett_form": 1,
                "collective_sector_eigensystem": 1,
                "interaction_in_phonon_basis": 1}),
])
def test_each_decomposition_is_computed_once(tmp_path, monkeypatch, command, expected):
    assert decomposition_counts(tmp_path, monkeypatch, command) == expected


def test_general_model_run_maps_once_by_dense_route(tmp_path, monkeypatch):
    # the same chain as a general model takes the dense route, once
    counts = decomposition_counts(tmp_path, monkeypatch, "run",
                                  write_general_config)
    assert counts == {"phonon_spectrum": 1, "caldeira_leggett_form": 1,
                      "collective_sector_eigensystem": 1,
                      "interaction_in_phonon_basis": 1}


@pytest.mark.parametrize("mass, omega0", [(1.0, 1.0), (2.0, 3.0)])
def test_secular_route_matches_dense_route_end_to_end(tmp_path, mass, omega0):
    # one chain pair, run as a point-coupled chain (secular route) and as
    # a general model with the same W and K (dense route)
    runs = []
    for write, name in ((write_config, "chain"), (write_general_config, "general")):
        cfg = tmp_path / f"{name}.ini"
        out = write(cfg, n=32, alpha=0.5, t_max=32.0, steps=3200,
                    outdir=tmp_path / name, mass=mass, omega0=omega0)
        assert main(["run", str(cfg), "--quiet"]) == 0
        runs.append(out)
    for table in ("strengths.csv", "trajectory.csv"):
        header, chain = read_csv(runs[0] / table)
        assert read_csv(runs[1] / table)[0] == header
        dense = read_csv(runs[1] / table)[1]
        assert chain.shape == dense.shape
        scale = np.abs(dense).max(axis=0)
        assert (np.abs(chain - dense) <= 1e-9 * scale).all(), table


def test_runtime_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: importing scipy.linalg would add
    # about 0.3 s to the start of every command
    import collective_mode
    src = str(Path(collective_mode.__file__).resolve().parents[1])
    chain, general = tmp_path / "chain.ini", tmp_path / "general.ini"
    write_config(chain, outdir=tmp_path / "chain")
    write_general_config(general, outdir=tmp_path / "general")
    code = (
        "import sys\n"
        "from collective_mode.cli import main\n"
        "assert main(['run', sys.argv[1], '--quiet']) == 0\n"
        "assert main(['verify', sys.argv[2], '--quiet']) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n")
    result = subprocess.run(
        [sys.executable, "-c", code, str(chain), str(general)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


def test_too_large_step_is_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "coarse.ini"
    write_config(cfg, n=16, alpha=0.5, t_max=100.0, steps=100)  # h = 1.0
    assert main(["run", str(cfg), "--quiet"]) == 3
    assert "too large" in capsys.readouterr().err


def test_verify_default_config_passes(tmp_path):
    cfg = tmp_path / "demo.ini"
    out = write_config(cfg, n=32, alpha=0.5, t_max=32.0, steps=3200)
    assert main(["verify", str(cfg), "--quiet"]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert "mapping.spectrum_preservation" in names
    assert "dynamics.volterra_vs_exact" in names


@pytest.mark.parametrize("epsilon, in_window", [(0.0, False), (0.01, True)])
def test_fdt_window_flag_matches_verify_skip(tmp_path, epsilon, in_window):
    # N=32, alpha=0.5: W0 / 2 = 0.026, below the default width (0.31)
    cfg = tmp_path / "demo.ini"
    out = write_config(cfg, n=32, alpha=0.5, t_max=8.0, steps=800)
    cfg.write_text(cfg.read_text().replace(
        "[spectra]\n", f"[spectra]\nepsilon = {epsilon}\n"))
    assert main(["run", str(cfg), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cross_route_error"]["fdt_vs_smoothed_in_window"] is in_window
    main(["verify", str(cfg), "--quiet"])
    report = json.loads((out / "verification.json").read_text())
    (check,) = [c for c in report["checks"]
                if c["name"] == "spectra.route_equivalence"]
    assert check["detail"].startswith("skipped") is not in_window


def test_verify_constant_coupling_decoupling_group(tmp_path):
    # constant K: write the matrices out and drive the general-model path
    n = 6
    from collective_mode import build_next_neighbor_model

    w = build_next_neighbor_model(n, 1.0, 1.0, 0.0).w_matrix
    k = np.full((n, n), 0.4)
    np.savetxt(tmp_path / "w.csv", w, delimiter=",")
    np.savetxt(tmp_path / "k.csv", k, delimiter=",")
    cfg = tmp_path / "const.ini"
    cfg.write_text(f"""
[model]
kind = general
mass = 1.0
w_file = {tmp_path / 'w.csv'}
k_file = {tmp_path / 'k.csv'}

[dynamics]
p0 = 1.0
t_max = 10.0
steps = 8000

[spectra]

[output]
directory = {tmp_path / 'out'}
""")
    assert main(["verify", str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "verification.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["mapping.decoupling_indicator"]["detail"] == "decoupled"
    # the vanishing kernel and the sinusoidal X are checked separately
    for name, tolerance in (("dynamics.decoupled_kernel", 1e-12),
                            ("dynamics.decoupled_harmonic", 1e-8)):
        assert by_name[name]["passed"]
        assert by_name[name]["tolerance"] == tolerance
        assert by_name[name]["measured"] <= tolerance


def test_verify_coarse_step_fails_with_error_norm(tmp_path):
    # a step at the stability boundary over a long window accumulates
    # enough phase error to break the volterra-vs-exact tolerance
    cfg = tmp_path / "coarse.ini"
    out = write_config(cfg, n=32, alpha=0.5, t_max=1600.0, steps=32000)
    assert main(["verify", str(cfg), "--quiet"]) == 1
    report = json.loads((out / "verification.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    entry = by_name["dynamics.volterra_vs_exact"]
    assert not entry["passed"]
    assert entry["measured"] > 1e-4


def test_figure1_outputs(tmp_path):
    out = tmp_path / "fig"
    assert main(["figure1", str(out), "--quiet"]) == 0
    h1, d1 = read_csv(out / "figure1_strength.csv")
    h2, d2 = read_csv(out / "figure1_double.csv")
    assert h1 == ["omega", "scaled_strength"]
    w = d1[:, 0]
    assert (np.diff(w) > 0).all()
    assert w[0] == 0.0 and abs(w[-1] - 4.0) < 1e-12
    assert abs(w[np.argmax(d1[:, 1])] - 1.0) < 0.01
    assert abs(w[np.argmax(d2[:, 1])] - 2.0) < 0.05
    # pre-scaling value at omega = 1: divide out the pi m Wbar^2/hbar factor
    s_at_1 = np.interp(1.0, w, d1[:, 1]) / np.pi
    assert abs(s_at_1 - 1.5876) < 1e-3


def test_byte_determinism(tmp_path):
    cfg = tmp_path / "demo.ini"
    out1 = write_config(cfg, n=8, alpha=1.0, t_max=8.0, steps=800,
                        outdir=tmp_path / "out1")
    assert main(["run", str(cfg), "--quiet"]) == 0
    cfg2 = tmp_path / "demo2.ini"
    out2 = write_config(cfg2, n=8, alpha=1.0, t_max=8.0, steps=800,
                        outdir=tmp_path / "out2")
    assert main(["run", str(cfg2), "--quiet"]) == 0
    for name in ("trajectory.csv", "sigma.csv", "strengths.csv",
                 "spectrum.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_output_override(tmp_path):
    cfg = tmp_path / "demo.ini"
    write_config(cfg, n=8, alpha=1.0, t_max=8.0, steps=800)
    override = tmp_path / "elsewhere"
    assert main(["run", str(cfg), "--output", str(override), "--quiet"]) == 0
    assert (override / "summary.json").exists()
