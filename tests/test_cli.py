import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from collective_mode import ConvergenceError, UnstableModelError
from collective_mode import mapping
from collective_mode import model as model_mod
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
    assert not {"epsilon", "smoothing_in_window", "smoothed_tail_fraction",
                "powers_skipped"} & set(summary)
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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_overdamped_run_writes_strict_json(tmp_path):
    # an overdamped run has no omega_bar and no closed-form trajectory;
    # JSON cannot hold NaN, so both are written as null
    cfg = tmp_path / "over.ini"
    out = write_config(cfg, n=4, alpha=1000.0, t_max=1.0, steps=2000,
                       formats="csv,json")
    assert main(["run", str(cfg), "--quiet"]) == 0
    payloads = {f.name: json.loads(f.read_text(), parse_constant=_reject_constant)
                for f in out.glob("*.json")}
    assert {"summary.json", "trajectory.json", "spectrum.json"} <= set(payloads)
    summary = payloads["summary.json"]
    assert summary["regime"] == "overdamped"
    assert summary["omega_bar"] is None
    assert set(payloads["trajectory.json"]["x_closed_form"]) == {None}


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
    ("t_max", "0"), ("t_max", "-1"), ("steps", "1"), ("steps", "2.5"),
    ("powers", "two"), ("powers", "2, 1.5"), ("powers", "0"), ("powers", "2,-1"),
    # [model] and [output] keys that no model check sees
    ("kind", "ring"), ("n", "16.5"), ("formats", "xml"), ("formats", "csv, txt"),
    ("formats", ""), ("directory", ""),
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


def _without_dynamics(text):
    head, tail = text.split("[dynamics]")
    return head + tail[tail.index("["):]


def _latin1_comment(cfg):
    cfg.write_bytes(b"; caf\xe9\n" + cfg.read_bytes())


@pytest.mark.parametrize("edit, named", [
    (lambda cfg: cfg.write_text(cfg.read_text().replace("grid_points", "grid_point")),
     "[spectra] unknown key 'grid_point'"),
    (lambda cfg: cfg.write_text(cfg.read_text() + "\n[plot]\ncolor = red\n"),
     "unknown section [plot]"),
    (lambda cfg: cfg.write_text("[DEFAULT]\nmass = 2.0\n" + cfg.read_text()),
     "unknown section [DEFAULT]"),
    (lambda cfg: cfg.write_text(_without_dynamics(cfg.read_text())),
     "missing field 't_max' in [dynamics]"),
    (lambda cfg: cfg.write_text("p0 = 1.0\n" + cfg.read_text()), "bad.ini"),
    (_latin1_comment, "bad.ini"),
    (lambda cfg: cfg.with_suffix(".w.csv").unlink(), "bad.w.csv"),
    (lambda cfg: cfg.with_suffix(".k.csv").write_text("0,1\nx,0\n"), "bad.k.csv"),
], ids=["unknown-key", "unknown-section", "default-section", "missing-section",
        "no-section-header", "not-utf8", "missing-matrix-file",
        "unparseable-matrix-file"])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_malformed_config_file_is_config_error(tmp_path, capsys, edit, named, command):
    # every fault of the file itself is a config error that names the key
    # or the file, before any output is written
    cfg = tmp_path / "bad.ini"
    out = write_general_config(cfg, n=8)
    edit(cfg)
    assert main([command, str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


def test_config_path_that_is_a_directory(tmp_path, capsys):
    assert main(["run", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {str(tmp_path)!r}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
@pytest.mark.parametrize("command", ["run", "verify", "figure1"])
def test_output_path_that_cannot_be_a_directory(tmp_path, capsys, command, below):
    # an existing file, or a path under one, is bad input that names the
    # path (exit 2), not an internal error with a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    target = blocker / "out" if below else blocker
    cfg = tmp_path / "demo.ini"
    write_config(cfg, n=8, t_max=8.0, steps=800)
    argv = ([command, str(target)] if command == "figure1"
            else [command, str(cfg), "--output", str(target)])
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot use {str(target)!r} as the output")
    assert "Traceback" not in err
    assert blocker.read_text() == "keep\n"


def test_percent_sign_and_inline_comments_are_literal_text(tmp_path):
    # no interpolation: a % in a value is a character; ; and # after
    # whitespace start a comment
    cfg = tmp_path / "demo.ini"
    out = write_config(cfg, n=8, t_max=8.0, steps=800, outdir=tmp_path / "out%(n)s%")
    cfg.write_text(cfg.read_text().replace("formats = csv", "formats = csv  # or json")
                   .replace("powers = 2", "powers = 2  ; squared"))
    assert main(["run", str(cfg), "--quiet"]) == 0
    assert (out / "summary.json").exists()
    assert "s_power_2" in (out / "spectrum.csv").read_text().splitlines()[0]


def readme_config():
    """README's example config, verbatim."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_runs(tmp_path):
    # README's example config, verbatim, through both config commands
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(readme_config())
    for command in ("run", "verify"):
        assert main([command, str(cfg), "--quiet", "--output",
                     str(tmp_path / command)]) == 0


@pytest.mark.parametrize("n, in_window", [(4, False), (32, True)])
def test_readme_config_reports_the_smoothing_window(tmp_path, n, in_window):
    # at N = 4 the default width, 2.29, is above half the top line (0.94)
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(readme_config().replace("n = 32", f"n = {n}"))
    assert main(["run", str(cfg), "--quiet", "--output", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["smoothing_in_window"] is in_window
    assert 0.0 < summary["smoothed_tail_fraction"] < 1e-2


def test_narrow_grid_skips_only_the_powers(tmp_path):
    # the strength comb does not depend on the grid, and the smoothed,
    # resolvent and constant-friction columns hold on any grid; only the
    # convolution powers need the grid to carry the spectral mass
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(readme_config().replace("omega_max = 4.0", "omega_max = 0.04"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--quiet", "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["powers_skipped"].startswith("grid too narrow")
    assert "spectra_skipped" not in summary
    assert {"epsilon", "sum_rules", "smoothing_in_window"} <= set(summary)
    assert summary["smoothed_tail_fraction"] > 1e-2
    _, strengths = read_csv(out / "strengths.csv")
    assert strengths.shape == (32, 2)
    header, spectrum = read_csv(out / "spectrum.csv")
    assert header == ["omega", "s_smoothed", "s_fdt", "s_ohmic"]
    assert spectrum.shape == (2000, 4)
    # the refusal names a grid that is wide enough, and not far wider
    hint = float(summary["powers_skipped"].rsplit("omega_max = ", 1)[1])
    assert 0.04 < hint <= 1.0
    cfg.write_text(readme_config().replace("omega_max = 4.0", f"omega_max = {hint!r}"))
    assert main(["run", str(cfg), "--quiet", "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "powers_skipped" not in summary
    assert read_csv(out / "spectrum.csv")[0][-1] == "s_power_2"


def test_cli_import_leaves_configparser_unloaded():
    # configparser is imported by the first load_scenario call, so a
    # command's start does not pay for it before it reads a config
    import collective_mode
    src = str(Path(collective_mode.__file__).resolve().parents[1])
    code = ("import sys, collective_mode.cli\n"
            "print('configparser' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src},
                            check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_asymmetric_coupling_file_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "bad.ini"
    out = write_general_config(cfg, n=8)
    k_file = cfg.with_suffix(".k.csv")
    k = np.loadtxt(k_file, delimiter=",")
    k[0, 1] = 0.1
    np.savetxt(k_file, k, delimiter=",")
    assert main([command, str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [model] invalid model: k_symmetry")
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


def record_shapes(monkeypatch, names=("eigvalsh", "eigh")):
    """Record the input shape of every call to each named np.linalg
    function, in call order."""
    shapes = {}
    for name in names:
        shapes[name] = []

        def recorded(a, *args, _fn=getattr(np.linalg, name), _log=shapes[name],
                     **kwargs):
            _log.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def decomposition_counts(tmp_path, monkeypatch, command, write=write_config):
    counts = count_calls(monkeypatch, [
        ("model", "phonon_spectrum"), ("mapping", "caldeira_leggett_form"),
        ("mapping", "collective_sector_eigensystem")])
    cfg = tmp_path / "demo.ini"
    write(cfg, n=16, alpha=0.5, t_max=16.0, steps=1600)
    assert main([command, str(cfg), "--quiet"]) == 0
    return counts


@pytest.mark.parametrize("command, expected, write, shapes", [
    # a point-coupled chain maps by the secular route: no dense eigensolve
    pytest.param("run", {"phonon_spectrum": 0, "caldeira_leggett_form": 0,
                         "collective_sector_eigensystem": 0},
                 write_config, {"eigvalsh": [], "eigh": []},
                 id="run-expected0"),
    # verify checks the chain against its closed form through the
    # symmetric sector's eigenvalues, so it makes no phonon eigensolve;
    # its dense form (which also returns the site basis) and one sector
    # eigensystem, shared by its sector modes and the energy
    # reconstruction; the factory skips validation, so verify solves
    # the sector eigenvalues itself
    pytest.param("verify", {"phonon_spectrum": 0, "caldeira_leggett_form": 1,
                            "collective_sector_eigensystem": 1},
                 write_config,
                 {"eigvalsh": [(2, 16, 16)], "eigh": [(15, 15), (16, 16)]},
                 id="verify-expected1"),
    # a general model maps without its phonons, and verify takes the
    # sector eigenvalues that validation computed
    pytest.param("verify", {"phonon_spectrum": 0, "caldeira_leggett_form": 1,
                            "collective_sector_eigensystem": 1},
                 write_general_config,
                 {"eigvalsh": [(2, 16, 16)], "eigh": [(15, 15), (16, 16)]},
                 id="verify-general"),
])
def test_each_decomposition_is_computed_once(tmp_path, monkeypatch, command,
                                             expected, write, shapes):
    recorded = record_shapes(monkeypatch)
    assert decomposition_counts(tmp_path, monkeypatch, command, write) == expected
    assert recorded == shapes


def test_general_model_run_maps_once_by_dense_route(tmp_path, monkeypatch):
    # the same chain as a general model takes the dense route, once: it
    # deflates the uniform mode without the phonons, so its eigenvectors
    # are the bath block's (N - 1) and the collective sector's (N);
    # validation takes eigenvalues only
    shapes = record_shapes(monkeypatch, ["eigh"])
    counts = decomposition_counts(tmp_path, monkeypatch, "run",
                                  write_general_config)
    assert counts == {"phonon_spectrum": 0, "caldeira_leggett_form": 1,
                      "collective_sector_eigensystem": 1}
    assert shapes["eigh"] == [(15, 15), (16, 16)]


@pytest.mark.parametrize("write", [write_config, write_general_config])
def test_verify_factorises_nothing_larger_than_n(tmp_path, monkeypatch, write):
    # the full form splits into two N x N sector blocks, so no eigensolve
    # or QR of verify sees the 2N-coordinate matrix
    sizes = []
    for name in ("eigvalsh", "eigh", "qr"):
        def recorded(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    cfg = tmp_path / "demo.ini"
    write(cfg, n=16, alpha=0.5, t_max=16.0, steps=1600)
    assert main(["verify", str(cfg), "--quiet"]) == 0
    assert sizes and max(sizes) <= 16


@pytest.mark.parametrize("command", ["run", "verify"])
def test_no_qr_factorisation(tmp_path, monkeypatch, command):
    # the uniform phonon mode is deflated by a closed-form reflector; the
    # general model makes run take the dense route through the phonons
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")
    monkeypatch.setattr(np.linalg, "qr", refused)
    cfg = tmp_path / "demo.ini"
    write_general_config(cfg, n=16, alpha=0.5, t_max=16.0, steps=1600)
    assert main([command, str(cfg), "--quiet"]) == 0


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


def test_benchmark_import_probe_reports_backend():
    # perfbench/child.py --import-only times the package import and reads
    # collective_mode.BACKEND_NAME into the host facts of every benchmark run
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "perfbench/child.py", "--import-only"],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": "src"})
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.strip().splitlines()[-1])
    assert record["host"]["backend"]


def test_too_large_step_is_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "coarse.ini"
    write_config(cfg, n=16, alpha=0.5, t_max=100.0, steps=100)  # h = 1.0
    assert main(["run", str(cfg), "--quiet"]) == 3
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (UnstableModelError("collective sector has a negative mode"), 3),
    (ConvergenceError("secular roots not converged"), 3),
    (ValueError("an internal bug"), 4),
    (RuntimeError("an internal bug"), 4),
    (KeyError("an internal bug"), 4),
])
def test_exit_code_separates_numerical_failures_from_bugs(
        tmp_path, monkeypatch, capsys, error, code):
    # only the package's numerical errors exit 3; anything else is a bug,
    # which exits 4 with its traceback on stderr
    def fail(model):
        raise error
    monkeypatch.setattr(mapping, "collective_mapping", fail)
    cfg = tmp_path / "demo.ini"
    write_config(cfg)
    assert main(["run", str(cfg), "--quiet"]) == code
    err = capsys.readouterr().err
    assert str(error) in err
    assert ("numerical failure" in err) == (code == 3)
    assert ("Traceback" in err) == (code == 4)


def test_chain_run_forms_no_dense_array(tmp_path, monkeypatch):
    # a point-coupled chain runs from the factory's recipe alone; verify
    # is a dense consumer and forms W and K
    formed = []
    build = model_mod._chain_matrix
    monkeypatch.setattr(model_mod, "_chain_matrix",
                        lambda model, name: formed.append(name) or build(model, name))
    cfg = tmp_path / "demo.ini"
    write_config(cfg, n=64)
    assert main(["run", str(cfg), "--quiet"]) == 0
    assert formed == []
    assert main(["verify", str(cfg), "--quiet"]) == 0
    assert sorted(formed) == ["k_matrix", "w_matrix"]


def test_verify_default_config_passes(tmp_path):
    cfg = tmp_path / "demo.ini"
    out = write_config(cfg, n=32, alpha=0.5, t_max=32.0, steps=3200)
    assert main(["verify", str(cfg), "--quiet"]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert "mapping.spectrum_preservation" in names
    assert "dynamics.volterra_vs_exact" in names


VERIFY_CHECKS = [
    "model.full_potential_psd", "model.closed_form_frequencies",
    "mapping.decoupling_indicator", "mapping.bath_stability",
    "mapping.bath_residual",
    "mapping.secular_cross_check", "mapping.interlacing",
    "mapping.spectrum_preservation", "dynamics.volterra_vs_exact",
    "dynamics.energy_conservation", "dynamics.decoupled_kernel",
    "dynamics.decoupled_harmonic", "dynamics.kernel_flatness",
    "spectra.comb_total_equals_correlator_at_zero", "spectra.strength_sum_rule",
    "spectra.classical_quantum_link", "spectra.route_equivalence",
    "spectra.positivity",
]


@pytest.mark.parametrize("write, skipped", [
    (write_config, {"dynamics.decoupled_kernel", "dynamics.decoupled_harmonic",
                    "spectra.route_equivalence"}),
    # the general model has no closed form and no secular route
    (write_general_config, {"model.closed_form_frequencies",
                            "mapping.secular_cross_check", "mapping.interlacing",
                            "dynamics.decoupled_kernel", "dynamics.decoupled_harmonic",
                            "spectra.route_equivalence"}),
])
def test_verify_check_names_are_pinned(tmp_path, write, skipped):
    # a check can neither appear nor vanish unnoticed: both routes report
    # the same checks in the same order, the inapplicable ones as skipped
    cfg = tmp_path / "demo.ini"
    out = write(cfg, n=16, alpha=0.5, t_max=16.0, steps=1600)
    assert main(["verify", str(cfg), "--quiet"]) == 0
    checks = json.loads((out / "verification.json").read_text())["checks"]
    assert [c["name"] for c in checks] == VERIFY_CHECKS
    assert {c["name"] for c in checks
            if c["detail"].startswith("skipped")} == skipped
    (bath,) = [c for c in checks if c["name"] == "mapping.bath_residual"]
    assert bath["passed"] and bath["tolerance"] == 1e-10
    assert bath["measured"] <= 1e-10


@pytest.mark.parametrize("n, alpha", [(2, 0.5), (16, 0.0), (16, 0.37), (33, 1000.0),
                                      (257, 0.5)])
def test_verify_closed_form_frequencies_read_the_symmetric_sector(n, alpha):
    # the symmetric block of a point-coupled chain is the free chain W,
    # so its eigenvalues are the squared standing-wave frequencies
    from collective_mode import build_next_neighbor_model
    from collective_mode.verify import run_checks

    model = build_next_neighbor_model(n, 1.0, 1.0, alpha)
    checks = run_checks(model, p0=1.0, t_max=4.0, steps=400)
    (check,) = [c for c in checks if c.name == "model.closed_form_frequencies"]
    assert check.passed and check.tolerance == 1e-12
    assert check.measured <= 1e-12


def test_verify_catches_a_perturbed_closed_form(tmp_path, monkeypatch):
    # the closed-form chain frequencies off by a relative 1e-9: the
    # symmetric sector no longer matches them, and verify fails
    exact = model_mod.next_neighbor_frequencies
    monkeypatch.setattr(model_mod, "next_neighbor_frequencies",
                        lambda n, omega0: exact(n, omega0) * (1.0 + 1e-9))
    cfg = tmp_path / "demo.ini"
    out = write_config(cfg, n=16, alpha=0.5, t_max=16.0, steps=1600)
    assert main(["verify", str(cfg), "--quiet"]) == 1
    checks = json.loads((out / "verification.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == [
        "model.closed_form_frequencies"]
    (check,) = [c for c in checks if c["name"] == "model.closed_form_frequencies"]
    assert check["measured"] > 1e-9


def test_verify_bath_residual_catches_a_perturbed_basis(tmp_path, monkeypatch):
    # one entry of one bath column of the site basis off by 1e-6: the
    # residual of the eigensolve the mapping uses fails, and so does verify
    from collective_mode import mapping

    dense = mapping.caldeira_leggett_form

    def perturbed(model):
        form, basis = dense(model)
        basis = basis.copy()
        basis[5, 3] += 1e-6
        return form, basis
    monkeypatch.setattr(mapping, "caldeira_leggett_form", perturbed)
    cfg = tmp_path / "demo.ini"
    out = write_general_config(cfg, n=16, alpha=0.5, t_max=16.0, steps=1600)
    assert main(["verify", str(cfg), "--quiet"]) == 1
    checks = json.loads((out / "verification.json").read_text())["checks"]
    (bath,) = [c for c in checks if c["name"] == "mapping.bath_residual"]
    assert not bath["passed"]
    assert bath["measured"] > 1e-8


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
    # enough phase error to break the volterra-vs-exact tolerance; the
    # error is measured against |P0|, so a kick of either sign fails
    measured = []
    for p0 in (1.0, -1.0):
        cfg = tmp_path / "coarse.ini"
        out = write_config(cfg, n=32, alpha=0.5, t_max=1600.0, steps=32000)
        cfg.write_text(cfg.read_text().replace("p0 = 1.0", f"p0 = {p0}"))
        assert main(["verify", str(cfg), "--quiet"]) == 1
        report = json.loads((out / "verification.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        entry = by_name["dynamics.volterra_vs_exact"]
        assert not entry["passed"]
        assert entry["measured"] > 1e-4
        measured.append(entry["measured"])
    assert measured[1] == pytest.approx(measured[0], rel=1e-12)


def test_verify_unbound_chain_names_the_scales_it_uses(tmp_path):
    # alpha = 0: X is a free, decoupled coordinate (W0 = 0), so the error
    # scale is max|X| and the reference is P0 t/m, and every check that
    # needs a bound resonance or positive sector frequencies is skipped
    cfg = tmp_path / "free.ini"
    out = write_config(cfg, n=16, alpha=0.0, t_max=16.0, steps=1600)
    assert main(["verify", str(cfg), "--quiet"]) == 0
    checks = json.loads((out / "verification.json").read_text())["checks"]
    assert [c["name"] for c in checks] == VERIFY_CHECKS
    by_name = {c["name"]: c for c in checks}
    for name in ["dynamics.kernel_flatness"] + VERIFY_CHECKS[-5:]:
        assert by_name[name]["detail"] == "skipped: collective coordinate is unbound"
    volterra = by_name["dynamics.volterra_vs_exact"]
    assert volterra["detail"] == "L-inf over [0, 16] at 1600 steps, scale max|X|"
    assert volterra["passed"] and volterra["measured"] <= 1e-4
    harmonic = by_name["dynamics.decoupled_harmonic"]
    assert harmonic["detail"] == "X moves freely as P0 t/m"
    assert harmonic["passed"] and harmonic["measured"] <= 1e-8


def test_verify_reports_every_check_when_the_step_is_too_large(tmp_path):
    # h = 1.6 is above the stepper's limit: the Volterra check fails with
    # the StepSizeError text and every other check still runs
    cfg = tmp_path / "coarse.ini"
    out = write_config(cfg, n=16, alpha=0.5, t_max=160.0, steps=100)
    assert main(["verify", str(cfg), "--quiet"]) == 1
    report = json.loads((out / "verification.json").read_text())
    assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["dynamics.volterra_vs_exact"]
    assert failed[0]["measured"] is None
    assert failed[0]["detail"].startswith("time step 1.6 too large; need h <= 0.0502")


def test_verify_stops_at_an_indefinite_model():
    # an unvalidated model whose antisymmetric block is indefinite: the
    # full form and the bath fail, and no check after the mapping runs
    from collective_mode import SystemModel, build_next_neighbor_model
    from collective_mode.verify import run_checks

    w = build_next_neighbor_model(3, 1.0, 1.0, 0.0).w_matrix
    model = SystemModel(3, 1.0, w, np.diag([-0.6, 0.0, 0.0]))
    checks = run_checks(model, p0=1.0, t_max=1.0, steps=10)
    assert [c.name for c in checks] == VERIFY_CHECKS[:4]
    assert [c.name for c in checks if not c.passed] == [
        "model.full_potential_psd", "mapping.bath_stability"]
    assert "negative mode" in checks[-1].detail


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
