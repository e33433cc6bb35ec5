"""Config-driven scenario runner.

Subcommands:
  run <config>      build -> map -> simulate -> spectra, write data files
  verify <config>   run the invariant suite, write a JSON report
  figure1 <outdir>  emit the dimensionless strength-spectrum curves

Config files are flat INI: [model], [dynamics], [spectra], [output]
sections with key = value lines.  All numeric output uses 17 significant
digits so reruns are byte-identical.
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import mapping, spectra
from .model import build_general_model, build_next_neighbor_model
from .verify import run_checks

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def write_table(path, header, columns):
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def write_table_json(path, header, columns):
    payload = {name: [float(v) for v in col] for name, col in zip(header, columns)}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load_matrix(path):
    try:
        return np.loadtxt(path, delimiter=",", dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse matrix file {path!r}: {exc}") from exc


class Scenario:
    """Typed view of a parsed config file."""

    def __init__(self, parser, path):
        self._p = parser
        self._path = path

        kind = self._get("model", "kind")
        if kind not in ("next_neighbor", "general"):
            raise ConfigError(
                f"[model] kind must be next_neighbor or general, got {kind!r}")
        self.kind = kind
        self.mass = self._get_float("model", "mass", 1.0)
        self.hbar = self._get_float("model", "hbar", 1.0)
        if kind == "next_neighbor":
            self.n = self._get_int("model", "n")
            self.omega0 = self._get_float("model", "omega0", 1.0)
            self.alpha = self._get_float("model", "alpha", 0.0)
        else:
            self.w_file = self._get("model", "w_file")
            self.k_file = self._get("model", "k_file")

        self.p0 = self._get_float("dynamics", "p0", 1.0)
        if self.p0 == 0:
            raise ConfigError("[dynamics] p0 must be nonzero")
        self.t_max = self._get_float("dynamics", "t_max")
        self.steps = self._get_int("dynamics", "steps")
        if self.t_max <= 0 or self.steps < 2:
            raise ConfigError("[dynamics] t_max must be > 0 and steps >= 2")

        self.epsilon = self._get_float("spectra", "epsilon", 0.0)  # 0 = auto
        self.omega_max = self._get_float("spectra", "omega_max", 4.0)
        self.grid_points = self._get_int("spectra", "grid_points", 2000)
        if not self.epsilon >= 0:
            raise ConfigError("[spectra] epsilon must be >= 0 (0 = auto)")
        if not self.omega_max > 0:
            raise ConfigError("[spectra] omega_max must be > 0")
        if self.grid_points < 2:
            raise ConfigError("[spectra] grid_points must be >= 2")
        powers_raw = self._get("spectra", "powers", "2")
        try:
            self.powers = sorted({int(p) for p in powers_raw.split(",") if p.strip()})
        except ValueError as exc:
            raise ConfigError(f"[spectra] powers must be integers: {exc}") from exc
        if any(p < 1 for p in self.powers):
            raise ConfigError("[spectra] powers must be >= 1")

        self.directory = self._get("output", "directory", "out")
        formats = self._get("output", "formats", "csv")
        self.formats = [f.strip() for f in formats.split(",") if f.strip()]
        for f in self.formats:
            if f not in ("csv", "json"):
                raise ConfigError(f"[output] formats entries must be csv or json, got {f!r}")

    def _get(self, section, field, default=None):
        if not self._p.has_section(section):
            if default is not None:
                return default
            raise ConfigError(f"missing [{section}] section")
        if not self._p.has_option(section, field):
            if default is not None:
                return default
            raise ConfigError(f"missing field {field!r} in [{section}]")
        return self._p.get(section, field)

    def _get_float(self, section, field, default=None):
        raw = self._get(section, field, None if default is None else str(default))
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {field} must be a number, got {raw!r}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"[{section}] {field} must be finite, got {raw!r}")
        return value

    def _get_int(self, section, field, default=None):
        raw = self._get(section, field, None if default is None else str(default))
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {field} must be an integer, got {raw!r}") from exc

    def build_model(self):
        if self.kind == "next_neighbor":
            try:
                return build_next_neighbor_model(
                    self.n, self.mass, self.omega0, self.alpha, self.hbar)
            except ValueError as exc:  # the factory checks only the scalars
                raise ConfigError(f"[model] {exc}") from exc
        w = _load_matrix(self.w_file)
        k = _load_matrix(self.k_file)
        return build_general_model(w, k, self.mass, self.hbar)


def load_scenario(path):
    import configparser

    parser = configparser.ConfigParser()
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise ConfigError(f"config file {path!r} does not exist")
    try:
        with open(cfg_path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path!r}: {exc}") from exc
    return Scenario(parser, path)


def _spectra_tables(form, modes, params, scenario):
    """Strength comb, smoothing width, spectrum table on the configured
    grid, and the resolvent route's relative L-inf gap to the broadened comb."""
    eps = scenario.epsilon if scenario.epsilon > 0 else dyn.default_epsilon(form)
    w = np.linspace(0.0, scenario.omega_max, scenario.grid_points)

    strengths = spectra.strength_comb(modes)      # raises if unbound
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        smoothed = spectra.smoothed_spectrum(strengths, eps, w)
    fdt = spectra.fdt_spectrum(form, w, eps)
    ohmic = spectra.ohmic_spectrum(params, w, form.hbar, form.mass)

    header = ["omega", "s_smoothed", "s_fdt", "s_ohmic"]
    columns = [w, smoothed.values, fdt.values, ohmic.values]
    for p in scenario.powers:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            conv = spectra.convolution_power_spectrum(smoothed, p)
        header.append(f"s_power_{p}")
        columns.append(conv.values)
    fdt_gap = float(np.abs(fdt.values - smoothed.values).max()
                    / max(smoothed.values.max(), 1e-300))
    return strengths, eps, (header, columns), fdt_gap


def run_scenario(scenario, quiet=False):
    model = scenario.build_model()
    out = Path(scenario.directory)
    out.mkdir(parents=True, exist_ok=True)

    form, modes = mapping.collective_mapping(model)
    params = dyn.collective_frequency(form)

    t = np.linspace(0.0, scenario.t_max, scenario.steps + 1)
    exact = dyn.evolve_exact(modes, scenario.p0, t)
    volt = dyn.solve_volterra(form, scenario.p0, t)
    if params.regime in ("underdamped", "critical"):
        closed = dyn.underdamped_closed_form(params, scenario.p0, t, form.mass)
        closed_vals = closed.positions
    else:
        closed_vals = np.full_like(t, np.nan)

    tables = {}
    tables["trajectory"] = (
        ["t", "x_exact", "x_volterra", "x_closed_form"],
        [t, exact.positions, volt.positions, closed_vals],
    )

    summary = {
        "k_tilde_11": float(form.k_tilde_11),
        "omega0_sq": float(params.omega0_sq),
        "gamma0": float(params.gamma0),
        "omega_bar": float(params.omega_bar),
        "gamma_bar": float(params.gamma_bar),
        "regime": params.regime,
        "n_particles": int(model.n_particles),
        "bath_min_freq": float(form.bath_freqs.min()),
        "bath_max_freq": float(form.bath_freqs.max()),
        "cross_route_error": {
            "volterra_vs_exact_linf": float(
                np.abs(volt.positions - exact.positions).max()),
        },
    }
    if params.regime in ("underdamped", "critical"):
        summary["cross_route_error"]["closed_form_vs_exact_linf"] = float(
            np.abs(closed_vals - exact.positions).max())

    sigma = spectra.sigma_comb(form)
    tables["sigma"] = (["omega", "weight"], [sigma.frequencies, sigma.weights])
    try:
        strengths, eps, spectrum_table, fdt_gap = _spectra_tables(
            form, modes, params, scenario)
    except ValueError as exc:
        tables["strengths"] = (["omega", "weight"], [np.empty(0), np.empty(0)])
        tables["spectrum"] = (["omega"], [np.empty(0)])
        summary["spectra_skipped"] = str(exc)
    else:
        tables["strengths"] = (["omega", "weight"],
                               [strengths.frequencies, strengths.weights])
        tables["spectrum"] = spectrum_table
        summary["epsilon"] = float(eps)
        summary["sum_rules"] = {
            "strength_total_weight": float(strengths.total_weight),
            "strength_weight_times_freq": float(
                (strengths.weights * strengths.frequencies).sum()),
            "hbar_over_2m": float(form.hbar / (2.0 * form.mass)),
        }
        summary["cross_route_error"]["fdt_vs_smoothed_linf_rel"] = fdt_gap
        summary["cross_route_error"]["fdt_vs_smoothed_in_window"] = (
            spectra.fdt_comparison_in_window(eps, params.omega0_sq))

    for name, (header, columns) in tables.items():
        if "csv" in scenario.formats:
            write_table(out / f"{name}.csv", header, columns)
        if "json" in scenario.formats:
            write_table_json(out / f"{name}.json", header, columns)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")

    if not quiet:
        print(f"wrote {', '.join(sorted(tables))} + summary.json to {out}")
        print(f"regime: {params.regime}, Omega0^2 = {params.omega0_sq:.6g}, "
              f"gamma0 = {params.gamma0:.6g}")
    return EXIT_OK


def run_verify(scenario, quiet=False):
    model = scenario.build_model()
    out = Path(scenario.directory)
    out.mkdir(parents=True, exist_ok=True)
    eps = scenario.epsilon if scenario.epsilon > 0 else None
    checks = run_checks(model, p0=scenario.p0, t_max=scenario.t_max,
                        steps=scenario.steps, epsilon=eps)
    report = {
        "checks": [c.to_json() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    with open(out / "verification.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if not quiet:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            measured = "-" if c.measured is None else f"{c.measured:.3e}"
            print(f"{status:4s} {c.name:45s} measured={measured:10s} {c.detail}")
    return EXIT_OK if report["all_passed"] else EXIT_CHECKS_FAILED


def run_figure1(outdir, quiet=False):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    from .dynamics import OscillatorParams

    omega_bar, gamma_bar = 1.0, 0.1
    gamma0 = 2.0 * gamma_bar
    params = OscillatorParams(
        omega0_sq=omega_bar**2 + gamma0**2 / 4.0,
        gamma0=gamma0, omega_bar=omega_bar, gamma_bar=gamma_bar,
        regime="underdamped")
    w = np.linspace(0.0, 4.0, 2000)
    s = spectra.ohmic_spectrum(params, w, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s2 = spectra.convolution_power_spectrum(s, 2)
    # dimensionless scalings: pi m Wbar^2 / hbar and (pi m Wbar^(3/2) / hbar sqrt(2))^2
    scale1 = np.pi * omega_bar**2
    scale2 = (np.pi * omega_bar**1.5 / np.sqrt(2.0)) ** 2
    write_table(out / "figure1_strength.csv", ["omega", "scaled_strength"],
                [w, scale1 * s.values])
    write_table(out / "figure1_double.csv", ["omega", "scaled_strength"],
                [w, scale2 * s2.values])
    if not quiet:
        print(f"wrote figure1_strength.csv, figure1_double.csv to {out}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="collective-mode",
        description="Coupled-chain collective mode: damped dynamics and "
                    "transition-strength spectra.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="override the output directory")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the invariant suite for a config")
    p_ver.add_argument("config")
    p_ver.add_argument("--output", help="override the output directory")

    p_fig = sub.add_parser("figure1", parents=[common],
                           help="emit the dimensionless spectrum curves")
    p_fig.add_argument("outdir")

    args = parser.parse_args(argv)

    try:
        if args.command == "figure1":
            return run_figure1(args.outdir, quiet=args.quiet)
        scenario = load_scenario(args.config)
        if args.output:
            scenario.directory = args.output
        if args.command == "run":
            return run_scenario(scenario, quiet=args.quiet)
        return run_verify(scenario, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
