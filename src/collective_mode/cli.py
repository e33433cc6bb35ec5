"""Config-driven scenario runner.

Subcommands:
  run <config>      build -> map -> simulate -> spectra, write data files
  verify <config>   run the invariant suite, write a JSON report
  figure1 <outdir>  emit the dimensionless strength-spectrum curves

Config files are flat INI: [model], [dynamics], [spectra], [output]
sections with key = value lines.  CSV tables print each value exactly as
Python's '%.17g' does: 17 significant digits with trailing zeros and a
bare point stripped, exponent notation (1e-05, 1.5e+17) below 1e-4 and
from 1e17 on, and nan, inf, -inf and -0 as such; values are separated by
commas and lines end in LF on every platform.  Reruns are byte-identical.

A config file is read as UTF-8.  ; and # start comments, % is a literal
character, and an unknown section or key is a config error (exit 2).
"""

import argparse
import dataclasses
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import mapping, spectra
from .model import (ModelValidationError, NumericalError,
                    build_general_model, build_next_neighbor_model)
from .verify import run_checks

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


class ConfigError(Exception):
    pass


def write_table(path, header, columns):
    """Write equal-length float columns as CSV: a header line, then one
    line per row with each value as '%.17g' prints it, LF line endings.
    The rows are formatted a chunk at a time, so memory stays flat."""
    from ._g17 import csv_chunks  # imported on first use: verify writes no table

    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns of unequal length for {path}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for chunk in csv_chunks(columns):
            fh.write(chunk)


def _strict(value):
    """value with every non-finite float, nested or not, replaced by None."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload):
    """Write payload as strict JSON (sorted keys, indent 1, trailing
    newline); NaN and infinities, which JSON cannot hold, become null."""
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _output_dir(path):
    """path as a Path, made with its parents if it is missing; a path
    that cannot be a directory is a ConfigError naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {path!r} as the output directory: {exc}") from exc
    return out


def _load_matrix(path):
    try:
        return np.loadtxt(path, delimiter=",", dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse matrix file {path!r}: {exc}") from exc


# One row per config key, by section: parse reads the value's text (a float
# must be finite), default is an absent key's text (None: required), rule
# is what the parsed value must satisfy (None: the model factories check
# it), what says what parse and rule ask, and kind is the model kind that
# reads the key (None: both; either kind accepts the other's keys).
_Key = namedtuple("_Key", "parse default rule what kind", defaults=(None,))
_KEYS = {
    "model": {
        "kind": _Key(str, None, lambda v: v in ("next_neighbor", "general"),
                     "next_neighbor or general"),
        "mass": _Key(float, "1.0", None, "a finite number"),
        "hbar": _Key(float, "1.0", None, "a finite number"),
        "n": _Key(int, None, None, "an integer", "next_neighbor"),
        "omega0": _Key(float, "1.0", None, "a finite number", "next_neighbor"),
        "alpha": _Key(float, "0.0", None, "a finite number", "next_neighbor"),
        "w_file": _Key(str, None, None, "a CSV file", "general"),
        "k_file": _Key(str, None, None, "a CSV file", "general")},
    "dynamics": {
        "p0": _Key(float, "1.0", lambda v: v != 0, "a nonzero finite number"),
        "t_max": _Key(float, None, lambda v: v > 0, "a finite number > 0"),
        "steps": _Key(int, None, lambda v: v >= 2, "an integer >= 2")},
    "spectra": {
        "epsilon": _Key(float, "0", lambda v: v >= 0, "a finite number >= 0 (0 = auto)"),
        "omega_max": _Key(float, "4.0", lambda v: v > 0, "a finite number > 0"),
        "grid_points": _Key(int, "2000", lambda v: v >= 2, "an integer >= 2"),
        "powers": _Key(lambda raw: sorted({int(p) for p in raw.split(",") if p.strip()}),
                       "2", lambda v: all(p >= 1 for p in v),
                       "comma-separated integers >= 1")},
    "output": {
        "directory": _Key(str, "out", bool, "a nonempty path"),
        "formats": _Key(lambda raw: [f.strip() for f in raw.split(",") if f.strip()],
                        "csv", lambda v: v and set(v) <= {"csv", "json"},
                        "csv, json or both")},
}


def _value(parser, section, key):
    """key of [section] as its _KEYS row reads it: the row's default text
    if the key is absent, through the row's parse and rule.  A missing
    required key, or a value that parse or rule refuses, is a ConfigError
    naming the key."""
    row = _KEYS[section][key]
    raw = parser.get(section, key, fallback=row.default)
    if raw is None:
        raise ConfigError(f"missing field {key!r} in [{section}]")
    try:
        value = row.parse(raw)
        if (row.parse is float and not math.isfinite(value)
                or row.rule is not None and not row.rule(value)):
            raise ValueError(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be {row.what}, got {raw!r}") from exc
    return value


class Scenario:
    """Typed view of a parsed config file; epsilon None is the default width."""

    def __init__(self, parser):
        if parser.defaults():  # configparser copies [DEFAULT] into every section
            raise ConfigError(f"unknown section [{parser.default_section}]")
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser.options(section):
                if key not in _KEYS[section]:
                    raise ConfigError(f"[{section}] unknown key {key!r}")

        self.kind = None  # [model]'s first row sets it before any row of one kind
        for section, rows in _KEYS.items():
            for key, row in rows.items():
                if row.kind in (None, self.kind):
                    setattr(self, key, _value(parser, section, key))
        self.epsilon = self.epsilon or None  # 0 = auto: dynamics.default_epsilon

    def build_model(self):
        if self.kind == "next_neighbor":
            try:
                return build_next_neighbor_model(
                    self.n, self.mass, self.omega0, self.alpha, self.hbar)
            except ValueError as exc:  # the factory checks only the scalars
                raise ConfigError(f"[model] {exc}") from exc
        w = _load_matrix(self.w_file)
        k = _load_matrix(self.k_file)
        try:
            return build_general_model(w, k, self.mass, self.hbar)
        except ModelValidationError as exc:
            raise ConfigError(f"[model] {exc}") from exc


def load_scenario(path):
    import configparser  # imported here: it adds about 3 ms to every start

    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file {path!r} does not exist") from exc
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    return Scenario(parser)


def _add_spectra(form, modes, params, scenario, tables, summary):
    """Add the strength and spectrum tables and their summary entries.
    An unbound coordinate gets header-only tables and spectra_skipped; a
    grid too narrow for the powers loses their columns, to powers_skipped."""
    try:
        strengths = spectra.strength_comb(modes)
    except ValueError as exc:
        tables["strengths"] = (["omega", "weight"], [np.empty(0), np.empty(0)])
        tables["spectrum"] = (["omega"], [np.empty(0)])
        summary["spectra_skipped"] = str(exc)
        return
    eps = dyn.default_epsilon(form) if scenario.epsilon is None else scenario.epsilon
    w = np.linspace(0.0, scenario.omega_max, scenario.grid_points)
    smoothed = spectra.smoothed_spectrum(strengths, eps, w)
    fdt = spectra.fdt_spectrum(form, w, eps)
    ohmic = spectra.ohmic_spectrum(params, w, form.hbar, form.mass)

    header = ["omega", "s_smoothed", "s_fdt", "s_ohmic"]
    columns = [w, smoothed.values, fdt.values, ohmic.values]
    try:
        powers = [spectra.convolution_power_spectrum(smoothed, p).values
                  for p in scenario.powers]
    except ValueError as exc:
        summary["powers_skipped"] = str(exc)
    else:
        header += [f"s_power_{p}" for p in scenario.powers]
        columns += powers
    tables["strengths"] = (["omega", "weight"],
                           [strengths.frequencies, strengths.weights])
    tables["spectrum"] = (header, columns)

    summary["epsilon"] = float(eps)
    summary["smoothing_in_window"] = spectra.smoothing_in_window(strengths, eps)
    summary["smoothed_tail_fraction"] = spectra.tail_fraction(smoothed)
    summary["sum_rules"] = {
        "strength_total_weight": float(strengths.total_weight),
        "strength_weight_times_freq": float(
            (strengths.weights * strengths.frequencies).sum()),
        "hbar_over_2m": float(form.hbar / (2.0 * form.mass)),
    }
    summary["cross_route_error"]["fdt_vs_smoothed_linf_rel"] = float(
        np.abs(fdt.values - smoothed.values).max()
        / max(smoothed.values.max(), 1e-300))
    summary["cross_route_error"]["fdt_vs_smoothed_in_window"] = (
        spectra.fdt_comparison_in_window(eps, params))


def run_scenario(scenario, quiet=False):
    model = scenario.build_model()
    out = _output_dir(scenario.directory)

    form, modes = mapping.collective_mapping(model)
    params = dyn.collective_frequency(form)

    t = np.linspace(0.0, scenario.t_max, scenario.steps + 1)
    exact = dyn.evolve_exact(modes, scenario.p0, t)
    volt = dyn.solve_volterra(form, scenario.p0, t)
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
    if params.regime != "overdamped":
        closed_vals = dyn.underdamped_closed_form(params, scenario.p0, t,
                                                  form.mass).positions
        summary["cross_route_error"]["closed_form_vs_exact_linf"] = float(
            np.abs(closed_vals - exact.positions).max())
    else:
        closed_vals = np.full_like(t, np.nan)
    tables = {"trajectory": (["t", "x_exact", "x_volterra", "x_closed_form"],
                             [t, exact.positions, volt.positions, closed_vals])}

    sigma = spectra.sigma_comb(form)
    tables["sigma"] = (["omega", "weight"], [sigma.frequencies, sigma.weights])
    _add_spectra(form, modes, params, scenario, tables, summary)

    for name, (header, columns) in tables.items():
        if "csv" in scenario.formats:
            write_table(out / f"{name}.csv", header, columns)
        if "json" in scenario.formats:
            write_json(out / f"{name}.json",
                       {h: np.asarray(c, dtype=float).tolist()
                        for h, c in zip(header, columns)})
    write_json(out / "summary.json", summary)

    if not quiet:
        print(f"wrote {', '.join(sorted(tables))} + summary.json to {out}")
        print(f"regime: {params.regime}, Omega0^2 = {params.omega0_sq:.6g}, "
              f"gamma0 = {params.gamma0:.6g}")
    return EXIT_OK


def run_verify(scenario, quiet=False):
    model = scenario.build_model()
    out = _output_dir(scenario.directory)
    checks = run_checks(model, p0=scenario.p0, t_max=scenario.t_max,
                        steps=scenario.steps, epsilon=scenario.epsilon)
    report = {
        "checks": [dataclasses.asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    write_json(out / "verification.json", report)
    if not quiet:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            measured = "-" if c.measured is None else f"{c.measured:.3e}"
            print(f"{status:4s} {c.name:45s} measured={measured:10s} {c.detail}")
    return EXIT_OK if report["all_passed"] else EXIT_CHECKS_FAILED


def run_figure1(outdir, quiet=False):
    out = _output_dir(outdir)
    omega_bar, gamma_bar = 1.0, 0.1
    gamma0 = 2.0 * gamma_bar
    params = dyn.OscillatorParams(omega_bar**2 + gamma0**2 / 4.0, gamma0)
    w = np.linspace(0.0, 4.0, 2000)
    s = spectra.ohmic_spectrum(params, w, 1.0, 1.0)
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

    for name, what in (("run", "run a scenario config"),
                       ("verify", "run the invariant suite for a config")):
        p_cmd = sub.add_parser(name, parents=[common], help=what)
        p_cmd.add_argument("config")
        p_cmd.add_argument("--output", help="override the output directory")

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
        # figure1 reads no config: its one input is the output path
        what = "argument error" if args.command == "figure1" else "config error"
        print(f"{what}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:  # a bug, not a property of the input: say where
        import traceback  # imported here: every CLI call pays for module imports

        traceback.print_exc()
        print("internal error: please report the traceback above",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
