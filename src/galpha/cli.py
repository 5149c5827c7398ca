"""Command-line front end.

Usage: galpha <command> --config <file.json> [--out <path>] [--svg] [overrides]

Commands: spectrum, stability-map, converge, order-check, solve. A command's
options are the rows of its OPTIONS table: each key is a config-file key and,
with dashes, a flag; flags override the file. --svg belongs to the four
commands that plot, not to order-check. All output is deterministic CSV with
a header row, %.17g numbers, and trailing '# key = value' comment lines for
summaries. Exit codes: 0 success, 1 numerical failure (a non-finite march
included), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import inf, isfinite, ldexp, log10, nan

import numpy as np

from .cayley import fit_slope, recurrence_residual, verify_order_conditions
from .exceptions import ConfigurationError, GalphaError, LinearSolveError, PoleError
from .integrator import integrate
from .params import params_from_rho
from .problems import l2_error, manufactured_heat, scalar_mode
from .spectral import check_points, check_range, stability_region, sweep_spectral_radius

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

# tau grid for the recurrence-residual slope fits: asymptotic for every k,
# and the product-form residual keeps full relative accuracy on it
ORDER_CHECK_TAUS = np.logspace(-2.0, -3.0, 6)
DEGRADATION_FLAG = 0.8
# most steps one converge run may march, summed over its tau grid
MAX_CONVERGE_STEPS = 2 ** 22
# rows per formatting chunk of a float table: bounds the text held at once
FLOAT_CHUNK_ROWS = 1 << 14
# argparse takes only '-1' and '-1.5' style tokens as negative numbers; this
# also admits exponent forms such as '-1e3' as flag values
NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _fmt(v):
    """One CSV cell. Floats as %.17g, ints bare, strings as-is."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _float_lines(table):
    """CSV lines of a 2-D float array, each cell %.17g as _fmt writes it,
    formatted a chunk of rows at a time."""
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], FLOAT_CHUNK_ROWS):
        yield "".join(fmt % tuple(row)
                      for row in table[start:start + FLOAT_CHUNK_ROWS].tolist())


def _emit(out_path, header, rows, footers=()):
    """Write the CSV. rows is a 2-D float array, or a list of cell lists where
    a row holds more than floats (order-check's booleans)."""
    if isinstance(rows, np.ndarray):
        body = _float_lines(rows)
    else:
        body = ["".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)]
    fh = sys.stdout if out_path is None else open(out_path, "w", newline="")
    try:
        fh.write(",".join(header) + "\n")
        for chunk in body:
            fh.write(chunk)
        fh.write("".join("# %s = %s\n" % (key, _fmt(val)) for key, val in footers))
    finally:
        if out_path is not None:
            fh.close()


# ---------------------------------------------------------------------------
# minimal SVG plotting (no dependencies; enough to eyeball a curve)

_SVG_W, _SVG_H, _SVG_PAD = 640, 440, 50


def _svg_write(path, body):
    with open(path, "w", newline="") as fh:
        fh.write('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">\n'
                 % (_SVG_W, _SVG_H))
        fh.write('<rect width="%d" height="%d" fill="white"/>\n' % (_SVG_W, _SVG_H))
        fh.write(body)
        fh.write("</svg>\n")


def _svg_line_plot(path, xs, ys, title, logx=False, logy=False):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    if logx:
        keep &= xs > 0
    if logy:
        keep &= ys > 0
    xs, ys = xs[keep], ys[keep]
    if xs.size == 0:
        _svg_write(path, '<text x="20" y="30">no finite data</text>\n')
        return
    px = np.log10(xs) if logx else xs
    py = np.log10(ys) if logy else ys
    x0, x1 = float(px.min()), float(px.max())
    y0, y1 = float(py.min()), float(py.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    w = _SVG_W - 2 * _SVG_PAD
    h = _SVG_H - 2 * _SVG_PAD
    sx = _SVG_PAD + (px - x0) / (x1 - x0) * w
    sy = _SVG_H - _SVG_PAD - (py - y0) / (y1 - y0) * h
    pts = " ".join("%.2f,%.2f" % (a, b) for a, b in zip(sx, sy))
    body = []
    body.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="black"/>\n'
                % (_SVG_PAD, _SVG_PAD, w, h))
    body.append('<polyline points="%s" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>\n'
                % pts)
    body.append('<text x="%d" y="%d" font-size="14">%s</text>\n'
                % (_SVG_PAD, _SVG_PAD - 12, title))
    for val, x, y, anchor in (
        (xs.min(), _SVG_PAD, _SVG_H - _SVG_PAD + 16, "start"),
        (xs.max(), _SVG_W - _SVG_PAD, _SVG_H - _SVG_PAD + 16, "end"),
    ):
        body.append('<text x="%d" y="%d" font-size="11" text-anchor="%s">%.3g</text>\n'
                    % (x, y, anchor, val))
    for val, y in ((ys.max(), _SVG_PAD + 4), (ys.min(), _SVG_H - _SVG_PAD)):
        body.append('<text x="%d" y="%d" font-size="11" text-anchor="end">%.3g</text>\n'
                    % (_SVG_PAD - 4, y, val))
    _svg_write(path, "".join(body))


def _svg_grid_plot(path, region, title):
    n_re, n_im = region.rho.shape
    w = (_SVG_W - 2 * _SVG_PAD) / max(n_re, 1)
    h = (_SVG_H - 2 * _SVG_PAD) / max(n_im, 1)
    body = ['<text x="%d" y="%d" font-size="14">%s</text>\n'
            % (_SVG_PAD, _SVG_PAD - 12, title)]
    for i in range(n_re):
        for j in range(n_im):
            x = _SVG_PAD + i * w
            y = _SVG_H - _SVG_PAD - (j + 1) * h
            if region.pole_mask[i, j]:
                color = "#d33"
            else:
                val = min(max(region.rho[i, j] / 1.2, 0.0), 1.0)
                shade = int(round(255 * (1.0 - val)))
                color = "#%02x%02x%02x" % (shade, shade, shade)
            body.append('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>\n'
                        % (x, y, w + 0.5, h + 0.5, color))
    _svg_write(path, "".join(body))


# ---------------------------------------------------------------------------
# options: one (key, cast, default) row per option of each command

# a row default that marks the key as one the run cannot do without
REQUIRED = object()


def _int(v):
    """An integer from flag text or a JSON number; a non-integral number is refused."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, str) or type(v) is int:
        return int(v)
    raise ValueError("expected an integer, got %r" % (v,))


def _items(v):
    """The entries of comma text or of a JSON list."""
    if isinstance(v, str):
        v = [p for p in v.split(",") if p.strip() != ""]
    elif not isinstance(v, list):
        raise ValueError("expected a list, got %r" % (v,))
    if not v:
        raise ValueError("empty list")
    return v


def _one_or_list(cast):
    """A cast for one value or a list of them. Comma text with one entry is
    one value; a JSON list stays a list whatever its length."""
    def one_or_list(v):
        if not isinstance(v, (str, list)):
            return cast(v)
        vals = [cast(p) for p in _items(v)]
        return vals[0] if isinstance(v, str) and len(vals) == 1 else vals
    return one_or_list


def _stage_count(v):
    """A stage count k >= 1."""
    k = _int(v)
    if k < 1:
        raise ValueError("stage count k must be >= 1, got %d" % k)
    return k


def _stage_counts(v):
    return [_stage_count(p) for p in _items(v)]


_rho = _one_or_list(float)
_K = ("k", _stage_count, REQUIRED)
_RHO = ("rho", _rho, REQUIRED)
_PROBLEM = (("problem", str, "scalar"), ("lambda_theta", float, 1.0),
            ("kappa", float, 1.0), ("case", str, "sin-decay"))
OPTIONS = {
    "spectrum": (_K, _RHO, ("theta_min", float, 1e-4), ("theta_max", float, 1e8),
                 ("theta_points", _int, 200)),
    "stability-map": (_K, _RHO, ("re_min", float, 0.0), ("re_max", float, 100.0),
                      ("im_min", float, -100.0), ("im_max", float, 100.0),
                      ("resolution", _one_or_list(_int), 21)),
    "converge": (_K, _RHO, *_PROBLEM, ("T", float, 1.0), ("tau_max", float, 0.5),
                 ("halvings", _int, 4), ("elements", _int, 256)),
    "order-check": (("k_list", _stage_counts, (1, 2, 3)), ("rho", _rho, 0.5),
                    ("perturb_gamma", float, 0.0)),
    "solve": (_K, _RHO, *_PROBLEM, ("tau", float, REQUIRED), ("steps", _int, REQUIRED),
              ("output_every", _int, 1), ("elements", _int, 64), ("m_max", _int, None),
              ("u0", float, 1.0)),
}


def _load_config(args):
    """The command's settings: its table's defaults, then the config file, then
    the flags, each given value through its row's cast. JSON null is unset. An
    undeclared key, a value its cast refuses and a missing required key are
    configuration errors."""
    table = OPTIONS[args.command]
    given = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                given = json.load(fh)
        except OSError as exc:
            raise ConfigurationError("cannot read config file: %s" % exc) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError("config file is not valid JSON: %s" % exc) from exc
        if not isinstance(given, dict):
            raise ConfigurationError("config root must be a JSON object")
        unknown = sorted(set(given).difference(key for key, _, _ in table))
        if unknown:
            raise ConfigurationError("%s takes no config key %s"
                                     % (args.command, ", ".join(map(repr, unknown))))
    cfg = {}
    for key, cast, default in table:
        cfg[key] = default
        for val in (given.get(key), getattr(args, key)):
            if val is not None:
                try:
                    cfg[key] = cast(val)
                except (TypeError, ValueError) as exc:
                    raise ConfigurationError("%s: %s" % (key, exc)) from exc
        if cfg[key] is REQUIRED:
            raise ConfigurationError("config key '%s' is required" % key)
    return cfg


def _cfg_params(cfg):
    k, rho = cfg["k"], cfg["rho"]
    if isinstance(rho, float):
        rho = [rho] * k
    elif len(rho) != k:
        raise ConfigurationError("rho list has %d entries but k = %d" % (len(rho), k))
    return params_from_rho(rho)


def _problem(problem, lambda_theta, elements, kappa, case, u0=1.0, m_max=None, **_):
    """The system of a scalar-mode or heat run, its nodes (None for the scalar
    mode), its initial state U0, its exact solution exact(t) at the nodes and
    its error measure error(U, t): |U - exact| for the scalar mode, the
    mass-weighted L2 error for heat. m_max, when set, caps the forcing
    derivatives the system offers."""
    if problem == "scalar":
        system = scalar_mode(lambda_theta)
        x = None
        U0 = np.array([u0])

        def exact(t):
            return u0 * np.exp(-lambda_theta * t)

        def error(U, t):
            return abs(float(U[0]) - float(exact(t)))
    elif problem == "heat":
        heat = manufactured_heat(case, kappa=kappa)
        system = heat.assemble(elements)
        x = np.arange(1, system.n + 1) / float(elements)
        U0 = heat.u0(x)

        def exact(t):
            return heat.u(x, t)

        def error(U, t):
            return l2_error(U, heat, t)
    else:
        raise ConfigurationError("unknown problem %r; use 'scalar' or 'heat'" % (problem,))
    if m_max is not None:
        system.m_max = m_max
    return system, x, U0, exact, error


def _svg_path(args):
    if not args.svg:
        return None
    if args.out is None:
        raise ConfigurationError("--svg needs --out to derive the plot path")
    base = args.out
    if base.endswith(".csv"):
        base = base[:-4]
    return base + ".svg"


def _steps_for(T, tau):
    ratio = T / tau
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ConfigurationError(
            "final time T = %g is not an integer multiple of tau = %g" % (T, tau)
        )
    return int(n)


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(args):
    cfg = _load_config(args)
    svg = _svg_path(args)
    prm = _cfg_params(cfg)
    tmin, tmax = check_range("theta", cfg["theta_min"], cfg["theta_max"], positive=True)
    npts = cfg["theta_points"]
    check_points("theta_points", npts, tmin, tmax)
    grid = np.logspace(log10(tmin), log10(tmax), npts)
    sweep = sweep_spectral_radius(prm, grid)
    header = ["theta", "rho_G"] + ["lambda_abs_%d" % (i + 1) for i in range(2 * prm.k)]
    rows = np.column_stack([sweep.theta, sweep.rho, sweep.magnitudes])
    footers = [
        ("rho_G_at_theta_min", sweep.rho[0]),
        ("rho_G_at_theta_max", sweep.rho[-1]),
    ]
    _emit(args.out, header, rows, footers)
    if svg:
        _svg_line_plot(svg, sweep.theta, sweep.rho, "spectral radius vs theta", logx=True)
    return EXIT_OK


def cmd_stability_map(args):
    cfg = _load_config(args)
    svg = _svg_path(args)
    prm = _cfg_params(cfg)
    region = stability_region(prm, (cfg["re_min"], cfg["re_max"]),
                              (cfg["im_min"], cfg["im_max"]), cfg["resolution"])
    n_re, n_im = region.rho.shape
    rows = np.column_stack([np.repeat(region.re, n_im), np.tile(region.im, n_re),
                            region.rho.ravel()])
    footers = [
        ("max_rho_re_ge_0", region.max_rho_right_half),
        ("a_stable", "undetermined" if region.a_stable is None else region.a_stable),
        ("poles", int(np.count_nonzero(region.pole_mask))),
    ]
    _emit(args.out, ["re", "im", "rho_G"], rows, footers)
    if svg:
        _svg_grid_plot(svg, region, "spectral radius over complex theta")
    return EXIT_OK


def _converge_errors(cfg):
    T, halvings, tau_max = cfg["T"], cfg["halvings"], cfg["tau_max"]
    if halvings < 4:
        raise ConfigurationError("converge needs at least 4 tau halvings, got %d" % halvings)
    prm = _cfg_params(cfg)
    if not 0.0 < tau_max < inf:
        raise ConfigurationError("tau_max must be positive and finite, got %g" % tau_max)
    if ldexp(tau_max, -halvings) == 0.0:
        raise ConfigurationError(
            "tau_max = %g halved %d times underflows to zero" % (tau_max, halvings))
    taus = [ldexp(tau_max, -i) for i in range(halvings + 1)]
    total = sum(T / tau for tau in taus)
    if total > MAX_CONVERGE_STEPS:
        raise ConfigurationError("converge would march %.3g steps over %d tau values; the "
                                 "budget is %d" % (total, len(taus), MAX_CONVERGE_STEPS))
    steps = [_steps_for(T, tau) for tau in taus]
    system, _, U0, _, error = _problem(**cfg)
    errs = [error(integrate(system, U0, prm, tau, n)[-1].u, T) for tau, n in zip(taus, steps)]
    return taus, errs


def cmd_converge(args):
    cfg = _load_config(args)
    svg = _svg_path(args)
    taus, errs = _converge_errors(cfg)
    errs = np.array(errs)
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.where(errs[1:] == 0, nan, np.log2(errs[:-1] / errs[1:]))
    # both exact solutions stay within [-1, 1], so the fit's roundoff scale is 1
    fit = fit_slope(taus, errs)
    footers = [("fitted_slope", fit.slope), ("kept_points", fit.kept)]
    _emit(args.out, ["tau", "error", "observed_order"],
          np.column_stack([taus, errs, np.r_[nan, order]]), footers)
    if svg:
        _svg_line_plot(svg, taus, errs, "global error vs tau", logx=True, logy=True)
    return EXIT_OK


def cmd_order_check(args):
    cfg = _load_config(args)
    rho = cfg["rho"]
    if not isinstance(rho, float):
        raise ConfigurationError("order-check uses a single scalar rho for all stages")
    eps = cfg["perturb_gamma"]
    if not isfinite(eps):
        raise ConfigurationError("perturb_gamma must be finite, got %g" % eps)
    rows = []
    footers = []
    degraded = False
    taus = ORDER_CHECK_TAUS
    for k in cfg["k_list"]:
        prm = params_from_rho([rho] * k)
        cases = [(0, prm)]
        if eps != 0.0:
            gam = list(prm.gamma)
            gam[0] += eps
            cases.append((1, prm.with_gamma(gam)))
        slopes = []
        for perturbed, params in cases:
            report = verify_order_conditions(params)
            res = [recurrence_residual(params, 1.0, t) for t in taus]
            fit = fit_slope(taus, res, scale=0.0)
            rows.append([k, perturbed, fit.slope, report.all_ok, report.max_residual])
            slopes.append(fit.slope)
        if eps != 0.0:
            drop = slopes[0] - slopes[1]
            footers.append(("slope_drop_k%d" % k, drop))
            degraded = degraded or drop >= DEGRADATION_FLAG
    if eps != 0.0:
        footers.append(("degraded", degraded))
    _emit(args.out, ["k", "perturbed", "fitted_slope", "conditions_ok",
                     "max_condition_residual"], rows, footers)
    return EXIT_OK


def cmd_solve(args):
    cfg = _load_config(args)
    svg = _svg_path(args)
    prm = _cfg_params(cfg)
    tau, steps, every = cfg["tau"], cfg["steps"], cfg["output_every"]
    if every < 1:
        raise ConfigurationError("output_every must be >= 1, got %d" % every)
    system, x, U0, exact, error = _problem(**cfg)
    traj = integrate(system, U0, prm, tau, steps)
    kept = [*range(0, steps, every), steps]
    t = np.array(kept) * tau
    U = np.array([traj[i].u for i in kept])
    E = exact(t[:, None])
    m, n = U.shape
    cols = [np.repeat(t, n), np.tile(np.arange(n), m)]
    if x is None:
        header = ["t", "dof", "value", "exact", "abs_error"]
        footer = ("theta", tau * cfg["lambda_theta"])
        plot = (t, U[:, 0], "scalar mode decay")
    else:
        header = ["t", "dof", "x", "value", "exact", "abs_error"]
        cols.append(np.tile(x, m))
        footer = ("l2_error_final", error(traj[-1].u, steps * tau))
        plot = (x, traj[-1].u, "final solution profile")
    cols += [U.ravel(), E.ravel(), np.abs(U - E).ravel()]
    _emit(args.out, header, np.column_stack(cols), [footer])
    if svg:
        _svg_line_plot(svg, *plot)
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a configuration error: one line, exit 2."""

    def error(self, message):
        raise ConfigurationError(message)


def _build_parser():
    parser = _Parser(
        prog="galpha",
        description="k-stage generalized-alpha time integration and spectral analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, plots, help_text in (
        ("spectrum", cmd_spectrum, True, "spectral radius over a positive theta grid"),
        ("stability-map", cmd_stability_map, True, "spectral radius over complex theta"),
        ("converge", cmd_converge, True, "global-order sweep with tau halvings"),
        ("order-check", cmd_order_check, False,
         "recurrence-residual slopes and order conditions"),
        ("solve", cmd_solve, True, "single run, CSV trajectory"),
    ):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        if plots:
            p.add_argument("--svg", action="store_true", help="also write a plot next to --out")
        for key, _, _ in OPTIONS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key)
        p.set_defaults(func=func)
    for p in [parser, *sub.choices.values()]:
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (PoleError, LinearSolveError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except GalphaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
