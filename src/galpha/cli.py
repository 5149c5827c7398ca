"""Command-line front end.

Usage: galpha <command> --config <file.json> [--out <path>] [--svg] [overrides]

Commands: spectrum, stability-map, converge, order-check, solve. Every flag
has a config-file equivalent (underscored key); flags override the file. All
output is deterministic CSV with a header row, %.17g numbers, and trailing
'# key = value' comment lines for summaries. Exit codes: 0 success, 1
numerical failure (a non-finite march included), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import inf, isfinite, ldexp, log10

import numpy as np

from .cayley import fit_slope, recurrence_residual, verify_order_conditions
from .exceptions import ConfigurationError, GalphaError, LinearSolveError, PoleError
from .integrator import integrate
from .params import RhoSpectrum, params_from_rho
from .problems import l2_error, manufactured_heat, scalar_mode
from .spectral import check_range, stability_region, sweep_spectral_radius

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
    """Write the CSV. rows is a list of cell lists, or a 2-D float array."""
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
# config plumbing

def _load_config(args, override_keys):
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigurationError("cannot read config file: %s" % exc) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError("config file is not valid JSON: %s" % exc) from exc
        if not isinstance(cfg, dict):
            raise ConfigurationError("config root must be a JSON object")
    for key in override_keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _parse_rho_text(text):
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise argparse.ArgumentTypeError("empty rho list")
    vals = [float(p) for p in parts]
    return vals[0] if len(vals) == 1 else vals


def _parse_int_list(text):
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise argparse.ArgumentTypeError("empty list")
    return [int(p) for p in parts]


def _require(cfg, key):
    if key not in cfg:
        raise ConfigurationError("config key '%s' is required" % key)
    return cfg[key]


def _cfg_params(cfg):
    k = int(_require(cfg, "k"))
    rho = _require(cfg, "rho")
    if isinstance(rho, (int, float)):
        spectrum = RhoSpectrum.uniform(float(rho), k)
    else:
        spectrum = RhoSpectrum(tuple(float(r) for r in rho))
        if spectrum.k != k:
            raise ConfigurationError(
                "rho list has %d entries but k = %d" % (spectrum.k, k)
            )
    return params_from_rho(spectrum)


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
    cfg = _load_config(args, ("k", "rho", "theta_min", "theta_max", "theta_points"))
    prm = _cfg_params(cfg)
    tmin, tmax = check_range("theta", cfg.get("theta_min", 1e-4),
                             cfg.get("theta_max", 1e8), positive=True)
    npts = int(cfg.get("theta_points", 200))
    if npts < 1:
        raise ConfigurationError("theta_points must be >= 1, got %d" % npts)
    if npts == 1 and tmin != tmax:
        raise ConfigurationError("a single-point grid needs theta_min == theta_max")
    grid = np.logspace(log10(tmin), log10(tmax), npts)
    sweep = sweep_spectral_radius(prm, grid)
    header = ["theta", "rho_G"] + ["lambda_abs_%d" % (i + 1) for i in range(2 * prm.k)]
    rows = np.column_stack([sweep.theta, sweep.rho, sweep.magnitudes])
    footers = [
        ("rho_G_at_theta_min", sweep.rho[0]),
        ("rho_G_at_theta_max", sweep.rho[-1]),
    ]
    _emit(args.out, header, rows, footers)
    svg = _svg_path(args)
    if svg:
        _svg_line_plot(svg, sweep.theta, sweep.rho, "spectral radius vs theta", logx=True)
    return EXIT_OK


def cmd_stability_map(args):
    cfg = _load_config(args, ("k", "rho", "re_min", "re_max", "im_min", "im_max",
                              "resolution"))
    prm = _cfg_params(cfg)
    re_rng = (float(cfg.get("re_min", 0.0)), float(cfg.get("re_max", 100.0)))
    im_rng = (float(cfg.get("im_min", -100.0)), float(cfg.get("im_max", 100.0)))
    region = stability_region(prm, re_rng, im_rng, cfg.get("resolution", 21))
    n_re, n_im = region.rho.shape
    rows = np.column_stack([np.repeat(region.re, n_im), np.tile(region.im, n_re),
                            region.rho.ravel()])
    footers = [
        ("max_rho_re_ge_0", region.max_rho_right_half),
        ("a_stable", "undetermined" if region.a_stable is None else region.a_stable),
        ("poles", int(np.count_nonzero(region.pole_mask))),
    ]
    _emit(args.out, ["re", "im", "rho_G"], rows, footers)
    svg = _svg_path(args)
    if svg:
        _svg_grid_plot(svg, region, "spectral radius over complex theta")
    return EXIT_OK


def _converge_errors(cfg):
    problem = cfg.get("problem", "scalar")
    T = float(cfg.get("T", 1.0))
    halvings = int(cfg.get("halvings", 4))
    if halvings < 4:
        raise ConfigurationError("converge needs at least 4 tau halvings, got %d" % halvings)
    tau_max = float(cfg.get("tau_max", 0.5))
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
    errs = []
    if problem == "scalar":
        lam = float(cfg.get("lambda_theta", 1.0))
        system = scalar_mode(lam)
        exact = float(np.exp(-lam * T))
        for tau, n in zip(taus, steps):
            traj = integrate(system, np.array([1.0]), prm, tau, n)
            errs.append(abs(float(traj[-1].u[0]) - exact))
        scale = max(abs(exact), 1.0)
    elif problem == "heat":
        elements = int(cfg.get("elements", 256))
        case = manufactured_heat(cfg.get("case", "sin-decay"),
                                 kappa=float(cfg.get("kappa", 1.0)))
        system = case.assemble(elements)
        x = np.arange(1, system.n + 1) / float(elements)
        U0 = case.u0(x)
        for tau, n in zip(taus, steps):
            traj = integrate(system, U0, prm, tau, n)
            errs.append(l2_error(traj[-1].u, case, T))
        scale = 1.0
    else:
        raise ConfigurationError("unknown problem %r; use 'scalar' or 'heat'" % (problem,))
    return taus, errs, scale


def cmd_converge(args):
    cfg = _load_config(args, ("k", "rho", "problem", "lambda_theta", "T", "tau_max",
                              "halvings", "elements", "kappa", "case"))
    taus, errs, scale = _converge_errors(cfg)
    rows = []
    for i, (tau, err) in enumerate(zip(taus, errs)):
        if i == 0 or errs[i] == 0:
            order = float("nan")
        else:
            order = float(np.log2(errs[i - 1] / errs[i]))
        rows.append([tau, err, order])
    fit = fit_slope(taus, errs, scale=scale)
    footers = [("fitted_slope", fit.slope), ("kept_points", fit.kept)]
    _emit(args.out, ["tau", "error", "observed_order"], rows, footers)
    svg = _svg_path(args)
    if svg:
        _svg_line_plot(svg, taus, errs, "global error vs tau", logx=True, logy=True)
    return EXIT_OK


def cmd_order_check(args):
    cfg = _load_config(args, ("k_list", "rho", "perturb_gamma"))
    k_list = [int(k) for k in cfg.get("k_list", [1, 2, 3])]
    rho = cfg.get("rho", 0.5)
    if not isinstance(rho, (int, float)):
        raise ConfigurationError("order-check uses a single scalar rho for all stages")
    eps = float(cfg.get("perturb_gamma", 0.0))
    if not isfinite(eps):
        raise ConfigurationError("perturb_gamma must be finite, got %g" % eps)
    rows = []
    footers = []
    degraded = False
    taus = ORDER_CHECK_TAUS
    for k in k_list:
        prm = params_from_rho(RhoSpectrum.uniform(float(rho), k))
        report = verify_order_conditions(prm)
        res = [recurrence_residual(prm, 1.0, t) for t in taus]
        fit = fit_slope(taus, res, scale=0.0)
        rows.append([k, 0, fit.slope, report.all_ok, report.max_residual])
        if eps != 0.0:
            gam = list(prm.gamma)
            gam[0] += eps
            pert = prm.with_gamma(gam)
            report_p = verify_order_conditions(pert)
            res_p = [recurrence_residual(pert, 1.0, t) for t in taus]
            fit_p = fit_slope(taus, res_p, scale=0.0)
            rows.append([k, 1, fit_p.slope, report_p.all_ok, report_p.max_residual])
            drop = fit.slope - fit_p.slope
            footers.append(("slope_drop_k%d" % k, drop))
            if drop >= DEGRADATION_FLAG:
                degraded = True
    if eps != 0.0:
        footers.append(("degraded", degraded))
    _emit(args.out, ["k", "perturbed", "fitted_slope", "conditions_ok",
                     "max_condition_residual"], rows, footers)
    return EXIT_OK


def cmd_solve(args):
    cfg = _load_config(args, ("k", "rho", "problem", "lambda_theta", "tau", "steps",
                              "output_every", "elements", "kappa", "case", "m_max",
                              "u0"))
    prm = _cfg_params(cfg)
    tau = float(_require(cfg, "tau"))
    steps = int(_require(cfg, "steps"))
    if steps < 0:
        raise ConfigurationError("steps must be >= 0, got %d" % steps)
    every = int(cfg.get("output_every", 1))
    if every < 1:
        raise ConfigurationError("output_every must be >= 1, got %d" % every)
    problem = cfg.get("problem", "scalar")
    svg = _svg_path(args)

    if problem == "scalar":
        lam = float(cfg.get("lambda_theta", 1.0))
        u0 = float(cfg.get("u0", 1.0))
        system = scalar_mode(lam)
        if "m_max" in cfg and cfg["m_max"] is not None:
            system.m_max = int(cfg["m_max"])
        traj = integrate(system, np.array([u0]), prm, tau, steps)
        rows = []
        ts = []
        vals = []
        for i, state in enumerate(traj):
            if i % every and i != steps:
                continue
            t = i * tau
            val = float(state.u[0])
            exact = u0 * float(np.exp(-lam * t))
            rows.append([t, 0, val, exact, abs(val - exact)])
            ts.append(t)
            vals.append(val)
        _emit(args.out, ["t", "dof", "value", "exact", "abs_error"], rows,
              [("theta", tau * lam)])
        if svg:
            _svg_line_plot(svg, ts, vals, "scalar mode decay")
        return EXIT_OK

    if problem == "heat":
        elements = int(cfg.get("elements", 64))
        case = manufactured_heat(cfg.get("case", "sin-decay"),
                                 kappa=float(cfg.get("kappa", 1.0)))
        system = case.assemble(elements)
        if "m_max" in cfg and cfg["m_max"] is not None:
            system.m_max = int(cfg["m_max"])
        x = np.arange(1, system.n + 1) / float(elements)
        U0 = case.u0(x)
        traj = integrate(system, U0, prm, tau, steps)
        rows = []
        for i, state in enumerate(traj):
            if i % every and i != steps:
                continue
            t = i * tau
            exact = case.u(x, t)
            for d in range(system.n):
                val = float(state.u[d])
                rows.append([t, d, x[d], val, float(exact[d]), abs(val - float(exact[d]))])
        final_err = l2_error(traj[-1].u, case, steps * tau)
        _emit(args.out, ["t", "dof", "x", "value", "exact", "abs_error"], rows,
              [("l2_error_final", final_err)])
        if svg:
            _svg_line_plot(svg, x, traj[-1].u, "final solution profile")
        return EXIT_OK

    raise ConfigurationError("unknown problem %r; use 'scalar' or 'heat'" % (problem,))


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="galpha",
        description="k-stage generalized-alpha time integration and spectral analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--svg", action="store_true",
                       help="also write a plot next to --out")
        p.add_argument("--k", type=int, help="stage count")
        p.add_argument("--rho", type=_parse_rho_text,
                       help="dissipation control: scalar or comma list")

    p = sub.add_parser("spectrum", help="spectral radius over a positive theta grid")
    common(p)
    p.add_argument("--theta-min", dest="theta_min", type=float)
    p.add_argument("--theta-max", dest="theta_max", type=float)
    p.add_argument("--theta-points", dest="theta_points", type=int)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("stability-map", help="spectral radius over complex theta")
    common(p)
    p.add_argument("--re-min", dest="re_min", type=float)
    p.add_argument("--re-max", dest="re_max", type=float)
    p.add_argument("--im-min", dest="im_min", type=float)
    p.add_argument("--im-max", dest="im_max", type=float)
    p.add_argument("--resolution", type=int)
    p.set_defaults(func=cmd_stability_map)

    p = sub.add_parser("converge", help="global-order sweep with tau halvings")
    common(p)
    p.add_argument("--problem", choices=["scalar", "heat"])
    p.add_argument("--lambda-theta", dest="lambda_theta", type=float)
    p.add_argument("--T", dest="T", type=float, help="final time")
    p.add_argument("--tau-max", dest="tau_max", type=float)
    p.add_argument("--halvings", type=int)
    p.add_argument("--elements", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--case")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("order-check", help="recurrence-residual slopes and order conditions")
    common(p)
    p.add_argument("--k-list", dest="k_list", type=_parse_int_list,
                   help="comma list of stage counts")
    p.add_argument("--perturb-gamma", dest="perturb_gamma", type=float)
    p.set_defaults(func=cmd_order_check)

    p = sub.add_parser("solve", help="single run, CSV trajectory")
    common(p)
    p.add_argument("--problem", choices=["scalar", "heat"])
    p.add_argument("--lambda-theta", dest="lambda_theta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--output-every", dest="output_every", type=int)
    p.add_argument("--elements", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--case")
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--u0", type=float)
    p.set_defaults(func=cmd_solve)
    for p in [parser, *sub.choices.values()]:
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
