"""Reference values and correctness checks for the benchmark's outputs.

Nothing here imports galpha. Every reference is built apart from the
program, from closed forms and numpy, or is a property the method must have
by the paper's claims. No check compares with stored copies of earlier output.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
from math import exp, log2, pi, sin, sqrt

import numpy as np

# the paper's global orders for k = 1..4 stages
ORDERS = {1: 2, 2: 3, 3: 5, 4: 6}
# rho(G) <= 1 + A_SLACK on the closed right half-plane (A-stability)
A_SLACK = 1e-9
# |rho(G(theta)) - rho_inf| <= LIMIT_TOL for theta >= 1e8 when rho_inf > 0
LIMIT_TOL = 1e-5
# share of ||u(T)||_M allowed as the global error at pi^2 kappa tau = 1
HEAT_ERROR_SHARE = 1e-2
# residual slope 3k +- RESIDUAL_SLOPE_TOL; perturbed drop within DROP_RANGE
RESIDUAL_SLOPE_TOL = 0.2
DROP_RANGE = (0.8, 1.5)
# scalar convergence: fitted order within ORDER_TOL of ORDERS[k]
ORDER_TOL = 0.3
CHARPOLY_TOL = 1e-10


def _fail(cond, message, out):
    if not cond:
        out.append(message)


# ---------------------------------------------------------------------------
# heat: the semi-discrete sin-decay problem solved exactly

class HeatOracle:
    """Exact solution at time T of the semi-discrete sin-decay heat problem.

    Linear elements on a uniform mesh of (0, 1) with ``elements`` cells give
    tridiagonal M (2h/3 on the diagonal, h/6 off it) and K (2 kappa/h,
    -kappa/h). The load of f = (kappa pi^2 - 1) sin(pi x) e^-t is integrated
    exactly: phi_i against sin(pi x) gives 2 (1 - cos(pi h)) / (pi^2 h)
    sin(pi x_i). The generalized eigenpairs K v = lambda M v are the discrete
    sine modes, so the system decouples into scalar ODEs with closed-form
    solutions. ``interp`` is the nodal interpolant of the continuous solution
    sin(pi x) e^-T.
    """

    def __init__(self, elements, kappa, T):
        ne = int(elements)
        h = 1.0 / ne
        n = ne - 1
        self.h = h
        self.x = np.arange(1, n + 1) * h
        j = np.arange(1, n + 1)
        c = np.cos(pi * j * h)
        mass = h / 3.0 * (2.0 + c)
        lam = (2.0 * kappa / h) * (1.0 - c) / mass
        if lam.min() <= 1.0:
            raise ValueError("closed form needs every mode faster than e^-t")
        # M-orthonormal modes: s_j^T M s_j = mass_j (n + 1) / 2
        V = np.sin(pi * np.outer(self.x, j)) * np.sqrt(2.0 * h / mass)
        load = (4.0 * sin(pi * h / 2.0) ** 2 / (pi ** 2 * h)) * np.sin(pi * self.x)
        amp = kappa * pi ** 2 - 1.0
        y0 = V.T @ self.mass_apply(np.sin(pi * self.x))
        beta = V.T @ load
        decay = np.exp(-lam * T)
        yT = y0 * decay + amp * beta * (exp(-T) - decay) / (lam - 1.0)
        self.modes = V
        self.eigenvalues = lam
        self.u = V @ yT
        self.interp = np.sin(pi * self.x) * exp(-T)
        self.kappa = kappa

    def mass_apply(self, v):
        out = (2.0 * self.h / 3.0) * v
        out[1:] += self.h / 6.0 * v[:-1]
        out[:-1] += self.h / 6.0 * v[1:]
        return out

    def mass_norm(self, v):
        return sqrt(float(v @ self.mass_apply(v)))

    def error_bound(self, k, tau):
        """HEAT_ERROR_SHARE ||u(T)||_M (pi^2 kappa tau)^p_k.

        pi^2 kappa is the slowest rate of the continuous problem, so
        pi^2 kappa tau is the step measured in the solution's own time scale
        and p_k is the paper's order of the k-stage method.
        """
        return HEAT_ERROR_SHARE * self.mass_norm(self.u) * (pi ** 2 * self.kappa * tau) ** ORDERS[k]


def check_heat_march(oracle, k, tau, u, l2):
    """A final state of the heat march and the program's l2_error of it."""
    out = []
    u = np.asarray(u, dtype=float)
    if u.shape != oracle.u.shape or not np.all(np.isfinite(u)):
        return ["final state is not a finite vector of %d dofs" % oracle.u.size]
    err = oracle.mass_norm(u - oracle.u)
    bound = oracle.error_bound(k, tau)
    _fail(err <= bound, "k=%d tau=%g: error %.3e to the semi-discrete solution exceeds %.3e"
          % (k, tau, err, bound), out)
    ref = oracle.mass_norm(u - oracle.interp)
    _fail(abs(l2 - ref) <= 1e-9 * ref, "k=%d tau=%g: l2_error %.17g, interpolant error %.17g"
          % (k, tau, l2, ref), out)
    return out


# ---------------------------------------------------------------------------
# spectral: sweeps and maps of the amplification spectral radius

def check_sweep(theta, rho, mags, rho_inf):
    """Radius and root magnitudes on a positive theta grid.

    rho_inf is the largest stage control: every nonzero eigenvalue limit is
    -rho_j. With rho_inf = 0 the radius follows (2 theta)^(-1/2) instead.
    """
    out = []
    theta, rho, mags = (np.asarray(a, dtype=float) for a in (theta, rho, mags))
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(mags))):
        return ["non-finite radius"]
    _fail(np.array_equal(rho, mags.max(axis=1)), "radius is not the largest root magnitude", out)
    worst = float(rho.max())
    _fail(worst <= 1.0 + A_SLACK, "radius %.12f exceeds 1 + %g at theta = %.4g"
          % (worst, A_SLACK, theta[int(rho.argmax())]), out)
    small = theta <= 1e-2
    if np.any(small):
        # some root is the principal one, e^-theta + O(theta^3)
        dev = np.min(np.abs(mags[small] - np.exp(-theta[small])[:, None]), axis=1)
        _fail(np.all(dev <= theta[small] ** 3), "no root within theta^3 of e^-theta", out)
    if rho_inf > 0:
        big = theta >= 1e8
        if np.any(big):
            dev = float(np.max(np.abs(rho[big] - rho_inf)))
            _fail(dev <= LIMIT_TOL, "radius is %.3g from rho_inf = %g beyond theta = 1e8"
                  % (dev, rho_inf), out)
    else:
        big = theta >= 1e6
        if np.any(big):
            law = np.abs(rho[big] * np.sqrt(2.0 * theta[big]) - 1.0) * np.sqrt(theta[big])
            _fail(float(law.max()) <= 2.0, "radius misses the (2 theta)^(-1/2) law", out)
    return out


def check_map(re, im, rho, poles, max_right, a_stable):
    """A stability map of the closed right half-plane."""
    out = []
    re, im, rho = (np.asarray(a, dtype=float) for a in (re, im, rho))
    poles = np.asarray(poles, dtype=bool)
    if rho.shape != (re.size, im.size):
        return ["map shape %s does not match the %d x %d grid" % (rho.shape, re.size, im.size)]
    _fail(bool(np.all(re >= 0.0)), "map leaves the closed right half-plane", out)
    _fail(not np.any(poles), "pole reported in the right half-plane", out)
    if not np.all(np.isfinite(rho)):
        return out + ["non-finite radius"]
    worst = float(rho.max())
    _fail(worst <= 1.0 + A_SLACK, "radius %.12f exceeds 1 + %g" % (worst, A_SLACK), out)
    _fail(max_right == worst, "max_rho_right_half %r is not the map maximum %r"
          % (max_right, worst), out)
    _fail(a_stable is True or a_stable == "true", "A-stability not certified", out)
    origin = (re == 0.0)[:, None] & (im == 0.0)[None, :]
    if np.any(origin):
        # G(0) keeps constants: its radius is exactly 1
        _fail(abs(float(rho[origin][0]) - 1.0) <= 1e-12, "radius at theta = 0 is not 1", out)
    return out


# ---------------------------------------------------------------------------
# cayley: residual slopes and characteristic polynomials

def fit_log_slope(taus, values):
    """Least-squares slope of log(values) against log(taus)."""
    return float(np.polyfit(np.log(np.asarray(taus, dtype=float)),
                            np.log(np.asarray(values, dtype=float)), 1)[0])


def check_residual(k, taus, clean, perturbed):
    """The 3k law of the recurrence residual, and its drop when gamma_1 moves."""
    out = []
    clean = np.asarray(clean, dtype=float)
    perturbed = np.asarray(perturbed, dtype=float)
    if not (np.all(clean > 0) and np.all(perturbed > 0)
            and np.all(np.isfinite(clean)) and np.all(np.isfinite(perturbed))):
        return ["residuals are not positive finite numbers"]
    slope = fit_log_slope(taus, clean)
    _fail(abs(slope - 3 * k) <= RESIDUAL_SLOPE_TOL,
          "k=%d: residual slope %.4f, the law is %d +- %g" % (k, slope, 3 * k, RESIDUAL_SLOPE_TOL), out)
    drop = slope - fit_log_slope(taus, perturbed)
    _fail(DROP_RANGE[0] <= drop <= DROP_RANGE[1],
          "k=%d: perturbed slope drops by %.4f, outside [%g, %g]" % ((k, drop) + DROP_RANGE), out)
    return out


def check_charpoly(matrix, coeffs):
    """charpoly_coeffs output (c[0] .. c[n-1], monic) against numpy.poly."""
    A = np.asarray(matrix, dtype=complex)
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (A.shape[0],):
        return ["expected %d coefficients, got %d" % (A.shape[0], c.size)]
    ref = np.poly(A)
    got = np.concatenate(([1.0], c[::-1]))
    dev = float(np.max(np.abs(got - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if dev <= CHARPOLY_TOL * scale:
        return []
    return ["charpoly differs from numpy.poly by %.3e (scale %.3g)" % (dev, scale)]


# ---------------------------------------------------------------------------
# integrator on a single decay mode

def check_scalar_convergence(k, taus, finals, lam, T):
    """Errors against e^(-lam T) fall at the paper's order."""
    errs = np.abs(np.asarray(finals, dtype=float) - exp(-lam * T))
    if not (np.all(np.isfinite(errs)) and np.all(errs > 0)):
        return ["k=%d: errors are not positive finite numbers" % k]
    slope = fit_log_slope(taus, errs)
    if abs(slope - ORDERS[k]) <= ORDER_TOL:
        return []
    return ["k=%d: fitted order %.3f, the paper's is %d" % (k, slope, ORDERS[k])]


# ---------------------------------------------------------------------------
# CLI output

def parse_csv(text):
    """Header, rows of strings and footer dict of a galpha CSV."""
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    footers = {}
    for ln in text.splitlines():
        if ln.startswith("# ") and " = " in ln:
            key, val = ln[2:].split(" = ", 1)
            footers[key] = val
    rows = list(csv.reader(body))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:], footers


def _table(rows, ncols):
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged CSV")
    return np.array([[float(v) for v in r] for r in rows]).reshape(len(rows), ncols)


def _parsed(text, header):
    head, rows, footers = parse_csv(text)
    if head != header:
        raise ValueError("header %s, expected %s" % (head, header))
    return _table(rows, len(header)), footers


def check_cli_spectrum(text, svg_text, k, rho):
    """README: spectrum --k 2 --rho 0.8,0.2 --out spectrum.csv --svg."""
    header = ["theta", "rho_G"] + ["lambda_abs_%d" % (i + 1) for i in range(2 * k)]
    data, footers = _parsed(text, header)
    out = []
    grid = np.logspace(-4, 8, 200)
    if data.shape[0] != grid.size:
        return ["spectrum has %d rows, expected %d" % (data.shape[0], grid.size)]
    _fail(np.allclose(data[:, 0], grid, rtol=1e-12, atol=0), "theta grid is not logspace(-4, 8, 200)", out)
    out += check_sweep(data[:, 0], data[:, 1], data[:, 2:], max(rho))
    _fail(float(footers.get("rho_G_at_theta_min", "nan")) == data[0, 1], "rho_G_at_theta_min footer", out)
    _fail(float(footers.get("rho_G_at_theta_max", "nan")) == data[-1, 1], "rho_G_at_theta_max footer", out)
    _fail(svg_text is not None and svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>"),
          "no SVG plot next to the CSV", out)
    return out


def check_cli_stability_map(text, resolution):
    """README: stability-map --k 3 --rho 0.0 --resolution 41 --out map.csv."""
    data, footers = _parsed(text, ["re", "im", "rho_G"])
    n = resolution
    if data.shape[0] != n * n:
        return ["map has %d rows, expected %d" % (data.shape[0], n * n)]
    re = np.linspace(0.0, 100.0, n)
    im = np.linspace(-100.0, 100.0, n)
    out = []
    _fail(np.array_equal(data[:, 0], np.repeat(re, n)) and np.array_equal(data[:, 1], np.tile(im, n)),
          "map nodes are not the default rectangle", out)
    out += check_map(re, im, data[:, 2].reshape(n, n), np.zeros((n, n), dtype=bool),
                     float(footers.get("max_rho_re_ge_0", "nan")), footers.get("a_stable"))
    _fail(footers.get("poles") == "0", "poles footer is not 0", out)
    return out


def check_cli_converge(text, oracle, k, tau_max, halvings):
    """README: converge --k 2 --rho 0.5 --problem heat --elements 256.

    The rows measure the error to the continuous solution, which levels at
    the spatial error e_h = ||u_h(T) - I_h u(T)||_M; by the triangle
    inequality each row lies within the temporal bound of e_h.
    """
    data, footers = _parsed(text, ["tau", "error", "observed_order"])
    taus = tau_max / 2.0 ** np.arange(halvings + 1)
    if data.shape[0] != taus.size:
        return ["converge has %d rows, expected %d" % (data.shape[0], taus.size)]
    out = []
    _fail(np.array_equal(data[:, 0], taus), "tau column is not the halving sequence", out)
    errs = data[:, 1]
    e_h = oracle.mass_norm(oracle.u - oracle.interp)
    for tau, err in zip(taus, errs):
        _fail(abs(err - e_h) <= oracle.error_bound(k, tau),
              "tau=%g: error %.3e is further than the order-%d bound from the spatial error %.3e"
              % (tau, err, ORDERS[k], e_h), out)
    orders = [log2(errs[i - 1] / errs[i]) for i in range(1, errs.size)]
    _fail(np.isnan(data[0, 2]) and np.allclose(data[1:, 2], orders, rtol=1e-12, atol=1e-12),
          "observed_order column is not log2 of successive error ratios", out)
    _fail(abs(float(footers.get("fitted_slope", "nan")) - fit_log_slope(taus, errs)) <= 1e-9,
          "fitted_slope footer is not the least-squares slope of the rows", out)
    return out


def check_cli_order_check(text, k_list, eps):
    """README: order-check --k-list 1,2 --perturb-gamma 0.01."""
    head, rows, footers = parse_csv(text)
    if head != ["k", "perturbed", "fitted_slope", "conditions_ok", "max_condition_residual"]:
        return ["unexpected header %s" % head]
    if len(rows) != 2 * len(k_list):
        return ["order-check has %d rows, expected %d" % (len(rows), 2 * len(k_list))]
    out = []
    degraded = False
    for i, k in enumerate(k_list):
        clean, pert = rows[2 * i], rows[2 * i + 1]
        _fail([clean[0], clean[1], pert[0], pert[1]] == [str(k), "0", str(k), "1"],
              "rows out of order for k=%d" % k, out)
        slope, slope_p = float(clean[2]), float(pert[2])
        _fail(abs(slope - 3 * k) <= RESIDUAL_SLOPE_TOL,
              "k=%d: residual slope %.4f, the law is %d +- %g" % (k, slope, 3 * k, RESIDUAL_SLOPE_TOL), out)
        drop = slope - slope_p
        _fail(DROP_RANGE[0] <= drop <= DROP_RANGE[1],
              "k=%d: perturbed slope drops by %.4f, outside [%g, %g]" % ((k, drop) + DROP_RANGE), out)
        _fail(clean[3] == "true" and float(clean[4]) <= 1e-12, "k=%d: clean order conditions" % k, out)
        _fail(pert[3] == "false" and abs(float(pert[4]) - eps) <= 1e-12,
              "k=%d: perturbed order conditions" % k, out)
        _fail(abs(float(footers.get("slope_drop_k%d" % k, "nan")) - drop) <= 1e-12,
              "slope_drop_k%d footer" % k, out)
        degraded = degraded or drop >= DROP_RANGE[0]
    _fail(footers.get("degraded") == ("true" if degraded else "false"), "degraded footer", out)
    return out


def check_cli_solve(text, tau, steps):
    """README: solve --k 1 --rho 1 --tau 0.1 --steps 10 (the trapezoidal rule)."""
    data, footers = _parsed(text, ["t", "dof", "value", "exact", "abs_error"])
    if data.shape[0] != steps + 1:
        return ["solve has %d rows, expected %d" % (data.shape[0], steps + 1)]
    out = []
    i = np.arange(steps + 1)
    amp = (1.0 - tau / 2.0) / (1.0 + tau / 2.0)
    _fail(np.allclose(data[:, 0], i * tau, rtol=1e-15, atol=0) and np.all(data[:, 1] == 0),
          "t or dof column", out)
    _fail(np.allclose(data[:, 2], amp ** i, rtol=1e-13, atol=0),
          "values are not the trapezoidal powers ((1 - tau/2) / (1 + tau/2))^n", out)
    _fail(np.allclose(data[:, 3], np.exp(-i * tau), rtol=1e-15, atol=0), "exact column is not e^-t", out)
    _fail(np.array_equal(data[:, 4], np.abs(data[:, 2] - data[:, 3])), "abs_error column", out)
    _fail(float(footers.get("theta", "nan")) == tau, "theta footer", out)
    return out
