"""Self-tests of the benchmark's checks: each accepts good output and rejects a wrong one.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

Good outputs come from galpha in this checkout's src/ and from independent
computations; wrong ones are the same outputs deliberately perturbed. The
oracle of the heat march is itself checked against a numerical generalized
eigendecomposition and an ODE solver. No test here asserts a timing.
"""

import os
import shutil
import sys
import unittest
from math import pi
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
import galpha as ga  # noqa: E402
import galpha.cli  # noqa: E402


class HeatOracleTest(unittest.TestCase):
    def setUp(self):
        self.oracle = checks.HeatOracle(16, 1.0, 1.0)
        h, n = 1.0 / 16, 15
        self.M = (np.diag(np.full(n, 2 * h / 3)) + np.diag(np.full(n - 1, h / 6), 1)
                  + np.diag(np.full(n - 1, h / 6), -1))
        self.K = (np.diag(np.full(n, 2 / h)) + np.diag(np.full(n - 1, -1 / h), 1)
                  + np.diag(np.full(n - 1, -1 / h), -1))

    def test_modes_are_the_generalized_eigendecomposition(self):
        from scipy.linalg import eigh

        lam, _ = eigh(self.K, self.M)
        self.assertTrue(np.allclose(np.sort(self.oracle.eigenvalues), lam, rtol=1e-12))
        V = self.oracle.modes
        self.assertTrue(np.allclose(V.T @ self.M @ V, np.eye(15), atol=1e-13))
        self.assertTrue(np.allclose(self.K @ V, self.M @ V * self.oracle.eigenvalues, atol=1e-10))

    def test_solution_matches_an_ode_solver(self):
        from scipy.integrate import solve_ivp

        x = self.oracle.x
        # exact load integrals, against 20-point Gauss quadrature on each element
        nodes, weights = np.polynomial.legendre.leggauss(20)
        load = np.zeros(15)
        for e in range(16):
            xg = (e + (nodes + 1) / 2) / 16
            vals = np.sin(pi * xg) * weights / 32
            hat_left, hat_right = (nodes + 1) / 2, (1 - nodes) / 2
            if e >= 1:
                load[e - 1] += vals @ hat_right
            if e <= 14:
                load[e] += vals @ hat_left
        rhs_load = (pi ** 2 - 1) * load
        Minv = np.linalg.inv(self.M)
        sol = solve_ivp(lambda t, u: Minv @ (rhs_load * np.exp(-t) - self.K @ u), (0.0, 1.0),
                        np.sin(pi * x), method="Radau", rtol=1e-12, atol=1e-14)
        self.assertLess(np.max(np.abs(sol.y[:, -1] - self.oracle.u)), 1e-10)

    def test_heat_march_accepts_the_exact_solution_only(self):
        o = self.oracle
        l2 = o.mass_norm(o.u - o.interp)
        tau = 1 / 64  # the k = 2 bound is 3.7e-5 ||u(T)||_M here
        self.assertEqual(checks.check_heat_march(o, 2, tau, o.u, l2), [])
        bad = o.u + 1e-3 * o.mass_norm(o.u) * o.modes[:, 0]
        self.assertTrue(checks.check_heat_march(o, 2, tau, bad, o.mass_norm(bad - o.interp)))
        self.assertTrue(checks.check_heat_march(o, 2, tau, o.u, l2 * (1 + 1e-6)))
        self.assertTrue(checks.check_heat_march(o, 2, tau, np.full(15, np.nan), l2))


class HeatProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.oracle = checks.HeatOracle(W.HEAT_ELEMENTS, W.HEAT_KAPPA, W.HEAT_T)
        cls.case = ga.manufactured_heat("sin-decay", kappa=W.HEAT_KAPPA)
        cls.system = cls.case.assemble(W.HEAT_ELEMENTS)
        cls.U0 = cls.case.u0(cls.oracle.x)

    def march(self, k, tau):
        u = ga.integrate(self.system, self.U0, ga.params_from_rho([W.HEAT_RHO] * k), tau,
                         round(1 / tau))[-1].u
        return u, ga.l2_error(u, self.case, 1.0)

    def test_k2_passes_and_a_perturbed_state_fails(self):
        u, l2 = self.march(2, 1 / 8)
        self.assertEqual(checks.check_heat_march(self.oracle, 2, 1 / 8, u, l2), [])
        bad = u * (1 + 1e-3)
        self.assertTrue(checks.check_heat_march(self.oracle, 2, 1 / 8, bad, l2))

    def test_k3_coarse_step_fails_on_the_self_start_fault(self):
        u, l2 = self.march(3, 1 / 8)
        failures = checks.check_heat_march(self.oracle, 3, 1 / 8, u, l2)
        self.assertTrue(failures and "semi-discrete" in failures[0])


class SpectralTest(unittest.TestCase):
    def sweep(self, rho):
        prm = ga.params_from_rho(rho)
        s = ga.sweep_spectral_radius(prm, W.SWEEP_GRID)
        return s.theta, s.rho.copy(), s.magnitudes.copy()

    def test_sweep_accepts_program_output(self):
        for rho in ([0.5, 0.5], [0.0, 0.0, 0.0], [0.3, 0.8]):
            self.assertEqual(checks.check_sweep(*self.sweep(rho), max(rho)), [], rho)

    def test_sweep_rejects_wrong_answers(self):
        theta, rho, mags = self.sweep([0.5, 0.5])
        over = rho.copy()
        i = int(np.argmin(np.abs(theta - 10.0)))
        over[i] = 1 + 1e-6
        mags_over = mags.copy()
        mags_over[i, 0] = 1 + 1e-6
        self.assertTrue(checks.check_sweep(theta, over, mags_over, 0.5))
        self.assertTrue(checks.check_sweep(theta, over, mags, 0.5))  # radius is not the max root
        self.assertTrue(checks.check_sweep(theta, rho, mags, 0.6))  # wrong high-frequency limit
        shifted = mags * np.where(theta <= 1e-2, 1 + 1e-4, 1.0)[:, None]
        self.assertTrue(checks.check_sweep(theta, shifted.max(axis=1), shifted, 0.5))
        theta0, rho0, mags0 = self.sweep([0.0, 0.0])
        slow = np.where(theta0 >= 1e6, 1.5, 1.0)
        self.assertTrue(checks.check_sweep(theta0, rho0 * slow, mags0 * slow[:, None], 0.0))

    def test_sweep_at_rho_one_fails_on_the_large_theta_fault(self):
        failures = checks.check_sweep(*self.sweep([1.0]), 1.0)
        self.assertTrue(failures and "exceeds 1 +" in failures[0])

    def test_map_accepts_program_output_and_rejects_wrong_answers(self):
        m = ga.stability_region(ga.params_from_rho([0.5, 0.2]), W.MAP_RE, W.MAP_IM, W.MAP_RESOLUTION)
        args = [m.re, m.im, m.rho, m.pole_mask, m.max_rho_right_half, m.a_stable]
        self.assertEqual(checks.check_map(*args), [])
        over = m.rho.copy()
        over[3, 4] = 1 + 1e-6
        self.assertTrue(checks.check_map(m.re, m.im, over, m.pole_mask, 1 + 1e-6, True))
        self.assertTrue(checks.check_map(m.re, m.im, m.rho, m.pole_mask, m.max_rho_right_half, False))
        poles = m.pole_mask.copy()
        poles[0, 0] = True
        self.assertTrue(checks.check_map(m.re, m.im, m.rho, poles, m.max_rho_right_half, True))
        self.assertTrue(checks.check_map(m.re, m.im, m.rho, m.pole_mask, 0.5, True))
        low = m.rho.copy()
        low[0, W.MAP_RESOLUTION // 2] = 0.9  # the node theta = 0
        self.assertTrue(checks.check_map(m.re, m.im, low, m.pole_mask, float(low.max()), True))


class CayleyTest(unittest.TestCase):
    def residuals(self, k, rho):
        prm = ga.params_from_rho([rho] * k)
        gamma = list(prm.gamma)
        gamma[0] += W.PERTURB_GAMMA
        pert = prm.with_gamma(gamma)
        return (np.array([ga.recurrence_residual(prm, 1.0, t) for t in W.RESIDUAL_TAUS]),
                np.array([ga.recurrence_residual(pert, 1.0, t) for t in W.RESIDUAL_TAUS]))

    def test_residual_law(self):
        for k in W.CERTIFY_KS:
            clean, pert = self.residuals(k, 0.5)
            self.assertEqual(checks.check_residual(k, W.RESIDUAL_TAUS, clean, pert), [], k)
        clean, pert = self.residuals(3, 0.5)
        taus = W.RESIDUAL_TAUS
        self.assertTrue(checks.check_residual(3, taus, clean * taus ** 0.5, pert * taus ** 0.5 / taus))
        self.assertTrue(checks.check_residual(3, taus, clean, clean))  # no drop
        self.assertTrue(checks.check_residual(3, taus, clean, -pert))

    def test_charpoly_against_numpy_poly(self):
        G = ga.amplification_matrix(ga.params_from_rho([0.3, 0.6, 0.9]), 1.5 - 0.5j).dense
        c = np.array(ga.charpoly_coeffs(G).c)
        self.assertEqual(checks.check_charpoly(G, c), [])
        bad = c.copy()
        bad[2] += 1e-6
        self.assertTrue(checks.check_charpoly(G, bad))
        self.assertTrue(checks.check_charpoly(G, c[:-1]))


class ScalarConvergenceTest(unittest.TestCase):
    def finals(self, k, rho):
        prm = ga.params_from_rho([rho] * k)
        system = ga.scalar_mode(W.SCALAR_LAMBDA)
        return [float(ga.integrate(system, np.array([1.0]), prm, t, round(1 / t))[-1].u[0])
                for t in W.SCALAR_TAUS]

    def test_orders_two_three_five_six(self):
        for k in W.SCALAR_KS:
            for rho in (0.5, 1.0):
                self.assertEqual(checks.check_scalar_convergence(
                    k, W.SCALAR_TAUS, self.finals(k, rho), 1.0, 1.0), [], (k, rho))
        finals = np.array(self.finals(3, 0.5)) + 1e-4 * np.array(W.SCALAR_TAUS)
        self.assertTrue(checks.check_scalar_convergence(3, W.SCALAR_TAUS, finals, 1.0, 1.0))
        self.assertTrue(checks.check_scalar_convergence(2, W.SCALAR_TAUS, self.finals(3, 0.5), 1.0, 1.0))


class CliTest(unittest.TestCase):
    """The README commands, run in-process into a scratch directory."""

    @classmethod
    def setUpClass(cls):
        cls.work = HERE / "out" / "selftest"
        cls.work.mkdir(parents=True, exist_ok=True)
        cls.text = {}
        old = os.getcwd()
        os.chdir(cls.work)
        try:
            for op in W.cli_ops():
                assert galpha.cli.main(op["argv"]) == 0
                out = op["argv"][op["argv"].index("--out") + 1]
                cls.text[op["id"]] = Path(out).read_text()
            cls.svg = Path("spectrum.svg").read_text()
        finally:
            os.chdir(old)
        cls.check = {op["id"]: op["check"] for op in W.cli_ops()}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def edit(self, name, row, col, value):
        lines = self.text[name].splitlines()
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    def test_spectrum(self):
        c = self.check["spectrum"]
        self.assertEqual(checks.check_cli_spectrum(self.text["spectrum"], self.svg, c["k"], c["rho"]), [])
        bad = self.edit("spectrum", 100, 1, "1.000001")
        self.assertTrue(checks.check_cli_spectrum(bad, self.svg, c["k"], c["rho"]))
        self.assertTrue(checks.check_cli_spectrum(self.text["spectrum"], None, c["k"], c["rho"]))

    def test_stability_map(self):
        text = self.text["stability-map"]
        self.assertEqual(checks.check_cli_stability_map(text, 41), [])
        self.assertTrue(checks.check_cli_stability_map(text.replace("a_stable = true", "a_stable = false"), 41))
        self.assertTrue(checks.check_cli_stability_map(self.edit("stability-map", 500, 2, "1.000001"), 41))

    def test_converge(self):
        c = self.check["converge"]
        oracle = checks.HeatOracle(c["elements"], 1.0, 1.0)
        args = (oracle, c["k"], c["tau_max"], c["halvings"])
        self.assertEqual(checks.check_cli_converge(self.text["converge"], *args), [])
        self.assertTrue(checks.check_cli_converge(self.edit("converge", 5, 1, "0.001"), *args))
        self.assertTrue(checks.check_cli_converge(self.edit("converge", 3, 2, "3"), *args))

    def test_order_check_fails_only_on_the_k2_slope(self):
        c = self.check["order-check"]
        failures = checks.check_cli_order_check(self.text["order-check"], c["k_list"], c["eps"])
        self.assertTrue(failures)
        self.assertTrue(all("k=2" in f for f in failures), failures)
        self.assertTrue(checks.check_cli_order_check(self.edit("order-check", 1, 2, "2.5"), [1], 0.01))

    def test_solve(self):
        c = self.check["solve"]
        self.assertEqual(checks.check_cli_solve(self.text["solve"], c["tau"], c["steps"]), [])
        bad = self.edit("solve", 5, 2, "%.17g" % (float(self.text["solve"].splitlines()[5].split(",")[2]) * (1 + 1e-10)))
        self.assertTrue(checks.check_cli_solve(bad, c["tau"], c["steps"]))


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_faults_do_not_depend_on_the_seed(self):
        for name in W.WORKLOADS:
            a, b = W.operations(name, 3), W.operations(name, 3)
            self.assertEqual(repr(a), repr(b))
            faulty = [op["id"] for op in a if op["fault"]]
            for seed in (0, 1, 12345):
                ops = W.operations(name, seed)
                self.assertEqual([op["id"] for op in ops if op["fault"]], faulty)
                self.assertEqual(len(ops), len(a))
                for op in ops:
                    if op["fault"]:
                        self.assertEqual(repr(op), repr(next(o for o in a if o["id"] == op["id"])))


class LayerMetricsTest(unittest.TestCase):
    def test_counts_are_per_round_whichever_metric_comes_from_the_probe(self):
        import tracing

        own, probe = tracing.SpanSet(), tracing.SpanSet()
        # two rounds of one march: 3 loads and one 2-factor build in each
        spans = []
        for _ in range(2):
            spans.append(["integrator.integrate", 0.0, 1.0, None, 10])
            parent = len(spans) - 1
            spans.append(["integrator.build", 0.1, 0.2, parent, 2])
            spans += [["problems.load", 0.3, 0.4, parent, 0] for _ in range(3)]
        own.add(spans, "run")
        probe.add([[name, 0.0, 0.5, None, 1] for _, _, name in tracing.LAYER_METRICS.values()], "probe")
        m = tracing.layer_metrics(own, 2, probe)
        self.assertEqual(m["problems.load_calls"]["value"], 3)
        self.assertEqual(m["integrator.factorizations"]["value"], 2)
        self.assertAlmostEqual(m["integrator.step_us"]["value"], 0.6 / 10 * 1e6)
        self.assertEqual(m["problems.assemble_s"]["value"], 0.5)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_what_the_runs_report(self):
        import json

        import tracing

        path = HERE.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json next to bench/")
        spec = json.loads(path.read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], ["setup_s", "wall_s", "peak_rss_mb"])
        layers = [(name, unit) for name, (unit, _, _) in tracing.LAYER_METRICS.items()]
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers + [("trace.wall_s", "s")])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(W.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
