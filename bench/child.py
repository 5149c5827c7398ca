"""The measured process: one fresh interpreter that makes the program's calls.

    child.py setup WORKLOAD [--spans PATH]
    child.py run WORKLOAD --seed N --stream PATH [--spans PATH]
    child.py cli [--spans PATH] -- GALPHA-ARGS...
    child.py probe --spans PATH
    child.py reference KIND

``setup`` imports galpha, does the workload's program-side set-up, prints
``ready`` and exits. ``run`` does the same, then runs one whole round of
the workload's operations for each ``round`` line on its stdin, replying
with the round's seconds, until ``stop``. It pickles each round's outputs
to ``--stream`` as it goes, so that its memory does not grow with the run,
and prints a JSON summary as its last line. ``cli`` runs one
galpha command in-process under the tracer. ``probe`` makes a fixed set of
analysis calls under the tracer. ``reference`` runs a reference task of
reference.py (no galpha) once per ``ref`` line on its stdin. With ``--spans`` the galpha calls are
traced and the spans written to PATH at exit.

The benchmark's own modules are imported after galpha, and the checks run
in the parent, so neither is part of this process's set-up time or memory.
"""

import sys
from time import perf_counter


def _arg(argv, flag, default=None):
    if flag in argv:
        return argv[argv.index(flag) + 1]
    return default


class HeatMarch:
    """Manufactured sin-decay heat problem, marched to T for every (k, tau)."""

    def setup(self, ga, W):
        self.ga, self.W = ga, W
        self.case = ga.manufactured_heat("sin-decay", kappa=W.HEAT_KAPPA)
        self.system = self.case.assemble(W.HEAT_ELEMENTS)
        np = sys.modules["numpy"]
        self.U0 = self.case.u0(np.arange(1, W.HEAT_ELEMENTS) / float(W.HEAT_ELEMENTS))
        self.params = {k: ga.params_from_rho([W.HEAT_RHO] * k) for k in W.HEAT_KS}

    def call(self, op):
        ga, tau = self.ga, op["tau"]
        traj = ga.integrate(self.system, self.U0, self.params[op["k"]], tau,
                            round(self.W.HEAT_T / tau))
        return traj[-1].u, ga.l2_error(traj[-1].u, self.case, self.W.HEAT_T)

    @staticmethod
    def record(result):
        u, l2 = result
        return {"u": u.copy(), "l2": l2}


class Certify:
    """Sweeps, maps, residual slopes, charpoly cross-checks, scalar convergence."""

    def setup(self, ga, W):
        self.ga, self.W = ga, W
        self.np = sys.modules["numpy"]

    def call(self, op):
        ga, W, k = self.ga, self.W, op["k"]
        prm = ga.params_from_rho(op["rho"])
        kind = op["kind"]
        if kind == "sweep":
            return ga.sweep_spectral_radius(prm, W.SWEEP_GRID)
        if kind == "map":
            return ga.stability_region(prm, W.MAP_RE, W.MAP_IM, W.MAP_RESOLUTION)
        if kind == "residual":
            gamma = list(prm.gamma)
            gamma[0] += W.PERTURB_GAMMA
            pert = prm.with_gamma(gamma)
            return ([ga.recurrence_residual(prm, 1.0, t) for t in W.RESIDUAL_TAUS],
                    [ga.recurrence_residual(pert, 1.0, t) for t in W.RESIDUAL_TAUS])
        if kind == "charpoly":
            G = ga.amplification_matrix(prm, op["theta"])
            return G.dense, ga.charpoly_coeffs(G.dense).c
        if kind == "scalar":
            system = ga.scalar_mode(W.SCALAR_LAMBDA)
            u0 = self.np.array([1.0])
            return [float(ga.integrate(system, u0, prm, tau, round(W.SCALAR_T / tau))[-1].u[0])
                    for tau in W.SCALAR_TAUS]
        raise ValueError(kind)

    @staticmethod
    def record(result):
        if hasattr(result, "magnitudes"):
            return {"theta": result.theta, "rho": result.rho, "mags": result.magnitudes}
        if hasattr(result, "pole_mask"):
            return {"re": result.re, "im": result.im, "rho": result.rho, "poles": result.pole_mask,
                    "max_right": result.max_rho_right_half, "a_stable": result.a_stable}
        return {"value": result}


LIBRARY = {"heat-march": HeatMarch, "certify": Certify}


def _setup(workload, traced):
    """Import galpha, install the tracer if asked, and set the workload up."""
    import galpha as ga

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads as W

    body = LIBRARY[workload]()
    body.setup(ga, W)
    return ga, W, body, tracer


def run(workload, seed, stream_path, spans_path):
    """One round per ``round`` line on stdin, until ``stop``; replies with its seconds."""
    import json
    import pickle

    ga, W, body, tracer = _setup(workload, spans_path is not None)
    print("ready", flush=True)
    ops = W.operations(workload, seed)
    rounds = 0
    with open(stream_path, "wb") as stream:
        for line in sys.stdin:
            if line.strip() != "round":
                break
            elapsed = 0.0
            outputs = {}
            for i in W.round_order(seed, rounds, len(ops)):
                t0 = perf_counter()
                result = body.call(ops[i])
                elapsed += perf_counter() - t0
                outputs[i] = body.record(result)
                del result
            pickle.dump(outputs, stream, protocol=pickle.HIGHEST_PROTOCOL)
            del outputs
            rounds += 1
            print(repr(elapsed), flush=True)
    if tracer:
        tracer.dump(spans_path)
    print(json.dumps({"galpha": ga.__file__}))


def setup_only(workload, spans_path):
    if workload == "cli-examples":
        import galpha.cli  # noqa: F401  (what every CLI command pays first)
        print("ready", flush=True)
        return
    _, _, _, tracer = _setup(workload, spans_path is not None)
    print("ready", flush=True)
    if tracer:
        tracer.dump(spans_path)


def cli(argv, spans_path):
    """One galpha command under the tracer; exits with the command's code."""
    t0 = perf_counter()
    import galpha.cli

    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", t0, perf_counter(), None, 0])
    tracing.install(tracer)
    code = tracer.wrap(galpha.cli.main, "cli." + argv[0])(argv)
    tracer.dump(spans_path)
    return code


def probe(spans_path):
    """Analysis calls that the CLI commands do not make, for the layer table."""
    import galpha as ga

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    for k in range(1, 7):
        prm = ga.params_from_rho([0.5] * k)
        for theta in (0.1, 1.0 + 1.0j, 10.0, 3.0 - 2.0j):
            ga.charpoly_coeffs(ga.amplification_matrix(prm, theta).dense)
    tracer.dump(spans_path)


def serve_reference(kind):
    """Run the reference task once per ``ref`` line on stdin, replying with its seconds."""
    import reference

    task = reference.KERNELS[kind]()
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "ref":
            break
        print(repr(task()), flush=True)


def main(argv):
    mode = argv[0]
    spans = _arg(argv, "--spans")
    if mode == "setup":
        setup_only(argv[1], spans)
    elif mode == "run":
        run(argv[1], int(_arg(argv, "--seed")), _arg(argv, "--stream"), spans)
    elif mode == "cli":
        return cli(argv[argv.index("--") + 1:], spans)
    elif mode == "probe":
        probe(spans)
    elif mode == "reference":
        serve_reference(argv[1])
    else:
        raise SystemExit("unknown mode %r" % (mode,))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
