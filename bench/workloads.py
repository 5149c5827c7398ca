"""The benchmark's workloads: fixed sizes, seeded inputs and the operation lists.

Shared by the parent (which checks outputs) and the measured child (which
makes the program calls). Importing this module does not import galpha.

An operation is one checked unit of work. Each round runs every operation
of the workload once, in an order drawn from the seed, so the share of
failed operations is the same in every run. An operation whose ``fault`` is
set fails because of a named fault in the program, on inputs that do not
depend on the seed.
"""

from __future__ import annotations

from math import pi

import numpy as np

FAULT_SELF_START = "stiff self-start: init_state recovers the derivative stack by repeated M^-1 K solves"
FAULT_LARGE_THETA = "large-theta roundoff: spectral_radius exceeds 1 + 1e-9 beyond |theta| ~ 3e7 at rho = 1"
FAULT_ORDER_TAUS = "ORDER_CHECK_TAUS: pre-asymptotic tau grid for k >= 2 in order-check"

# heat-march: manufactured sin-decay on one mesh of 1023 interior dofs
HEAT_ELEMENTS = 1024
HEAT_KAPPA = 1.0
HEAT_RHO = 0.5
HEAT_T = 1.0
HEAT_KS = (1, 2, 3)
HEAT_TAUS = tuple(2.0 ** -i for i in range(3, 8))

# certify: the analysis side
CERTIFY_KS = tuple(range(1, 7))
SWEEP_GRID = np.logspace(-4.0, 10.0, 401)
MAP_RE = (0.0, 1e3)
MAP_IM = (-1e3, 1e3)
MAP_RESOLUTION = 21
RESIDUAL_TAUS = np.logspace(-3.0, -2.0, 11)
PERTURB_GAMMA = 0.01
CHARPOLY_THETAS = 4
SCALAR_KS = (1, 2, 3, 4)
SCALAR_LAMBDA = 1.0
SCALAR_T = 1.0
SCALAR_TAUS = tuple(2.0 ** -i for i in range(2, 7))

# cli-examples: the five README commands, each with the settings its check needs
CLI_COMMANDS = (
    ("spectrum", "spectrum --k 2 --rho 0.8,0.2 --out spectrum.csv --svg",
     {"k": 2, "rho": (0.8, 0.2)}),
    ("stability-map", "stability-map --k 3 --rho 0.0 --resolution 41 --out map.csv",
     {"resolution": 41}),
    ("converge", "converge --k 2 --rho 0.5 --problem heat --elements 256 --out conv.csv",
     {"k": 2, "tau_max": 0.5, "halvings": 4, "elements": 256}),
    ("order-check", "order-check --k-list 1,2 --perturb-gamma 0.01 --out order.csv",
     {"k_list": [1, 2], "eps": 0.01}),
    ("solve", "solve --k 1 --rho 1 --tau 0.1 --steps 10 --out run.csv",
     {"tau": 0.1, "steps": 10}),
)


def heat_ops():
    ops = []
    for k in HEAT_KS:
        for tau in HEAT_TAUS:
            # the stiff modes' roundoff, raised to theta^(2k-1) by the
            # self-start, is not damped by T = 1 for k = 3 at tau >= 1/32
            fault = FAULT_SELF_START if k == 3 and tau >= 1.0 / 32 else None
            ops.append({"id": "k%d-tau1/%d" % (k, round(1 / tau)), "kind": "march",
                        "k": k, "tau": tau, "fault": fault})
    return ops


def mixed_controls(seed):
    """One control per stage for k = 1..6, uniform in [0.1, 0.9]."""
    rng = np.random.default_rng([seed, 1])
    return {k: tuple(float(r) for r in rng.uniform(0.1, 0.9, k)) for k in CERTIFY_KS}


def charpoly_thetas(seed):
    """Complex theta in the right half-plane with |theta| log-uniform in [0.1, 10]."""
    rng = np.random.default_rng([seed, 2])
    out = {}
    for k in CERTIFY_KS:
        mod = 10.0 ** rng.uniform(-1.0, 1.0, CHARPOLY_THETAS)
        arg = rng.uniform(-pi / 2, pi / 2, CHARPOLY_THETAS)
        out[k] = tuple(complex(z) for z in mod * np.exp(1j * arg))
    return out


def certify_ops(seed):
    mixed = mixed_controls(seed)
    sets = [("0", lambda k: (0.0,) * k), ("0.5", lambda k: (0.5,) * k),
            ("1", lambda k: (1.0,) * k), ("mixed", lambda k: mixed[k])]
    ops = []
    for label, rho in sets:
        for k in CERTIFY_KS:
            ops.append({"id": "sweep-k%d-rho%s" % (k, label), "kind": "sweep", "k": k,
                        "rho": rho(k), "fault": FAULT_LARGE_THETA if label == "1" else None})
            ops.append({"id": "map-k%d-rho%s" % (k, label), "kind": "map", "k": k,
                        "rho": rho(k), "fault": None})
            ops.append({"id": "residual-k%d-rho%s" % (k, label), "kind": "residual", "k": k,
                        "rho": rho(k), "fault": None})
    for k, thetas in charpoly_thetas(seed).items():
        for i, theta in enumerate(thetas):
            ops.append({"id": "charpoly-k%d-%d" % (k, i), "kind": "charpoly", "k": k,
                        "rho": mixed[k], "theta": theta, "fault": None})
    for label in ("0.5", "1"):
        for k in SCALAR_KS:
            ops.append({"id": "scalar-k%d-rho%s" % (k, label), "kind": "scalar", "k": k,
                        "rho": (float(label),) * k, "fault": None})
    return ops


def cli_ops():
    return [{"id": name, "kind": "cli", "argv": text.split(), "check": check,
             "fault": FAULT_ORDER_TAUS if name == "order-check" else None}
            for name, text, check in CLI_COMMANDS]


def operations(workload, seed):
    if workload == "heat-march":
        return heat_ops()
    if workload == "certify":
        return certify_ops(seed)
    if workload == "cli-examples":
        return cli_ops()
    raise ValueError("unknown workload %r" % (workload,))


def round_order(seed, round_index, n_ops):
    """The order of the operations in one round, drawn from the seed."""
    return [int(i) for i in np.random.default_rng([seed, 3, round_index]).permutation(n_ops)]


WORKLOADS = ("heat-march", "certify", "cli-examples")
