"""Workload table: what each benchmark workload runs, drawn from a seed.

Every workload is a closed loop of single-process operations, each one an
``omtc spectrum`` call through ``omtc.cli.main`` with ``--threads 1``.
The seed draws the dipole-dipole coupling J (and, for ``resweep``, the
filter bandwidth); it never changes the space dimension or the number of
time steps, so runs on different seeds do the same amount of work.

Sizes are scaled so that 22 runs of every workload fit the benchmark's
time budget on a 2-core machine, while keeping the layer that makes each
workload interesting the dominant one (see README.md for measured shares).
"""

import random

#: filter bandwidths a ``resweep`` seed draws from
BANDWIDTHS = (0.005, 0.01, 0.02, 0.05)

# Every J a seed can draw passes the dressed-state oracle (criteria 01 and
# 04 tolerances) at the seed commit.  At gamma_a = 0.3, J = 1 does not: a
# first red sideband outgrows the + branch head, so the two tallest peaks
# are not the branch heads at any horizon, and the Rabi-separation test
# does not apply there.
_FIG2_J = (0.0, 0.5, 1.0)
_FAST_DECAY_J = (0.0, 0.5)

WORKLOADS = {
    # Reference strong-strong point with the dense expm propagator.  The
    # horizon is capped at T = 60 (n_t = 3001) instead of the leak stop at
    # T ~ 170, the shortest horizon at which J = 1 still passes the oracle.
    # Forward/adjoint dense matvecs and the O(n_t^2) grid fill dominate,
    # and the grid plus its two operand stacks set peak memory.
    "reference": {
        "J": _FIG2_J,
        "config": {
            "numerics.method": "expm",
            "numerics.N_m": 8,
            "numerics.t_max": 60,
        },
    },
    # Fast-decaying point of the cutoff design check with expm on a short
    # horizon (n_t = 501): the two dense expm(L dt) builds (propagator and
    # smoke check) dominate and the grid is small.  N_m = 8, because one
    # dense expm of the N_m = 12 superoperator (2704^2) takes ~30 s here.
    "cutoff-expm": {
        "J": _FAST_DECAY_J,
        "config": {
            "model.gamma_a": 0.3,
            "numerics.method": "expm",
            "numerics.N_m": 8,
            "numerics.t_max": 10,
        },
    },
    # The N_m = 12 run of the cutoff design check with the default RK4 on
    # the same horizon: matrix-free Generator.apply stepping dominates.
    "cutoff-rk4": {
        "J": _FAST_DECAY_J,
        "config": {
            "model.gamma_a": 0.3,
            "numerics.method": "rk4",
            "numerics.N_m": 12,
            "numerics.t_max": 10,
        },
    },
    # Set-up dumps the grid of the fast-decaying N_m = 8 RK4 point over its
    # leak-stopped horizon (n_t ~ 1760); each operation reloads the dump
    # and re-sweeps 1281 detunings at one bandwidth.  No propagation runs
    # in an operation.
    "resweep": {
        "J": _FAST_DECAY_J,
        "config": {
            "model.gamma_a": 0.3,
            "numerics.method": "rk4",
            "numerics.N_m": 8,
        },
        "n_points": 1281,
        "reload": True,
    },
}


def entries(name: str) -> list[dict]:
    """Every input a seed can draw for a workload."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    spec = WORKLOADS[name]
    gammas = BANDWIDTHS if spec.get("reload") else (0.01,)
    return [
        {"workload": name, "J": J, "Gamma": G, "key": reference_key(J, G)}
        for J in spec["J"]
        for G in gammas
    ]


def draw(name: str, seed: int) -> dict:
    """Inputs of one run: J, the filter bandwidth and the reference key."""
    return random.Random(seed).choice(entries(name))


def reference_key(J: float, Gamma: float) -> str:
    return f"J{J:g}_Gamma{Gamma:g}"


def _format(items: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in items.items())


def model_params(inputs: dict) -> dict:
    """Keyword arguments of the ModelParams an operation simulates."""
    config = WORKLOADS[inputs["workload"]]["config"]
    model = {k.removeprefix("model."): v for k, v in config.items() if k.startswith("model.")}
    return {"J": inputs["J"], **model}


def simulation_config(inputs: dict) -> str:
    """Config text that determines the simulated correlation grid."""
    spec = WORKLOADS[inputs["workload"]]
    return _format({"model.J": inputs["J"], **spec["config"]})


def operation_config(inputs: dict) -> str:
    """Config text of one operation (simulation plus the detuning sweep)."""
    sweep = {"filter.Gamma": inputs["Gamma"], "filter.n_points": n_points(inputs)}
    return simulation_config(inputs) + _format(sweep)


def n_points(inputs: dict) -> int:
    return WORKLOADS[inputs["workload"]].get("n_points", 321)


def reloads_dump(inputs: dict) -> bool:
    return WORKLOADS[inputs["workload"]].get("reload", False)
