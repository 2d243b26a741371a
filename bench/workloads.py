"""Workload configs and the independent references their outputs are checked against.

Every config is a plain ``oqw`` JSON document made from the workload seed
alone. The references below never import ``oqwalk``: each one is a closed
form or a classical probability chain, so an engine bug cannot cancel out
in the comparison.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

WORKLOADS = ("line-run", "dqc-steady", "qudit-run")

# oqw subcommand each workload is invoked with
MODE = {"line-run": "run", "dqc-steady": "steady", "qudit-run": "run"}
# what bounds each workload's time: Python-level loops over small blocks,
# or 32x32 complex matmuls; run.HostSpeed calibrates with the same kind
BOUND_BY = {"line-run": "interpreter", "dqc-steady": "interpreter",
            "qudit-run": "blas"}

OCCUPATION_TOL = 1e-9
READOUT_TOL = 1e-8
FIDELITY_TOL = 1e-9

_S2 = 1 / math.sqrt(2)
# Single-qubit gates re-declared here so the reference does not share the
# program's constants. The names are the CLI's named gates.
GATES = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, complex(_S2, _S2)]], dtype=complex),
}


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def make_config(workload: str, seed: int) -> dict:
    """The JSON document the program receives for one workload and seed."""
    if workload == "line-run":
        # no random input: the seed does not change this config
        return {"scenario": "line", "theta_cos": 0.8, "window": 1000,
                "steps": 1000, "record_every": 1, "format": "csv"}
    if workload == "dqc-steady":
        rng = random.Random(seed)
        names = sorted(GATES)
        return {"scenario": "dqc", "omega": 0.5, "T": 20,
                "unitaries": [rng.choice(names) for _ in range(20)]}
    if workload == "qudit-run":
        rng = np.random.default_rng(seed)
        unitaries = []
        for _ in range(48):
            u = _haar_unitary(32, rng)
            unitaries.append([[[float(z.real), float(z.imag)] for z in row]
                              for row in u])
        return {"scenario": "dqc", "omega": 0.5, "T": 48,
                "unitaries": unitaries, "steps": 1000, "record_every": 50,
                "format": "json"}
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ references

def line_reference(theta_cos: float, steps: int) -> np.ndarray:
    """Occupation of sites -steps..steps after each of 0..steps steps.

    Half the weight starts in |+>, which moves right every step; the
    other half is in |->, which hops right with probability sin^2(theta)
    and left otherwise: 1/2 [site = k] + 1/2 binomial.
    """
    p_right = 1.0 - theta_cos ** 2
    width = 2 * steps + 1
    ref = np.zeros((steps + 1, width))
    walker = np.zeros(width)
    walker[steps] = 1.0
    for k in range(steps + 1):
        ref[k] = 0.5 * walker
        ref[k, steps + k] += 0.5
        nxt = np.zeros(width)
        nxt[1:] += p_right * walker[:-1]
        nxt[:-1] += (1.0 - p_right) * walker[1:]
        walker = nxt
    return ref


def chain_reference(omega: float, t_final: int, steps: int) -> np.ndarray:
    """Register occupations of a dqc chain after each of 0..steps steps.

    Every hop operator of the chain is a scaled unitary, so the register
    weights follow the classical birth-death chain (forward omega, back
    1 - omega, reflecting ends) whatever the gates are.
    """
    lam = 1.0 - omega
    ref = np.zeros((steps + 1, t_final + 1))
    p = np.zeros(t_final + 1)
    p[0] = 1.0
    for k in range(steps + 1):
        ref[k] = p
        nxt = np.zeros_like(p)
        nxt[1:] += omega * p[:-1]
        nxt[:-1] += lam * p[1:]
        nxt[0] += lam * p[0]
        nxt[-1] += omega * p[-1]
        p = nxt
    return ref


def stationary_registers(omega: float, t_final: int) -> np.ndarray:
    """Stationary register weights, proportional to (omega / (1 - omega))^t."""
    log_r = math.log(omega / (1.0 - omega))
    w = np.exp(log_r * (np.arange(t_final + 1) - t_final))
    return w / w.sum()


def gate_product_ket(names: list[str]) -> np.ndarray:
    vec = np.array([1, 0], dtype=complex)
    for name in names:
        vec = GATES[name] @ vec
    return vec


# ---------------------------------------------------------------- checks

class Reference:
    """Checks one workload's output text against its independent reference."""

    def __init__(self, workload: str, config: dict):
        self.workload = workload
        self.config = config
        if workload == "line-run":
            self.ref = line_reference(config["theta_cos"], config["steps"])
        elif workload == "qudit-run":
            full = chain_reference(config["omega"], config["T"], config["steps"])
            self.recorded = list(range(0, config["steps"] + 1,
                                       config["record_every"]))
            if self.recorded[-1] != config["steps"]:
                self.recorded.append(config["steps"])
            self.ref = full[self.recorded]
        else:
            self.stationary = stationary_registers(config["omega"], config["T"])
            self.ket = gate_product_ket(config["unitaries"])

    def check(self, text: str) -> tuple[bool, str]:
        """(ok, reason); reason names the first mismatch found."""
        try:
            if self.workload == "line-run":
                return self._check_line(text)
            if self.workload == "qudit-run":
                return self._check_chain_run(text)
            return self._check_steady(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return False, f"unreadable output: {exc!r}"

    def _check_line(self, text: str):
        header, _, body = text.partition("\n")
        if header != "step,node,probability":
            return False, f"bad CSV header {header!r}"
        rows = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, 3)
        steps = self.config["steps"]
        step = rows[:, 0].astype(np.int64)
        site = rows[:, 1].astype(np.int64)
        if set(np.unique(step).tolist()) != set(range(steps + 1)):
            return False, "snapshot steps differ from 0..steps"
        if np.any(np.abs(site) > steps):
            return False, "occupation outside the reachable sites"
        got = np.zeros_like(self.ref)
        got[step, site + steps] = rows[:, 2]
        if np.count_nonzero(np.bincount(step * (2 * steps + 1) + site + steps) > 1):
            return False, "duplicate (step, node) rows"
        err = float(np.max(np.abs(got - self.ref)))
        if err > OCCUPATION_TOL:
            return False, f"occupation off the binomial reference by {err:.3e}"
        return True, f"max occupation error {err:.3e}"

    def _check_chain_run(self, text: str):
        snapshots = json.loads(text)
        if [s["step"] for s in snapshots] != self.recorded:
            return False, "snapshot steps differ from the recording schedule"
        got = np.zeros_like(self.ref)
        for row, snap in zip(got, snapshots):
            for node, prob in snap["occupations"].items():
                row[int(node)] = prob
        err = float(np.max(np.abs(got - self.ref)))
        if err > OCCUPATION_TOL:
            return False, f"occupation off the birth-death reference by {err:.3e}"
        return True, f"max occupation error {err:.3e}"

    def _check_steady(self, text: str):
        out = json.loads(text)
        t_final = self.config["T"]
        if out["converged"] is not True:
            return False, "steady state not converged"
        occ = np.zeros(t_final + 1)
        for node, prob in out["occupation"].items():
            occ[int(node)] = prob
        occ_err = float(np.max(np.abs(occ - self.stationary)))
        if occ_err > READOUT_TOL:
            return False, f"register occupation off by {occ_err:.3e}"
        report = out["report"]
        readout_err = abs(report["readout_probability"] - self.stationary[-1])
        if readout_err > READOUT_TOL:
            return False, f"read-out off the closed form by {readout_err:.3e}"
        block = np.array([[complex(re, im) for re, im in row]
                          for row in out["blocks"][str(t_final)]])
        fidelity = float(np.real(self.ket.conj() @ block @ self.ket)
                         / np.real(np.trace(block)))
        worst = min(fidelity, report["output_fidelity"])
        if worst < 1.0 - FIDELITY_TOL:
            return False, f"output fidelity {worst!r} below 1 - {FIDELITY_TOL}"
        return True, f"read-out error {readout_err:.3e}"


def perturb(workload: str, text: str) -> str:
    """The output with one probability moved by 1e-6, for the self-check."""
    if workload == "line-run":
        header, first, rest = text.split("\n", 2)
        step, node, prob = first.split(",")
        return "\n".join([header, f"{step},{node},{float(prob) + 1e-6:.12f}", rest])
    doc = json.loads(text)
    if workload == "qudit-run":
        occ = doc[-1]["occupations"]
    else:
        occ = doc["occupation"]
        doc["report"]["readout_probability"] += 1e-6
    node = next(iter(occ))
    occ[node] += 1e-6
    return json.dumps(doc, indent=2) + "\n"
