"""The three benchmark workloads: inputs, the timed call, and output checks.

Each workload calls the package the way a user does, through the
``levy-gqmle`` command line run in-process or through the public
``sample_invariant`` / ``gamma_matrix`` functions, and looks every entry
point up through its module at call time so the traced run can wrap it.

Output checks come in two kinds.  Gates hold on any seed: positive-
semidefinite Sigma and V, criterion 5's curvature entries for the long
invariant sample, and for the replication table an independent re-fit of
every replication.  Reference comparisons hold on the seeds recorded in
``reference.json``: the program's own output at the commit that defined
the benchmark, within the rounding stated in ``ROUNDING``.  The reference
is not the paper's table, so the benchmark neither depends on nor hides the
known criterion-2 offset.

A call the program refuses with exit code 2 (a numerical failure) is a
failed operation, not a wrong output; any other error fails the run.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

# Relative tolerance of each reference comparison, against the largest
# magnitude in the compared array.  Refactors that reorder floating-point
# sums move results by about 1e-14; these leave room for that and nothing
# more.
ROUNDING = {
    "estimates": 1e-9,
    "design_moments": 1e-9,
    "gamma": 1e-9,
    "sigma": 1e-6,
    "v": 1e-6,
    "invariant_moments": 1e-9,
}

# Replication increments come from the substream (seed, _TAG_MC, design, k);
# the determinism contract keeps that address fixed across refactors.
_TAG_MC = 5501


def _within(label: str, got, want, rtol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} differs from reference {want.shape}"]
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= rtol * max(scale, 1e-300):
        return [f"{label}: differs by {err:.3g} against scale {scale:.3g} (tolerance {rtol:g} relative)"]
    return []


def _psd(label: str, m: np.ndarray) -> list[str]:
    if m.shape != (2, 2) or not np.isfinite(m).all():
        return [f"{label} is not a finite 2x2 matrix: {m.tolist()}"]
    if abs(m[0, 1] - m[1, 0]) > 1e-12 * float(np.max(np.abs(m))):
        return [f"{label} is not symmetric: {m.tolist()}"]
    low = float(np.linalg.eigvalsh(m).min())
    if low < -1e-10 * float(np.max(np.abs(m))):
        return [f"{label} has negative eigenvalue {low:.3g}"]
    return []


def _lower_triangular(gamma: np.ndarray) -> list[str]:
    if gamma.shape != (2, 2) or not np.isfinite(gamma).all() or gamma[0, 1] != 0.0:
        return [f"Gamma is not finite lower-triangular 2x2: {gamma.tolist()}"]
    return []


class Refused(Exception):
    """The program declined the operation as a numerical failure (exit code 2).

    That is a failed operation, counted in ``failed``; it is not a wrong output.
    """


class _Workload:
    case = ""

    def setup(self, seed: int) -> dict:
        """Import the package and build the law, the models and theta*."""
        from levy_gqmle import experiment

        return {
            "seed": seed,
            "law": experiment.noise_case(self.case),
            "model": experiment.benchmark_model(),
            "true": experiment.true_ou(),
            "theta_star": experiment.optimal_values(self.case),
        }


def _run_cli(argv: list[str]) -> None:
    from levy_gqmle import cli

    code = cli.run(argv)
    if code == 2:
        raise Refused(f"levy-gqmle {' '.join(argv)} exited with code 2")
    if code != 0:
        raise RuntimeError(f"levy-gqmle {' '.join(argv)} exited with code {code}")


class McTableII(_Workload):
    """Replication table, case ii, R = 1000 at the three paper designs."""

    name = "mc_table_ii"
    case = "ii"
    default_seed = 0
    replications = 1000
    designs = [(1000, 0.05), (5000, 0.02), (10000, 0.01)]  # the CLI's default designs

    def params(self, seed: int) -> dict:
        return {"argv": self._argv(seed, "<tmp>"), "designs": self.designs}

    def _argv(self, seed: int, out_dir: str) -> list[str]:
        return ["mc", "--case", "ii", "--replications", str(self.replications),
                "--seed", str(seed), "--out-dir", out_dir]

    def call(self, inputs: dict, out_dir: Path) -> Path:
        _run_cli(self._argv(inputs["seed"], str(out_dir)))
        return out_dir

    def outputs(self, out_dir: Path) -> dict:
        report = json.loads((out_dir / "report.json").read_text())
        designs = []
        for d in report["designs"]:
            failed_k = [int(m.group(1)) for f in d["failures"] if (m := re.match(r"replication (\d+)", f))]
            designs.append({
                "n": d["n"],
                "h": d["h"],
                "n_failed": d["n_failed"],
                "failed_k": failed_k,
                "boundary_count": d["boundary_count"],
                "estimates": np.asarray(d["estimates"], dtype=float).reshape(-1, 2),
            })
        return {"designs": designs}

    def operations(self, out: dict | None) -> tuple[int, int]:
        attempted = 3 * self.replications
        if out is None:
            return attempted, attempted
        return attempted, sum(d["n_failed"] for d in out["designs"])

    def entry(self, out: dict) -> dict:
        return {"designs": [{
            "n": d["n"],
            "h": d["h"],
            "n_failed": d["n_failed"],
            "boundary_count": d["boundary_count"],
            "moments": [*d["estimates"].mean(axis=0), *d["estimates"].std(axis=0, ddof=1)],
            "estimates": d["estimates"].tolist(),
        } for d in out["designs"]]}

    def compare(self, entry: dict, ref: dict) -> list[str]:
        if len(entry["designs"]) != len(ref["designs"]):
            return [f"{len(entry['designs'])} designs, reference has {len(ref['designs'])}"]
        problems = []
        for d, r in zip(entry["designs"], ref["designs"]):
            tag = f"design n={r['n']}"
            for key in ("n", "h", "n_failed", "boundary_count"):
                if d[key] != r[key]:
                    problems.append(f"{tag}: {key} {d[key]} vs reference {r[key]}")
            problems += _within(f"{tag} mean/sd", d["moments"], r["moments"], ROUNDING["design_moments"])
            if "estimates" in r:
                problems += _within(f"{tag} estimates", d["estimates"], r["estimates"], ROUNDING["estimates"])
        return problems

    def gates(self, out: dict, inputs: dict) -> list[str]:
        """Re-simulate and re-fit every replication independently of the package."""
        from levy_gqmle import _util, levy

        model = inputs["model"]
        problems = []
        got = [(d["n"], d["h"]) for d in out["designs"]]
        if got != self.designs:
            return [f"designs {got}, expected {self.designs}"]
        for d_index, d in enumerate(out["designs"]):
            n, h = d["n"], d["h"]
            failed = set(d["failed_k"])
            ks = [k for k in range(self.replications) if k not in failed]
            if len(ks) != len(d["estimates"]):
                problems.append(f"design n={n}: cannot align {len(d['estimates'])} estimates with replications")
                continue
            want = np.empty((len(ks), 2))
            clamped = 0
            for lo in range(0, len(ks), 200):
                block = ks[lo : lo + 200]
                z = np.empty((n, len(block)))
                for j, k in enumerate(block):
                    z[:, j] = levy.sample_increments(inputs["law"], h, n, _util.substream(inputs["seed"], _TAG_MC, d_index, k))
                x = np.empty((n + 1, len(block)))
                x[0] = 0.0
                for i in range(n):  # Euler for dX = -X/2 dt + dZ from x0 = 0
                    x[i + 1] = x[i] + (0.5 * -x[i]) * h + z[i]
                xp, dx = x[:-1], np.diff(x, axis=0)
                # stage one: gamma^2 = sum (dX)^2 (1 + x^2) / (n h); stage two:
                # alpha = sum dX b / c^2 / (h sum b^2 / c^2), b = 1 - x, c^2 = gamma^2 / (1 + x^2)
                g_raw = np.sqrt(np.sum(dx**2 * (1.0 + xp**2), axis=0) / (n * h))
                g_hat = np.clip(g_raw, *model.gamma_box)
                w = (1.0 - xp) * (1.0 + xp**2) / g_hat**2
                a_raw = np.sum(dx * w, axis=0) / (h * np.sum((1.0 - xp) * w, axis=0))
                a_hat = np.clip(a_raw, *model.alpha_box)
                clamped += int(np.count_nonzero((g_hat != g_raw) | (a_hat != a_raw)))
                want[lo : lo + len(block)] = np.column_stack([a_hat, g_hat])
            problems += _within(f"design n={n} independent re-fit", d["estimates"], want, ROUNDING["estimates"])
            if clamped != d["boundary_count"]:
                problems.append(f"design n={n}: boundary_count {d['boundary_count']}, independent re-fit clamps {clamped}")
        return problems


class AsymptoticsI(_Workload):
    """Gamma / Sigma / V pipeline for case i at the acceptance budgets."""

    name = "asymptotics_i"
    case = "i"
    default_seed = 29

    def params(self, seed: int) -> dict:
        return {"argv": self._argv(seed, "<tmp>"), "t_max": 40.0, "step": 0.01}

    def _argv(self, seed: int, out_dir: str) -> list[str]:
        return ["asymptotics", "--case", "i", "--budget", "40000", "--m", "1500",
                "--seed", str(seed), "--out-dir", out_dir]

    def call(self, inputs: dict, out_dir: Path) -> Path:
        _run_cli(self._argv(inputs["seed"], str(out_dir)))
        return out_dir

    def outputs(self, out_dir: Path) -> dict:
        obj = json.loads((out_dir / "asymptotics.json").read_text())
        return {key: np.asarray(obj[src], dtype=float) for key, src in (("gamma", "Gamma"), ("sigma", "Sigma"), ("v", "V"))}

    def operations(self, out: dict | None) -> tuple[int, int]:
        return 1, int(out is None)

    def entry(self, out: dict) -> dict:
        return {key: out[key].tolist() for key in ("gamma", "sigma", "v")}

    def compare(self, entry: dict, ref: dict) -> list[str]:
        return [p for key in ("gamma", "sigma", "v") for p in _within(key, entry[key], ref[key], ROUNDING[key])]

    def gates(self, out: dict, inputs: dict) -> list[str]:
        # Gamma here averages only 40000 invariant states: Gamma_alphaalpha
        # scatters about 2.4% (sd over seeds) around 6.015, too wide for the
        # analytic 2% gate, so only its sign pattern is gated.
        gamma = out["gamma"]
        problems = _psd("Sigma", out["sigma"]) + _psd("V", out["v"]) + _lower_triangular(gamma)
        if not problems and not (gamma[0, 0] < 0.0 < gamma[1, 1]):
            problems.append(f"Gamma diagonal has the wrong signs: {gamma.tolist()}")
        return problems


class InvariantIII(_Workload):
    """Criterion 5's case-iii call: a 600000-state invariant sample, then Gamma."""

    name = "invariant_iii"
    case = "iii"
    default_seed = 33
    # criterion 5: Gamma_gammagamma = -2 and Gamma_alphaalpha = 3 - 2 m3 + m4
    # = 829/150 for case iii, each within 2%; over seeds 0-15 the largest
    # deviation seen was 0.75%
    alpha_target = 829.0 / 150.0
    curvature_rel = 0.02

    def params(self, seed: int) -> dict:
        return {"sample_invariant": {"case": "iii", "budget": 600000, "seed": seed, "step": 0.005},
                "gamma_matrix": "benchmark_model(), true_ou(), optimal_values('iii')"}

    def call(self, inputs: dict, out_dir: Path) -> dict:
        from levy_gqmle import NumericalError, asymptotics

        try:
            inv = asymptotics.sample_invariant(inputs["true"], inputs["law"], budget=600000, seed=inputs["seed"], step=0.005)
            gamma = asymptotics.gamma_matrix(inputs["model"], inputs["true"], inputs["theta_star"], inv)
        except NumericalError as exc:
            raise Refused(str(exc)) from exc
        return {"states": inv.states, "gamma": gamma}

    def outputs(self, raw: dict) -> dict:
        states = np.asarray(raw["states"], dtype=float)
        return {"size": int(states.size), "moments": [float(np.mean(states)), float(np.var(states))],
                "gamma": np.asarray(raw["gamma"], dtype=float)}

    def operations(self, out: dict | None) -> tuple[int, int]:
        return 1, int(out is None)

    def entry(self, out: dict) -> dict:
        return {"size": out["size"], "moments": out["moments"], "gamma": out["gamma"].tolist()}

    def compare(self, entry: dict, ref: dict) -> list[str]:
        problems = [] if entry["size"] == ref["size"] else [f"sample size {entry['size']} vs reference {ref['size']}"]
        problems += _within("mean, variance", entry["moments"], ref["moments"], ROUNDING["invariant_moments"])
        return problems + _within("gamma", entry["gamma"], ref["gamma"], ROUNDING["gamma"])

    def gates(self, out: dict, inputs: dict) -> list[str]:
        problems = [] if out["size"] == 600000 else [f"sample has {out['size']} states, asked for 600000"]
        mean, var = out["moments"]
        if not (math.isfinite(mean) and abs(var - 1.0) <= 0.10):
            problems.append(f"sample mean {mean:.4g}, variance {var:.4g}: stationary variance is 1")
        gamma = out["gamma"]
        problems += _lower_triangular(gamma)
        if problems:
            return problems
        if abs(gamma[0, 0] + 2.0) > self.curvature_rel * 2.0:
            problems.append(f"Gamma_gammagamma {gamma[0, 0]:.5f} not within 2% of -2")
        if abs(gamma[1, 1] - self.alpha_target) > self.curvature_rel * self.alpha_target:
            problems.append(f"Gamma_alphaalpha {gamma[1, 1]:.5f} not within 2% of 829/150")
        return problems


WORKLOADS = {w.name: w for w in (McTableII(), AsymptoticsI(), InvariantIII())}
