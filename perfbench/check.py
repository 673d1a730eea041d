"""Independent check of a certificate report against its input vectors.

Recomputes everything from the vectors with numpy alone; it does not use
frame_partition.analysis or frame_partition.fileio.  Run this file to run
the checker's self-test on hand-made cases:

    python3 perfbench/check.py
"""

from __future__ import annotations

import sys

import numpy as np

TOL = 1e-9  # the CLI's default --tol
# The partitioners choose the level count for B + 1e-9, which can add one
# level when B sits just below a power-of-two breakpoint.
LEVEL_ALLOWANCE = 1e-9


def least_levels(b: float) -> int:
    """Smallest m >= 0 with (b - 1) / 2^m < 1."""
    m = 0
    while (b - 1.0) / 2.0**m >= 1.0:
        m += 1
    return m


def check_report(vectors: np.ndarray, report: dict) -> list[str]:
    """Return one message per claim of the report that does not hold."""
    v = np.asarray(vectors, dtype=np.complex128)
    n = v.shape[0]
    blocks = [list(b["indices"]) for b in report["blocks"]]
    if sorted(i for b in blocks for i in b) != list(range(n)):
        return [f"blocks do not cover 0..{n - 1} disjointly"]
    errors = []
    levels = report["levels"]
    if len(blocks) > 2**levels:
        errors.append(f"{len(blocks)} blocks exceed 2^levels = {2**levels}")

    g = v @ v.conj().T
    mag = np.abs(g)
    off = mag.copy()
    np.fill_diagonal(off, 0.0)
    schur = float(mag.sum(axis=1).max())
    spectral = float(np.linalg.eigvalsh(g)[-1])
    feichtinger = report["mode"] == "feichtinger"
    b = schur if feichtinger else spectral
    bounds = report["global_bounds"]
    for key, value in (("schur_B", schur), ("spectral_B", spectral), ("bessel_B_used", b)):
        if abs(bounds[key] - value) > TOL * max(1.0, value):
            errors.append(f"{key}: reported {bounds[key]!r}, recomputed {value!r}")
    allowed = {least_levels(b), least_levels(b + LEVEL_ALLOWANCE)}
    if levels not in allowed:
        errors.append(f"levels: reported {levels}, least level count for B={b!r} is {allowed}")
    target = (b - 1.0) / 2.0**levels
    if abs(report["target"] - target) > TOL:
        errors.append(f"target: reported {report['target']!r}, recomputed {target!r}")
    if report["all_certified"] is not True:
        errors.append("all_certified is not true")

    weight = off if feichtinger else off**2
    for pos, (idx, claimed) in enumerate(zip(blocks, report["blocks"])):
        sub = np.ix_(idx, idx)
        worst = float(weight[sub].sum(axis=0).max())
        if worst > target + TOL:
            errors.append(f"block {pos}: in-block weight {worst!r} exceeds (B-1)/2^m = {target!r}")
        eigs = np.linalg.eigvalsh(g[sub])
        values = {
            "sigma": float(off[sub].sum(axis=0).max()),
            "eta": float((off[sub] ** 2).sum(axis=0).max()),
            "gamma": float(off[sub].max()),
            "lambda_min": float(eigs[0]),
            "lambda_max": float(eigs[-1]),
        }
        for key, value in values.items():
            if abs(claimed[key] - value) > TOL:
                errors.append(f"block {pos}: {key} reported {claimed[key]!r}, recomputed {value!r}")
        if feichtinger:
            if not values["sigma"] < 1.0:
                errors.append(f"block {pos}: sigma {values['sigma']!r} is not below 1")
            if values["lambda_min"] < 1.0 - values["sigma"] - TOL:
                errors.append(f"block {pos}: lambda_min below 1 - sigma")
        elif not values["eta"] < 1.0:
            errors.append(f"block {pos}: eta {values['eta']!r} is not below 1")
        if claimed["certified"] is not True:
            errors.append(f"block {pos}: not marked certified")
    return errors


def _block(indices, sigma, eta, gamma, lambda_min, lambda_max, certified=True):
    return {
        "indices": indices,
        "sigma": sigma,
        "eta": eta,
        "gamma": gamma,
        "lambda_min": lambda_min,
        "lambda_max": lambda_max,
        "certified": certified,
    }


def _report(mode, spectral, schur, levels, target, blocks, all_certified=True):
    used = schur if mode == "feichtinger" else spectral
    return {
        "mode": mode,
        "global_bounds": {"spectral_B": spectral, "schur_B": schur, "bessel_B_used": used},
        "levels": levels,
        "target": target,
        "blocks": blocks,
        "all_certified": all_certified,
    }


def self_test() -> list[str]:
    """Hand-made cases; returns the names of the cases the checker gets wrong."""
    copies = np.tile([1.0, 0.0], (3, 1))  # three copies of e1: B = 3, |G_ij| = 1
    singles = [_block([i], 0.0, 0.0, 0.0, 1.0, 1.0) for i in range(3)]
    pair = np.array([[1.0, 0.0], [0.5, 3**0.5 / 2]])  # <f0, f1> = 1/2
    pair_block = [_block([0, 1], 0.5, 0.25, 0.5, 0.5, 1.5)]
    good = {
        "copies feichtinger": (copies, _report("feichtinger", 3.0, 3.0, 2, 0.5, singles)),
        "copies uniform": (copies, _report("uniform", 3.0, 3.0, 2, 0.5, singles)),
        "orthonormal": (
            np.eye(2),
            _report("uniform", 1.0, 1.0, 0, 0.0, [_block([0, 1], 0.0, 0.0, 0.0, 1.0, 1.0)]),
        ),
        "pair feichtinger": (pair, _report("feichtinger", 1.5, 1.5, 0, 0.5, pair_block)),
        "pair uniform": (pair, _report("uniform", 1.5, 1.5, 0, 0.5, pair_block)),
    }
    joined = [_block([0, 1], 1.0, 1.0, 1.0, 0.0, 2.0, False), _block([2], 0.0, 0.0, 0.0, 1.0, 1.0)]
    bad = {
        "wrong partition": (copies, _report("feichtinger", 3.0, 3.0, 2, 0.5, joined)),
        "overlapping blocks": (
            copies,
            _report("feichtinger", 3.0, 3.0, 2, 0.5, [singles[0], _block([0, 1, 2], 2, 2, 1, 0, 3)]),
        ),
        "too few levels": (copies, _report("feichtinger", 3.0, 3.0, 1, 1.0, singles)),
        "too many levels": (copies, _report("feichtinger", 3.0, 3.0, 3, 0.25, singles)),
        "target -3": (copies, _report("feichtinger", 3.0, 3.0, 2, -3.0, singles)),
        "schur_B 0.01": (copies, _report("feichtinger", 3.0, 0.01, 2, 0.5, singles)),
        "all_certified flipped": (copies, _report("uniform", 3.0, 3.0, 2, 0.5, singles, False)),
        "sigma moved": (
            pair,
            _report("feichtinger", 1.5, 1.5, 0, 0.5, [_block([0, 1], 0.5 + 1e-6, 0.25, 0.5, 0.5, 1.5)]),
        ),
        "lambda_min moved": (
            pair,
            _report("uniform", 1.5, 1.5, 0, 0.5, [_block([0, 1], 0.5, 0.25, 0.5, -5.0, 1.5)]),
        ),
    }
    wrong = [name for name, (v, r) in good.items() if check_report(v, r)]
    wrong += [name for name, (v, r) in bad.items() if not check_report(v, r)]
    return wrong


if __name__ == "__main__":
    failures = self_test()
    print("checker self-test: " + ("ok" if not failures else f"FAILED {failures}"))
    sys.exit(1 if failures else 0)
