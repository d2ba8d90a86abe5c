"""Seeded generator of the `dense` instance: non-separable, n = 4, d = 2.

The instance is (f1, f2) = (F1(U x), F2(U x)) with fixed forms F1, F2 and
U = P U0, where U0 is a fixed unimodular matrix and P a permutation matrix
drawn from the seed.  Both fix X0 = (1, 1, 1, 1).  The shape is the same
for every seed:

* F1 is positive-definite: each diagonal coefficient exceeds half the sum
  of the absolute cross coefficients in its row (diagonal dominance).  As U
  is invertible, f1 is positive-definite too.
* F2 is indefinite and vanishes at X0 with nonzero gradient, so f2 does as
  well, with gradient U^T grad F2(X0): J > 0 and the counts grow.
* Both forms carry all ten quadratic monomials, so they connect all four
  variables: no variable block splits off and every layer takes its direct
  path.

The draw does not move the work:

* U is invertible mod every q, so the joint distribution of (f1, f2) mod q
  is the same for every seed, and with it every Birch table and every
  p-adic lift tree with its undecided residues.
* F1 is symmetric in its variables, so f1 = F1(U0 x) for every seed.  Its
  values over a box, and with them the sums-of-two-squares sieves the
  counts build, are the same for every seed.
* Evaluation costs the same because every form has all ten monomials.

P moves f2 against f1, so the counts and the real density J depend on the
seed.  So does the peak RSS, by up to 15 percent: the lift trees are built
in fixed-size chunks, and the share of the solutions that falls into each
chunk differs, which leaves the allocator's heap in a different state.
"""

from __future__ import annotations

import json
import random

N_VARS = 4
X0 = (1, 1, 1, 1)
# Hessians H of x^T H x / 2.  F1 = 2 sum x_i^2 + sum_{i<j} x_i x_j.
# F2 = x0^2 + x1^2 + x2^2 - 2 x3^2 + x0 x1 - x1 x2 - x2 x3 has Hessian
# determinant -19, prime to 2, 3, 5 and 7.  Of the F1 tried, this one keeps
# the p = 3 density at p_max 7 near 8 s and 0.4 GB; others took up to 59 s
# and 4.6 GB.
F1_HESSIAN = ((4, 1, 1, 1), (1, 4, 1, 1), (1, 1, 4, 1), (1, 1, 1, 4))
F2_HESSIAN = ((2, 1, 0, 0), (1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, -4))
# unimodular (triangular, unit diagonal), rows summing to 1 so U0 X0 = X0
U0 = ((1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 1, 0), (1, -2, 1, 1))
N_MONOMIALS = N_VARS * (N_VARS + 1) // 2


def _form_records(hess) -> list:
    """{coeff, exps} records of the quadratic form x^T H x / 2."""
    recs = []
    for i in range(N_VARS):
        for j in range(i, N_VARS):
            coeff = hess[i][i] // 2 if i == j else hess[i][j]
            if coeff:
                exps = [0] * N_VARS
                exps[i] += 1
                exps[j] += 1
                recs.append({"coeff": coeff, "exps": exps})
    return recs


def _matmul(a, b) -> list:
    return [[sum(a[r][t] * b[t][c] for t in range(N_VARS))
             for c in range(N_VARS)] for r in range(N_VARS)]


def _transpose(a) -> list:
    return [list(row) for row in zip(*a)]


def _permutation(rng: random.Random) -> list:
    order = rng.sample(range(N_VARS), N_VARS)
    return [[int(c == order[r]) for c in range(N_VARS)] for r in range(N_VARS)]


def dense_config(seed: int) -> dict:
    """Instance config for one seed; equal seeds give equal configs."""
    rng = random.Random(f"dense-{seed}")
    while True:
        u = _matmul(_permutation(rng), U0)
        f1, f2 = (_form_records(_matmul(_transpose(u), _matmul(hess, u)))
                  for hess in (F1_HESSIAN, F2_HESSIAN))
        if len(f1) == len(f2) == N_MONOMIALS:
            return {"label": f"dense-{seed}", "n": N_VARS, "d": 2,
                    "f1": f1, "f2": f2}


def write_config(cfg: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
        fh.write("\n")
