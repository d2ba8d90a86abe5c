"""Archimedean densities by reproducible Monte Carlo.

real_density estimates the surface density of f2 = 0 in the unit box,
restricted to the region where the fibre conic has a real point, i.e.
f1(t) >= 0:

    J = lim_{eps->0} (1/2 eps) vol{t in [-1,1]^n : |f2(t)| <= eps, f1(t) >= 0}

via shell volumes over a decreasing epsilon schedule plus Richardson-style
extrapolation in eps^2.  real_density_coarea is an independent estimator:
it integrates one coordinate exactly through polynomial root finding
and weights each surface crossing by 1/|df2/dt_j|.

Samples come in counter-based chunks of at most 2^18 points: chunk i of a
stream is one draw from Philox keyed by (seed, stream, i).  _blocks draws
a chunk in blocks of at most blocks.WORK_BLOCK coordinates (2^14 points
at n = 4), and one copy both transposes a block into contiguous coordinate
rows and doubles it; the draw and the rows are two buffers that every
block of a chunk reuses.  A block so stays in cache while
Form.evaluate_batch (the one evaluator of every form here, in place in
its own two buffers) works through it.  The estimators run
their chunks on a pool of `threads` threads (blocks.pool_map) and combine
the chunks' results in chunk order: shell hits are ints and the fibre
estimator's weights are summed chunk by chunk, so results are
bit-reproducible for a given (seed, samples) whatever the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .arith import DomainError
from .forms import Form, Instance

_CHUNK = 1 << 18  # points per chunk: it defines the random streams
DEFAULT_SAMPLES = 10**6
_MASK64 = (1 << 64) - 1


@dataclass
class McEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    value: complex
    std_error: float
    samples: int
    seed: int
    rows: list = field(default_factory=list)

    @staticmethod
    def csv_header() -> str:
        return "epsilon,volume_estimate,std_error,samples,seed"

    def csv_rows(self) -> list:
        """One row per epsilon level, then the extrapolated value at 0."""
        lines = [f"{eps:.10g},{j:.12g},{se:.12g},{n_i},{self.seed}"
                 for (eps, j, se, n_i) in self.rows]
        lines.append(f"0,{self.value.real:.12g},{self.std_error:.12g},"
                     f"{self.samples},{self.seed}")
        return lines


def _chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, ((stream & 0xFFFFFFFF) << 32)
                    | (chunk & 0xFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(samples: int, chunk: int = _CHUNK) -> list:
    """(index, size) of each chunk of a stream of `samples` points."""
    return [(i, min(chunk, samples - start))
            for i, start in enumerate(range(0, samples, chunk))]


def _blocks(seed: int, stream: int, index: int, m: int, n: int):
    """The m points of chunk `index` of a stream, uniform in [-1,1]^n, as
    contiguous (n, k) coordinate rows of n k <= blocks.WORK_BLOCK values.

    Together the blocks are rng.uniform(-1, 1, (m, n)).T for rng =
    _chunk_rng(seed, stream, index), bit for bit: the generator's stream
    does not depend on how a draw is split, and 2u - 1 is -1 + 2u exactly
    (2u is exact).  The doubling is done by the copy that transposes the
    draw into rows.  Every block is a view of the same two buffers, so a
    block is valid until the next one is drawn."""
    rng = _chunk_rng(seed, stream, index)
    step = max(1, blocks.WORK_BLOCK // n)
    draw, rows = np.empty(min(step, m) * n), np.empty(min(step, m) * n)
    for start in range(0, m, step):
        k = min(step, m - start)
        u = draw[:k * n].reshape(k, n)
        rng.random(out=u)
        block = rows[:k * n].reshape(n, k)
        np.multiply(u.T, 2.0, out=block)
        block -= 1.0
        yield block


def _chunk_points(seed: int, stream: int, index: int, m: int,
                  n: int) -> np.ndarray:
    """All m points of a chunk as one (n, m) array of coordinate rows."""
    pts = np.empty((n, m))
    start = 0
    for block in _blocks(seed, stream, index, m, n):
        pts[:, start:start + block.shape[1]] = block
        start += block.shape[1]
    return pts


def oscillatory_box_integral(inst: Instance, gamma, samples: int,
                             seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of the box integral of
    e(gamma1*f1(t) + gamma2*f2(t)) over [-1,1]^n.

    gamma = (0, 0) short-circuits to the exact value 2^n.
    """
    if samples < 10**3:
        raise DomainError("need at least 1000 samples")
    g1, g2 = float(gamma[0]), float(gamma[1])
    n = inst.n
    vol = 2.0 ** n
    if g1 == 0.0 and g2 == 0.0:
        return McEstimate(value=complex(vol), std_error=0.0,
                          samples=samples, seed=seed)
    acc = 0.0 + 0.0j
    acc2_re = acc2_im = 0.0
    for i, m in _chunks(samples):
        pts = _chunk_points(seed, 1, i, m, n)
        phase = (g1 * inst.f1.evaluate_batch(pts, 1)
                 + g2 * inst.f2.evaluate_batch(pts, 1))
        z = np.exp(2j * np.pi * phase)
        acc += z.sum()
        acc2_re += float((z.real ** 2).sum())
        acc2_im += float((z.imag ** 2).sum())
    mean = acc / samples
    var_re = acc2_re / samples - mean.real ** 2
    var_im = acc2_im / samples - mean.imag ** 2
    se = vol * math.sqrt(max(var_re + var_im, 0.0) / samples)
    return McEstimate(value=complex(vol * mean), std_error=se,
                      samples=samples, seed=seed)


DEFAULT_SCHEDULE = (0.1, 0.05, 0.025, 0.0125)


def real_density(inst: Instance, epsilon_schedule=DEFAULT_SCHEDULE,
                 samples: int = DEFAULT_SAMPLES, seed: int = 0,
                 threads: int = 1) -> McEstimate:
    """Shell-volume estimate of the restricted surface density J.

    Only inst.f1, inst.f2 and inst.n are read: the fibre condition enters
    through the sign of f1, never through box_max_m.

    Sample counts scale like 1/eps so every level sees a comparable number
    of shell hits; the levels are combined by weighted least squares in
    eps (Richardson-style: curvature and any cone point make the shell
    bias first order in the width), reported at eps -> 0.  The chunks of
    every level run on one pool of `threads` threads.
    """
    sched = list(epsilon_schedule)
    if len(sched) < 3:
        raise DomainError("need at least 3 epsilon levels")
    if any(b >= a for a, b in zip(sched, sched[1:])):
        raise DomainError("epsilon schedule must be strictly decreasing")
    sizes = [int(math.ceil(samples * sched[0] / eps)) for eps in sched]
    tasks = [(level, index, m) for level, n_i in enumerate(sizes)
             for index, m in _chunks(n_i)]

    def chunk_hits(task) -> int:  # points with |f2| <= eps and f1 >= 0
        level, index, m = task
        count = 0
        for pts in _blocks(seed, 10 + level, index, m, inst.n):
            v2 = inst.f2.evaluate_batch(pts, 1)
            sel = np.abs(v2, out=v2) <= sched[level]
            if sel.any():
                v1 = inst.f1.evaluate_batch(pts[:, sel], 1)
                count += int((v1 >= 0.0).sum())
        return count

    hits = [0] * len(sched)
    for (level, _, _), h in zip(tasks,
                                blocks.pool_map(chunk_hits, tasks, threads)):
        hits[level] += h
    vol = 2.0 ** inst.n
    rows = []
    for eps, n_i, h in zip(sched, sizes, hits):
        phat = h / n_i
        est = vol * phat / (2.0 * eps)
        se = vol * math.sqrt(max(phat * (1.0 - phat), 0.0) / n_i) / (2.0 * eps)
        rows.append((eps, est, se, n_i))
    # weighted LS fit est_i = J0 + a * eps_i
    x = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    w = np.array([1.0 / max(r[2], 1e-12) ** 2 for r in rows])
    A = np.stack([np.ones_like(x), x], axis=1)
    Aw = A * w[:, None]
    cov = np.linalg.inv(Aw.T @ A)
    coefs = cov @ (Aw.T @ y)
    j0 = float(coefs[0])
    se0 = float(math.sqrt(max(cov[0, 0], 0.0)))
    return McEstimate(value=complex(j0), std_error=se0, samples=sum(sizes),
                      seed=seed, rows=rows)


def _fiber_variable(f2: Form) -> int:
    """Coordinate to integrate exactly: prefer one carrying a pure power."""
    best = None
    for j in range(f2.n_vars):
        deg_j = max((e[j] for _, e in f2.monomials), default=0)
        pure = any(e[j] == f2.degree and sum(e) == e[j]
                   for _, e in f2.monomials)
        if deg_j > 0:
            score = (1 if pure else 0, deg_j)
            if best is None or score > best[0]:
                best = (score, j)
    if best is None:
        raise DomainError("f2 involves no variable")
    return best[1]


def _poly_coeff_arrays(f2: Form, j: int, pts: np.ndarray):
    """Coefficients of f2 as a polynomial in t_j, per point of the other
    n-1 coordinates (an (n-1, m) array), as an (m, deg_j + 1) array.

    The coefficient of t_j^k is the form of f2's monomials with exponent k
    in t_j, evaluated with coordinate j set to ones (multiplying by 1.0 is
    exact)."""
    m = pts.shape[1]
    full = np.insert(pts, j, 1.0, axis=0)
    dmax = max(e[j] for _, e in f2.monomials)
    coeffs = np.zeros((m, dmax + 1))
    for k in range(dmax + 1):
        group = tuple(mono for mono in f2.monomials if mono[1][j] == k)
        if group:
            coeffs[:, k] = Form(f2.n_vars, f2.degree,
                                group).evaluate_batch(full, 1)
    return coeffs


def _roots_in_box(coeffs: np.ndarray):
    """Real roots in [-1, 1] of each row of a coefficient matrix
    (c0 + c1 x + ...), flattened to (row_indices, root_values).

    Rows are grouped by effective degree; degree <= 2 uses closed forms,
    higher degrees use batched companion matrices.
    """
    m, k = coeffs.shape
    scale = np.abs(coeffs).max(axis=1)
    eff = np.full(m, -1)
    for d in range(k - 1, -1, -1):
        cand = (eff < 0) & (np.abs(coeffs[:, d]) > 1e-12 * np.maximum(scale, 1e-30))
        eff[cand] = d
    idx_parts, root_parts = [], []
    for d in range(1, k):
        rows = np.nonzero(eff == d)[0]
        if len(rows) == 0:
            continue
        c = coeffs[rows, :d + 1]
        if d == 1:
            roots = (-c[:, 0] / c[:, 1])[:, None].astype(np.complex128)
        elif d == 2:
            a, b, cc = c[:, 2], c[:, 1], c[:, 0]
            sq = np.sqrt((b * b - 4 * a * cc).astype(np.complex128))
            roots = np.stack([(-b + sq) / (2 * a), (-b - sq) / (2 * a)], axis=1)
        else:
            lead = c[:, d][:, None]
            comp = np.zeros((len(rows), d, d))
            comp[:, 1:, :-1] = np.eye(d - 1)
            comp[:, :, -1] = -c[:, :d] / lead
            roots = np.linalg.eigvals(comp)
        good = (np.abs(roots.imag) <= 1e-9) & (roots.real >= -1.0) \
            & (roots.real <= 1.0)
        where_row, where_col = np.nonzero(good)
        idx_parts.append(rows[where_row])
        root_parts.append(roots.real[where_row, where_col])
    if not idx_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    return np.concatenate(idx_parts), np.concatenate(root_parts)


def real_density_coarea(inst: Instance, samples: int = DEFAULT_SAMPLES,
                        seed: int = 0, threads: int = 1) -> McEstimate:
    """Independent estimator of J: exact 1-d fibre integration.

    For each sampled point of the remaining n-1 coordinates, the real roots
    of f2 along the fibre coordinate are found exactly and each root in the
    box with f1 >= 0 contributes 1/|df2/dt_j|.  The weight distribution is
    heavy-tailed near critical points, so the standard error is estimated
    from 64 batch means rather than the per-sample variance.  Chunks run
    on a pool of `threads` threads; their weights are summed in chunk
    order.
    """
    if samples < 10**3:
        raise DomainError("need at least 1000 samples")
    j = _fiber_variable(inst.f2)
    n = inst.n
    # size chunks so the batch-means error estimate always has >= 64 cells
    chunks = _chunks(samples, max(500, min(_CHUNK, -(-samples // 64))))

    def chunk_weight(task) -> float:
        pts = _chunk_points(seed, 99, *task, n - 1)
        coeffs = _poly_coeff_arrays(inst.f2, j, pts)
        dpoly = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
        rows, roots = _roots_in_box(coeffs)
        if not len(rows):
            return 0.0
        dval = np.zeros(len(rows))
        for dd in range(dpoly.shape[1]):
            dval += dpoly[rows, dd] * roots ** dd
        keep = np.abs(dval) >= 1e-12
        rows, roots, dval = rows[keep], roots[keep], dval[keep]
        v1 = inst.f1.evaluate_batch(
            np.insert(pts[:, rows], j, roots, axis=0), 1)
        return float((1.0 / np.abs(dval[v1 >= 0.0])).sum())

    weights = blocks.pool_map(chunk_weight, chunks, threads)
    total_w = 0.0
    for w in weights:  # chunk order, one rounding per chunk
        total_w += w
    vol = 2.0 ** (n - 1)
    mean = total_w / samples
    # 64 batch means for a heavy-tail-robust standard error
    nb = min(64, len(chunks)) if len(chunks) > 1 else 1
    if nb > 1:
        ws = np.array(weights)
        ms = np.array([m for _, m in chunks])
        groups = np.array_split(np.arange(len(ws)), nb)
        bm = np.array([ws[g].sum() / ms[g].sum() for g in groups])
        se = vol * float(bm.std(ddof=1) / math.sqrt(nb))
    else:
        se = float("nan")
    return McEstimate(value=complex(vol * mean), std_error=se,
                      samples=samples, seed=seed)
