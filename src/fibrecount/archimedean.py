"""Archimedean densities by reproducible Monte Carlo.

The real density J is the surface density of f2 = 0 in the unit box,
restricted to the region where the fibre conic has a real point, i.e.
f1(t) >= 0:

    J = lim_{eps->0} (1/2 eps) vol{t in [-1,1]^n : |f2(t)| <= eps, f1(t) >= 0}
      = integral over {f2 = 0, f1 >= 0} of dA / |grad f2|   (coarea formula)

real_density_coarea estimates the integral in gradient charts: chart j is
where |df2/dt_j| is the largest partial derivative, and there the surface
is a graph over the other n-1 coordinates, found by polynomial root
finding along t_j.  Each root weighs n/|df2/dt_j| <= n sqrt(n)/|grad f2|,
bounded off the singular points of f2.  It is the estimator the constant
pipeline (constant.pipeline) reads.  real_density is the independent
cross-check: shell volumes at the fixed widths SCHEDULE plus
Richardson-style extrapolation in eps.  Both refuse n <= d, where J is
infinite, and every estimator refuses fewer than 1000 samples.

Every estimator uses one stream layout: a stream of `samples` points is
cut into the counter-based chunks of _chunks, 2^18 points each but the
last, and chunk i of a stream is one draw from Philox keyed by
(seed, stream, i).  _blocks draws a chunk in blocks of at most
blocks.WORK_BLOCK coordinates (2^14 points at n = 4), and one copy both
transposes a block into contiguous coordinate rows and doubles it; the
draw and the rows are two buffers that every block of a chunk reuses.  A
block so stays in cache while Form.evaluate_batch (the one evaluator of
every form here, in place in its own two buffers) works through it, and
no estimator holds a whole chunk.  The J estimators run their chunks on a
pool of `threads` threads (blocks.pool_map) and combine the chunks'
results in chunk order: shell hits are ints and the coarea estimator's
batch sums are added chunk by chunk, so results are bit-reproducible for
a given (seed, samples) whatever the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .arith import DomainError
from .forms import Form, Instance

_CHUNK = 1 << 18  # points per chunk: it defines the random streams
_BATCHES = 64  # batch means of the coarea error
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


def _chunks(samples: int) -> list:
    """(index, size) of each chunk of a stream of `samples` points."""
    return [(i, min(_CHUNK, samples - start))
            for i, start in enumerate(range(0, samples, _CHUNK))]


def _refuse_few(samples: int) -> None:
    if samples < 10**3:
        raise DomainError("need at least 1000 samples")


def _refuse_infinite(inst) -> None:
    """Refuse n <= d, where J is infinite: near the cone point 0 of f2 = 0
    the surface measure grows like r^(n-2) dr while |grad f2| ~ r^(d-1),
    so dA/|grad f2| ~ r^(n-d-1) dr is not integrable at 0."""
    if inst.n <= inst.f2.degree:
        raise DomainError(f"J is infinite for n = {inst.n} <= d = "
                          f"{inst.f2.degree}: the cone point of f2 = 0 "
                          "carries infinite density")


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


def oscillatory_box_integral(inst: Instance, gamma, samples: int,
                             seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of the box integral of
    e(gamma1*f1(t) + gamma2*f2(t)) over [-1,1]^n.

    gamma = (0, 0) short-circuits to the exact value 2^n.
    """
    _refuse_few(samples)
    g1, g2 = float(gamma[0]), float(gamma[1])
    n = inst.n
    vol = 2.0 ** n
    if g1 == 0.0 and g2 == 0.0:
        return McEstimate(value=complex(vol), std_error=0.0,
                          samples=samples, seed=seed)
    acc = 0.0 + 0.0j
    acc2_re = acc2_im = 0.0
    for i, m in _chunks(samples):
        for pts in _blocks(seed, 1, i, m, n):
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


SCHEDULE = (0.1, 0.05, 0.025, 0.0125)  # the shell widths eps, decreasing


def real_density(inst: Instance, samples: int = DEFAULT_SAMPLES,
                 seed: int = 0, threads: int = 1) -> McEstimate:
    """Shell-volume estimate of the restricted surface density J.

    Only inst.f1, inst.f2 and inst.n are read: the fibre condition enters
    through the sign of f1, never through box_max_m.

    Level eps of SCHEDULE draws samples * SCHEDULE[0] / eps points, so
    every level sees a comparable number of shell hits; the levels are
    combined by weighted least squares in eps (Richardson-style: curvature
    and any cone point make the shell bias first order in the width),
    reported at eps -> 0.  The chunks of every level run on one pool of
    `threads` threads.
    """
    _refuse_few(samples)
    _refuse_infinite(inst)
    sizes = [int(math.ceil(samples * SCHEDULE[0] / eps)) for eps in SCHEDULE]
    tasks = [(level, index, m) for level, n_i in enumerate(sizes)
             for index, m in _chunks(n_i)]

    def chunk_hits(task) -> int:  # points with |f2| <= eps and f1 >= 0
        level, index, m = task
        count = 0
        for pts in _blocks(seed, 10 + level, index, m, inst.n):
            v2 = inst.f2.evaluate_batch(pts, 1)
            sel = np.abs(v2, out=v2) <= SCHEDULE[level]
            if sel.any():
                v1 = inst.f1.evaluate_batch(pts[:, sel], 1)
                count += int((v1 >= 0.0).sum())
        return count

    hits = [0] * len(SCHEDULE)
    for (level, _, _), h in zip(tasks,
                                blocks.pool_map(chunk_hits, tasks, threads)):
        hits[level] += h
    vol = 2.0 ** inst.n
    rows = []
    for eps, n_i, h in zip(SCHEDULE, sizes, hits):
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


def _roots_in_box(coeffs: np.ndarray):
    """Real roots in [-1, 1] of each column of a coefficient matrix (row k
    holds the coefficient of x^k), flattened to (column_indices,
    root_values).

    Columns are grouped by effective degree.  Degrees 1 and 2 are solved
    in real arithmetic, the quadratic by the cancellation-free pair q/a,
    c/q with q = -(b + sign(b) sqrt(b^2 - 4ac))/2; higher degrees use
    batched companion matrices.
    """
    k, m = coeffs.shape
    mag = np.abs(coeffs)
    big = mag[1:] > 1e-12 * mag.max(axis=0)
    eff = np.zeros(m, dtype=np.int64)  # columns left at 0 have no roots
    for d in range(1, k):
        eff[big[d - 1]] = d
    idx_parts, root_parts = [], []

    def keep(cols, roots):
        sel = np.flatnonzero(np.abs(roots) <= 1.0)
        idx_parts.append(cols[sel])
        root_parts.append(roots[sel])

    for d in range(1, k):
        cols = np.flatnonzero(eff == d)
        if not len(cols):
            continue
        c = coeffs[:d + 1] if len(cols) == m else \
            np.take(coeffs[:d + 1], cols, axis=1)
        if d == 1:
            keep(cols, -c[0] / c[1])
        elif d == 2:
            disc = c[1] * c[1] - 4.0 * c[2] * c[0]
            real = np.flatnonzero(disc >= 0.0)
            cols, a, b, c0 = cols[real], c[2][real], c[1][real], c[0][real]
            q = -0.5 * (b + np.copysign(np.sqrt(disc[real]), b))
            keep(cols, q / a)
            # q = 0 only at the double root 0 (b = 0 = c0)
            keep(cols, np.divide(c0, q, out=np.zeros_like(q), where=q != 0.0))
        else:
            comp = np.zeros((len(cols), d, d))
            comp[:, 1:, :-1] = np.eye(d - 1)
            comp[:, :, -1] = (-c[:d] / c[d]).T
            roots = np.linalg.eigvals(comp)
            where_col, where_k = np.nonzero(np.abs(roots.imag) <= 1e-9)
            keep(cols[where_col], roots.real[where_col, where_k])
    if not idx_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    return np.concatenate(idx_parts), np.concatenate(root_parts)


def real_density_coarea(inst: Instance, samples: int = DEFAULT_SAMPLES,
                        seed: int = 0, threads: int = 1) -> McEstimate:
    """Estimator of J from the coarea formula in gradient charts.

    Chart j is the part of {f2 = 0} where |df2/dt_j| is the largest
    partial derivative (ties go to the first index); there the surface is
    a graph over the other n-1 coordinates t'.  Sample i of a chunk takes
    chart i mod n, draws t' and finds the roots of f2 along t_j; each root
    of its chart in the box with f1 >= 0 weighs M/(M_j |df2/dt_j|), M_j of
    the M samples being chart j's.  With the charts sharing the samples
    evenly that is n/|df2/dt_j| <= n sqrt(n)/|grad f2|: bounded off the
    singular points of f2, so no near-tangent root is dropped, and of
    finite variance for a nonsingular quadric in n >= 4 variables.

    The standard error is the spread of 64 batch means: sample i of the
    stream falls in batch i * 64 // samples, so the batches are 64 runs of
    consecutive samples whatever the chunks.  Chunks run on a pool of
    `threads` threads; their batch sums are added in chunk order.
    """
    _refuse_few(samples)
    _refuse_infinite(inst)
    n, f2 = inst.n, inst.f2
    charts = [f2.powers_of(j) for j in range(n)]
    partials = [f2.partial(k) for k in range(n)]
    chunks = _chunks(samples)
    taken = [sum(len(range(j, m, n)) for _, m in chunks) for j in range(n)]

    def chunk_sums(task) -> np.ndarray:  # the chunk's weight in each batch
        index, m = task
        sums = np.zeros(_BATCHES)
        start = 0  # the block's first sample in the chunk
        for pts in _blocks(seed, 99, index, m, n - 1):
            where, weights = [], []
            for j, (forms, grad_j) in enumerate(zip(charts, partials)):
                if grad_j is None:  # df2/dt_j = 0 is never the largest
                    continue
                first = (j - start) % n  # chart j: sample i = j mod n
                other = pts[:, first::n]
                coeffs = np.empty((len(forms), other.shape[1]))
                for k, form in enumerate(forms):
                    coeffs[k] = form.evaluate_batch(other, 1) \
                        if isinstance(form, Form) else form
                rows, roots = _roots_in_box(coeffs)
                at = [c[rows] for c in other]
                at.insert(j, roots)
                grad = np.abs(grad_j.evaluate_batch(at, 1))
                keep = inst.f1.evaluate_batch(at, 1) >= 0.0
                for k, g in enumerate(partials):  # ties go to the first index
                    if k != j and g is not None:
                        gk = np.abs(g.evaluate_batch(at, 1))
                        keep &= grad > gk if k < j else grad >= gk
                where.append(start + first + n * rows[keep])
                weights.append(samples / taken[j] / grad[keep])
            at_i = index * _CHUNK + np.concatenate(where)  # in the stream
            sums += np.bincount(at_i * _BATCHES // samples,
                                np.concatenate(weights), _BATCHES)
            start += pts.shape[1]
        return sums

    sums = np.zeros(_BATCHES)
    for s in blocks.pool_map(chunk_sums, chunks, threads):
        sums += s  # in chunk order
    vol = 2.0 ** (n - 1)
    # batch b holds the samples i with b samples <= 64 i < (b + 1) samples
    edges = -(-np.arange(_BATCHES + 1) * samples // _BATCHES)
    means = sums / np.diff(edges)
    return McEstimate(value=complex(vol * sums.sum() / samples),
                      std_error=vol * float(means.std(ddof=1))
                      / math.sqrt(_BATCHES),
                      samples=samples, seed=seed)
