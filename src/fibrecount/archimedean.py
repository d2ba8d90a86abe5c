"""Archimedean densities by reproducible Monte Carlo.

The real density J is the surface density of f2 = 0 in the unit box,
restricted to the region where the fibre conic has a real point, i.e.
f1(t) >= 0:

    J = lim_{eps->0} (1/2 eps) vol{t in [-1,1]^n : |f2(t)| <= eps, f1(t) >= 0}
      = integral over {f2 = 0, f1 >= 0} of dA / |grad f2|   (coarea formula)

real_density_coarea estimates the integral in gradient charts, where the
surface is a graph over n-1 coordinates, shared among the charts by a
partition of unity, by a randomly shifted rank-1 lattice rule on their
cube; constant.pipeline reads it.  real_density is the independent
cross-check: shell volumes at the fixed widths SCHEDULE plus
Richardson-style extrapolation in eps.  Both refuse n <= d, where J is
infinite, fewer than 1000 samples, and more work than their budget: the
shell estimator's draws (15 times `samples`) or the lattice rule's chart
solves (`samples`).

Level l of the shell estimator draws the points of stream 10 + l, cut
into the counter-based chunks of _chunks, 2^18 points each but the last;
chunk i of the stream is one draw from Philox keyed by (seed, 10 + l, i).
Shift r of the lattice rule is the first n - 1 doubles of the key
(seed, 99, r), which _uniforms computes without numpy.random.  _blocks
draws a chunk in blocks of at most blocks.WORK_BLOCK coordinates (2^14
points at n = 4), one copy transposing a block into contiguous rows and
doubling it, in two buffers that every block of a chunk reuses; the
lattice points go through blocks of the same size.  A block so stays in
cache while Form.evaluate_batch works through it.  Only the shell
estimator runs on a pool of `threads` threads (blocks.pool_map); it
combines its chunks in task order, so results are bit-reproducible for a
given (seed, samples) whatever the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .arith import BudgetExceededError, DomainError
from .forms import Form, Instance

_CHUNK = 1 << 18  # points per chunk: it defines the random streams
DEFAULT_SAMPLES = 1 << 18
_SHIFTS = 16  # independent random shifts of the coarea lattice rule
# Generating vector of a base-2 lattice sequence; its first n-1 entries
# serve every N = 2^m.  Built offline component by component: entry j
# minimises the worst ratio, over N = 2^3..2^16, of the shift-averaged
# unit-weight Sobolev error to that of the CBC rule for N alone
# (tests/oracles.embedded_lattice_merit).
_LATTICE = (1, 25291, 18823, 11229, 22233, 1257, 10477, 29573, 19159, 3145,
            7147, 26705, 12255, 7589, 32509)
_MASK64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments


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


def _key(seed: int, stream: int, chunk: int) -> tuple:
    return seed & _MASK64, (stream & 0xFFFFFFFF) << 32 | chunk & 0xFFFFFFFF


def _chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    key = np.array(_key(seed, stream, chunk), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniforms(seed: int, stream: int, chunk: int, k: int) -> list:
    """_chunk_rng(seed, stream, chunk).random(k) bit for bit: Philox4x64-10
    in Python ints (Salmon et al., SC 2011), counters from 1, 4 words each."""
    out = []
    for counter in range(1, (k + 3) // 4 + 1):
        x, key = (counter, 0, 0, 0), _key(seed, stream, chunk)
        for _ in range(10):
            p0, p2 = _PHILOX_M[0] * x[0], _PHILOX_M[1] * x[2]
            x = ((p2 >> 64) ^ x[1] ^ key[0], p2 & _MASK64,
                 (p0 >> 64) ^ x[3] ^ key[1], p0 & _MASK64)
            key = [(a + w) & _MASK64 for a, w in zip(key, _PHILOX_W)]
        out += [(w >> 11) * 2.0 ** -53 for w in x]
    return out[:k]


def _chunks(samples: int) -> list:
    """(index, size) of each chunk of a stream of `samples` points."""
    return [(i, min(_CHUNK, samples - start))
            for i, start in enumerate(range(0, samples, _CHUNK))]


def _refuse_samples(samples: int, work: int, budget: int) -> None:
    if samples < 10**3:
        raise DomainError("need at least 1000 samples")
    if work > budget:
        raise BudgetExceededError(f"{work} Monte Carlo evaluations exceed "
                                  f"budget {budget}")


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


SCHEDULE = (0.1, 0.05, 0.025, 0.0125)  # the shell widths eps, decreasing


def real_density(inst: Instance, samples: int = DEFAULT_SAMPLES,
                 seed: int = 0, threads: int = 1,
                 budget: int = blocks.DEFAULT_BUDGET) -> McEstimate:
    """Shell-volume estimate of the restricted surface density J.

    Only inst.f1, inst.f2 and inst.n are read: the fibre condition enters
    through the sign of f1.

    Level eps of SCHEDULE draws samples * SCHEDULE[0] / eps points, so
    every level sees a comparable number of shell hits; the levels are
    combined by weighted least squares in eps (Richardson-style: curvature
    and any cone point make the shell bias first order in the width),
    reported at eps -> 0.  The chunks of every level run on one pool of
    `threads` threads.
    """
    sizes = [int(math.ceil(samples * SCHEDULE[0] / eps)) for eps in SCHEDULE]
    _refuse_samples(samples, sum(sizes), budget)
    _refuse_infinite(inst)
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
                        seed: int = 0,
                        budget: int = blocks.DEFAULT_BUDGET) -> McEstimate:
    """Estimator of J from the coarea formula in gradient charts, by a
    randomly shifted rank-1 lattice rule on [-1,1]^(n-1).

    Chart j solves f2 = 0 for t_j over the other n-1 coordinates; every
    point solves every chart.  A root of chart j in the box with f1 >= 0
    weighs |df2/dt_j| / |grad f2|^2: its coarea factor 1/|df2/dt_j| times
    the partition weight (df2/dt_j)^2 / |grad f2|^2.  These weights sum to
    1 on the surface, so J is 2^(n-1) times the mean weight a point
    gathers; each root's weight is at most 1/|grad f2| and goes to 0 where
    its chart degenerates, so the integrand does not jump between charts.

    `samples` counts chart solves: _SHIFTS shifts of the N-point lattice,
    N the largest power of 2 with _SHIFTS n N <= samples.  Point i of
    shift r is (i z mod N)/N + u_r mod 1, mapped to [-1,1], with z the
    first n-1 entries of _LATTICE and u_r drawn from Philox keyed by
    (seed, 99, r).  The shift estimates are independent and unbiased: the
    value is their mean, the error their standard deviation over
    sqrt(_SHIFTS).  The blocks run in order on the calling thread.
    """
    _refuse_samples(samples, samples, budget)
    _refuse_infinite(inst)
    n, f2, s = inst.n, inst.f2, inst.n - 1
    if s > len(_LATTICE):
        raise DomainError(f"no lattice generator for n = {n} > "
                          f"{len(_LATTICE) + 1} variables")
    size = 1 << ((samples // (_SHIFTS * n)).bit_length() - 1)
    z = np.array(_LATTICE[:s], dtype=np.int64)
    charts = [(j, f2.powers_of(j), g) for j in range(n)
              if (g := f2.partial(j)) is not None]  # df2/dt_j = 0 weighs 0
    step = max(1, blocks.WORK_BLOCK // s)

    def block_sum(r: int, start: int) -> float:  # one block of shift r
        k = min(step, size - start)
        # i z mod N, exact in int64: z < 2^15 and i < N
        pts = np.outer(z, np.arange(start, start + k)) % size / size
        pts += np.array(_uniforms(seed, 99, r, s))[:, None]
        pts = 2.0 * (pts % 1.0) - 1.0
        total = 0.0
        for i, (j, forms, _) in enumerate(charts):
            coeffs = np.empty((len(forms), k))
            for c, form in enumerate(forms):
                coeffs[c] = form.evaluate_batch(pts, 1) \
                    if isinstance(form, Form) else form
            rows, roots = _roots_in_box(coeffs)
            at = [c[rows] for c in pts]
            at.insert(j, roots)
            keep = inst.f1.evaluate_batch(at, 1) >= 0.0
            sq = [g.evaluate_batch(at, 1) ** 2 for _, _, g in charts]
            weight = np.sqrt(sq[i]) / sum(sq)  # |df2/dt_j| / |grad f2|^2
            total += float(weight[keep].sum())
        return total

    totals = [block_sum(r, i) for r in range(_SHIFTS)
              for i in range(0, size, step)]
    estimates = 2.0 ** s * np.reshape(totals, (_SHIFTS, -1)).sum(1) / size
    return McEstimate(value=complex(estimates.mean()),
                      std_error=float(estimates.std(ddof=1))
                      / math.sqrt(_SHIFTS),
                      samples=_SHIFTS * size * len(charts), seed=seed)
