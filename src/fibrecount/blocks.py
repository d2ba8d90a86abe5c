"""Variable blocks: the factorization every layer shares.

Two variables interact when some monomial of f1 or f2 contains both.  The
connected components of this interaction graph are the instance's blocks;
no monomial straddles two of them, so on x = (x_b)_b

  f1(x) = sum_b g1_b(x_b),   f2(x) = sum_b g2_b(x_b)

with g_b the restriction of f to the block b.  A variable that occurs in no
monomial is a block of its own with both restrictions zero.  Every complete
sum over a box that is a product of per-block boxes then factors:

* the joint value distribution of (f1, f2) is the convolution of the
  per-block distributions (cyclic when the values are taken mod q);
* an exponential sum e((a1 f1 + a2 f2)/q) is the product of the per-block
  sums, because e(.) is additive.

counting and expsums take their block paths when an instance has at least
two blocks (path_for), and keep their direct paths, which are also the
oracles the block paths are tested against, otherwise.  padic joins block
tables only as the fallback of its stationary-phase path, where that path
is refused, as when its level-1 scan of p^n classes exceeds the budget.

Counts stay exact.  The residue tables are cyclic (indexed by residues
mod q), so `convolve` joins two nonnegative int64 tables by a cyclic
floating-point FFT at their own shape, with no padding.  It does so only
where a proven bound keeps the rounding error below 1/2, splitting the
counts into binary digits until it does, so rounding the result recovers
the exact integers.  The bound (fft_error_factor) follows the passes
pocketfft runs at each length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arith import DomainError
from .forms import Form, Instance

_CHUNK = 1 << 21
# the exact join works in int64, so every joined count must stay below this
EXACT_LIMIT = 2**62
# largest table `convolve` transforms (complex points, 16 bytes each)
MAX_TRANSFORM = 1 << 22
_EPS = 2.0**-53
# error of pocketfft's constants and twiddles: ~11 eps from libm's sin and
# cos (1 ulp) at a rounded angle and one complex product, with margin
_MU = 2.0**-48
_SQRT2 = math.sqrt(2.0)


class BudgetExceededError(RuntimeError):
    """Enumeration volume exceeds the allowed budget (or a block join its
    transform cap or the exact int64 range)."""


@dataclass(frozen=True)
class Block:
    """One block of variables and the restrictions of (f1, f2) to it.

    g1, g2 are forms in len(vars) variables, or None where the form has no
    monomial in the block (the restriction is then identically zero).
    """

    vars: tuple
    g1: Form | None
    g2: Form | None

    @property
    def n(self) -> int:
        return len(self.vars)


def restrict(f: Form, block) -> Form | None:
    """f restricted to the variables in block, or None if no monomial of f
    lives there."""
    pos = {v: i for i, v in enumerate(block)}
    monos = []
    for coeff, exps in f.monomials:
        if all(e == 0 or i in pos for i, e in enumerate(exps)):
            sub = [0] * len(block)
            for i, e in enumerate(exps):
                if e:
                    sub[pos[i]] = e
            monos.append((coeff, tuple(sub)))
    if not monos:
        return None
    return Form(n_vars=len(block), degree=f.degree, monomials=tuple(monos))


def variable_blocks(inst: Instance) -> list:
    """Blocks of inst, ordered by their smallest variable."""
    parent = list(range(inst.n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for f in (inst.f1, inst.f2):
        for _, exps in f.monomials:
            idx = [i for i, e in enumerate(exps) if e]
            for a, b in zip(idx, idx[1:]):
                parent[find(a)] = find(b)
    comps: dict[int, list] = {}
    for i in range(inst.n):
        comps.setdefault(find(i), []).append(i)
    return [Block(tuple(c), restrict(inst.f1, c), restrict(inst.f2, c))
            for c in comps.values()]


def balanced_halves(blocks) -> tuple:
    """Variables of the blocks packed into two halves, the larger as small
    as possible (so its box, (2P+1)^size, is as small as possible).

    Only the block sizes matter: a subset sum over them, with the first
    block in half A, reaches at most n sums, each kept with the block that
    first reached it."""
    sizes = [b.n for b in blocks]
    total = sum(sizes)
    came = {sizes[0]: None}  # sum of half A -> (previous sum, block added)
    for i, s in enumerate(sizes[1:], start=1):
        for prev in list(came):
            came.setdefault(prev + s, (prev, i))
    size_a = min((s for s in came if s < total),
                 key=lambda s: (max(s, total - s), s))
    in_a = [False] * len(blocks)
    in_a[0] = True
    while came[size_a] is not None:
        size_a, i = came[size_a]
        in_a[i] = True
    half_a = sorted(v for b, a in zip(blocks, in_a) if a for v in b.vars)
    half_b = sorted(v for b, a in zip(blocks, in_a) if not a for v in b.vars)
    return half_a, half_b


# ---------------------------------------------------------------------------
# residue tables
# ---------------------------------------------------------------------------

def residue_table(block: Block, modulus: int, q1: int, q2: int,
                  budget: int) -> np.ndarray:
    """T[u, v] = #{x mod modulus : g1(x) = u mod q1, g2(x) = v mod q2}.

    q1 and q2 must divide modulus; q1 = 1 drops f1 from the table.  The
    box (Z/modulus)^n is scanned in chunks: the last variables form an
    inner grid whose axes are broadcast columns, so each monomial is a
    product of 1-d factors and only the sums span the grid; the leading
    variables are scalars per chunk.
    """
    n = block.n
    if modulus ** n > budget:
        raise BudgetExceededError(
            f"block volume {modulus}^{n} = {modulus ** n} exceeds budget "
            f"{budget}")
    inner = 1
    while inner < n and modulus ** (inner + 1) <= _CHUNK:
        inner += 1
    axis = np.arange(modulus, dtype=np.int64)
    grid = [axis.reshape([modulus if j == i else 1 for j in range(inner)])
            for i in range(inner)]
    table = np.zeros(q1 * q2, dtype=np.int64)
    for lead in itertools.product(range(modulus), repeat=n - inner):
        cols = [np.int64(x) for x in lead] + grid
        u = (block.g1.evaluate_batch_mod(cols, modulus, reduced=True) % q1
             if block.g1 is not None and q1 > 1 else 0)
        v = (block.g2.evaluate_batch_mod(cols, modulus, reduced=True) % q2
             if block.g2 is not None else 0)
        key = np.broadcast_to(u * q2 + v, (modulus,) * inner).ravel()
        table += np.bincount(key, minlength=q1 * q2)
    return table.reshape(q1, q2)


# ---------------------------------------------------------------------------
# exact joins
# ---------------------------------------------------------------------------

def _radices(n: int) -> list:
    """Radices of the passes pocketfft's Cooley-Tukey plan runs for a
    complex transform of length n: factors 8, then 4, then one 2, then the
    odd primes in ascending order."""
    radices, rest = [], n
    for r in (8, 4):
        while rest % r == 0:
            radices.append(r)
            rest //= r
    if rest % 2 == 0:
        radices.append(2)
        rest //= 2
    d = 3
    while d * d <= rest:
        while rest % d == 0:
            radices.append(d)
            rest //= d
        d += 2
    if rest > 1:
        radices.append(rest)
    return radices


def _smooth_size(n: int) -> int:
    """The least 11-smooth length >= n: Bluestein's inner transform."""
    while True:
        rest = n
        for f in (2, 3, 5, 7, 11):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return n
        n += 1


def _gamma(k: int) -> float:
    return k * _EPS / (1 - k * _EPS)


def _transform_bound(n: int) -> tuple:
    """(1 + forward error, 1 + inverse local error) of one complex
    transform of length n; see fft_error_factor."""
    fwd = inv = 1.0
    radices = _radices(n)
    for r in radices:
        g = _gamma(r + 2)
        s = _SQRT2 * (g + _SQRT2 * _MU * (1 + g))
        rho = (1 + _MU) * (1 + s) * (1 + _SQRT2 * _gamma(2)) - 1
        fwd *= 1 + math.sqrt(r) * rho
        inv *= 1 + rho
    if n >= 50 and max(radices) ** 2 > n:  # pocketfft may run Bluestein
        m = 2 * n - 1
        n2 = _smooth_size(m)
        d2 = _transform_bound(n2)[0] - 1
        tau = _MU + _SQRT2 * _gamma(2) * (1 + _MU)
        c = (1 + _MU) * (1 + _EPS) ** 2 - 1
        b = math.sqrt(n2 / m) * (c + d2 * (1 + c))
        b += _SQRT2 * _gamma(2) * (1 + b)
        blue = m / math.sqrt(n) * ((1 + tau) ** 2 * (1 + d2) ** 2 * (1 + b)
                                   - 1)
        fwd, inv = max(fwd, 1 + blue), max(inv, 1 + math.sqrt(n) * blue)
    return fwd, inv


def fft_error_factor(lengths, terms: int) -> float:
    """Rounding bound of a cyclic FFT convolution over axes of the given
    lengths, with `terms` products summed per frequency.

    The computed convolution z' of nonnegative x, y satisfies
      |z' - z|_inf <= factor |x|_2 |y|_2.
    Model: a radix-r pass of pocketfft (NumPy >= 2.0) computes each output
    as w sum_j c_j v_j, c_j the r-th roots of unity, w a twiddle.  Every
    input component reaches every output component along one path of at
    most r + 2 roundings, with constants and twiddles within MU of exact,
    so the local error is at most rho_r sum_j |v_j|, with
      rho_r = (1 + MU)(1 + s)(1 + sqrt2 gamma_2) - 1,
      s = sqrt2 (gamma_(r+2) + sqrt2 MU (1 + gamma_(r+2)))
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Lemma 3.5 for the complex products).  Composed over the passes of
    every axis:
    * forward, in the 2-norm, as in Higham's Theorem 24.2: a pass is r x r
      blocks of norm sqrt(r), so |X' - X|_2 <= d_F |X|_2 with
      1 + d_F = prod (1 + sqrt(r) rho_r);
    * inverse, per component: the predecessors of a node hold disjoint
      input sets, so by induction |z'_k - z_k| <= d_I sum_j |W_j| / N with
      1 + d_I = prod (1 + rho_r), times (1 + eps)^2 per axis for the 1/n
      scaling.
    Where pocketfft may run Bluestein's algorithm instead (n >= 50 with a
    prime factor above sqrt(n)), the axis also gets the larger of the two
    bounds.  Bluestein is chirp, zero-padded transform of the least
    11-smooth length n2 >= m = 2n - 1, product with the precomputed
    transform of the chirp, inverse transform, chirp: operators of norms
    1, sqrt(n2), m/n2, sqrt(n2), 1, so in the 2-norm
      |y' - y|_2 <= m ((1 + tau)^2 (1 + d2)^2 (1 + b) - 1) |x|_2,
    tau the error of a chirp product, d2 the forward bound at n2 and b
    that of the product, which counts the error of the chirp's transform;
    that is d_F = m / sqrt(n) (...) and, as the 2-norm bounds every
    component, rho = sqrt(n) d_F per component.
    Cauchy-Schwarz bounds sum_j |X_j||Y_j| by N |x|_2 |y|_2, so with
    theta the error of the summed products,
      factor = (1 + theta)(1 + d_F)^2 (1 + d_I) - 1,
    doubled as margin; this is Percival's argument (Math. Comp. 72 (2003),
    Theorem 5.1) for a mixed-radix transform.
    """
    fwd = inv = 1.0
    for n in lengths:
        f, i = _transform_bound(n)
        fwd, inv = fwd * f, inv * i * (1 + _EPS) ** 2
    theta = (1 + _SQRT2 * _gamma(2)) * (1 + _SQRT2 * _gamma(terms)) - 1
    return 2.0 * ((1 + theta) * fwd ** 2 * inv - 1)


def _digits(x: np.ndarray, count: int, width: int) -> list:
    mask = (1 << width) - 1
    return [(x >> (width * i)) & mask for i in range(count)]


def convolve(x: np.ndarray, y: np.ndarray,
             zero_column: bool = False) -> np.ndarray:
    """Exact cyclic convolution of two nonnegative int64 tables of one shape.

    Complex FFTs at the tables' own shape: the tables are cyclic already,
    so nothing is padded or folded.  Both tables are split into `count`
    binary digits, the fewest for which every digit product passes
    fft_error_factor below 1/2; the partial results then round to exact
    integers and recombine in int64.

    With zero_column (2-d tables) only Z[:, 0] is formed: axis 0 is
    transformed, and the products are summed over the pairs of columns
    (r, -r); the bound counts those sums among its terms.
    """
    shape = x.shape
    if zero_column:
        cols = (-np.arange(shape[1])) % shape[1]
        total = int(np.dot(x.sum(axis=0), y.sum(axis=0)[cols]))
        axes, extra = (0,), shape[1]
    else:
        total = int(x.sum()) * int(y.sum())
        axes, extra = tuple(range(x.ndim)), 1
    if total >= EXACT_LIMIT:
        raise BudgetExceededError(
            f"joined mass {total} beyond the exact range")
    if x.size > MAX_TRANSFORM:
        raise BudgetExceededError(
            f"join transform of {x.size} points exceeds {MAX_TRANSFORM}")
    lengths = [shape[a] for a in axes]
    bits = max(int(x.max()), int(y.max()), 1).bit_length()
    for count in range(1, bits + 1):
        factor = fft_error_factor(lengths, count * extra)
        width = -(-bits // count)
        xs, ys = _digits(x, count, width), _digits(y, count, width)
        nx = [float(np.linalg.norm(d)) for d in xs]
        ny = [float(np.linalg.norm(d)) for d in ys]
        worst = max(sum(nx[i] * ny[m - i] for i in range(count)
                        if 0 <= m - i < count) for m in range(2 * count - 1))
        if factor * worst < 0.5:
            break
    else:  # one-bit digits have norms below sqrt(size): unreachable
        raise BudgetExceededError("no digit split keeps the FFT join exact")
    fx = [np.fft.fftn(d, axes=axes) for d in xs]
    fy = fx if y is x else [np.fft.fftn(d, axes=axes) for d in ys]
    if zero_column:
        fy = [f[:, cols] for f in fy]
    out = np.zeros(shape[:1] if zero_column else shape, dtype=np.int64)
    for m in range(2 * count - 1):
        acc = sum(fx[i] * fy[m - i] for i in range(count)
                  if 0 <= m - i < count)
        if zero_column:
            acc = acc.sum(axis=1)
        out += np.rint(np.fft.ifftn(acc).real).astype(np.int64) << (width * m)
    if int(out.sum()) != total:
        raise AssertionError("FFT join lost mass; rounding bound violated")
    return out


def join(groups) -> np.ndarray:
    """Column 0 of the exact cyclic convolution of 2-d tables of one shape,
    given as (table, multiplicity) pairs; powers go by repeated squaring.
    The tables are indexed (f1 residue, f2 residue), so column 0 is the
    distribution of f1 on f2 = 0."""
    parts = []
    for base, count in groups:
        power = None
        while count:
            if count & 1:
                power = base if power is None else convolve(power, base)
            count >>= 1
            if count:
                base = convolve(base, base)
        parts.append(power)
    if len(parts) == 1:
        return parts[0][:, 0]
    out = parts[0]
    for i, t in enumerate(parts[1:], start=2):
        out = convolve(out, t, zero_column=i == len(parts))
    return out


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def path_for(inst: Instance, method: str) -> str:
    """'block' or 'direct' for a method of 'auto' or 'direct'; 'auto' takes
    the block path when inst has at least two blocks."""
    if method not in ("auto", "direct"):
        raise DomainError(f"unknown method {method!r}")
    if method == "auto" and len(variable_blocks(inst)) >= 2:
        return "block"
    return "direct"


def block_tables(inst: Instance, modulus: int, q1: int, q2: int,
                 budget: int) -> list:
    """(residue_table, multiplicity) per distinct block of inst: blocks with
    equal restrictions share one table."""
    groups: dict = {}
    for b in variable_blocks(inst):
        key = (b.g1, b.g2)
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [residue_table(b, modulus, q1, q2, budget), 1]
    return [tuple(g) for g in groups.values()]
