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

counting, expsums and padic take their block paths when an instance has at
least two blocks, and keep their direct paths, which are also the oracles
the block paths are tested against, otherwise.

Counts stay exact.  `convolve` joins nonnegative int64 tables by a
floating-point FFT only where a proven bound keeps the rounding error
below 1/2 (splitting the counts into binary digits until it does), so
rounding the result recovers the exact integers.
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
# largest transform `convolve` builds (complex points, 16 bytes each)
MAX_TRANSFORM = 1 << 22
_EPS = 2.0**-53


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
    inner grid built once, the leading ones are scalars per chunk, so no
    coordinate is recomputed by division.
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
    grids = [g.ravel() for g in np.meshgrid(*([axis] * inner), indexing="ij")]
    table = np.zeros(q1 * q2, dtype=np.int64)
    for lead in itertools.product(range(modulus), repeat=n - inner):
        cols = [np.int64(x) for x in lead] + grids
        u = (block.g1.evaluate_batch_mod(cols, modulus, reduced=True) % q1
             if block.g1 is not None and q1 > 1 else 0)
        v = (block.g2.evaluate_batch_mod(cols, modulus, reduced=True) % q2
             if block.g2 is not None else 0)
        key = np.broadcast_to(u * q2 + v, grids[0].shape).ravel()
        table += np.bincount(key, minlength=q1 * q2)
    return table.reshape(q1, q2)


# ---------------------------------------------------------------------------
# exact joins
# ---------------------------------------------------------------------------

def fft_error_factor(k: int) -> float:
    """Rounding bound of a radix-2 FFT convolution of length 2^k.

    Percival, "Rapid multiplication modulo the sum and difference of highly
    composite numbers", Math. Comp. 72 (2003), Theorem 5.1: the computed
    cyclic convolution z' of x and y satisfies
      |z' - z|_inf < |x|_2 |y|_2 ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1)
    with e = 2^-53 and b the twiddle error, taken here as e.  The factor is
    doubled as margin for the radix-4 passes of the library transform.
    """
    log = (3 * k * math.log1p(_EPS) + (3 * k + 1) * math.log1p(_EPS * 5**0.5)
           + 3 * k * math.log1p(_EPS))
    return 2.0 * math.expm1(log)


def _digits(x: np.ndarray, count: int, width: int) -> list:
    mask = (1 << width) - 1
    return [(x >> (width * i)) & mask for i in range(count)]


def _fold(z: np.ndarray, shape) -> np.ndarray:
    """Cyclic wrap of a linear convolution back onto shape."""
    for axis, s in enumerate(shape):
        reps = -(-z.shape[axis] // s)
        pad = [(0, 0)] * z.ndim
        pad[axis] = (0, reps * s - z.shape[axis])
        z = np.pad(z, pad)
        new = z.shape[:axis] + (reps, s) + z.shape[axis + 1:]
        z = z.reshape(new).sum(axis=axis)
    return z


def convolve(x: np.ndarray, y: np.ndarray,
             zero_column: bool = False) -> np.ndarray:
    """Exact cyclic convolution of two nonnegative int64 tables of one shape.

    Linear convolution by complex FFTs of power-of-two size, folded back.
    Both tables are split into `count` binary digits, the fewest for which
    every digit product passes fft_error_factor below 1/2; the partial
    results then round to exact integers and recombine in int64.

    With zero_column (2-d tables) only Z[:, 0] is formed: axis 0 is
    transformed, and the products are summed over the pairs of columns
    (r, -r).  By Cauchy-Schwarz its error stays within the bound for a
    transform over both axes, whose extra levels cover the column sum.
    """
    shape = x.shape
    if zero_column:
        cols = (-np.arange(shape[1])) % shape[1]
        total = int(np.dot(x.sum(axis=0), y.sum(axis=0)[cols]))
        axes, out_shape = (0,), shape[:1]
        extra = shape[1]
    else:
        total = int(x.sum()) * int(y.sum())
        axes, out_shape, extra = tuple(range(x.ndim)), shape, 1
    if total >= EXACT_LIMIT:
        raise BudgetExceededError(
            f"joined mass {total} beyond the exact range")
    padded = tuple(1 << max(2 * shape[a] - 2, 0).bit_length() for a in axes)
    size = math.prod(padded)
    if size * extra > MAX_TRANSFORM:
        raise BudgetExceededError(
            f"join transform of {size * extra} points exceeds {MAX_TRANSFORM}")
    factor = fft_error_factor(size.bit_length() - 1
                              + (extra.bit_length() if zero_column else 0))
    bits = max(int(x.max()), int(y.max()), 1).bit_length()
    for count in range(1, bits + 1):
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
    fx = [np.fft.fftn(d, padded, axes) for d in xs]
    fy = fx if y is x else [np.fft.fftn(d, padded, axes) for d in ys]
    if zero_column:
        fy = [f[:, cols] for f in fy]
    out = np.zeros(out_shape, dtype=np.int64)
    for m in range(2 * count - 1):
        acc = sum(fx[i] * fy[m - i] for i in range(count)
                  if 0 <= m - i < count)
        if zero_column:
            acc = acc.sum(axis=1)
        part = np.rint(np.fft.ifftn(acc).real).astype(np.int64)
        out += _fold(part, out_shape) << (width * m)
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
