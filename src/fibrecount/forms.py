"""Sparse homogeneous integer forms and problem instances.

A Form is a list of (coefficient, exponent-vector) monomials.  An Instance
bundles the pair (f1, f2) that defines a conic bundle over the hypersurface
f2 = 0: the fibre above t is the conic x0^2 + x1^2 = f1(t) * x2^2.

All evaluation is exact integer arithmetic.  Batch evaluation uses numpy
int64 and refuses loudly when intermediate values could overflow.  Each
Form carries a plan built once, its monomials as (coeff, factor indices),
and evaluate_batch and evaluate_batch_mod follow it in place in two
output-sized buffers, which a caller of evaluate_batch may pass in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

try:  # the small builtin module, as random does: hashlib loads OpenSSL
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

INT64_SAFE = 2**62


class FormError(ValueError):
    """Malformed form or instance data."""


def digest(record: dict) -> str:
    """The config and manifest hash: 16 hex digits of a record's sha256."""
    return sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Form:
    """Homogeneous polynomial with integer coefficients.

    Attributes:
        n_vars: number of variables
        degree: common total degree of every monomial
        monomials: tuple of (coeff, exps) with exps a tuple of n_vars
            non-negative integers summing to degree
    """

    n_vars: int
    degree: int
    monomials: tuple

    def __post_init__(self):
        if self.n_vars < 1:
            raise FormError("n_vars must be positive")
        if self.degree < 1:
            raise FormError("degree must be positive")
        seen = set()
        for coeff, exps in self.monomials:
            if coeff == 0:
                raise FormError("zero coefficient in monomial list")
            if len(exps) != self.n_vars:
                raise FormError(
                    f"exponent vector {exps} has length {len(exps)}, "
                    f"expected {self.n_vars}")
            if any(e < 0 for e in exps):
                raise FormError(f"negative exponent in {exps}")
            if sum(exps) != self.degree:
                raise FormError(
                    f"monomial {exps} has total degree {sum(exps)}, "
                    f"expected {self.degree} (form must be homogeneous)")
            if exps in seen:
                raise FormError(f"duplicate exponent vector {exps}")
            seen.add(exps)
        if not self.monomials:
            raise FormError("form must have at least one monomial")
        # the evaluation plan: each monomial as (coeff, the index of every
        # factor in variable order, a variable repeated by its exponent),
        # and the variables that occur at all
        object.__setattr__(self, "_plan", tuple(
            (coeff, tuple(i for i, e in enumerate(exps) for _ in range(e)))
            for coeff, exps in self.monomials))
        object.__setattr__(self, "_used", tuple(sorted(
            {i for _, idx in self._plan for i in idx})))
        object.__setattr__(self, "_norm",
                           sum(abs(c) for c, _ in self.monomials))

    def coeff_norm(self) -> int:
        """Sum of absolute coefficients; bounds |f| on the unit box."""
        return self._norm

    def partial(self, j: int) -> Form | None:
        """The form df/dx_j, or None where f does not involve x_j."""
        monos = tuple((c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:])
                      for c, e in self.monomials if e[j])
        return Form(self.n_vars, self.degree - 1, monos) if monos else None

    def powers_of(self, j: int) -> list:
        """f as a polynomial in x_j over the other n_vars - 1 variables:
        entry k is the coefficient of x_j^k, a form in those variables for
        k below f's degree and a number otherwise (0 where f has no
        monomial with exponent k in x_j)."""
        out = []
        for k in range(max(e[j] for _, e in self.monomials) + 1):
            group = tuple((c, e[:j] + e[j + 1:]) for c, e in self.monomials
                          if e[j] == k)
            out.append(Form(self.n_vars - 1, self.degree - k, group)
                       if group and k < self.degree
                       else sum(c for c, _ in group))
        return out

    def evaluate(self, x) -> int:
        """Exact value f(x) for an integer vector x."""
        if len(x) != self.n_vars:
            raise FormError(f"point has {len(x)} coordinates, expected {self.n_vars}")
        total = 0
        for coeff, exps in self.monomials:
            term = coeff
            for xi, e in zip(x, exps):
                if e:
                    term *= int(xi) ** e
            total += term
        return total

    def evaluate_batch(self, cols, bound: int, out=None,
                       scratch=None) -> np.ndarray:
        """Exact values over many points, int64.

        Float columns evaluate in float64 instead: each monomial is its
        coefficient times the columns, one factor at a time in variable
        order, and the monomials are summed in their listed order onto
        zeros.  The work is done in place in two output-sized buffers,
        `total` and `term`; a monomial is formed in a view of `term` of the
        broadcast shape of its own factors.  A coefficient of +-1 is folded
        in exactly: the product of the columns is added or subtracted
        (-u * v is -(u * v) and t + -w is t - w in IEEE arithmetic, signed
        zeros included), so such a monomial of degree 2 costs one multiply
        and one add.  tests/oracles.evaluate_batch is the reference loop.
        A caller that evaluates chunk after chunk may pass both buffers in,
        so that no chunk allocates one.

        Args:
            cols: sequence of n_vars int64 (or float64) arrays, one per
                coordinate, broadcastable to a common shape
            bound: max absolute coordinate value, used to prove no overflow
            out: optional array of the broadcast shape that receives the
                values (`total`), and is returned
            scratch: optional 1-d array of at least as many values and the
                same dtype, which holds the monomials (`term`)

        Raises:
            FormError: if coeff_norm * bound**degree could exceed int64
        """
        if self.coeff_norm() * (max(bound, 1) ** self.degree) >= INT64_SAFE:
            raise FormError(
                f"values of |f| may reach {self.coeff_norm() * bound**self.degree}, "
                "beyond the int64 fast path; reduce the box or evaluate exactly")
        return self._walk(cols, out=out, scratch=scratch)

    def evaluate_batch_mod(self, cols, q: int) -> np.ndarray:
        """f mod q over many points, by the walk of evaluate_batch.

        The columns are residues: every entry lies in [0, q) (residue
        grids, lift candidates); reduce any other integers mod q first.
        When the exact value over residues provably fits int64, the walk
        computes it and reduces once; otherwise it reduces after every
        multiply and add, which needs (q-1)^2 to fit.
        """
        if q < 1:
            raise FormError("modulus must be positive")
        fast = self.coeff_norm() * max(q - 1, 1) ** self.degree < INT64_SAFE
        if not fast and (q - 1) ** 2 >= INT64_SAFE:
            raise FormError(f"modulus {q} is beyond the int64 products of "
                            "the reduced path")
        cms = [np.asarray(c, dtype=np.int64) for c in cols]
        if not fast:
            return self._walk(cms, q)
        # the bound holds for the signed coefficients
        total = self._walk(cms)
        np.remainder(total, q, out=total)
        return total

    def _walk(self, cols, q: int | None = None, out=None,
              scratch=None) -> np.ndarray:
        """The plan followed in place: the sum of the monomials over cols,
        exact, or with every product and sum reduced mod q (then cols lie
        in [0, q) and each coefficient enters as its residue).  out and
        scratch, where given, serve as `total` and `term`."""
        shapes = [np.shape(c) for c in cols]
        same = len(set(shapes)) == 1  # no monomial needs its own shape
        shape = shapes[0] if same else np.broadcast_shapes(*shapes)
        if out is None:
            dtype = np.result_type(np.int64, *(cols[i] for i in self._used))
            total = np.zeros(shape, dtype=dtype)
        else:
            total = out
            total.fill(0)
        term = (np.empty(total.size, dtype=total.dtype) if scratch is None
                else scratch[:total.size])
        whole = term.reshape(shape)
        for coeff, idx in self._plan:
            fold = coeff == 1 or coeff == -1
            if fold and len(idx) == 1:
                prod = cols[idx[0]]
            else:
                if same:
                    prod = whole
                else:
                    sub = np.broadcast_shapes(*(shapes[i] for i in idx))
                    prod = term[:math.prod(sub)].reshape(sub)
                if fold:
                    np.multiply(cols[idx[0]], cols[idx[1]], out=prod)
                    rest = idx[2:]
                else:  # the callers' guards keep coeff inside int64
                    np.multiply(cols[idx[0]], coeff if q is None else coeff % q,
                                out=prod)
                    rest = idx[1:]
                for i in rest:
                    if q is not None:
                        np.remainder(prod, q, out=prod)
                    np.multiply(prod, cols[i], out=prod)
                if q is not None:
                    np.remainder(prod, q, out=prod)
            if coeff == -1:
                np.subtract(total, prod, out=total)
            else:
                np.add(total, prod, out=total)
            if q is not None:
                np.remainder(total, q, out=total)
        return total

    def to_records(self):
        return [{"coeff": c, "exps": list(e)} for c, e in self.monomials]


def form_from_records(records, n_vars: int) -> Form:
    """Build a Form from [{"coeff": int, "exps": [int; n]}] records."""
    monos = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != {"coeff", "exps"}:
            raise FormError(
                f"monomial {i}: expected exactly the fields 'coeff' and 'exps', "
                f"got {sorted(rec) if isinstance(rec, dict) else type(rec).__name__}")
        coeff = rec["coeff"]
        exps = rec["exps"]
        if not isinstance(coeff, int):
            raise FormError(f"monomial {i}: coeff must be an integer")
        if not (isinstance(exps, list) and all(isinstance(e, int) for e in exps)):
            raise FormError(f"monomial {i}: exps must be a list of integers")
        monos.append((coeff, tuple(exps)))
    if not monos:
        raise FormError("form must have at least one monomial")
    degree = sum(monos[0][1])
    return Form(n_vars=n_vars, degree=degree, monomials=tuple(monos))


@dataclass(frozen=True)
class Instance:
    """A pair of forms defining the conic bundle to be counted.

    sigma_bound, when supplied, is an upper bound for the dimension of the
    rank-<=1 locus of the joint Jacobian and feeds the truncation exponent
    lambda0; it is never computed here.
    """

    f1: Form
    f2: Form
    n: int
    d: int
    label: str = "instance"
    sigma_bound: int | None = None

    def __post_init__(self):
        if self.d % 2 != 0:
            raise FormError("degree must be even")
        if self.f1.degree != self.d or self.f2.degree != self.d:
            raise FormError(
                f"both forms must have degree d={self.d}; "
                f"got {self.f1.degree} and {self.f2.degree}")
        if self.f1.n_vars != self.n or self.f2.n_vars != self.n:
            raise FormError(
                f"both forms must have n={self.n} variables; "
                f"got {self.f1.n_vars} and {self.f2.n_vars}")

    def lambda0(self) -> float | None:
        """Truncation exponent from the sigma bound; None if no bound given.

        Negative values mean the tail bound carries no decay at this (n, d).
        """
        if self.sigma_bound is None:
            return None
        k = (self.n - self.sigma_bound) / (2**self.d * (self.d - 1))
        return 0.5 * min(1.0, 0.5 * (k - 3.0))

    def config_dict(self) -> dict:
        cfg = {
            "label": self.label,
            "n": self.n,
            "d": self.d,
            "f1": self.f1.to_records(),
            "f2": self.f2.to_records(),
        }
        if self.sigma_bound is not None:
            cfg["sigma_bound"] = self.sigma_bound
        return cfg

    def config_hash(self) -> str:
        return digest(self.config_dict())


_ALLOWED_KEYS = {"label", "n", "d", "f1", "f2", "sigma_bound"}


def parse_instance(config) -> Instance:
    """Validate a config mapping (or JSON text) into an Instance.

    The schema has required fields label, n, d, f1, f2; each form is a list
    of {"coeff": int, "exps": [int; n]} records; optional sigma_bound.
    Unknown fields are rejected.
    """
    if isinstance(config, (str, bytes)):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise FormError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise FormError("config must be a JSON object")
    unknown = set(config) - _ALLOWED_KEYS
    if unknown:
        raise FormError(f"unknown config fields: {sorted(unknown)}")
    for key in ("label", "n", "d", "f1", "f2"):
        if key not in config:
            raise FormError(f"missing required config field '{key}'")
    n = config["n"]
    d = config["d"]
    if not (isinstance(n, int) and n >= 1):
        raise FormError("n must be a positive integer")
    if not (isinstance(d, int) and d >= 2 and d % 2 == 0):
        raise FormError("degree must be even (and >= 2)")
    f1 = form_from_records(config["f1"], n)
    f2 = form_from_records(config["f2"], n)
    sigma = config.get("sigma_bound")
    if sigma is not None and not isinstance(sigma, int):
        raise FormError("sigma_bound must be an integer")
    return Instance(
        f1=f1, f2=f2, n=n, d=d,
        label=str(config["label"]),
        sigma_bound=sigma,
    )


def load_instance(path) -> Instance:
    """Read and validate an instance config from a JSON file; a file that
    cannot be read is a FormError too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormError(f"cannot read config {path}: {exc.strerror}") from exc
    return parse_instance(text)
