"""The ReLU control family and the wells built from it.

A well function is a field vanishing exactly on the closure of a box and
keeping a constant nonzero sign per component outside it; translated and
sign-flipped copies of a well drive all the constructive machinery.  Closure
under f -> D f(A z + b) is provided by ``apply_restriction``, which
recomposes a ReLU field as a ReLU field, so exact flows survive restriction.
The smooth sigmoid surrogate of the soft threshold is kept as a function
only: its approximation bound is checked, but no well is built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .core import VectorField, register_family, require_number_lists
from .pwl import PwlField, relu_terms_1d

__all__ = [
    "relu_field",
    "field_from_terms_1d",
    "relu_well_1d",
    "relu_well_nd",
    "sigmoid",
    "sigmoid_soft_threshold",
    "sigmoid_smn",
    "soft_threshold_well_1d",
    "generic_field",
    "negated_field",
    "AffineRestriction",
    "apply_restriction",
    "OutsideSign",
    "WellFunction",
]


def _as_matrix(M, rows=None, cols=None, name="matrix") -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if rows is not None and M.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {M.shape}")
    if cols is not None and M.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} cols, got {M.shape}")
    return M


def _op_norm(M: np.ndarray) -> float:
    """Operator 2-norm; for a row or a column, or when the nonzero entries
    share one row or one column (a drive's V and W), it is their Euclidean
    norm, with no SVD."""
    if min(M.shape) == 1:
        return math.hypot(*M.ravel().tolist())
    r, c = np.nonzero(M)
    if not len(r) or (r == r[0]).all() or (c == c[0]).all():
        return math.hypot(*M[r, c].tolist())
    return float(np.linalg.norm(M, 2))


def relu_field(V, W, b, label: str = "relu") -> VectorField:
    """Field z -> V relu(W z + b) with V (n, q), W (q, n), b (q,).

    Lipschitz bound is the operator-norm product |V| |W|.  Fields that read a
    single coordinate get an exact closed-form flow attached when they drive
    one other coordinate, or that coordinate itself and rows proportional to
    it (see ``_relu_exact_flow``).  ``frozen_drive`` is set when V's nonzero
    rows and W's nonzero columns are disjoint; ``drive`` = (i, j, g) when
    they are one row i and one other column j, g being the scalar
    ``PwlField`` of the velocity read from z_j.
    """
    V = _as_matrix(V, name="V")
    n, q = V.shape
    W = _as_matrix(W, rows=q, cols=n, name="W")
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape != (q,):
        raise ValueError(f"b must have shape ({q},), got {b.shape}")
    params = {"V": V.tolist(), "W": W.tolist(), "b": b.tolist()}
    # One sum over the entries is NaN or infinite when any entry is; only
    # then are the terms searched.
    if not math.isfinite(sum(chain(*params["V"], *params["W"], params["b"]))):
        _require_finite_terms(V, W, b)
    lip = _op_norm(V) * _op_norm(W)

    def evaluate(z, V=V, W=W, b=b):
        z = np.asarray(z, dtype=float)
        return np.maximum(z @ W.T + b, 0.0) @ V.T

    pwl = PwlField(np.concatenate((V.T, W, b[:, None]), axis=1)) if n == 1 else None
    rows = [i for i, row in enumerate(V.tolist()) if any(row)]
    cols = [j for j, col in enumerate(zip(*W.tolist())) if any(col)]
    drive = None
    if len(rows) == 1 and len(cols) == 1 and rows != cols:
        (i,), (j,) = rows, cols
        drive = (i, j, PwlField(np.column_stack([V[i, :], W[:, j], b])))
    exact = _relu_exact_flow(V, W, b, pwl, rows, cols, drive)
    return VectorField(dim=n, eval=evaluate, lipschitz_bound=lip, label=label,
                       tag="relu", params=params, exact_flow=exact, pwl=pwl,
                       frozen_drive=set(rows).isdisjoint(cols), drive=drive)


def _require_finite_terms(V: np.ndarray, W: np.ndarray, b: np.ndarray) -> None:
    """Raise a ValueError naming the first term k (V[:, k], W[k], b[k]) with a
    NaN or infinite entry; a finite sum that overflowed passes."""
    bad = ~(np.isfinite(V).all(axis=0) & np.isfinite(W).all(axis=1) & np.isfinite(b))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"relu term {k} is not finite: v = {V[:, k].tolist()}, "
                         f"w = {W[k].tolist()}, b = {float(b[k])!r}")


def _relu_exact_flow(V: np.ndarray, W: np.ndarray, b: np.ndarray, pwl: Optional[PwlField],
                     rows: list, cols: list, drive: Optional[tuple]):
    """Exact flow where the sparsity pattern has one; reuses a scalar field's pwl.

    ``rows``/``cols`` are the driven/read coordinates.  A single-pair drive
    (i, j, g) moves z_i by tau * g(z_j), since z_j is frozen.  When a single
    coordinate j is read and drives itself, z_j flows by the scalar kernel;
    every other driven row must then be an exact multiple c_r of row j, and
    moves by c_r times z_j's change (the co-moving shear stage).
    """
    if drive is not None:
        i, j, g = drive

        def flow_frozen(z, tau, i=i, j=j, g=g):
            z = np.asarray(z, dtype=float).copy()
            z[..., i] += tau * g(z[..., j])
            return z

        return flow_frozen
    if len(rows) == 0:
        return lambda z, tau: np.asarray(z, dtype=float).copy()
    if len(cols) == 0:
        # Constant drift everywhere.
        drift = V @ np.maximum(b, 0.0)

        def flow_const(z, tau, drift=drift):
            return np.asarray(z, dtype=float) + tau * drift

        return flow_const
    if len(cols) != 1:
        return None
    j = cols[0]
    others, c = None, None
    if len(rows) > 1:
        others = [r for r in rows if r != j]
        if len(others) == len(rows):  # several rows driven from an undriven j
            return None
        k = int(np.flatnonzero(V[j, :])[0])
        c = V[others, k] / V[j, k]
        if not np.array_equal(c[:, None] * V[j, :], V[others, :]):
            return None
    if pwl is None:
        pwl = PwlField(np.column_stack([V[j, :], W[:, j], b]))

    def flow_self(z, tau, pwl=pwl, j=j, others=others, c=c):
        z = np.asarray(z, dtype=float).copy()
        old = z[..., j]
        new = pwl.flow(old, tau)
        if c is not None:
            z[..., others] += (new - old)[..., None] * c
        z[..., j] = new
        return z

    return flow_self


def field_from_terms_1d(terms, label: str = "relu1d") -> VectorField:
    """1D field sum_k v_k relu(w_k x + b_k) from a (k, 3) term list."""
    t = relu_terms_1d(terms)
    return relu_field(t[:, 0][None, :], t[:, 1][:, None], t[:, 2], label=label)


def generic_field(fn, dim: int, lipschitz_bound: float, label: str = "custom") -> VectorField:
    """Wrap a plain callable (batch-aware, shape (..., dim)) as a field."""
    return VectorField(dim=dim, eval=fn, lipschitz_bound=lipschitz_bound, label=label)


# -- activations and scalar well shapes -------------------------------------


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def sigmoid_soft_threshold(z):
    """s(z) = 0.5 * min(max(|z| - 1, 0), 1): vanishes on [-1, 1], caps at 0.5."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * np.minimum(np.maximum(np.abs(z) - 1.0, 0.0), 1.0)
    return out if out.ndim else float(out)


def sigmoid_smn(M: int, N: int, z):
    """Smooth surrogate of the soft threshold built from 2N steep sigmoids.

    Satisfies |s(z) - s_{M,N}(z)| < 1/N + 1/(1 + exp(M/N)) for all z.
    """
    if M < 1 or N < 1:
        raise ValueError("M and N must be >= 1")
    z = np.asarray(z, dtype=float)
    k = np.arange(1, N + 1)
    q = 1.0 + k / N
    acc = sigmoid(M * (-q - z[..., None])) + sigmoid(M * (z[..., None] - q))
    out = acc.sum(axis=-1) / (2.0 * N)
    return out if out.ndim else float(out)


def soft_threshold_well_1d() -> "WellFunction":
    """The exact soft-threshold well: piecewise linear, zero set [-1, 1]."""
    f = field_from_terms_1d(
        [(0.5, 1.0, -1.0), (-0.5, 1.0, -2.0), (0.5, -1.0, -1.0), (-0.5, -1.0, -2.0)],
        label="soft_threshold",
    )
    return WellFunction(dim=1, field=f, zero_box=np.array([[-1.0, 1.0]]),
                        outside_sign=OutsideSign(+1, +1), label="soft_threshold")


# -- restricted affine invariance --------------------------------------------


@dataclass(frozen=True)
class AffineRestriction:
    """The closure operation f -> D f(A z + b).

    D is diagonal with entries in {-1, 0, +1} (stored as the diagonal), and A
    must be diagonal with |entries| <= 1.
    """

    D: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float).reshape(-1)
        n = D.shape[0]
        A = _as_matrix(self.A, rows=n, cols=n, name="A")
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},)")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if not set(D.tolist()) <= {-1.0, 0.0, 1.0}:
            raise ValueError("D entries must be -1, 0 or +1")
        diag = A.diagonal().tolist()
        if np.count_nonzero(A) != sum(a != 0.0 for a in diag):
            raise ValueError("restriction requires diagonal A")
        if not all(abs(a) <= 1.0 + 1e-15 for a in diag):
            raise ValueError("restriction requires |A entries| <= 1")

    @property
    def dim(self) -> int:
        return self.D.shape[0]

    @staticmethod
    def translation(n: int, shift) -> "AffineRestriction":
        """r with D = I, A = I and b = shift: f -> f(z + shift)."""
        b = np.empty(n)
        b[...] = shift
        r = object.__new__(AffineRestriction)  # valid by construction: skip the checks
        r.__dict__.update(D=np.ones(n), A=np.eye(n), b=b)
        return r

    @staticmethod
    def flip(n: int) -> "AffineRestriction":
        return AffineRestriction(-np.ones(n), np.eye(n), np.zeros(n))


def apply_restriction(f: VectorField, r: AffineRestriction) -> VectorField:
    """ReLU field z -> D f(A z + b), recomposed as the ReLU field (D V, W A, W b + b).

    Every other field raises ValueError: only ReLU fields keep their exact
    flows under restriction, and every construction is built from them.
    """
    if r.dim != f.dim:
        raise ValueError(f"restriction dim {r.dim} != field dim {f.dim}")
    if f.tag != "relu" or f.params is None:
        raise ValueError(f"restriction needs a ReLU field; {f.label!r} is not one")
    V = np.asarray(f.params["V"], dtype=float)
    W = np.asarray(f.params["W"], dtype=float)
    b = np.asarray(f.params["b"], dtype=float)
    return relu_field(r.D[:, None] * V, W @ r.A, W @ r.b + b, label=f"{f.label}|restricted")


def negated_field(f: VectorField) -> VectorField:
    """The field -f, used to realize exact inverse flows."""
    return apply_restriction(f, AffineRestriction.flip(f.dim))


# -- well functions ----------------------------------------------------------


@dataclass(frozen=True)
class OutsideSign:
    """Constant component sign beyond the zero box, per probed side."""

    left: int
    right: int


@dataclass(frozen=True)
class WellFunction:
    """A field vanishing on a box, with constant outside-sign behavior.

    Constructions need the field ReLU-built (see ``require_piece_tables``);
    a well over any other field can be made, but every construction rejects
    it before doing any work.
    """

    dim: int
    field: VectorField
    zero_box: np.ndarray
    outside_sign: OutsideSign
    label: str = ""

    def __post_init__(self):
        box = np.asarray(self.zero_box, dtype=float).reshape(self.dim, 2)
        if np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("zero_box must have positive width on every axis")
        object.__setattr__(self, "zero_box", box)
        if self.field.dim != self.dim:
            raise ValueError("field dim mismatch")

    @property
    def q1(self) -> float:
        if self.dim != 1:
            raise ValueError("q1/q2 are 1D accessors")
        return float(self.zero_box[0, 0])

    @property
    def q2(self) -> float:
        if self.dim != 1:
            raise ValueError("q1/q2 are 1D accessors")
        return float(self.zero_box[0, 1])

    def _replace(self, **changes) -> "WellFunction":
        # dataclasses.replace would re-run __post_init__ on values that
        # already passed it.
        out = object.__new__(WellFunction)
        out.__dict__.update(self.__dict__, **changes)
        return out

    def translated(self, delta) -> "WellFunction":
        """Well with zero box shifted by +delta (field x -> h(x - delta))."""
        r = AffineRestriction.translation(self.dim, -np.asarray(delta, dtype=float))
        # zero_box - (-delta) equals zero_box + delta bit for bit.
        return self._replace(field=apply_restriction(self.field, r),
                             zero_box=self.zero_box - r.b[:, None])

    def require_piece_tables(self, what: str) -> None:
        """Raise ValueError unless the well is ReLU-built.

        Point matching parks squeezed points next to the zero interval and
        times every stage from the walls' piece tables (``field.pwl``); for
        n >= 2 the constructions recompose the well's ReLU field.  A wall
        without piece tables has no closed-form hitting times.
        """
        tables = self.field.pwl is not None if self.dim == 1 else self.field.tag == "relu"
        if not tables:
            raise ValueError(f"{what} needs a ReLU-built well, with piece tables (field.pwl); "
                             f"{self.label or 'this well'} has no piece tables")


def relu_well_1d(q1: float, q2: float) -> WellFunction:
    """h(x) = (relu(q1 - x) + relu(x - q2)) / 2: zero on [q1, q2], positive outside."""
    if not q1 < q2:
        raise ValueError("need q1 < q2")
    f = field_from_terms_1d([(0.5, -1.0, q1), (0.5, 1.0, -q2)], label="relu_well")
    return WellFunction(dim=1, field=f, zero_box=np.array([[q1, q2]]),
                        outside_sign=OutsideSign(+1, +1), label="relu_well")


def relu_well_nd(n: int) -> WellFunction:
    """Every component equals the mean of relu(-1 - z_j) + relu(z_j - 1).

    Zero box is [-1, 1]^n; each component is positive outside.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    V = np.full((n, 2 * n), 1.0 / (2.0 * n))
    W = np.vstack([-np.eye(n), np.eye(n)])
    b = np.full(2 * n, -1.0)
    f = relu_field(V, W, b, label=f"relu_well_nd({n})")
    box = np.tile([[-1.0, 1.0]], (n, 1))
    return WellFunction(dim=n, field=f, zero_box=box,
                        outside_sign=OutsideSign(+1, +1),
                        label=f"relu_well_nd({n})")


# -- serialization registry --------------------------------------------------


def _build_relu(params: dict) -> VectorField:
    V, W, b = params["V"], params["W"], params["b"]
    # A good document costs one scan of its entries' types.  Any failure,
    # ragged rows included, is searched for the entry to name; where none is
    # wrong, the second relu_field call raises its own error again.
    try:
        if set(map(type, chain(*V, *W, b))) <= {float, int}:
            return relu_field(V, W, b)
    except (TypeError, ValueError):
        pass
    for key, value, depth in (("V", V, 2), ("W", W, 2), ("b", b, 1)):
        require_number_lists(value, depth, f"relu key {key!r}")
    return relu_field(V, W, b)


register_family("relu", _build_relu)
