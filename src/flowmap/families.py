"""Concrete control families: ReLU, sigmoid, residual blocks, and wells.

A well function is a field vanishing exactly on the closure of a box and
keeping a constant nonzero sign per component outside it; translated and
sign-flipped copies of a well drive all the constructive machinery.  Closure
under f -> D f(A z + b) is provided by ``apply_restriction``, which also
recognizes the structured cases (ReLU recomposition, frozen-argument drives)
so that exact flows survive restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import VectorField, field_from_json, register_family
from .pwl import PwlField, relu_terms_1d

__all__ = [
    "relu_field",
    "field_from_terms_1d",
    "relu_well_1d",
    "relu_well_nd",
    "sigmoid",
    "sigmoid_soft_threshold",
    "sigmoid_smn",
    "smn_well_1d",
    "smn_well_nd",
    "soft_threshold_well_1d",
    "block_field",
    "block_well_1d",
    "generic_field",
    "negated_field",
    "AffineRestriction",
    "apply_restriction",
    "OutsideSign",
    "WellFunction",
    "certify_well",
]


def _as_matrix(M, rows=None, cols=None, name="matrix") -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if rows is not None and M.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {M.shape}")
    if cols is not None and M.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} cols, got {M.shape}")
    return M


def _op_norm(M: np.ndarray) -> float:
    """Operator 2-norm; for a row or a column it is the Euclidean norm."""
    if min(M.shape) == 1:
        return math.hypot(*M.ravel().tolist())
    return float(np.linalg.norm(M, 2))


def relu_field(V, W, b, label: str = "relu") -> VectorField:
    """Field z -> V relu(W z + b) with V (n, q), W (q, n), b (q,).

    Lipschitz bound is the operator-norm product |V| |W|.  Fields that read a
    single coordinate get an exact closed-form flow attached when they drive
    one other coordinate, or that coordinate itself and rows proportional to
    it (see ``_relu_exact_flow``).  ``frozen_drive`` is set when V's nonzero
    rows and W's nonzero columns are disjoint.
    """
    V = _as_matrix(V, name="V")
    n, q = V.shape
    W = _as_matrix(W, rows=q, cols=n, name="W")
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape != (q,):
        raise ValueError(f"b must have shape ({q},), got {b.shape}")
    lip = _op_norm(V) * _op_norm(W)

    def evaluate(z, V=V, W=W, b=b):
        z = np.asarray(z, dtype=float)
        return np.maximum(z @ W.T + b, 0.0) @ V.T

    params = {"V": V.tolist(), "W": W.tolist(), "b": b.tolist()}
    pwl = PwlField(np.concatenate((V.T, W, b[:, None]), axis=1)) if n == 1 else None
    rows = [i for i, row in enumerate(V.tolist()) if any(row)]
    cols = [j for j, col in enumerate(zip(*W.tolist())) if any(col)]
    exact = _relu_exact_flow(V, W, b, pwl, rows, cols)
    return VectorField(dim=n, eval=evaluate, lipschitz_bound=lip, label=label,
                       tag="relu", params=params, exact_flow=exact, pwl=pwl,
                       frozen_drive=set(rows).isdisjoint(cols))


def _relu_exact_flow(V: np.ndarray, W: np.ndarray, b: np.ndarray, pwl: Optional[PwlField],
                     rows: list, cols: list):
    """Exact flow where the sparsity pattern has one; reuses a scalar field's pwl.

    ``rows``/``cols`` are the driven/read coordinates.  When a single
    coordinate j is read and drives itself, z_j flows by the scalar kernel;
    every other driven row must then be an exact multiple c_r of row j, and
    moves by c_r times z_j's change (the co-moving shear stage).
    """
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
    elif rows[0] != j:
        i = rows[0]

        def flow_frozen(z, tau, V=V, W=W, b=b, i=i):
            # Driving coordinate i from frozen coordinate j: velocity constant.
            z = np.asarray(z, dtype=float).copy()
            vel = np.maximum(z @ W.T + b, 0.0) @ V[i, :]
            z[..., i] = z[..., i] + tau * vel
            return z

        return flow_frozen
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
                        outside_sign=OutsideSign(+1, +1), slack=0.0, label="soft_threshold")


def smn_well_1d(M: int, N: int) -> "WellFunction":
    bound_inside = 1.0 / (1.0 + math.exp(M / N))

    def evaluate(z, M=M, N=N):
        out = sigmoid_smn(M, N, np.asarray(z, dtype=float)[..., 0])
        return np.asarray(out, dtype=float)[..., None]

    f = VectorField(dim=1, eval=evaluate, lipschitz_bound=M / 4.0,
                    label=f"smn({M},{N})", tag="sigmoid_smn",
                    params={"M": M, "N": N, "dim": 1})
    return WellFunction(dim=1, field=f, zero_box=np.array([[-1.0, 1.0]]),
                        outside_sign=OutsideSign(+1, +1), slack=bound_inside,
                        label=f"smn_well({M},{N})")


def smn_well_nd(M: int, N: int, n: int) -> "WellFunction":
    """All components equal to the coordinate average of s_{M,N}."""
    bound_inside = 1.0 / (1.0 + math.exp(M / N))

    def evaluate(z, M=M, N=N, n=n):
        z = np.asarray(z, dtype=float)
        per_coord = sigmoid_smn(M, N, z)
        mean = per_coord.mean(axis=-1, keepdims=True)
        return np.broadcast_to(mean, z.shape).copy()

    f = VectorField(dim=n, eval=evaluate, lipschitz_bound=M / 4.0,
                    label=f"smn_nd({M},{N})", tag="sigmoid_smn",
                    params={"M": M, "N": N, "dim": n})
    box = np.tile([[-1.0, 1.0]], (n, 1))
    return WellFunction(dim=n, field=f, zero_box=box,
                        outside_sign=OutsideSign(+1, +1), slack=bound_inside,
                        label=f"smn_well_nd({M},{N})")


_ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "sigmoid": sigmoid,
    "tanh": np.tanh,
}
_ACTIVATION_LIP = {"relu": 1.0, "sigmoid": 0.25, "tanh": 1.0}


def block_field(V, W2, b2, W1, b1, sigma: str, label: str = "block") -> VectorField:
    """Two-layer residual block z -> V sigma(W2 sigma(W1 z + b1) + b2)."""
    if sigma not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {sigma!r}")
    V = _as_matrix(V, name="V")
    n, q2 = V.shape
    W2 = _as_matrix(W2, rows=q2, name="W2")
    q1 = W2.shape[1]
    W1 = _as_matrix(W1, rows=q1, cols=n, name="W1")
    b1 = np.asarray(b1, dtype=float).reshape(-1)
    b2 = np.asarray(b2, dtype=float).reshape(-1)
    if b1.shape != (q1,) or b2.shape != (q2,):
        raise ValueError("bias shape mismatch")
    act = _ACTIVATIONS[sigma]
    lip = float(np.linalg.norm(V, 2) * np.linalg.norm(W2, 2) * np.linalg.norm(W1, 2)
                * _ACTIVATION_LIP[sigma] ** 2)

    def evaluate(z, V=V, W2=W2, b2=b2, W1=W1, b1=b1, act=act):
        z = np.asarray(z, dtype=float)
        u = act(z @ W1.T + b1)
        return act(u @ W2.T + b2) @ V.T

    params = {"V": V.tolist(), "W2": W2.tolist(), "b2": b2.tolist(),
              "W1": W1.tolist(), "b1": b1.tolist(), "sigma": sigma}
    return VectorField(dim=n, eval=evaluate, lipschitz_bound=lip, label=label,
                       tag="block", params=params)


# Closed intervals I with interval preimage under each activation; the scalar
# block well is s(a * sigma(z) + b) with a z + b mapping I onto [-1, 1].
_BLOCK_INTERVALS = {
    "relu": (0.5, 1.5),
    "sigmoid": (float(sigmoid(-1.0)), float(sigmoid(1.0))),
    "tanh": (math.tanh(-1.0), math.tanh(1.0)),
}
_BLOCK_ZERO_SETS = {
    "relu": (0.5, 1.5),
    "sigmoid": (-1.0, 1.0),
    "tanh": (-1.0, 1.0),
}


def block_well_1d(sigma: str) -> "WellFunction":
    """Scalar well built by feeding an activation through the soft threshold."""
    if sigma not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {sigma!r}")
    lo, hi = _BLOCK_INTERVALS[sigma]
    a = 2.0 / (hi - lo)
    b = 1.0 - a * hi
    act = _ACTIVATIONS[sigma]

    def evaluate(z, a=a, b=b, act=act):
        z = np.asarray(z, dtype=float)
        out = sigmoid_soft_threshold(a * act(z[..., 0]) + b)
        return np.asarray(out, dtype=float)[..., None]

    f = VectorField(dim=1, eval=evaluate,
                    lipschitz_bound=0.5 * abs(a) * _ACTIVATION_LIP[sigma],
                    label=f"block_well({sigma})")
    z1, z2 = _BLOCK_ZERO_SETS[sigma]
    return WellFunction(dim=1, field=f, zero_box=np.array([[z1, z2]]),
                        outside_sign=OutsideSign(+1, +1), slack=0.0,
                        label=f"block_well({sigma})")


# -- restricted affine invariance --------------------------------------------


@dataclass(frozen=True)
class AffineRestriction:
    """The closure operation f -> D f(A z + b).

    D is diagonal with entries in {-1, 0, +1} (stored as the diagonal).  In
    the "main" regime A must be diagonal with |entries| <= 1; the "tensor"
    regime admits arbitrary A.
    """

    D: np.ndarray
    A: np.ndarray
    b: np.ndarray
    regime: str = "main"

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
        if self.regime not in ("main", "tensor"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if not set(D.tolist()) <= {-1.0, 0.0, 1.0}:
            raise ValueError("D entries must be -1, 0 or +1")
        if self.regime == "main":
            diag = A.diagonal().tolist()
            if np.count_nonzero(A) != sum(a != 0.0 for a in diag):
                raise ValueError("main regime requires diagonal A")
            if not all(abs(a) <= 1.0 + 1e-15 for a in diag):
                raise ValueError("main regime requires |A entries| <= 1")

    @property
    def dim(self) -> int:
        return self.D.shape[0]

    @staticmethod
    def translation(n: int, shift) -> "AffineRestriction":
        """r with D = I, A = I and b = shift: f -> f(z + shift)."""
        b = np.empty(n)
        b[...] = shift
        r = object.__new__(AffineRestriction)  # valid by construction: skip the checks
        r.__dict__.update(D=np.ones(n), A=np.eye(n), b=b, regime="main")
        return r

    @staticmethod
    def flip(n: int) -> "AffineRestriction":
        return AffineRestriction(-np.ones(n), np.eye(n), np.zeros(n))

    def compose_inside(self, outer: "AffineRestriction") -> "AffineRestriction":
        """Restriction equivalent to applying self first, then outer.

        outer(D2,A2,b2) applied to g = D1 f(A1 z + b1) gives
        D2 D1 f(A1 A2 z + A1 b2 + b1).
        """
        regime = "tensor" if "tensor" in (self.regime, outer.regime) else "main"
        return AffineRestriction(self.D * outer.D, self.A @ outer.A,
                                 self.A @ outer.b + self.b, regime=regime)


def apply_restriction(f: VectorField, r: AffineRestriction) -> VectorField:
    """Field z -> D f(A z + b), preserving exact flows where structure allows.

    Structured cases: relu fields recompose algebraically; when the
    coordinates read by A are disjoint from those driven by D the argument is
    frozen along the flow and the velocity is constant (``frozen_drive``).
    """
    if r.dim != f.dim:
        raise ValueError(f"restriction dim {r.dim} != field dim {f.dim}")
    n = f.dim
    # Flatten nested restrictions.
    if f.tag == "restricted" and f.params is not None:
        inner = field_from_json(f.params["inner"])
        r_inner = AffineRestriction(np.asarray(f.params["D"]), np.asarray(f.params["A"]),
                                    np.asarray(f.params["b"]), regime=f.params["regime"])
        return apply_restriction(inner, r_inner.compose_inside(r))
    # ReLU fields stay ReLU: V' = D V, W' = W A, b' = W b + b.
    if f.tag == "relu" and f.params is not None:
        V = np.asarray(f.params["V"], dtype=float)
        W = np.asarray(f.params["W"], dtype=float)
        b = np.asarray(f.params["b"], dtype=float)
        return relu_field(r.D[:, None] * V, W @ r.A, W @ r.b + b,
                          label=f"{f.label}|restricted")
    frozen = not np.any(r.A[:, r.D != 0.0])  # A reads no driven coordinate
    exact = _restricted_exact_flow(f, r, frozen)
    lip = float(np.max(np.abs(r.D)) * f.lipschitz_bound * (np.linalg.norm(r.A, 2) if n > 0 else 0.0))

    def evaluate(z, f=f, r=r):
        z = np.asarray(z, dtype=float)
        return r.D * f.eval(z @ r.A.T + r.b)

    params = {"inner": {"family_tag": f.tag, "params": f.params},
              "D": r.D.tolist(), "A": r.A.tolist(), "b": r.b.tolist(),
              "regime": r.regime}
    tag = "restricted" if f.tag is not None else None
    return VectorField(dim=n, eval=evaluate, lipschitz_bound=lip,
                       label=f"{f.label}|restricted", tag=tag,
                       params=params if tag else None, exact_flow=exact,
                       frozen_drive=frozen)


def _restricted_exact_flow(f: VectorField, r: AffineRestriction, frozen: bool):
    if not np.any(r.D):
        return lambda z, tau: np.asarray(z, dtype=float).copy()
    if frozen:
        # Frozen argument: A z + b constant along the flow, velocity constant.
        def flow_frozen(z, tau, f=f, r=r):
            z = np.asarray(z, dtype=float).copy()
            vel = r.D * f.eval(z @ r.A.T + r.b)
            return z + tau * vel

        return flow_frozen
    return None


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
    """A field vanishing on a box, with certified outside-sign behavior.

    ``slack`` is the certified bound on |field| inside the zero box: exactly
    0 for the ReLU constructions, and the proven estimate for the smoothed
    sigmoid surrogates.
    """

    dim: int
    field: VectorField
    zero_box: np.ndarray
    outside_sign: OutsideSign
    slack: float = 0.0
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

    @property
    def width(self) -> float:
        return float(np.min(self.zero_box[:, 1] - self.zero_box[:, 0]))

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

    def flipped(self) -> "WellFunction":
        sign = OutsideSign(-self.outside_sign.left, -self.outside_sign.right)
        return self._replace(field=negated_field(self.field), outside_sign=sign)

    def section_1d(self, component: int = 0, axis: int = 0, base=None) -> "WellFunction":
        """1D well from the given component along an axis line through base.

        ReLU-built wells section into exact ReLU term lists.  base defaults
        to the zero-box center, so the other coordinates contribute nothing.
        """
        self.require_piece_tables("section_1d")
        if base is None:
            base = self.zero_box.mean(axis=1)
        base = np.asarray(base, dtype=float)
        V = np.asarray(self.field.params["V"], dtype=float)
        W = np.asarray(self.field.params["W"], dtype=float)
        b = np.asarray(self.field.params["b"], dtype=float)
        off = W @ base - W[:, axis] * base[axis] + b
        terms = np.column_stack([V[component, :], W[:, axis], off])
        f1 = field_from_terms_1d(terms, label=f"{self.label}|section{component},{axis}")
        return WellFunction(dim=1, field=f1, zero_box=self.zero_box[axis:axis + 1, :].copy(),
                            outside_sign=self.outside_sign, slack=self.slack,
                            label=f"{self.label}|1d")

    def require_piece_tables(self, what: str) -> None:
        """Raise ValueError unless the well is ReLU-built with slack 0.

        Point matching parks squeezed points next to the zero interval and
        times every stage from the walls' piece tables (``field.pwl``; for
        n >= 2, those of the ReLU well's 1D sections).  A wall with a dead
        zone (slack > 0) stalls parked points, and a wall without piece
        tables has no closed-form hitting times.
        """
        tables = self.field.pwl is not None if self.dim == 1 else self.field.tag == "relu"
        faults = [f for f, bad in (("no piece tables", not tables),
                                   (f"slack {self.slack:g}", self.slack > 0)) if bad]
        if faults:
            raise ValueError(f"{what} needs a ReLU-built well, with piece tables (field.pwl) "
                             f"and slack 0; {self.label or 'this well'} has {' and '.join(faults)}")


def relu_well_1d(q1: float, q2: float) -> WellFunction:
    """h(x) = (relu(q1 - x) + relu(x - q2)) / 2: zero on [q1, q2], positive outside."""
    if not q1 < q2:
        raise ValueError("need q1 < q2")
    f = field_from_terms_1d([(0.5, -1.0, q1), (0.5, 1.0, -q2)], label="relu_well")
    return WellFunction(dim=1, field=f, zero_box=np.array([[q1, q2]]),
                        outside_sign=OutsideSign(+1, +1), slack=0.0, label="relu_well")


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
                        outside_sign=OutsideSign(+1, +1), slack=0.0,
                        label=f"relu_well_nd({n})")


def certify_well(well: WellFunction, samples_per_line: int = 100_000,
                 reach: float = 3.0, tol: float = 1e-12, seed: int = 0) -> dict:
    """Sample-based certification of the well contract.

    Checks |field| <= slack + tol on points inside the zero box and constant
    nonzero component signs on rays beyond the box along every axis.
    Returns a report dict with the measured margins.
    """
    rng = np.random.default_rng(seed)
    box = well.zero_box
    n = well.dim
    inside = rng.uniform(box[:, 0], box[:, 1], size=(samples_per_line, n))
    vals = well.field.eval(inside)
    inside_max = float(np.max(np.abs(vals)))
    ok = inside_max <= well.slack + tol
    sign_ok = True
    min_margin = np.inf
    center = box.mean(axis=1)
    for axis in range(n):
        for side, sgn in (("left", well.outside_sign.left), ("right", well.outside_sign.right)):
            ts = np.linspace(1e-6, reach, samples_per_line // 10)
            pts = np.tile(center, (len(ts), 1))
            if side == "left":
                pts[:, axis] = box[axis, 0] - ts
            else:
                pts[:, axis] = box[axis, 1] + ts
            comp = well.field.eval(pts)
            signed = sgn * comp
            if np.any(signed <= 0.0):
                sign_ok = False
            min_margin = min(min_margin, float(np.min(np.abs(comp))))
    return {
        "inside_max_abs": inside_max,
        "inside_ok": bool(ok),
        "outside_sign_ok": bool(sign_ok),
        "outside_min_margin": min_margin,
        "passed": bool(ok and sign_ok),
    }


# -- serialization registry --------------------------------------------------


def _build_relu(params: dict) -> VectorField:
    return relu_field(params["V"], params["W"], params["b"])


def _build_sigmoid_smn(params: dict) -> VectorField:
    d = int(params["dim"])
    well = smn_well_1d(int(params["M"]), int(params["N"])) if d == 1 \
        else smn_well_nd(int(params["M"]), int(params["N"]), d)
    return well.field


def _build_block(params: dict) -> VectorField:
    return block_field(params["V"], params["W2"], params["b2"],
                       params["W1"], params["b1"], params["sigma"])


def _build_restricted(params: dict) -> VectorField:
    inner = field_from_json(params["inner"])
    r = AffineRestriction(np.asarray(params["D"]), np.asarray(params["A"]),
                          np.asarray(params["b"]), regime=params["regime"])
    return apply_restriction(inner, r)


register_family("relu", _build_relu)
register_family("sigmoid_smn", _build_sigmoid_smn)
register_family("block", _build_block)
register_family("restricted", _build_restricted)
