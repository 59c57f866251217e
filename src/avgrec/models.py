"""Concrete quasilinear problem definitions.

Every model exposes the same surface: ``assemble_A(u)`` produces the dense
generator matrix of the linearized evolution at state u, ``evaluate_f(u)``
the semilinear forcing, plus a base operator, an exponent book, and an
admissible ball radius measured in the low-order spectral norm.  Models are
immutable; both methods are pure and reentrant.

Both methods take one state u of shape (n,) or a stack of states (..., n),
one per time node, and return one result per state: ``assemble_A`` a
(..., n, n) stack, ``evaluate_f`` a (..., n) stack.  A stack is one call
with one implementation, and each slice equals the single-state call bit
for bit; the solver makes one such call per sweep instead of one per node.
The ball norm (``check_ball``) takes the same stacks.

Every shipped generator is tridiagonal, and every shipped model also
exposes the optional ``assemble_bands(u, enforce_ball=True)``: the three
central diagonals (sub, main, sup) of A(u), shapes (..., n-1), (..., n) and
(..., n-1).  It is the one implementation of each generator:
``assemble_A`` writes those diagonals into a zeroed (..., n, n) stack
(``spatial.band_stack``), so the dense stack contract above is unchanged
and equals the dense formula bit for bit.  The solver asks a model that
has ``assemble_bands`` for the diagonals only and never forms the dense
stack on the stepper's path.  Every shipped model rejects difference or
generator matrices that are not tridiagonal.

Shipped models:

* local-sensing chemotaxis: the signal v = (I - Laplacian)^{-1} u feeds the
  cell diffusivity a(v) and sensitivity chi(v),
      A(u) w = a(v) Lap w + (a - chi)'(v) (dv) (dw) - chi(v) v w,
      f(u)   = -chi(v) u^2,
  with the natural exponential family a(s) = exp(-delta s), chi = -a';
* reaction-diffusion with nonlocal coefficients: divergence-form diffusion
  a(x, l(u)) with a scalar functional l(u) = int m u, optional drift and
  zeroth-order terms, and a pointwise polynomial forcing with f(0) = f'(0) = 0;
* a linear test model (constant generator, zero forcing) for exactness checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .errors import BallViolationError, ConfigurationError, ModelError
from .spatial import (
    BaseOperator,
    BoundaryKind,
    Grid1D,
    SobolevScale,
    assemble_laplacian,
    band_stack,
    first_difference,
    first_node,
    helmholtz_solve,
    matvec,
    node_label,
    sobolev_norm,
)


@dataclass(frozen=True)
class ExponentBook:
    """Exponent tuple of the well-posedness theory with its inequality chain."""

    beta: float
    alpha: float
    alpha0: float
    gamma: float
    xi: float
    mu: float
    rho: float
    ell: float

    def checks(self) -> list[tuple[str, bool]]:
        b = self
        return [
            ("0 <= beta < alpha < alpha0 <= 1", 0 <= b.beta < b.alpha < b.alpha0 <= 1),
            ("ell > 0", b.ell > 0),
            ("alpha0 < gamma <= 1", b.alpha0 < b.gamma <= 1),
            (
                "0 < xi < min(alpha + 1/(ell+1), 1)",
                0 < b.xi < min(b.alpha + 1.0 / (b.ell + 1.0), 1.0),
            ),
            (
                "max(xi - alpha, 0) < mu < 1/(ell+1)",
                max(b.xi - b.alpha, 0.0) < b.mu < 1.0 / (b.ell + 1.0),
            ),
            (
                "0 < 2 rho < min(2 (1 - mu (ell+1)), alpha - beta)",
                0 < 2 * b.rho < min(2.0 * (1.0 - b.mu * (b.ell + 1.0)), b.alpha - b.beta),
            ),
        ]

    def all_valid(self) -> bool:
        return all(ok for _, ok in self.checks())


@runtime_checkable
class QuasilinearModel(Protocol):
    """Interface every shipped model implements.

    ``assemble_A`` and ``evaluate_f`` accept one state (n,) or a stack
    (..., n) and return (..., n, n) and (..., n); every slice must equal the
    single-state call on that slice.  With ``enforce_ball=False``,
    ``assemble_A`` does not evaluate the ball norm.

    A tridiagonal model may also provide ``assemble_bands(u, enforce_ball=True)``
    returning the (sub, main, sup) diagonals of ``assemble_A(u)``, shapes
    (..., n-1), (..., n) and (..., n-1), with every entry off them an exact
    zero.  It is optional and not part of the runtime check: the solver
    calls it when present and then skips the dense (K+1, n, n) stack.
    """

    base: BaseOperator
    scale: SobolevScale
    exponents: ExponentBook
    ball_radius: float

    def assemble_A(self, u: np.ndarray, enforce_ball: bool = True) -> np.ndarray: ...

    def evaluate_f(self, u: np.ndarray) -> np.ndarray: ...


def _ball_norm(model, u: np.ndarray) -> float:
    return sobolev_norm(model.scale, u, 2.0 * model.exponents.beta)


def check_ball(model, u: np.ndarray, enforce: bool) -> float | np.ndarray:
    """Ball norm of a state (a float) or of each state of a stack (shape
    (...)); with ``enforce``, a state outside the ball raises, the first
    such node of a stack named."""
    norm = _ball_norm(model, u)
    node = first_node(np.asarray(norm) > model.ball_radius) if enforce else None
    if node is not None:
        bad = float(np.asarray(norm)[node])
        raise BallViolationError(
            f"{node_label(node)}state leaves the admissible ball: "
            f"|u| = {bad:.3e} > {model.ball_radius:.3e}",
            norm=bad,
            radius=model.ball_radius,
        )
    return norm


# (k, rows): diagonal k holds the entries (i, i + k) for i in rows.
_BAND = ((-1, slice(1, None)), (0, slice(None)), (1, slice(-1)))

Bands = tuple[np.ndarray, np.ndarray, np.ndarray]


def _require_tridiagonal(model: str, name: str, matrix: np.ndarray) -> None:
    if np.count_nonzero(np.triu(matrix, 2)) or np.count_nonzero(np.tril(matrix, -2)):
        raise ConfigurationError(f"the {model} {name} matrix must be tridiagonal")


def chemotaxis_exponents(s: float, ell: float = 1.0) -> ExponentBook:
    """Admissible exponents for the chemotaxis model at data order s in (2, 5/2).

    alpha = s/2 - 1 and xi = s/4 are forced; the remaining exponents are
    placed inside their open constraint intervals.
    """
    alpha = s / 2.0 - 1.0
    xi = s / 4.0
    gamma = alpha + 0.8 * (0.25 - alpha)
    alpha0 = alpha + 0.4 * (0.25 - alpha)
    mu = 0.5 * (max(xi - alpha, 0.0) + 1.0 / (ell + 1.0))
    rho = 0.4 * min(2.0 * (1.0 - mu * (ell + 1.0)), alpha)
    return ExponentBook(
        beta=0.0, alpha=alpha, alpha0=alpha0, gamma=gamma, xi=xi, mu=mu, rho=rho, ell=ell
    )


@dataclass(frozen=True, eq=False)
class ChemotaxisModel:
    """Local-sensing chemotaxis on a Neumann grid."""

    base: BaseOperator
    scale: SobolevScale
    exponents: ExponentBook
    a_fn: Callable[[np.ndarray], np.ndarray]
    chi_fn: Callable[[np.ndarray], np.ndarray]
    drift_coeff_fn: Callable[[np.ndarray], np.ndarray]  # derivative of (a - chi)
    delta: float
    s: float
    ball_radius: float = 1.0
    diff1: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.base.grid.bc is not BoundaryKind.NEUMANN:
            raise ConfigurationError("the chemotaxis model requires a Neumann grid")
        if self.a_fn(np.zeros(1))[0] <= 0:
            raise ConfigurationError("cell diffusivity must satisfy a(0) > 0")
        if self.diff1 is None:
            object.__setattr__(self, "diff1", first_difference(self.base.grid))
        _require_tridiagonal("chemotaxis", "Laplacian", self.base.matrix)
        _require_tridiagonal("chemotaxis", "first difference", self.diff1)

    @classmethod
    def default(
        cls, grid: Grid1D, delta: float = 1.0, s: float = 2.25, ball_radius: float = 1.0
    ) -> "ChemotaxisModel":
        """Exponential family a(s) = exp(-delta s), chi = -a' = delta a."""
        base = assemble_laplacian(grid)

        def a_fn(v):
            return np.exp(-delta * v)

        def chi_fn(v):
            return delta * np.exp(-delta * v)

        def drift_coeff_fn(v):
            # (a - chi)' for the exponential family: -delta (1 - delta) e^{-delta v}
            return -delta * (1.0 - delta) * np.exp(-delta * v)

        return cls(
            base=base,
            scale=SobolevScale(base=base),
            exponents=chemotaxis_exponents(s),
            a_fn=a_fn,
            chi_fn=chi_fn,
            drift_coeff_fn=drift_coeff_fn,
            delta=delta,
            s=s,
            ball_radius=ball_radius,
        )

    def signal(self, u: np.ndarray) -> np.ndarray:
        return helmholtz_solve(self.base, u)

    def assemble_A(self, u: np.ndarray, enforce_ball: bool = True) -> np.ndarray:
        return band_stack(*self.assemble_bands(u, enforce_ball))

    def assemble_bands(self, u: np.ndarray, enforce_ball: bool = True) -> Bands:
        if enforce_ball:
            check_ball(self, u, enforce=True)
        v = self.signal(u)
        diffusion = self.a_fn(v)
        drift = self.drift_coeff_fn(v) * matvec(self.diff1, v)
        # Both difference matrices are tridiagonal: a_i L_ij + c_i D_ij on the band.
        sub, main, sup = (
            diffusion[..., rows] * np.diagonal(self.base.matrix, k)
            + drift[..., rows] * np.diagonal(self.diff1, k)
            for k, rows in _BAND
        )
        return sub, main - self.chi_fn(v) * v, sup

    def evaluate_f(self, u: np.ndarray) -> np.ndarray:
        return -self.chi_fn(self.signal(u)) * u**2


def rd_exponents(p: float = 4.0, ell: float = 2.0, delta: int = 1) -> ExponentBook:
    """Admissible exponents for the 1-D nonlocal reaction-diffusion model."""
    cap = min(1.0 / p, 0.5 * (delta + 1.0 / p))
    alpha = 0.4 * cap
    alpha0 = 0.8 * cap
    xi_lo = 1.0 / p
    xi_hi = min(alpha + 1.0 / (ell + 1.0), 1.0)
    xi = 0.5 * (xi_lo + xi_hi)
    gamma = 0.5 * (alpha0 + xi)
    mu = 0.5 * (max(xi - alpha, 0.0) + 1.0 / (ell + 1.0))
    rho = 0.4 * min(2.0 * (1.0 - mu * (ell + 1.0)), alpha)
    return ExponentBook(
        beta=0.0, alpha=alpha, alpha0=alpha0, gamma=gamma, xi=xi, mu=mu, rho=rho, ell=ell
    )


@dataclass(frozen=True, eq=False)
class NonlocalRDModel:
    """Divergence-form reaction-diffusion with nonlocal coefficient functionals.

    The diffusion coefficient a(x, l(u)) is evaluated at the flux-face
    coordinates, which keeps the matrix symmetric whenever drift and
    zeroth-order terms vanish.  The default functional is the linear integral
    l(u) = int m u dx; pass ``functional_fn`` for a nonlinear functional.
    Drift and zeroth-order coefficients share the same functional value.

    ``diff_fn``, ``drift_fn`` and ``react_fn`` are called as fn(x, l) with
    the coordinates x and l(u) as an array of shape (..., 1), one value per
    state, and return one row of coefficients per state.  ``functional_fn``
    takes one state (n,) and is mapped over the states of a stack.
    """

    base: BaseOperator
    scale: SobolevScale
    exponents: ExponentBook
    diff_fn: Callable[[np.ndarray, float], np.ndarray]
    poly_coeffs: tuple
    functional_weight: np.ndarray
    drift_fn: Callable[[np.ndarray, float], np.ndarray] | None = None
    react_fn: Callable[[np.ndarray, float], np.ndarray] | None = None
    functional_fn: Callable[[np.ndarray], float] | None = None
    ellipticity_floor: float = 1e-10
    p: float = 4.0
    ball_radius: float = 1.0
    diff1: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.poly_coeffs)
        if len(coeffs) < 3 or coeffs[0] != 0.0 or coeffs[1] != 0.0:
            raise ConfigurationError(
                "forcing polynomial must satisfy f(0) = f'(0) = 0 "
                "(zero constant and linear coefficients)"
            )
        object.__setattr__(self, "poly_coeffs", coeffs)
        m = np.asarray(self.functional_weight, dtype=float)
        if m.shape != (self.base.grid.n,):
            raise ConfigurationError("functional weight must be a nodal field")
        object.__setattr__(self, "functional_weight", m)
        faces0 = self.diff_fn(self.base.grid.face_coords, self.functional_value(np.zeros_like(m)))
        if np.min(faces0) < self.ellipticity_floor:
            raise ConfigurationError(
                f"diffusion coefficient at the zero state falls below the ellipticity "
                f"floor {self.ellipticity_floor}"
            )
        if self.diff1 is None:
            object.__setattr__(self, "diff1", first_difference(self.base.grid))
        _require_tridiagonal("reaction-diffusion", "first difference", self.diff1)

    @classmethod
    def default(
        cls,
        grid: Grid1D,
        poly_coeffs: tuple = (0.0, 0.0, 0.0, -1.0),
        p: float = 4.0,
        ball_radius: float = 1.0,
    ) -> "NonlocalRDModel":
        """a(x, s) = 1 + s^2 with l(u) = int u dx and f(r) = -r^3."""
        base = assemble_laplacian(grid)
        ell = max(len(poly_coeffs) - 2, 1)
        delta = 1 if grid.bc is BoundaryKind.NEUMANN else 0
        return cls(
            base=base,
            scale=SobolevScale(base=base),
            exponents=rd_exponents(p=p, ell=float(ell), delta=delta),
            diff_fn=lambda x, s: 1.0 + s**2 + 0.0 * x,
            poly_coeffs=poly_coeffs,
            functional_weight=np.ones(grid.n),
            p=p,
            ball_radius=ball_radius,
        )

    @property
    def ell(self) -> float:
        return self.exponents.ell

    def functional_value(self, u: np.ndarray) -> np.ndarray:
        """l(u) of each state, shape (..., 1): the nonlinear override when
        given, else int m u dx on the grid."""
        u = np.asarray(u, dtype=float)
        if self.functional_fn is not None:
            rows = u.reshape(-1, u.shape[-1])
            values = np.array([float(self.functional_fn(row)) for row in rows])
            return values.reshape(u.shape[:-1] + (1,))
        return self.base.grid.spacing * np.matmul(self.functional_weight, u[..., None])

    def assemble_A(self, u: np.ndarray, enforce_ball: bool = True) -> np.ndarray:
        return band_stack(*self.assemble_bands(u, enforce_ball))

    def assemble_bands(self, u: np.ndarray, enforce_ball: bool = True) -> Bands:
        if enforce_ball:
            check_ball(self, u, enforce=True)
        grid = self.base.grid
        h2 = grid.spacing * grid.spacing
        s_val = self.functional_value(u)
        faces = np.asarray(self.diff_fn(grid.face_coords, s_val), dtype=float)
        low = faces.min(axis=-1)
        node = first_node(low <= max(self.ellipticity_floor, 0.0))
        if node is not None:
            raise ModelError(
                f"{node_label(node)}ellipticity violated: min face coefficient "
                f"{low[node]:.3e} at l(u)={s_val[node][0]:.3e}"
            )
        if grid.bc is BoundaryKind.NEUMANN:
            # faces[i] sits between nodes i and i+1; boundary faces carry no flux
            zero = np.zeros(faces.shape[:-1] + (1,))
            left = np.concatenate([zero, faces], axis=-1)
            right = np.concatenate([faces, zero], axis=-1)
        else:
            # faces[i] sits left of node i, including the two boundary faces
            left = faces[..., :-1]
            right = faces[..., 1:]
        band = [left[..., 1:] / h2, -(left + right) / h2, right[..., :-1] / h2]
        if self.drift_fn is not None:
            drift = np.asarray(self.drift_fn(grid.nodes, s_val))
            band = [
                values + drift[..., rows] * np.diagonal(self.diff1, k)
                for values, (k, rows) in zip(band, _BAND)
            ]
        if self.react_fn is not None:
            band[1] += np.asarray(self.react_fn(grid.nodes, s_val))
        return tuple(band)

    def evaluate_f(self, u: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(u, self.poly_coeffs)


def generic_exponents(ell: float = 1.0) -> ExponentBook:
    return ExponentBook(
        beta=0.0, alpha=0.25, alpha0=0.3, gamma=0.5, xi=0.4, mu=0.3, rho=0.1, ell=ell
    )


@dataclass(frozen=True, eq=False)
class LinearTestModel:
    """Constant generator, zero forcing; recovery is exact for this model."""

    base: BaseOperator
    scale: SobolevScale
    exponents: ExponentBook
    matrix: np.ndarray
    ball_radius: float = float("inf")

    def __post_init__(self):
        _require_tridiagonal("linear test", "generator", self.matrix)

    @classmethod
    def default(cls, grid: Grid1D, coefficient: float = 1.0) -> "LinearTestModel":
        base = assemble_laplacian(grid)
        return cls(
            base=base,
            scale=SobolevScale(base=base),
            exponents=generic_exponents(),
            matrix=coefficient * base.matrix,
        )

    def assemble_A(self, u: np.ndarray, enforce_ball: bool = True) -> np.ndarray:
        return band_stack(*self.assemble_bands(u, enforce_ball))

    def assemble_bands(self, u: np.ndarray, enforce_ball: bool = True) -> Bands:
        lead = np.shape(u)[:-1]
        bands = (np.diagonal(self.matrix, k) for k, _ in _BAND)
        return tuple(np.broadcast_to(band, lead + band.shape) for band in bands)

    def evaluate_f(self, u: np.ndarray) -> np.ndarray:
        return np.zeros_like(u)


@dataclass(frozen=True)
class ExponentReport:
    entries: tuple  # (name, passed, detail)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.entries if not ok]

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "entries": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.entries
            ],
        }


def validate_exponents(model) -> ExponentReport:
    """Check the model's exponent book against every inequality it must satisfy."""
    book = model.exponents
    entries = [(name, ok, "") for name, ok in book.checks()]
    if isinstance(model, ChemotaxisModel):
        s = model.s
        entries += [
            ("2 < s < 5/2", 2.0 < s < 2.5, f"s={s}"),
            ("alpha = s/2 - 1", abs(book.alpha - (s / 2 - 1)) < 1e-12, f"alpha={book.alpha}"),
            ("xi = s/4", abs(book.xi - s / 4) < 1e-12, f"xi={book.xi}"),
            ("gamma < 1/4", book.gamma < 0.25, f"gamma={book.gamma}"),
        ]
    if isinstance(model, NonlocalRDModel):
        n_dim = 1
        delta = 1 if model.base.grid.bc is BoundaryKind.NEUMANN else 0
        cap = min(n_dim / model.p, 0.5 * (delta + 1.0 / model.p))
        entries += [
            ("(ell + 1) n < p", (model.ell + 1) * n_dim < model.p, f"p={model.p}"),
            (
                "0 < alpha < alpha0 < min(n/p, (delta + 1/p)/2)",
                0 < book.alpha < book.alpha0 < cap,
                f"cap={cap}",
            ),
            (
                "n/p < xi < min(alpha + 1/(ell+1), 1)",
                n_dim / model.p < book.xi < min(book.alpha + 1 / (model.ell + 1), 1.0),
                f"xi={book.xi}",
            ),
            (
                "beta = 0 < alpha < alpha0 < gamma < xi",
                book.beta == 0 and book.alpha < book.alpha0 < book.gamma < book.xi,
                "",
            ),
        ]
    return ExponentReport(entries=tuple(entries))
