"""Concrete quasilinear problem definitions.

Every model exposes the same surface: ``linearise(u)`` returns the
generator A(u) of the linearized evolution at state u, as its three
central diagonals (sub, main, sup), together with the semilinear forcing
f(u), from one evaluation of the model at u (the chemotaxis signal is
solved once for both); plus the base operator (the Laplacian, whose
eigenpairs the spectral norms read), an exponent book, and an admissible
ball radius measured in the low-order spectral norm.  Each model is what
``cli.build_model`` builds from a config.  Models are immutable;
``linearise`` is pure and reentrant.

Every generator is a 1-D second-order difference operator, so A(u) is
tridiagonal, and the diagonals are its one form: the models build them
from the three diagonals of the Laplacian (``base.bands``, or its stencil)
and of the first difference (``spatial.first_difference``, derived once by the
chemotaxis model as its ``difference`` field), and no dense matrix is
stored.  ``linearise`` takes one state u of shape (n,) or a stack of
states (..., n), one per time node, and returns one result per state:
bands of shapes (..., n-1), (..., n) and (..., n-1) and a (..., n) stack
of forcings.  A stack is one call with one implementation, and each slice
equals the single-state call bit for bit; the solver makes one such call
per sweep instead of one per node.  ``linearise`` does not evaluate the
ball norm; ``check_ball`` is the one ball check, and takes the same
stacks.

Shipped models:

* local-sensing chemotaxis: the signal v = (I - Laplacian)^{-1} u feeds the
  cell diffusivity a(v) and sensitivity chi(v),
      A(u) w = a(v) Lap w + (a - chi)'(v) (dv) (dw) - chi(v) v w,
      f(u)   = -chi(v) u^2,
  with the natural exponential family a(s) = exp(-delta s), chi = -a';
* reaction-diffusion with a nonlocal coefficient: a = 1 + l(u)^2, with
  l(u) = int u dx, is constant in space, so the generator is a times the
  Laplacian; and a pointwise polynomial forcing with f(0) = f'(0) = 0
  (a >= 1, so the operator is uniformly elliptic);
* a linear test model (constant generator, zero forcing) for exactness checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import BallViolationError, ConfigurationError
from .spatial import (
    BaseOperator,
    BoundaryKind,
    Grid1D,
    assemble_laplacian,
    band_matvec,
    first_difference,
    first_node,
    helmholtz_solve,
    laplacian_stencil,
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

    @property
    def inv_ell_plus_1(self) -> float:
        """1/(ell+1); NaN at ell = -1, so that every inequality reading it fails."""
        return 1.0 / (self.ell + 1.0) if self.ell != -1.0 else float("nan")

    def checks(self) -> list[tuple[str, bool]]:
        b = self
        return [
            ("0 <= beta < alpha < alpha0 <= 1", 0 <= b.beta < b.alpha < b.alpha0 <= 1),
            ("ell > 0", b.ell > 0),
            ("alpha0 < gamma <= 1", b.alpha0 < b.gamma <= 1),
            (
                "0 < xi < min(alpha + 1/(ell+1), 1)",
                0 < b.xi < min(b.alpha + b.inv_ell_plus_1, 1.0),
            ),
            (
                "max(xi - alpha, 0) < mu < 1/(ell+1)",
                max(b.xi - b.alpha, 0.0) < b.mu < b.inv_ell_plus_1,
            ),
            (
                "0 < 2 rho < min(2 (1 - mu (ell+1)), alpha - beta)",
                0 < 2 * b.rho < min(2.0 * (1.0 - b.mu * (b.ell + 1.0)), b.alpha - b.beta),
            ),
        ]


Bands = tuple[np.ndarray, np.ndarray, np.ndarray]


@runtime_checkable
class QuasilinearModel(Protocol):
    """Interface every shipped model implements.

    ``linearise`` accepts one state (n,) or a stack (..., n) and returns
    ``(bands, f)``: the (sub, main, sup) diagonals of A(u), shapes
    (..., n-1), (..., n) and (..., n-1), with every entry off them an exact
    zero, and f(u), shape (..., n).  Every slice must equal the
    single-state call on that slice.
    """

    base: BaseOperator
    exponents: ExponentBook
    ball_radius: float

    def linearise(self, u: np.ndarray) -> tuple[Bands, np.ndarray]: ...


def _ball_norm(model, u: np.ndarray) -> float:
    return sobolev_norm(model.base, u, 2.0 * model.exponents.beta)


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


# The rows of the (sub, main, sup) diagonals' entries: (i, i - 1) for
# i >= 1, (i, i) for every i and (i, i + 1) for i < n - 1.
_BAND = (slice(1, None), slice(None), slice(-1))


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
    """Local-sensing chemotaxis on a Neumann grid, in the exponential family
    a(s) = exp(-delta s), chi = -a' = delta a."""

    base: BaseOperator
    exponents: ExponentBook
    delta: float
    s: float
    ball_radius: float = 1.0
    difference: Bands = field(init=False, repr=False)  # first_difference of the grid

    def __post_init__(self):
        if self.base.grid.bc is not BoundaryKind.NEUMANN:
            raise ConfigurationError("[grid] bc: the chemotaxis model requires a Neumann grid")
        object.__setattr__(self, "difference", first_difference(self.base.grid))

    @classmethod
    def default(
        cls, grid: Grid1D, delta: float = 1.0, s: float = 2.25, ball_radius: float = 1.0
    ) -> "ChemotaxisModel":
        base = assemble_laplacian(grid)
        return cls(
            base=base,
            exponents=chemotaxis_exponents(s),
            delta=delta,
            s=s,
            ball_radius=ball_radius,
        )

    def signal(self, u: np.ndarray) -> np.ndarray:
        return helmholtz_solve(self.base, u)

    def linearise(self, u: np.ndarray) -> tuple[Bands, np.ndarray]:
        v = self.signal(u)
        # a(v) = e, chi(v) = delta e and (a - chi)'(v) = -delta (1 - delta) e.
        e = np.exp(-self.delta * v)
        chi = self.delta * e
        drift = -self.delta * (1.0 - self.delta) * e * band_matvec(self.difference, v)
        # a_i L_ij + c_i D_ij on each diagonal.
        sub, main, sup = (
            e[..., rows] * lap + drift[..., rows] * diff
            for lap, diff, rows in zip(self.base.bands, self.difference, _BAND)
        )
        return (sub, main - chi * v, sup), -chi * u**2


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
    """Reaction-diffusion with a nonlocal coefficient.

    The diffusion coefficient a = 1 + l(u)^2, with l(u) = int u dx, is one
    number per state, so A(u) is the Laplacian's stencil times a/h^2; the
    forcing is the polynomial ``poly_coeffs``, applied pointwise.
    """

    base: BaseOperator
    exponents: ExponentBook
    poly_coeffs: tuple
    p: float = 4.0
    ball_radius: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.poly_coeffs)
        if len(coeffs) < 3 or coeffs[0] != 0.0 or coeffs[1] != 0.0:
            raise ConfigurationError(
                "[model] f_poly: forcing polynomial must satisfy f(0) = f'(0) = 0 "
                "(zero constant and linear coefficients)"
            )
        object.__setattr__(self, "poly_coeffs", coeffs)

    @classmethod
    def default(
        cls,
        grid: Grid1D,
        poly_coeffs: tuple = (0.0, 0.0, 0.0, -1.0),
        p: float = 4.0,
        ball_radius: float = 1.0,
    ) -> "NonlocalRDModel":
        """f(r) = -r^3 unless ``poly_coeffs`` says otherwise."""
        ell = max(len(poly_coeffs) - 2, 1)
        delta = 1 if grid.bc is BoundaryKind.NEUMANN else 0
        return cls(
            base=assemble_laplacian(grid),
            exponents=rd_exponents(p=p, ell=float(ell), delta=delta),
            poly_coeffs=poly_coeffs,
            p=p,
            ball_radius=ball_radius,
        )

    @property
    def ell(self) -> float:
        return self.exponents.ell

    def linearise(self, u: np.ndarray) -> tuple[Bands, np.ndarray]:
        grid = self.base.grid
        # l(u) of each state, shape (..., 1), as a matrix product: u.sum(-1)
        # rounds differently in the last bits.
        l_u = grid.spacing * np.matmul(np.ones(grid.n), np.asarray(u, dtype=float)[..., None])
        scale = (1.0 + l_u**2) / (grid.spacing * grid.spacing)
        bands = tuple(scale * band for band in laplacian_stencil(grid))
        return bands, np.polynomial.polynomial.polyval(u, self.poly_coeffs)


def generic_exponents(ell: float = 1.0) -> ExponentBook:
    return ExponentBook(
        beta=0.0, alpha=0.25, alpha0=0.3, gamma=0.5, xi=0.4, mu=0.3, rho=0.1, ell=ell
    )


@dataclass(frozen=True, eq=False)
class LinearTestModel:
    """Constant generator, held as its (sub, main, sup) diagonals, and zero
    forcing; recovery is exact for this model."""

    base: BaseOperator
    exponents: ExponentBook
    bands: Bands
    ball_radius: float = float("inf")

    @classmethod
    def default(cls, grid: Grid1D, coefficient: float = 1.0) -> "LinearTestModel":
        base = assemble_laplacian(grid)
        peak = max(float(np.abs(band).max()) for band in base.bands)
        if abs(coefficient) * peak == float("inf"):  # Python floats: inf on overflow
            raise ConfigurationError(f"[model] coefficient: {coefficient} overflows the generator")
        return cls(
            base=base,
            exponents=generic_exponents(),
            bands=tuple(coefficient * band for band in base.bands),
        )

    def linearise(self, u: np.ndarray) -> tuple[Bands, np.ndarray]:
        lead = np.shape(u)[:-1]
        bands = tuple(np.broadcast_to(band, lead + band.shape) for band in self.bands)
        return bands, np.zeros_like(u)


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
                n_dim / model.p < book.xi < min(book.alpha + book.inv_ell_plus_1, 1.0),
                f"xi={book.xi}",
            ),
            (
                "beta = 0 < alpha < alpha0 < gamma < xi",
                book.beta == 0 and book.alpha < book.alpha0 < book.gamma < book.xi,
                "",
            ),
        ]
    return ExponentReport(entries=tuple(entries))
