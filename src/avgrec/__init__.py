"""avgrec: initial-state recovery for quasilinear parabolic problems from
time-averaged observations."""

from .averaging import AveragingCondition, Variant
from .evolution import OperatorPath, PropagatorMethod, TimeGrid, evolution_series
from .models import ChemotaxisModel, ExponentBook, LinearTestModel, NonlocalRDModel
from .solver import (
    RecoveryConfig,
    SolveReport,
    Trajectory,
    fixed_point_recover,
    forward_solve,
)
from .spatial import BoundaryKind, Grid1D, assemble_laplacian, build_grid

__all__ = [
    "AveragingCondition",
    "BoundaryKind",
    "ChemotaxisModel",
    "ExponentBook",
    "Grid1D",
    "LinearTestModel",
    "NonlocalRDModel",
    "OperatorPath",
    "PropagatorMethod",
    "RecoveryConfig",
    "SolveReport",
    "TimeGrid",
    "Trajectory",
    "Variant",
    "assemble_laplacian",
    "build_grid",
    "evolution_series",
    "fixed_point_recover",
    "forward_solve",
]

__version__ = "0.1.0"
