"""Data-driven event-triggered adaptive control of linear time-varying
plants: determinant-maximization design from input-state data, hybrid
closed-loop simulation, and Lyapunov certificate monitoring."""

__version__ = "0.1.0"

from .window import DataWindow
from .plants import (LtvPlant, ConstantLti, SwitchingPlant, SinusoidalPlant,
                     VanishingPerturbationPlant, PiecewiseFilePlant,
                     make_plant)
from .maxdet import (AffineMatFn, SdpProblem, SdpSolution, SolverOptions,
                     SolverBreakdown, solve_feasibility, solve_maxdet)
from .synthesis import ControllerBundle, synthesize, verify_property
from .hybrid import ScenarioConfig, Trajectory, run
from .monitor import pi_product, check_bound, thm_diagnostics

__all__ = [
    "DataWindow", "LtvPlant", "ConstantLti", "SwitchingPlant",
    "SinusoidalPlant", "VanishingPerturbationPlant", "PiecewiseFilePlant",
    "make_plant", "AffineMatFn", "SdpProblem", "SdpSolution",
    "SolverOptions", "SolverBreakdown", "solve_feasibility", "solve_maxdet",
    "ControllerBundle", "synthesize", "verify_property", "ScenarioConfig",
    "Trajectory", "run", "pi_product", "check_bound", "thm_diagnostics",
    "__version__",
]
