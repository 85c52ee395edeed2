"""Trade-study engine for boom-limbed climbing robot configurations.

Evaluates robot designs against parametric terrains: grasp stability and
wrench capability from stiffness eigenvalues, manipulability, terrain
coverage and interference, and buckling limits, over Monte Carlo anchor
placements, then selects a design by constrained Pareto analysis.
"""

__version__ = "0.1.0"

from .config import make_terrain
from .interference import coverage_curve
from .mechanics import (Stance, StiffnessResult, grasp_map, manipulability, stiffness,
                        sym_eig)
from .robot import (BucklingReport, MountSpec, RobotConfig, buckling_moment,
                    build_mounts, check_buckling, make_robot, total_mass)
from .stance import Assignment, assign
from .study import (Calibration, Constraints, ParetoResult, StudyConfig,
                    StudyReport, aggregate, pareto_front, run_study, run_trials,
                    select_design)
from .terrain import AnchorSet, Terrain, corridor, floor, sample_anchors, wall

__all__ = [
    "__version__",
    "AnchorSet", "Assignment", "BucklingReport", "Calibration", "Constraints",
    "MountSpec", "ParetoResult", "RobotConfig", "Stance", "StiffnessResult",
    "StudyConfig", "StudyReport", "Terrain",
    "aggregate", "assign", "buckling_moment", "build_mounts", "check_buckling",
    "corridor", "coverage_curve", "floor", "grasp_map", "make_robot",
    "make_terrain", "manipulability", "pareto_front", "run_study", "run_trials",
    "sample_anchors", "select_design", "stiffness", "sym_eig", "total_mass", "wall",
]
