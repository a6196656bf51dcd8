"""Modular tilted-rotor multirotor assemblies.

Design balanced quadrotor modules with tilted propellers, assemble them
into rigid structures, analyze the structure's achievable force directions,
and simulate closed-loop trajectory tracking with controllers matched to 4,
5 or 6 controllable degrees of freedom.
"""

from .control import ControlOutput, Controller, Gains
from .config import StructureConfig, parse_config
from .dynamics import RigidState, SimParams, step
from .errors import (
    AllocationError,
    AssemblyError,
    ConfigError,
    ControlDegeneracyError,
    IntegrationError,
    ModrotorError,
    SimulationError,
)
from .module_design import (
    BalanceReport,
    ModuleSpec,
    PropellerSpec,
    Wrench,
    build_r_module,
    check_balanced,
)
from .sim import RunResult, initial_state_from_sample, run_closed_loop
from .structure import (
    ModulePlacement,
    StructureModel,
    actuation_ellipsoid,
    assemble,
    numerical_rank,
)
from .trajectory import (
    TrajectorySample,
    helix,
    hover,
    rectangle,
)

__version__ = "0.1.0"
