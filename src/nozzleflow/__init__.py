"""Modified staggered Lax-Friedrichs solver for 1D isentropic nozzle flow."""

from .gas import (EntropyPairValue, GasConstants, GasState, InvariantPair,
                  characteristic_speeds, flux, from_invariants,
                  mechanical_pair, pressure, source, to_invariants)
from .riemann import (RiemannSolution, WaveCurveKind, WaveDescriptor,
                      entropy_admissible, lax_speed, rh_speed, sample,
                      shock_velocity_jump, solve_riemann)
from .nozzle import (AdmissibilityConstants, BoundFunction, NozzleGeometry,
                     SteadyProfile, admissibility_constants, envelope,
                     steady_profile, time_correct, vacuum_decay_profile,
                     validate_condition)
from .scheme import (CellSolution, FanDescriptor, SchemeParameters,
                     StaggeredState, StepRecord, advance, build_cell,
                     build_cell_vacuum, build_fan, cell_average, initialize,
                     project_node, run, select_M, solve_front)
from .diagnostics import (EnergyMonitor, EnergyReport, RecurrenceAudit,
                          RecurrenceAuditor, audit_recurrence, correction_R,
                          total_energy_nodes, total_energy_trace,
                          total_mass_nodes)
from .errors import CellBuildError, ConfigError, FrontSolveError

__version__ = "0.1.0"
