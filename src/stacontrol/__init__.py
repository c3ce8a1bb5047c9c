"""Fast transitionless control of three-mode bosonic systems.

Pulse synthesis (Vitanov adiabatic shapes and counter-diabatic pairs),
amplitude, Gaussian-channel, Schrodinger and Lindblad propagation, and the
scenario runners and parameter scans built on top of them.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    CouplingSchedule,
    Dissipation,
    SystemConfig,
    TimeGrid,
    vitanov_theta,
    vitanov_theta_dot,
)
from .engine import (  # noqa: F401
    EigenSystem,
    build_adiabatic_matrix,
    counterdiabatic_matrix,
    effective_matrix,
    generic_counterdiabatic,
    synthesize_tqd_pulses,
    tqd_detuning_ratio,
    tqd_max_coupling,
)
from .dynamics import (  # noqa: F401
    Trajectory,
    build_h3,
    build_mode_hamiltonian,
    evolve_lindblad,
    evolve_schrodinger,
    fidelity,
    fock_state,
    propagate_amplitudes,
    propagate_channel,
    propagate_tqd_amplitudes,
)
from .experiments import (  # noqa: F401
    ScanResult,
    completion_time,
    run_decay_scan,
    run_delay_scan,
    run_detuning_scan,
    run_fig2_suite,
    run_fig4_transfer,
)
from . import errors  # noqa: F401
