"""Emission spectra of two dipole-dipole coupled atoms in an optomechanical cavity."""

from .dressed import (
    StickLine,
    StickSpectrum,
    displaced_fock_overlap,
    dressed_eigenvalue,
    mixing_angle,
    predicted_lines,
    rabi_separation,
    transition_weight,
)
from .dynamics import (
    CorrelationGrid,
    EvolutionConfig,
    Generator,
    Trajectory,
    evolve,
    two_time_correlation,
)
from .errors import ConfigurationError, NumericalError
from .hilbert import (
    BasisIndex,
    HilbertSpace,
    build_space,
    expectation,
    ladder_operators,
    optical_excitation_operator,
)
from .model import (
    Channel,
    DipoleGeometry,
    ModelParams,
    build_dissipators,
    build_hamiltonian,
    ddi_strength,
    initial_state,
    thermal_weight,
)
from .spectrum import (
    FilterParams,
    NumericsConfig,
    Peak,
    SpectrumResult,
    dominant_separation,
    filtered_counting_rate,
    filtered_spectrum,
    find_peaks,
    stationary_spectrum,
)

__version__ = "0.1.0"
