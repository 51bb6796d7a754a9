"""Design and verification engine for dissipatively coupled optomechanical
cavities: synthetic-mirror scattering, membrane-outside / Michelson-Sagnac /
membrane-at-the-edge coupling constants, and input-output quantum noise."""

# set before the submodule imports: datasets writes it into every .meta file
__version__ = "0.1.0"

from .constants import C_LIGHT, HBAR
from .elements import (
    ElementSpec,
    ScatteringMatrix,
    SyntheticMirrorResponse,
    compose_synthetic,
    compose_synthetic_by_elimination,
    element_scattering,
    synthetic_response,
)
from .errors import (
    BranchAmbiguity,
    ConfigError,
    DegenerateDenominator,
    InvalidElement,
    InvalidParameter,
    NoRootInWindow,
    NoZeroDispersivePoint,
    OptomechError,
    ZeroCoupling,
)
from .mate import (
    MateConfig,
    classify_branch,
    mate_dispersive_constant,
    mate_exact_decay,
    mate_resonances,
    mate_zero_dispersive,
)
from .mos import (
    MosConfig,
    OperatingPoint,
    dissipative_constant_exact,
    exact_corrections,
    operating_point,
    solve_resonance,
    two_port_setpoint,
    zero_dispersive_locus,
)
from .msi import (
    MsiConfig,
    msi_couplings,
    msi_effective_mirror,
    msi_zero_dispersive,
)
from .noise import (
    DriveConfig,
    NoiseReport,
    PortRates,
    cooperativity,
    general_spectra,
    homodyne_spectra,
    product_normalized,
)
from .datasets import (
    FigureDataset,
    ScanSpec,
    compare_systems,
    reproduce_figure,
    run_scan,
)
from .validation import PROFILES, ToleranceProfile, ValidationReport, run_validation

__all__ = [
    "C_LIGHT",
    "HBAR",
    "ElementSpec",
    "ScatteringMatrix",
    "SyntheticMirrorResponse",
    "compose_synthetic",
    "compose_synthetic_by_elimination",
    "element_scattering",
    "synthetic_response",
    "OptomechError",
    "InvalidElement",
    "InvalidParameter",
    "DegenerateDenominator",
    "NoZeroDispersivePoint",
    "NoRootInWindow",
    "BranchAmbiguity",
    "ZeroCoupling",
    "ConfigError",
    "MosConfig",
    "OperatingPoint",
    "operating_point",
    "zero_dispersive_locus",
    "dissipative_constant_exact",
    "exact_corrections",
    "two_port_setpoint",
    "solve_resonance",
    "MsiConfig",
    "msi_effective_mirror",
    "msi_couplings",
    "msi_zero_dispersive",
    "MateConfig",
    "mate_resonances",
    "classify_branch",
    "mate_dispersive_constant",
    "mate_zero_dispersive",
    "mate_exact_decay",
    "PortRates",
    "DriveConfig",
    "NoiseReport",
    "general_spectra",
    "homodyne_spectra",
    "product_normalized",
    "cooperativity",
    "ScanSpec",
    "FigureDataset",
    "run_scan",
    "reproduce_figure",
    "compare_systems",
    "ToleranceProfile",
    "PROFILES",
    "ValidationReport",
    "run_validation",
]
