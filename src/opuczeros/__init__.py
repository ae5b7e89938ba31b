"""Zero densities of real Gaussian random polynomials in the OPUC basis."""

__version__ = "0.1.0"

from .errors import (InvalidCoefficientError, OpuczError, OutOfDomainError,
                     QuadratureError, RootFindingError)
from .szego import VerblunskySequence, evaluate
from .intensity import (complex_intensity, growth_log_derivative,
                        limit_complex_density, limit_real_density,
                        real_intensity_grid, scaling_limit_density)
from .expectation import (AnnularSector, RealInterval, ScalingWindow,
                          WholePlane, WholeRealLine, conservation_check,
                          expected_complex_zeros, expected_real_zeros,
                          total_complex_zeros)
from .para import para_spectrum
from .montecarlo import (SampleBatch, count_in_region, count_in_scaling_window,
                         sample_roots)

__all__ = [
    "InvalidCoefficientError", "OpuczError", "OutOfDomainError",
    "QuadratureError", "RootFindingError",
    "VerblunskySequence", "evaluate",
    "real_intensity_grid", "complex_intensity", "limit_real_density",
    "limit_complex_density", "scaling_limit_density", "growth_log_derivative",
    "AnnularSector", "RealInterval", "ScalingWindow", "WholePlane",
    "WholeRealLine",
    "expected_real_zeros", "expected_complex_zeros", "total_complex_zeros",
    "conservation_check",
    "para_spectrum",
    "SampleBatch", "sample_roots", "count_in_region",
    "count_in_scaling_window",
]
