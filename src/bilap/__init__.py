"""Fourth-order (plate) spectra: exact interval solutions, finite-difference
rectangle solves, and machine-checkable semiclassical bound reports."""

from .core import (
    BCKind,
    BoundaryCondition,
    BoundReport,
    DimensionalConstants,
    DomainSpec,
    InputError,
    Spectrum,
    dimensional_constants,
    tube_volume,
)

__version__ = "0.1.0"

__all__ = [
    "BCKind",
    "BoundaryCondition",
    "BoundReport",
    "DimensionalConstants",
    "DomainSpec",
    "InputError",
    "Spectrum",
    "dimensional_constants",
    "tube_volume",
    "__version__",
]
