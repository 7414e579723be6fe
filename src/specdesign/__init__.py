"""Spectral design toolkit for 1-D quantum systems.

Construct potentials realizing prescribed spectral edits (shift, create,
remove, reweight bound levels; reflectionless wells; embedded states; band
and lattice control) and verify every construction against an independent
direct-problem solver.
"""

from .bands import PeriodicSystem, Zone, shift_zone, track_zone_shift, zones
from .darboux import (
    TransformResult,
    bargmann_reflectionless,
    bsec_reflection_curve,
    bsec_whole_line,
    darboux_create,
    darboux_remove_ground,
    embed_bsec,
    remove_level_by_swf,
    scale_swf,
    shift_level,
)
from .errors import NumericalFailure, SingularityError, ValidationError
from .grid import Grid, SampledFn, cumulative_integral, default_points, integrate, make_grid
from .lattice import (
    LatticeState,
    LatticeSystem,
    lattice_bound_states,
    single_site,
    stark_ladder,
)
from .potentials import Potential, box, comb_cell, free_line, half_line, soliton_well
from .solver import (
    BoundState,
    ScatteringResult,
    band_discriminant,
    band_discriminant_curve,
    bound_states,
    scattering,
    scattering_curve,
)
from .verify import isospectral_check, orthonormality_defect, peak_width, reflection_check

__all__ = [
    "BoundState",
    "Grid",
    "LatticeState",
    "LatticeSystem",
    "NumericalFailure",
    "PeriodicSystem",
    "Potential",
    "SampledFn",
    "ScatteringResult",
    "SingularityError",
    "TransformResult",
    "ValidationError",
    "Zone",
    "band_discriminant",
    "band_discriminant_curve",
    "bargmann_reflectionless",
    "bound_states",
    "box",
    "bsec_reflection_curve",
    "bsec_whole_line",
    "comb_cell",
    "cumulative_integral",
    "darboux_create",
    "darboux_remove_ground",
    "default_points",
    "embed_bsec",
    "free_line",
    "half_line",
    "integrate",
    "isospectral_check",
    "lattice_bound_states",
    "make_grid",
    "orthonormality_defect",
    "peak_width",
    "reflection_check",
    "remove_level_by_swf",
    "scale_swf",
    "scattering",
    "scattering_curve",
    "shift_level",
    "shift_zone",
    "single_site",
    "soliton_well",
    "stark_ladder",
    "track_zone_shift",
    "zones",
]

__version__ = "0.1.0"
