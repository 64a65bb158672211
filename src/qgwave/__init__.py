"""Traveling-wave admissibility toolkit for shear flows in a zonal channel.

Computes principal eigenvalues of the (singular) Rayleigh-Kuo boundary-value
problem, the transitional beta value and critical wavelengths that separate
rigidity from existence of nearby genuine traveling waves, and classifies
the wave speed of gridded traveling-wave fields.

`import qgwave` binds only `classify` eagerly; every other public name
imports its submodule on first access (PEP 562).  No import loads scipy:
the eigen solvers load only scipy's LAPACK extension, on their first solve,
so the field commands of `qgwave.cli` load no scipy module and the spectral
ones load just that one.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The function shares its name with its submodule.  Once `qgwave.classify` is
# imported, the import system sets that package attribute to the module and
# __getattr__ is never consulted, so the function is bound here.  This loads
# numpy but not scipy.
from .classify import classify

_EXPORTS = {
    "channel": "ChannelGeometry FieldDiagnostics Grid2D WaveField diagnostics field_from_dict "
    "field_to_dict gradient laplacian read_field write_field",
    "classify": "ClassificationReport RigidityVerdict c_beta_plus classify",
    "eigen": "CurvePoint EigenResult boundary_curve critical_beta lambda_inf_over_c "
    "principal_eigenvalue wave_speed_root",
    "errors": "ConvergenceError DomainError FieldFormatError NoRootError "
    "ProfileSpecError QgwaveError ShapeError UnsupportedSingularityError",
    "flows": "KOLMOGOROV_PERIOD MIN_CRITICAL_BETA0 Example31Params GrsParams make_grs_vortex "
    "make_inflection_wave make_kolmogorov_perturbed make_min_critical_wave",
    "planets": "JUPITER PLANETS SATURN PlanetData band_halfwidth beta_plane_params "
    "jupiter_band_case saturn_polar_case",
    "profiles": "Bickley ConcaveParabola CouettePoiseuille Kolmogorov LinearProfile Polynomial "
    "ProfileOnBand ShearProfile band_extrema couette parse_profile profile_rigidity_bound",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
