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

`import qgwave` sets OPENBLAS_NUM_THREADS to 1 unless the caller already set
it, so numpy's OpenBLAS and, on the first solve, scipy's run on the calling
thread and start no worker threads.  The setting is process-wide: the
caller's own numpy and scipy work in the same process (matmul, solve) also
gets one BLAS thread, and child processes inherit it.  A caller's value wins,
so code that wants threaded BLAS sets OPENBLAS_NUM_THREADS before it imports
qgwave; a numpy imported before qgwave keeps the thread pool it started then.
"""

import os as _os
from importlib import import_module as _import_module

__version__ = "0.1.0"

# qgwave's only BLAS calls are level-1: the eigen rung's dot products and those
# inside LAPACK's dstein, on vectors short enough that a second thread saves well
# under a millisecond per rung.  Yet each OpenBLAS worker spins on a core while it
# waits for work, and a threaded dot product sums in an order set by the core
# count, so the last bits of deep ladders would depend on the machine.  Each
# OpenBLAS copy reads the variable once, when it loads: numpy's in the import
# below, scipy's in eigen._lapack().
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
del _os

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
