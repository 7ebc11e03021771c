"""Gabor frames and Heisenberg modules over finite abelian groups.

The package computes, on C^G for a finite abelian group G: time-frequency
shifts and their Heisenberg cocycle, twisted group algebras on lattices of
the time-frequency plane, Gabor frame operators and bounds, canonical dual
windows, adjoint lattices with the Janssen frame-operator form, module inner
products and actions, and a verification suite that measures the numerical
gap of every identity these objects satisfy.

The environment variable HEISENMOD_THREADS caps the linear-algebra thread
pools. It is applied here, before any submodule loads numpy, so it holds for
every entry point; it has no effect when numpy was imported before heisenmod.
"""

import os as _os

if _os.environ.get("HEISENMOD_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["HEISENMOD_THREADS"])

from .groups import (  # noqa: E402 -- the thread cap must precede numpy
    FiniteAbelianGroup,
    GroupElement,
    MeasuredSubgroup,
    TFPoint,
    adjoint_subgroup,
    all_subgroups,
    character,
    character_vector,
    default_measures,
    full_plane,
    subgroup_from_generators,
    trivial_subgroup,
)
from .shifts import (
    OperatorMatrix,
    Window,
    const_window,
    delta_window,
    gaussian_stream,
    heisenberg_cocycle,
    inner,
    modulate,
    parse_window,
    randn_window,
    splitmix64_stream,
    tf_shift,
    tf_shift_adjoint_matrix,
    tf_shift_matrix,
    tf_shift_values,
    translate,
)
from .twisted import (
    TwistedSeq,
    cstar_norm,
    delta_seq,
    integrated_rep,
    involution,
    l2_localization_inner,
    trace,
    twisted_convolve,
    unit_seq,
)
from .gabor import (
    FrameBounds,
    GaborSystem,
    NotAFrameError,
    analysis,
    dual_window,
    frame_bounds,
    frame_like,
    frame_operator,
    is_frame,
    janssen_frame_operator,
    reconstruction_residual,
    shift_orbit,
    spectrum,
    synthesis,
)
from .module import (
    ModuleContext,
    dual_lattice_norm_scaling,
    figa_check,
    left_act,
    left_inner,
    localization_check,
    module_context,
    module_expansion,
    module_frame_check,
    module_norm,
    right_act,
    right_inner,
    theta_matrix,
    verify_suite,
)

__version__ = "0.1.0"

# The public API is every name imported above: one list, kept in the imports.
_SUBMODULES = ("gabor", "groups", "module", "shifts", "twisted")
__all__ = sorted(name for name in globals() if not name.startswith("_") and name not in _SUBMODULES)
