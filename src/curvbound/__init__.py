"""curvbound: numerical verification of sharp mean-curvature bounds.

The package re-exports the public objects of its modules.  Importing it sets the
process's glibc heap policy once (:func:`_keep_freed_heap`).  README's "Design"
section describes the pipeline stage by stage.
"""

import ctypes
from types import ModuleType

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 * 2**20
_TRIM_THRESHOLD_BYTES = 8 * 2**20


def _keep_freed_heap() -> None:
    """Keep the heap that transient batch arrays free mapped, where libc has ``mallopt``.

    Sets ``M_MMAP_THRESHOLD`` to 4 MiB and ``M_TRIM_THRESHOLD`` to 8 MiB; README
    section "Memory" gives the reason for each.  Where the lookup fails (no
    ``mallopt`` on macOS; ``CDLL(None)`` raises TypeError on Windows) this does
    nothing; on musl ``mallopt`` is a stub.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


# before the submodules load, so every entry point runs under the policy
_keep_freed_heap()

__version__ = "0.1.0"
_PREAMBLE = set(globals()) | {"_PREAMBLE"}

from .comparison import (
    AdmissibilityFlags,
    CurvatureBoundG,
    LambdaResult,
    OdeSolution,
    c_b,
    c_hat_b,
    lambda_sup,
    make_bound,
    phi_b,
    phi_b_d1,
    phi_b_d2,
    phi_gamma,
    phi_ode_residual,
    psi,
    solve_cauchy_g,
    sturm_margin,
    sturm_profile,
)
from .curvature import (
    TAU_ELL,
    elementary_symmetric,
    trace_coefficients,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DomainError,
    EmptySampleError,
    GeometryError,
    HypothesisViolationError,
    ImmersionDegeneracyError,
    NumericalError,
    SignatureError,
    UndefinedGradientError,
)
from .harness import (
    CheckRecord,
    ScenarioConfig,
    VerificationReport,
    bundled_scenarios,
    emit_report,
    emit_samples_csv,
    load_scenario,
    run_scenario,
)
from .immersion import (
    GridSamples,
    HypersurfacePatch,
    PointFrame,
    build_patch,
    frame_at,
    sample_grid,
)
from .operators import (
    ComposedField,
    DistanceField,
    FieldSample,
    LinearCoordinateField,
    OmoriYauCandidate,
    OmoriYauReport,
    intrinsic_hessian_fd,
    key_inequality_residual,
    l_k_apply,
    omori_yau_search,
    restrict_field,
    restriction_hessian,
)
from .spaceform import (
    AmbientModel,
    ReferenceBall,
    ambient_distance,
)

# the public surface is what the imports above bind, less the submodules they load
__all__ = sorted(name for name, value in globals().items()
                 if name not in _PREAMBLE and not isinstance(value, ModuleType))
