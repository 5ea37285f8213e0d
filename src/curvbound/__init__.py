"""curvbound: numerical verification of sharp mean-curvature bounds.

Toolkit for hypersurfaces immersed in constant-curvature model spaces, in
both Riemannian and Lorentzian signature: curvature algebra (elementary
symmetric functions, the H_k and Newton-tensor spectra, trace operators),
scalar comparison functions, distance restriction operators, and a
scenario-driven verification harness.

Importing the package sets the process's glibc heap policy once (see
``_keep_freed_heap``): memory the frame path frees stays mapped, so a warm
``run_scenario`` takes no page faults.  A host that wants glibc's defaults
back calls ``mallopt`` itself after the import.
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

    Under glibc's defaults the freed top of the heap goes back to the kernel
    and the next scenario faults it in again; README section "Memory" gives
    the fault counts and heap sizes.  Two thresholds stop that, each with
    room above what resolution 64 needs:

    - ``M_MMAP_THRESHOLD`` 4 MiB: smaller blocks come from the heap, not from
      a fresh mmap on every call.  Setting the trim threshold alone would
      freeze glibc's dynamic mmap threshold at 128 KiB, and a grid's larger
      jet arrays would still be mapped anew on every call.
    - ``M_TRIM_THRESHOLD`` 8 MiB: the heap keeps at most 8 MiB free above its
      live data, at least twice the per-scenario transient peak.

    Where the lookup fails (no ``mallopt`` on macOS; ``CDLL(None)`` raises
    TypeError on Windows) this does nothing; on musl ``mallopt`` is a stub.
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
