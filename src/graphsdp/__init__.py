"""graphsdp: SDP estimators for graph learning problems.

Library surface:

* :mod:`graphsdp.linalg` dense symmetric/Hermitian kernels
* :mod:`graphsdp.models` seeded observation-model generators
* :mod:`graphsdp.solvers` ADMM and low-rank SDP solvers
* :mod:`graphsdp.rounding` hyperplane rounding, phase and community extraction
* :mod:`graphsdp.signed` signed-graph clustering baselines and k-means
* :mod:`graphsdp.metrics` metrics, curvature checks, bounds, fixed-point estimator
* :mod:`graphsdp.estimators` fit/predict-style wrappers for the four pipelines
* :mod:`graphsdp.experiments` reproducible sweeps with CSV/JSON persistence
* :mod:`graphsdp.cli` the ``graphsdp`` command line tool
"""

from .estimators import (
    SdpAngularSynchronization,
    SdpCommunityClustering,
    SdpMaxCut,
    SdpSignedClustering,
)
from .solvers import (
    BmConfig,
    PierraConfig,
    bm_rank,
    bm_solve,
    ipm_solve,
    pierra_signed,
    pierra_solve,
)

__version__ = "0.1.0"

__all__ = [
    "SdpAngularSynchronization",
    "SdpCommunityClustering",
    "SdpMaxCut",
    "SdpSignedClustering",
    "BmConfig",
    "PierraConfig",
    "bm_rank",
    "bm_solve",
    "ipm_solve",
    "pierra_signed",
    "pierra_solve",
    "__version__",
]
