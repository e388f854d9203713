"""Cascade measures on the binary-tree boundary, evolved as a diffusion.

The package is organized around a small set of objects: a ``Flow`` is a
finite-depth mass assignment with exact parent/child conservation, a
``WeightSpec`` names the per-vertex weight process, and a ``CascadePath``
is one simulated trajectory of the induced measure-valued process.  On
top of those sit closed-form and fitted pressure analytics, exact
tree-metric Wasserstein distances, path observables (overlap, quadratic
variation, tilted-drift checks), the dimension ODE with box-counting
evidence, and a statistical verification suite with adversarial
controls.
"""

from .engine import (
    CascadePath,
    cascade_static,
    compose_from_path,
    convergence_probe,
    make_grid,
    simulate_path,
)
from .kpz import (
    EVEN_FREE,
    FULL,
    StructuredRaySet,
    box_counts,
    box_dimension_estimate,
    kpz_closed_form,
    kpz_ode_solve,
    phi,
    phi_inverse,
)
from .observables import (
    bracket_rate,
    empirical_bracket,
    explosion_monitor,
    girsanov_check,
    overlap,
    overlap_series,
    realized_vs_predicted_qv,
)
from .regularity import (
    BOUNDARY,
    IRREGULAR,
    REGULAR,
    THETA,
    alpha,
    classify_regularity,
    critical_h,
    lifetime,
    pressure,
    pressure_derivative,
    regularity_report,
)
from .transport import (
    coupling_upper_bound,
    holder_exponent,
    wasserstein_exact,
    wasserstein_lp_oracle,
)
from .tree import (
    Flow,
    ROOT,
    Vertex,
    flow_from_leaves,
    flow_from_levels,
    load_flow,
    save_flow,
    single_ray_flow,
    uniform_flow,
)
from .verify import default_suite, quick_suite, run_suite
from .weights import WeightSpec, compound_poisson_spec, gaussian_spec

__version__ = "0.1.0"

__all__ = [
    "CascadePath",
    "cascade_static",
    "compose_from_path",
    "convergence_probe",
    "make_grid",
    "simulate_path",
    "EVEN_FREE",
    "FULL",
    "StructuredRaySet",
    "box_counts",
    "box_dimension_estimate",
    "kpz_closed_form",
    "kpz_ode_solve",
    "phi",
    "phi_inverse",
    "bracket_rate",
    "empirical_bracket",
    "explosion_monitor",
    "girsanov_check",
    "overlap",
    "overlap_series",
    "realized_vs_predicted_qv",
    "BOUNDARY",
    "IRREGULAR",
    "REGULAR",
    "THETA",
    "alpha",
    "classify_regularity",
    "critical_h",
    "lifetime",
    "pressure",
    "pressure_derivative",
    "regularity_report",
    "coupling_upper_bound",
    "holder_exponent",
    "wasserstein_exact",
    "wasserstein_lp_oracle",
    "Flow",
    "ROOT",
    "Vertex",
    "flow_from_leaves",
    "flow_from_levels",
    "load_flow",
    "save_flow",
    "single_ray_flow",
    "uniform_flow",
    "default_suite",
    "quick_suite",
    "run_suite",
    "WeightSpec",
    "compound_poisson_spec",
    "gaussian_spec",
    "__version__",
]
