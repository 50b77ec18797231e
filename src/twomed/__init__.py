"""Two-mediator causal effect decomposition.

Splits the total effect of an exposure on an outcome, transmitted through two
mediators (causally sequential or not), into direct, mediated, and interaction
components. Three computation paths cross-validate each other: exact
enumeration for binary structural models, Monte Carlo evaluation of the
individual-level counterfactual contrasts, and closed-form expressions under
linear models, plus percentile-bootstrap confidence intervals for data
analysis.
"""

from .core import (
    AGGREGATE_NAMES,
    NONSEQUENTIAL_COMPONENT_NAMES,
    SEQUENTIAL_COMPONENT_NAMES,
    ComponentSet,
    ConfigError,
    DataError,
    EstimationError,
    InferenceError,
    ReferenceConfig,
    SingleMediatorComponents,
    Topology,
    component_names,
    total_from_components,
)
from .oracle import (
    BinaryScm,
    IndividualPotentials,
    MonteCarloResult,
    SingleMediatorPotentials,
    enumerate_binary_components,
    enumerate_binary_components_by_individuals,
    enumerate_binary_individuals,
    individual_components_nonsequential,
    individual_components_sequential,
    simulate_linear_components,
    single_mediator_four_way,
)
from .linear import LinearScm, ModelCoefficients
from .closed_form import (
    decompose_closed_form,
    decompose_nonsequential_closed_form,
    decompose_sequential_closed_form,
    expected_counterfactual,
)
from .empirical import (
    ProbTables,
    decompose_empirical_sequential,
    estimate_tables,
)
from .regression import Dataset, FittedModels, fit_all
from .bootstrap import BootstrapResult, bootstrap_decomposition
from .dataio import (
    RunConfig,
    build_run_config,
    load_dataset,
    parse_scm_spec,
    resolve_reference,
    simulate_dataset,
    write_dataset_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AGGREGATE_NAMES",
    "BinaryScm",
    "BootstrapResult",
    "ComponentSet",
    "ConfigError",
    "DataError",
    "Dataset",
    "EstimationError",
    "FittedModels",
    "IndividualPotentials",
    "InferenceError",
    "LinearScm",
    "ModelCoefficients",
    "MonteCarloResult",
    "NONSEQUENTIAL_COMPONENT_NAMES",
    "ProbTables",
    "ReferenceConfig",
    "RunConfig",
    "SEQUENTIAL_COMPONENT_NAMES",
    "SingleMediatorComponents",
    "SingleMediatorPotentials",
    "Topology",
    "bootstrap_decomposition",
    "build_run_config",
    "component_names",
    "decompose_closed_form",
    "decompose_empirical_sequential",
    "decompose_nonsequential_closed_form",
    "decompose_sequential_closed_form",
    "enumerate_binary_components",
    "enumerate_binary_components_by_individuals",
    "enumerate_binary_individuals",
    "estimate_tables",
    "expected_counterfactual",
    "fit_all",
    "individual_components_nonsequential",
    "individual_components_sequential",
    "load_dataset",
    "parse_scm_spec",
    "resolve_reference",
    "simulate_dataset",
    "simulate_linear_components",
    "single_mediator_four_way",
    "total_from_components",
    "write_dataset_csv",
]
