"""Critical points and modes of Gaussian mixtures.

Three capabilities under one roof:

* exact integer upper/lower bounds on critical-point and mode counts,
  with the published crossover tables reproducible to the digit;
* a reduced-ratio-system solver that locates and classifies the critical
  points of concrete mixtures at desk scale;
* witness constructions (simplex seeds, products, lifts, remote padding)
  whose claimed mode counts are verified numerically, never assumed.
"""

from .bounds import (
    CROSSOVER_KINDS,
    LOWER_FAMILIES,
    UPPER_FAMILIES,
    BoundValue,
    SeedRecipe,
    SeedTriple,
    aim_conjecture,
    crossover_dimension,
    lower_bound,
    mode_bound_from_critical,
    ray_ren_family,
    render_table_csv,
    render_table_text,
    seed_closure_bound,
    simplex_family,
    table_rows,
    upper_bound,
)
from .construct import (
    PaddingError,
    PaddingSpec,
    RecipeError,
    RecipeVerificationError,
    lift,
    pad_remote,
    product,
    radial_critical_roots,
    realize_recipe,
    simplex_seed,
    simplex_vertices,
    tilt_polish,
)
from .mixture import (
    AffineMap,
    Mixture,
    MixtureFormatError,
    affine_rank,
    mixture_from_dict,
    mixture_to_dict,
    read_mixture,
    reduce_homoscedastic,
    tilt,
    write_mixture,
)
from .solver import (
    CriticalPoint,
    SolveReport,
    SolverConfig,
    classify,
    find_critical_points,
    polish_critical,
    solve_reduced_homoscedastic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # mixture core
    "Mixture", "MixtureFormatError", "AffineMap",
    "tilt", "affine_rank", "reduce_homoscedastic",
    "mixture_from_dict", "mixture_to_dict", "read_mixture", "write_mixture",
    # bounds
    "BoundValue", "SeedTriple", "SeedRecipe",
    "UPPER_FAMILIES", "LOWER_FAMILIES", "CROSSOVER_KINDS",
    "upper_bound", "lower_bound", "mode_bound_from_critical", "aim_conjecture",
    "crossover_dimension", "seed_closure_bound", "ray_ren_family", "simplex_family",
    "table_rows", "render_table_csv", "render_table_text",
    # solver
    "CriticalPoint", "SolveReport", "SolverConfig", "find_critical_points",
    "solve_reduced_homoscedastic", "classify", "polish_critical",
    # constructions
    "PaddingSpec", "PaddingError", "RecipeError", "RecipeVerificationError",
    "simplex_vertices", "simplex_seed", "radial_critical_roots",
    "lift", "product", "pad_remote", "realize_recipe", "tilt_polish",
]
