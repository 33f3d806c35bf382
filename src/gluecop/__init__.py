"""Bivariate copula gluing, dependence diagnostics and piecewise regression."""

from .changepoint import Crossing, CrossingReport, diagonal_crossings
from .copulas import (AxiomReport, ClaytonCopula, Copula, FGMCopula,
                      FrankCopula, FrechetLowerCopula, FrechetUpperCopula,
                      GumbelCopula, IndependenceCopula, PlackettCopula,
                      check_copula_axioms, conditional_quantile, make_copula)
from .dependence import (DependenceReport, QuadrantClass, RegressionClass,
                         classify_quadrant, classify_regression_dependence,
                         dependence_report, schweizer_wolff_sigma, spearman_rho)
from .empirical import (EmpiricalCopula, FitResult, PiecewiseFit, PseudoSample,
                        crossing_breakpoints, empirical_crossing_report,
                        empirical_tolerance, fit_piecewise, fit_segment, pseudo_observations,
                        sample_dependence_report, simulate_copula)
from .errors import (DataError, DomainError, GluecopError, NumericalError,
                     ParameterError)
from .gluing import GluedCopula, decompose, glue
from .marginals import EmpiricalMarginal, Marginal, UniformMarginal
from .model_io import (copula_from_dict, copula_to_dict, load_model,
                       model_from_dict, model_to_dict, save_model)
from .reference import (Example4Copula, Example4Model, Sample, simulate_example1,
                        simulate_example4, tent)
from .regression import (PiecewiseRegressionModel, RegressionModel,
                         mean_regression, median_regression,
                         piecewise_regression)

__version__ = "0.1.0"
