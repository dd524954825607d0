"""Adaptive MCMC simulation and verification toolkit."""

__version__ = "0.1.0"

from .core import (EmpiricalMeasure, PsdMatrix, RngStream, make_stream,
                   psd_sqrt)
from .errors import (ContractionViolated, DimensionError, DimensionMismatch,
                     DomainError, Error, HypothesisFailed, Infeasible,
                     MissingArtifact, NonPsd, ParamOutOfRange, SchemaError,
                     SizeCap, StepSizeOutOfRange, UnknownField,
                     VariantMismatch, ZeroDensity)
from .kernels import (ArCoef, DiffusionTime1, DiscreteAr, DiscreteBase,
                      DiscreteRwm, GaussianAr, LangevinTuning, MatrixScale,
                      PotentialSpec, Ula, quadratic_potential)
from .adaptation import (DeterministicStepSchedule, DiminishingContinuous,
                         DiminishingDiscrete, FiniteAdaptation, HistorySummary,
                         RestrictedSet, adapt)
from .process import (AdaptiveTrajectory, EnsembleCrossSection,
                      iterate_adaptive, run_adaptive, run_ensemble)
from .transport import (TransportResult, bounded_distance,
                        discrete_ot_exact, sliced_w1, w2_gaussian, w_exact_1d)
from .diagnostics import (BoundTable, ContainmentEstimate, DriftReport,
                          HarrisConstants, HarrisReport, LLNReport,
                          Observable, ar_bound_check, check_drift,
                          default_pi_sampler, estimate_containment,
                          estimate_diminishing, harris_constants, lln_curve,
                          verify_harris_contraction)
