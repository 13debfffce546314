"""Numerical laboratory for fractional torsion profiles, moving-planes
geometry, and the stability experiments built on them."""

from .specfun import (FracParams, ParameterDomainError, gamma, gamma_ns,
                      gamma_nse, gauss_2f1, normalization_constant)
from .domains import (Chart, DiskDeviation, ImplicitDomain, ProjectionError,
                      ball, boundary_distance, bump_domain, ellipsoid, erode,
                      radial_extremes, signed_distance)
from .frlap import (FrlapResult, QuadratureConfig, ScalarField, barrier,
                    frlap_eval, power_field, torsion_ball, torsion_ellipsoid)
from .movingplanes import (TAG_ORTHOGONAL, TAG_TANGENCY, TAG_UNRESOLVED,
                           CriticalPlaneResult, critical_lambda, reflect,
                           support_value, to_record)
from .measures import (MeasureEstimate, boundary_weighted_integral,
                       halton_points, mc_volume, slab_measure,
                       sym_diff_measure)
from .seminorm import (OptimBudget, SeminormResult, ellipsoid_chart,
                       ellipsoid_ratio_limit, ellipsoid_seminorm,
                       phi0_quotient_sup, richardson_limit)
from .experiments import (FitResult, ProbeResult, ScanResult,
                          config_hash, counterexample_scan, exponent_fit,
                          geometric_lemma_check, stability_probe, write_table)

__all__ = [name for name in dir() if not name.startswith("_")]
