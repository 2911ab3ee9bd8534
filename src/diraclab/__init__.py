"""Numerical toolkit for 1-d Dirac operators B y' + P y = lambda y on
[0, pi] with two-point boundary conditions: spectra, Green kernels,
eigenfunction expansions and equiconvergence experiments."""

from .boundary import (B_MATRIX, BoundaryMatrixPair, InvalidBoundaryFormError,
                       MinorSet, NotRegularError, UnperturbedSpectrum,
                       adjoint_pair, boundary_from_config, delta0, is_regular,
                       minors, unperturbed_spectrum)
from .expansions import (RootSystem, RootSystemError, bvp_eigenfunction,
                         expansion_coefficients, partial_sum,
                         partial_sum_contour, projector_contour, root_system)
from .green import (GreenKernel, OpNormEstimate, PoleError, green0_kernel,
                    green_kernel, kernel_sup, opnorm_scaling, resolvent_sum)
from .harness import (CSV_HEADER, EquiconvReport, ExperimentConfig,
                      OutsideTheoremError, StageError, admissible,
                      emit_report, make_function, run_equiconv, sweep)
from .mesh import (GridFunction2, Mesh, MeshMismatchError, build_mesh,
                   inner_product, lp_norm)
from .ode import (FundamentalSolution, OverflowCapError, char_det, expm2,
                  fundamental_matrix, propagate)
from .potentials import (GaugeReduction, PotentialMatrix, ScalarFunction,
                         comparison_operator, gauge_reduce, make_potential)
from .spectrum import (CLUSTER_TOL, Circle, ContourError, ContourFamily,
                       EigenvalueList, Ellipse, NotAnEigenvalueError,
                       RectContour, contour_family, localize,
                       localization_seeds, winding_count)

__version__ = "0.1.0"
