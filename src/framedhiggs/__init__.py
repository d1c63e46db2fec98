"""Exact-arithmetic toolkit for framed Higgs bundles on the rational curve.

Subpackages:
  liealg       matrix models of the classical algebras, invariant forms,
               invariant polynomials, framing subalgebras
  curve        sheaves of rational sections and their cohomology
  dimensions   closed-form moduli/base/fiber dimensions and the audit
  deformation  deformation complexes, hypercohomology, the symplectic pairing
               and the Poisson-anchor matrix identity
  gaudin       the Hitchin map on residue tuples, Lie-Poisson brackets, flows
  spectral     spectral curves, discriminants, branch data, genus identities
  intpoly      integer polynomials: factoring over Z, real-root isolation
  exactlinalg  exact elimination: ranks, kernels, quotients, solves
  rationalfn   Laurent windows and the closed forms of their layouts,
               sections as views of layout vectors, residue pairings,
               Fraction `Poly`
  sampling     seed-deterministic residues and models
  cli          the `hfb` batch runner
"""

__version__ = "0.1.0"

from .curve import (H1Presentation, MarkedCurve, SheafSpec, check_serre_dual,
                    global_sections, h1_presentation, make_spec, serre_dual_spec,
                    serre_pairing)
from .deformation import (FRAMED, TWISTED, TWISTED_DUAL, DeformationTheory,
                          FramedHiggsModel, Hypercohomology, framed_higgs_model,
                          hyper_pair, verify_poisson_map)
from .dimensions import (DimReport, consistency_audit, audit_grid,
                         dim_moduli_framed, dim_moduli_higgs, hitchin_base_dim,
                         hitchin_fiber_dim, torsor_dims)
from .gaudin import GaudinSystem, HitchinPoint
from .liealg import (AlgebraElement, AlgebraModel, FramingSpec, GroupData,
                     InvariantForm, UnsupportedGroupError, algebra_model, bracket,
                     framing_specs, group_data, invariant_polynomials, torus_framing,
                     trace_form, trivial_framing)
from .rationalfn import Poly, RatContext, VSection, Window
from .sampling import random_algebra_element, random_residue_tuple, seeded_model
from .spectral import (SpectralCurveReport, spectral_data, spectral_genus,
                       torsor_fiber_report)
