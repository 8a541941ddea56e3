"""Exact computer algebra for additive categories of matrix correspondences
over presented affine varieties: composition pairing, functorial calculus,
the strict base-change layer of correspondences read as bimodules, a
certificate-driven K0, and a randomized law harness checking every
categorical identity as an equality of normal forms."""

from .config import debug_validation
from .corrcat import (CorrMorphism, CorrObject, IsoCertificate, add_morphisms,
                      compose_vertical, direct_sum, eval_nonunital,
                      graph_object, identity_morphism, identity_object,
                      make_corr_morphism, make_correspondence, scale_morphism,
                      sum_injections, verify_iso, zero_morphism, zero_object)
from .exactalg import (QQ, Ambient, Field, GroebnerBasis, Matrix, Poly,
                       PrimeField, QElem, buchberger, normal_form, parse_field,
                       parse_poly, quotient_eq)
from .functors import (AutMorphism, AutObject, box_mor, box_product,
                       make_aut_morphism, make_aut_object, pullback_mor,
                       pullback_obj, pushforward_mor, pushforward_obj,
                       to_automorphism_object, to_torus_object)
from .bimod import (BigBimodule, big_lift, big_pullback, big_pushforward,
                    bimodule_hom_valid, restrict_base)
from .k0 import (K0Class, K0Ledger, k0_class, k0_compose, k0_register,
                 k0_register_sum, pt_conjugation_certificate, rank,
                 transport_certificate)
from .laws import LAW_NAMES, LawReport, law_suite
from .pairing import (compose_morphisms, compose_objects, flatten_blocks,
                      strict_associativity_check, sum_split_certificate_inner,
                      sum_split_certificate_outer)
from .randomgen import GenBounds, derive_seed, random_aut_object, random_object
from .session import Session, parse_session, print_session
from .varieties import (AffVariety, VarMorphism, compose_maps, gm_power,
                        identity_map, make_morphism, make_variety, point,
                        product, product_morphism, split_projections)

__version__ = "0.1.0"
