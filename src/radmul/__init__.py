"""Radial multipliers on amalgamated free products of tracial algebras.

The package builds, at finite truncation, the linear map that scales every
reduced word of the amalgamated free product by a symbol value phi(length),
and verifies its defining identities and norm bound numerically:
symbol-side Hankel calculus (:mod:`radmul.symbols`), finite crossed-product
models (:mod:`radmul.algebra`), the truncated Fock space
(:mod:`radmul.fock`), the operator toolkit and the assembled multiplier
(:mod:`radmul.operators`), and the end-to-end suites
(:mod:`radmul.verify`).
"""

from .algebra import (CrossedFactor, FactorElement, FiniteGroup, TracialAlgebra,
                      cond_exp, e0_vanishing, pp_expand, pp_reconstruct,
                      verify_pp_basis)
from .config import ConfigError, RunConfig, load_config, parse_config, preset_config
from .fock import (Amalgam, FockSpace, FockVector, Word, canonicalize, enumerate_words,
                   lambda_span)
from .operators import (CaseTag, GeneratorWord, RadialMultiplier, ShiftedVector,
                        StructuredOperator, adjoint_check, annihilation, build_T,
                        case_of, creation, diag, epsilon_matrix, identity_op, left_mult,
                        op_norm, phi_block_matrix, phi_cb_bound, right_annihilation,
                        right_creation, right_mult, rho_matrix, zero_op)
from .report import Check, VerificationReport
from .symbols import (ConstantTail, GeometricTail, HankelFactorization, HankelPair,
                      PsiDecomposition, RadialSymbol, evaluate, factorize,
                      hankel_pair, hankel_trace_norm, norm_C, psi_decompose,
                      psi_via_factors,
                      ricard_xu_bound, trace_norm, write_symbol_csv)
from .verify import (ReducedWord, embed, spanning_check, vacuum_expectation,
                     verify_main_theorem, word_operator)

__version__ = "0.1.0"
