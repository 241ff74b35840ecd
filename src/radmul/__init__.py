"""Radial multipliers on amalgamated free products of tracial algebras.

The package builds, at finite truncation, the linear map that scales every
reduced word of the amalgamated free product by a symbol value phi(length),
and verifies its defining identities and norm bound numerically.  It
re-exports nothing; each part is imported from the module that holds it:
radial symbols, psi1/psi2 and the Hankel calculus (:mod:`radmul.symbols`),
finite crossed products (:mod:`radmul.algebra`), the truncated Fock space
(:mod:`radmul.fock`), the run configuration and its presets
(:mod:`radmul.config`), sparse entries and the spectral norm
(:mod:`radmul.sparse`), the operator toolkit and the assembled multiplier
(:mod:`radmul.operators`), the end-to-end suites (:mod:`radmul.verify`),
their checks and report file (:mod:`radmul.report`) and the command line
(:mod:`radmul.cli`).
"""

__version__ = "0.1.0"
