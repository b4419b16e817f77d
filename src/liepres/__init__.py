"""Exact-arithmetic engine for finitely presented Lie algebras over the rationals.

The package exports only its version; import the modules themselves, e.g.
`from liepres.quotient import closure_levels`.  Each `liepres` command
imports only the modules it runs.
"""

__version__ = "0.1.0"
