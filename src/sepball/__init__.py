"""Separable neighborhoods of the identity in tensor products of matrix
algebras: cb-norm sandwiches, entanglement witnesses, and the rank
formula constants, all with checkable certificates.

The submodules are the API (``from sepball import cbnorm``); the package
root exports nothing."""
