"""Exact computation of the Hecke polynomial of GU(n-1,1) at an inert
prime, its certified factorization, and the classification and slope
theory of the associated unitary Dieudonne modules and spaces of
signature (n-1,1).

The package root re-exports nothing: import from the modules
(:mod:`guhecke.hecke`, :mod:`guhecke.dieudonne`, ...), so that importing
one loads only what it uses."""
