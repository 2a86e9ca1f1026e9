"""Benchmark of the guhecke CLI; see README.md in this directory."""
