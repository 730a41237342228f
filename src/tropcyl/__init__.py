"""Exact wall structures, tropical cylinders, and primitive cylinder counts
on blowups of smooth complete toric surfaces.

The package root exports nothing: import the submodules, such as
``tropcyl.walls`` or ``tropcyl.counting``."""
