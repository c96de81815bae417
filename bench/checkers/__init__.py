"""Independent checkers for the benchmark's outputs.

Each is written from the documented behaviour (README.md at the repository
root) and imports nothing from the program, so a fault in the program cannot
also hide in the check.
"""
