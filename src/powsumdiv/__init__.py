"""powsumdiv: exact counts, heuristics and limiting densities for the
primes dividing the sequence a^k + b^k."""

__version__ = "0.1.0"
