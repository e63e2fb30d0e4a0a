"""Numerical toolkit for classical mechanics on noncommutative phase spaces."""

__version__ = "0.1.0"
