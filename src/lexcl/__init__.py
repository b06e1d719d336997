"""Continual vocabulary learning engine with a frozen dual-encoder,
distribution-matched embedding initialization and per-token regularized
updates, plus retrieval-based forgetting metrics."""

__version__ = "0.1.0"
