"""The repo's benchmark: end-to-end and per-layer numbers (see README.md)."""
