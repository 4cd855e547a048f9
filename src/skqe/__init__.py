"""Skolem set-logic query embeddings over incomplete knowledge graphs."""

__version__ = "0.1.0"
