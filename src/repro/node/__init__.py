"""Cluster node model: hardware + file system + network services."""

from repro.node.node import Node

__all__ = ["Node"]
