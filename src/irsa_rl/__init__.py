"""IRSA random-access simulation with decentralized Q-learning of replica counts."""

__version__ = "0.1.0"
