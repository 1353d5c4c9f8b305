"""Fair, differentially private, ledger-mediated collaborative learning
at desk scale: local models trade selected gradients for tokens, score
each other's usefulness, and ban free-riders by majority report."""

__version__ = "0.1.0"
