"""Language-based one-class logical anomaly detection on synthetic scenes."""

__version__ = "0.1.0"
