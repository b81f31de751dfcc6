"""Quantum-network coding toolkit.

CSS stabilizer codes, exact Clifford simulation, syndrome decoders,
LOCC protocols (teleportation, superdense coding, swapping, purification),
teleportation-based error correction, repeater-chain modeling, and
EPR-generation-rate accounting.
"""

__version__ = "0.1.0"
