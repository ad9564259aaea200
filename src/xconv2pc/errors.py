"""Exception taxonomy shared across the engine.

Each family maps to a distinct CLI exit code so that scripted callers can
tell a malformed graph from a dead peer from exhausted dealer material.
"""

EXIT_GENERIC = 1
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_HANDSHAKE = 4
EXIT_TRANSPORT = 5
EXIT_MATERIAL = 6
EXIT_VERIFY = 7


class XConvError(Exception):
    """Base class for all engine errors."""

    exit_code = EXIT_GENERIC


class ParseError(XConvError):
    """Malformed graph file, tensor file, or CLI argument payload."""

    exit_code = EXIT_PARSE


class ShapeError(XConvError):
    """Shape-inference failure or operand shape mismatch."""

    exit_code = EXIT_SHAPE


class FixedPointOverflowError(XConvError):
    """A value does not fit the signed range of the configured ring."""

    exit_code = EXIT_SHAPE


class HandshakeError(XConvError):
    """Protocol version / graph hash / ring-config mismatch between parties."""

    exit_code = EXIT_HANDSHAKE


class TransportError(XConvError):
    """Peer unreachable or disconnected mid-protocol."""

    exit_code = EXIT_TRANSPORT


class MaterialError(XConvError):
    """Dealer material missing, exhausted, or failing integrity checks."""

    exit_code = EXIT_MATERIAL


class VerificationError(XConvError):
    """A run deviates from what it must produce.

    The secure output differs from the clear fixed-point reference, or a
    party's ledger row differs from the bytes and rounds the plan predicts.
    """

    exit_code = EXIT_VERIFY
