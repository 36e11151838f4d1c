"""Exception types raised across the package: one per exit code.

The command line prints a ConfigInvalidError as the one line
"error: <message>" and exits 2, and any other WeylScopeError as the one
line "check failed: <message>" and exits 1.  A ValueError, TypeError,
KeyError or OverflowError raised while a command reads its config and
builds its models becomes a ConfigInvalidError.  No caller tells refusals
apart by type: a λ in the spectrum, a contour or region through the
singular set, an integration or root search that does not converge all
raise WeylScopeError, and the message says which.
"""


class WeylScopeError(Exception):
    """A computation refused its input or did not converge (exit 1)."""


class ConfigInvalidError(WeylScopeError):
    """Configuration or model file is malformed (exit 2)."""
