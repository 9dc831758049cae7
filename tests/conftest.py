"""Test-session set-up that keeps a failing property test readable under -W error.

When a hypothesis test fails, hypothesis's failure report imports
``hypothesis.extra._patching``, which imports libcst; libcst's use of
``mypy_extensions.TypedDict`` raises a DeprecationWarning.  Under ``-W error``
that warning becomes an error inside a pytest hook, and pytest stops with
INTERNALERROR before it runs the remaining tests.  Importing the module here,
once, with that warning ignored, leaves it cached for the report; every other
warning, and every warning of dircq itself, stays an error.  Without libcst
(hypothesis's optional ``codemods`` extra) the import fails, hypothesis skips
its patch report, and no warning arises, so there is nothing to do.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
