"""The package's one binding of numpy, loaded on first attribute use.

analyze, --help and every usage error run only big-integer code, so a
process that does nothing else never pays numpy's import; verify, simulate
and sweep pay it at their first array operation.  Every module takes numpy
from here, as `from ._np import np`.  None says `import numpy`: on Python
3.10 and 3.11 that statement reads the placeholder's __spec__, which loads
numpy at once.
"""

import importlib
import importlib.util
import sys


def _numpy():
    """numpy itself if it is already imported, so there is never a second
    one; else a placeholder that imports it on first attribute use."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:  # not installed, or blocked by None in sys.modules
        return importlib.import_module("numpy")  # the usual ImportError
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
