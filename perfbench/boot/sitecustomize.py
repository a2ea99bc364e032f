"""Installs the benchmark's call probes in a passel process it started.

Python imports ``sitecustomize`` at start-up when it is on the path. The
benchmark puts this directory on the PYTHONPATH of the ``passel run``
subprocess it measures and sets PERFBENCH_HOOK_MODE; without that variable
this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_HOOK_MODE"):
    import probes

    probes.install_from_env()
