"""Time one set-up in a fresh interpreter: import secure_ura, then generate
the public parameters for a configuration.

    python3 setup_probe.py SRC_DIR '{"M": 16, "E": 16, "seed": 3}'

Prints the set-up time in nominal seconds: host seconds rescaled by the
interpreter slice of hostref.py, timed in this process before and after the
set-up.  The caller pins BLAS threads in the environment.
"""

import sys
import time

from hostref import host_speed, python_slice

before = python_slice()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json  # noqa: E402

import secure_ura  # noqa: E402

secure_ura.generate_public_params(secure_ura.SystemConfig(**json.loads(sys.argv[2])))
elapsed = time.perf_counter() - t0
print(elapsed * host_speed({"python": [before, python_slice()]}))
