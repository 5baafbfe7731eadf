"""The package's lazy export table and what its calls import."""

import subprocess
import sys

import canonfactor


def test_every_export_resolves():
    # __all__ is built from the lazy table, so a name whose definition
    # was removed would only fail on first use
    for name in canonfactor.__all__:
        getattr(canonfactor, name)


def test_common_calls_leave_scipy_unimported():
    # importing scipy.special and scipy.linalg costs ~0.4 s; the inverse
    # map with its report, the density, the Szego functional and the
    # factor run on numpy alone
    code = ("import sys\n"
            "from canonfactor import *\n"
            "mu = sinc_bump_weight(0.5, 1.0)\n"
            "ham, _ = inverse_spectral(mu, 4.0, 32, report=True)\n"
            "spectral_density(ham, [0.0, 1.0])\n"
            "szego_K(step_weight(2.0, 1.0), 1j)\n"
            "factor_via_transform(mu, 3.2, 16)\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
