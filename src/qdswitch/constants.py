"""Physical constants and unit conversions.

Every unit conversion in the package goes through this table.  Working
units everywhere else: lengths in um, fields in V/um, energies in meV,
rates and detunings in angular GHz (rad/ns), times in ns.
"""

import math

# SI defining constants (CODATA 2018; e, h, c are exact)
ELEMENTARY_CHARGE_C = 1.602176634e-19
PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0
VACUUM_PERMITTIVITY_F_M = 8.8541878128e-12

TWO_PI = 2.0 * math.pi  # angular <-> ordinary frequency

# Same constants in the package working units
VACUUM_PERMITTIVITY_F_UM = VACUUM_PERMITTIVITY_F_M * 1e-6   # F/um
SPEED_OF_LIGHT_NM_NS = SPEED_OF_LIGHT_M_S * 1e9 * 1e-9      # nm/ns; c/lambda[nm] is in GHz
UM3_PER_CM3 = 1e12

# Energy <-> frequency, computed from the defining constants rather than
# quoted to a fixed number of digits.
GHZ_PER_MEV = 1e-3 * ELEMENTARY_CHARGE_C / PLANCK_J_S / 1e9     # ~241.799 GHz per meV
ANGULAR_GHZ_PER_MEV = TWO_PI * GHZ_PER_MEV                      # rad/ns per meV

JOULE_PER_FJ = 1e-15
