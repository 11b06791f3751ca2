"""Frozen expected values shared by the unit and acceptance suites.

The four default curves were computed with an independent prototype
implementation of the whole chain (separate partial-trace, channel, and
fidelity routines) and frozen here; the package must reproduce them to 1e-6.
Boundary entries marked None are the points where the conditioned branch
has exactly zero probability; the prototype had no value there. The sweep
prints the flagged exact limit as eta tends to 1, BOB_LIMIT for these
curves, and the tests hold it to that.
"""

ETA_GRID = tuple(round(0.1 * i, 10) for i in range(11))

CURVES = {
    ("ad", "bob"): (1.0, 0.999653439, 0.998450797, 0.996068751, 0.992029696,
                    0.985598567, 0.975578785, 0.959856783, 0.934172366,
                    0.887400579, None),
    ("ad", "david"): (1.0, 0.998471342, 0.993767268, 0.985047234, 0.970377136,
                      0.946424595, 0.908494723, 0.852799420, 0.784904601,
                      0.728659931, 0.707106781),
    ("pd", "bob"): (1.0, 0.998465080, 0.992395327, 0.978746106, 0.953462589,
                    0.912870929, 0.857492926, 0.796447335, 0.745355992,
                    0.715575428, None),
    ("pd", "david"): (1.0, 0.994636459, 0.973609236, 0.927588158, 0.848313836,
                      0.741619849, 0.639020017, 0.568753836, 0.527409632,
                      0.505991778, 0.500000000),
}

#: reference minima quoted for the plotted curves, with the grid point where
#: each is attained (the Bob curves are undefined at eta = 1, see CURVES)
REFERENCE_MINIMA = {
    ("ad", "bob"): (0.9, 0.89),
    ("ad", "david"): (0.9, 0.73),
    ("pd", "bob"): (0.9, 0.72),
    ("pd", "david"): (1.0, 0.50),
}

ENDPOINT_TOLERANCE = 0.005

#: limiting values of the Bob curves as eta -> 1 (branch probability -> 0)
BOB_LIMIT = 0.7071067811865476  # 1/sqrt(2)
