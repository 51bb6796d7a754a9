"""The closed-form kernels broadcast: called on a 2-D numpy (t, t_m) grid,
each MOS, MATE and cooperativity kernel gives in every cell, bit for bit,
the float its scalar call gives, and the scalar call stays in floats."""

import math

import numpy as np
import pytest

from optomech import mate, mos, noise
from optomech.constants import C_LIGHT
from optomech.elements import reflectivity, wavevector

#: a column of mirror and a row of membrane transmissions, t < t_m
#: throughout; numpy's own ** misses C's pow in the last bit at 0.075 ** 4
#: and at 0.083 ** 3 and ** 6
T = np.array([[1e-3], [5e-3], [0.01], [0.014]])
T_M = np.array([[0.075, 0.083, 0.1]])
L, K, OMEGA_M = 1e-4, wavevector(0.85e-6), 1e6
M = noise.mechanical_scale(0.85e-6, L, 1e-15, 0.1)

#: kernel name -> a call of it on (t, t_m)
KERNELS = {
    "mos._g_00": lambda t, t_m: mos._g_00(C_LIGHT * K, L, t, t_m),
    "mos._gamma0": lambda t, t_m: mos._gamma0(L, t, t_m),
    "mos._locus": lambda t, t_m: mos._locus(t, t_m, reflectivity(t), reflectivity(t_m)),
    "mate._zero_dispersive": lambda t, t_m: mate._zero_dispersive(C_LIGHT * K, L, t, t_m),
    "noise._mechanical_scale": lambda t, t_m: noise._mechanical_scale(K, L, 1e-15, t_m, t),
    "noise._cooperativity_mos": lambda t, t_m: noise._cooperativity_mos(M, t, t_m),
    "noise._cooperativity_msi": lambda t, t_m: noise._cooperativity_msi(
        M, reflectivity(t_m), mos._gamma0(L, t, t_m), OMEGA_M),
    "noise._cooperativity_mate": lambda t, t_m: noise._cooperativity_mate(
        M, t, t_m, OMEGA_M, mate.zero_dispersive_decay(t, L)),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_broadcasts_bit_for_bit(name):
    kernel = KERNELS[name]
    grid = kernel(T, T_M)
    # a value that depends on t alone, or on t_m alone, has that axis only
    grid = [np.broadcast_to(values, (T.size, T_M.size))
            for values in (grid if isinstance(grid, tuple) else (grid,))]
    for i, j in np.ndindex(T.size, T_M.size):
        cell = kernel(T.item(i, 0), T_M.item(0, j))
        cell = cell if isinstance(cell, tuple) else (cell,)
        assert all(type(value) is float and math.isfinite(value) for value in cell)
        assert [values[i, j] for values in grid] == list(cell), (i, j)
