"""Exact computations around solvable Baumslag-Solitar model spaces.

Modules:

* ``exactnum``  -- rationals, Z[1/n], n-adic residues, valuations
* ``frozen``    -- the immutable value-class base of ``bsgroup`` and ``cli``
* ``bsgroup``   -- BS(1,N) words, normal forms, substitution endomorphisms
* ``tree``      -- the regular rooted-at-infinity tree in ball coordinates,
  and truncated n-adics
* ``isometry``  -- the arithmetic subgroup of the model-space isometries
* ``lattice``   -- lattice embeddings, their conjugacy invariant, covolume
* ``lab``       -- brute-force finite-depth experiments and reports
* ``cli``       -- command-line front end
"""

__version__ = "0.1.0"
