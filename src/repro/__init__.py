"""big.VLITTLE reproduction: cycle-level simulator and experiment harness.

Public entry points (see README for the full tour):

* :mod:`repro.soc` — system presets (``1L`` .. ``1b-4VL``) and the simulator.
* :mod:`repro.workloads` — kernel / application trace generators.
* :mod:`repro.experiments` — regenerate every paper table and figure.
"""

__version__ = "1.2.0"
