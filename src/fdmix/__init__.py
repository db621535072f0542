"""Throughput model and slot simulator for mixed-duplex random access.

One full-duplex access point serves m full-duplex and n half-duplex
stations under slotted random access.  :mod:`fdmix.analytic` holds the
closed-form steady-state flows, :mod:`fdmix.simulator` an independent
slot-by-slot Monte Carlo check, :mod:`fdmix.stats` the comparison between
the two, and :mod:`fdmix.cli` the command line front end.  Import each
name from the module that defines it; the package itself exports none.
"""
