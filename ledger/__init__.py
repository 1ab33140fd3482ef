"""The benchmark ledger: four closed-loop workloads over the whole stack.

Run ``python3 ledger/run.py`` (see ``ledger/README.md``).  Everything the
benchmark needs lives in this directory; it imports the program only
through ``repro.*`` public names.
"""
