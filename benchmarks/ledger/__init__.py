"""The end-to-end RVaaS benchmark and its traced per-layer ledger.

See ``README.md`` in this directory; ``run.py`` is the one entry point.
"""
