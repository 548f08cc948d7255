"""The repo's benchmark; see ``bench/README.md``.  Entry point: ``bench/run.py``."""
