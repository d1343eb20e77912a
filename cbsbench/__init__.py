"""Repo benchmark for the Sakurai-Sugiura CBS library (see run.py)."""
