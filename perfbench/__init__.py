"""Offline benchmark of the outbreakminer CLI; see run.py."""
