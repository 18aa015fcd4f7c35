"""Helpers shared by the test modules."""

import threading

import numpy as np


def serve_in_background(server):
    """Start ``server.serve_forever`` on a daemon thread and return the thread.

    It polls for shutdown every 50 ms, not every 0.5 s, so that a fixture's
    ``shutdown`` does not wait out the default poll."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return thread


def random_rows(configs, n_particles, seed):
    """A survival-row function ``rows(configs, particles)`` over random rows
    of ``n_particles`` entries, one row per pulse shape
    (``ExperimentConfig.shape``) as the survival cache keys them."""
    uniform = np.random.default_rng(seed).uniform(0.0, 1.0, (len(configs), n_particles))
    by_shape = {c.shape: row for c, row in zip(configs, uniform)}

    def rows(cfgs, particles):
        return np.stack([by_shape[c.shape][particles] for c in cfgs])

    return rows
