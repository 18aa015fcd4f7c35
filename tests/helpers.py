"""Helpers shared by the test modules."""

import threading


def serve_in_background(server):
    """Start ``server.serve_forever`` on a daemon thread and return the thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
