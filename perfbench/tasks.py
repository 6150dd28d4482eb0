"""Task functions the benchmark's dist workers execute.

Module-level so a worker process resolves them by ``module:qualname``
(the worker inherits the benchmark's ``sys.path`` as ``PYTHONPATH``).
Each result carries the task id, so the benchmark can check that every
id comes back exactly once and with the right value.
"""

import time


def echo(payload):
    """Return the payload unchanged: ``[task_id, x1, ..., xk]``."""
    return payload


def bulk_sum(payload):
    """``[task_id, sum(payload)]``: per-byte cost in, a small result out."""
    return [payload[0], sum(payload)]


def sleep_echo(payload):
    """Sleep ``payload[1]`` seconds, return the task id ``payload[0]``."""
    time.sleep(payload[1])
    return payload[0]
