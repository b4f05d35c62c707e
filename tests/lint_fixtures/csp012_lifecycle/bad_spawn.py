# module: svc.spawn
"""CSP012: a pipe end in ``Process(args=...)`` is copied, not handed off."""
from multiprocessing import Pipe, Process


def spawn_keeps_child_end(target):
    parent, child = Pipe()
    try:
        Process(target=target, args=(child,)).start()
    except BaseException:
        parent.close()
        child.close()
        raise
    return parent  # the parent's copy of child stays open
