# module: svc.paths
"""CSP012 violating fixture: one leak per way a path can skip a release.

Eight findings: an early return, a release only under an ``if`` in the
``finally``, an acquisition nothing follows, a return inside a
handler-guarded ``try`` (both pipe ends), a call in the ``else:`` of a
guarded ``try``, a call before the handler's release, and a call after
a guarded ``try`` before the release.
"""
import socket
from multiprocessing import Pipe


def early_exit(addr, quick):
    sock = socket.create_connection(addr)
    if quick:
        return None  # leaves with sock open
    sock.close()


def release_if(addr, keep):
    sock = socket.create_connection(addr)
    try:
        prepare()
    finally:
        if not keep:
            sock.close()  # skipped when keep is true


def dangling():
    sock = socket.socket()


def guarded_return(flag):
    parent, child = Pipe()
    try:
        if flag:
            return None  # the handler never sees this exit
        register(parent)
    except BaseException:
        parent.close()
        child.close()
        raise
    child.close()


def guarded_else():
    sock = socket.socket()
    try:
        pass
    except BaseException:
        sock.close()
        raise
    else:
        prepare()  # raises past the handler
    sock.close()


def handler_call_first():
    sock = socket.socket()
    try:
        prepare()
    except BaseException:
        log_failure()  # raises before the release
        sock.close()
        raise
    sock.close()


def call_after_guard():
    sock = socket.socket()
    try:
        prepare()
    except BaseException:
        sock.close()
        raise
    finish()  # raises while sock is still held
    sock.close()
