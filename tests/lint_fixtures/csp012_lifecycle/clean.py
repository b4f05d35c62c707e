# module: svc.tidy_pool
"""CSP012 clean fixture: released on every path, or ownership moved."""
import socket
from multiprocessing import Pipe


def careful(addr):
    sock = socket.create_connection(addr)
    try:
        size = compute_size()
        sock.sendall(b"x" * size)
    finally:
        sock.close()  # releases on the exception paths too


def guarded():
    parent, child = Pipe()
    try:
        proc = launch()
        proc.start()
        register(parent)
    except BaseException:
        parent.close()
        child.close()
        raise
    child.close()
    return parent


def handed_off(addr):
    sock = socket.create_connection(addr)
    return wrap(sock)  # ownership moved to the wrapper


def quiet_gap(addr):
    sock = socket.create_connection(addr)
    n = 3  # cannot raise: the try below still owns sock in time
    try:
        sock.sendall(b"x" * n)
    finally:
        sock.close()
