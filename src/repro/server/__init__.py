"""The server layer: Casper facade, database server, client, network model."""

from repro.messages import PrivateQueryResult
from repro.server.casper import Casper
from repro.server.client import MobileClient
from repro.server.database import LocationServer
from repro.server.network import TransmissionModel

__all__ = [
    "Casper",
    "MobileClient",
    "LocationServer",
    "PrivateQueryResult",
    "TransmissionModel",
]
