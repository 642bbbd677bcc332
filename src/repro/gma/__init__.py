"""GMA Global layer (paper Figure 1).

"The Global layer, which provides inter Grid site, or Virtual
Organisation, interaction is based on the Global Grid Forum's Grid
Monitoring Architecture (GMA)."  GMA's three parts are all here:

* :mod:`repro.gma.records` — what crosses their wires: the one
  envelope and trust boundary of every request and reply below;
* :mod:`repro.gma.directory` — the directory service producers
  register with and consumers look them up in;
* :mod:`repro.gma.producer` — a gateway-side producer answering remote
  queries over the network;
* :mod:`repro.gma.consumer` — the consumer used to reach remote
  producers;
* :mod:`repro.gma.global_layer` — glues a Gateway into the GMA fabric:
  registration, remote-query routing, and gateway-to-gateway caching
  ("used between gateways to increase scalability by reducing
  unnecessary requests", §4).
"""

from repro.gma.records import ProducerRecord
from repro.gma.directory import GMADirectory, DirectoryClient
from repro.gma.producer import GatewayProducer
from repro.gma.consumer import GatewayConsumer
from repro.gma.global_layer import GlobalLayer, RemoteQueryError
from repro.gma.subscription import EventPublisher, EventSubscriber
from repro.gma.archiver import EventArchiver
from repro.gma.streams import Republisher, StreamConsumer, StreamHub

__all__ = [
    "ProducerRecord",
    "GMADirectory",
    "DirectoryClient",
    "GatewayProducer",
    "GatewayConsumer",
    "GlobalLayer",
    "RemoteQueryError",
    "EventPublisher",
    "EventSubscriber",
    "EventArchiver",
    "StreamHub",
    "StreamConsumer",
    "Republisher",
]
