"""Management interface (paper §4, Figures 6-9).

The paper manages GridRM through JSP pages: a data-source tree view with
status icons, a driver registration panel, and click-to-plot historical
charts.  This package renders the same views as text/HTML from live
gateway state, and implements the network-scan data-source discovery the
paper describes ("Data sources are discovered by scanning a network, or
they can be configured selectively").
"""

from repro.web.discovery import discover_sources, DiscoveredSource
from repro.web.console import Console
from repro.web.servlet import GatewayServlet, http_get, SERVLET_PORT
from repro.web.reports import capacity_report, utilisation_report

__all__ = [
    "discover_sources",
    "DiscoveredSource",
    "Console",
    "GatewayServlet",
    "http_get",
    "SERVLET_PORT",
    "capacity_report",
    "utilisation_report",
]
