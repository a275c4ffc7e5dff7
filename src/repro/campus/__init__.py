"""The simulated university network.

This subpackage is the substitute for the data the paper had and we do
not: 90 days of live traffic and scan results from a 16,130-address
campus.  It synthesises a *population* of hosts and services whose
behavioural mixture is calibrated to what the paper measured
(Tables 2-6), then lets dynamics -- Poisson client arrivals with
heavy-tailed popularity, diurnal cycles, transient-address churn,
births, deaths, firewalls -- produce the packet-level observables.

Modules
-------
topology    address blocks (static / DHCP / PPP / VPN / wireless)
host        host state: liveness windows, firewall policy, UDP policy
service     services with client-arrival activity models
churn       transient sessions and the address-assignment ledger
categories  the declarative behaviour-category table (paper Table 4)
webpages    root-page content for web servers (paper Table 5)
population  synthesis of the full campus from a profile
probe_index columnar probe responses (active sweeps, online prober)
profiles    semester / winter-break / all-ports study profiles
"""

from repro.campus.categories import BehaviorCategory, CategorySpec
from repro.campus.host import FirewallPolicy, Host, UdpPolicy
from repro.campus.population import CampusPopulation, synthesize_population
from repro.campus.profiles import (
    CampusProfile,
    allports_profile,
    break_profile,
    semester_profile,
)
from repro.campus.service import ActivityPattern, Service
from repro.campus.topology import CampusTopology, build_topology
from repro.campus.webpages import PageCategory, render_root_page

__all__ = [
    "ActivityPattern",
    "BehaviorCategory",
    "CampusPopulation",
    "CampusProfile",
    "CampusTopology",
    "CategorySpec",
    "FirewallPolicy",
    "Host",
    "PageCategory",
    "Service",
    "UdpPolicy",
    "allports_profile",
    "break_profile",
    "build_topology",
    "render_root_page",
    "semester_profile",
    "synthesize_population",
]
