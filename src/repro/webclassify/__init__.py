"""Web root-page classification (paper Section 4.4.1, Table 5).

The paper downloaded the root page of every discovered web server
within a day of discovery and sorted the pages into seven bins using
185 hand-built string signatures.  This package reproduces the whole
pipeline against the simulated campus:

* :mod:`repro.webclassify.signatures` -- the signature database;
* :mod:`repro.webclassify.classifier` -- page-text classification;
* :mod:`repro.webclassify.fetcher` -- the "fetch within a day of
  discovery" step, whose failures produce the "no response" row.
"""

from repro.webclassify.classifier import PageClassifier
from repro.webclassify.fetcher import FetchOutcome, WebFetcher
from repro.webclassify.signatures import Signature, signature_database

__all__ = [
    "FetchOutcome",
    "PageClassifier",
    "Signature",
    "WebFetcher",
    "signature_database",
]
