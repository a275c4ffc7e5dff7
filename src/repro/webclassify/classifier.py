"""Root-page classification.

Mirrors the paper's procedure: size check first (pages under 100 bytes
are "minimal content"), then signature matching, and "custom content"
as the residual -- a page that matches nothing stock is, by
construction, unique content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campus.webpages import PageCategory
from repro.webclassify.signatures import Signature, signature_database

#: The paper's minimal-content threshold.
MINIMAL_CONTENT_BYTES = 100


@dataclass
class PageClassifier:
    """Classifies page text into :class:`PageCategory` bins."""

    signatures: tuple[Signature, ...] = field(default_factory=signature_database)

    def classify(self, page: str) -> PageCategory:
        """Classify non-empty page text.

        Raises
        ------
        ValueError
            For empty text -- "no response" is a fetch outcome, not a
            page category; the caller distinguishes it.
        """
        if not page:
            raise ValueError(
                "cannot classify an empty page; handle fetch failures "
                "as NO_RESPONSE upstream"
            )
        if len(page.encode("utf-8", errors="replace")) < MINIMAL_CONTENT_BYTES:
            return PageCategory.MINIMAL
        lowered = page.lower()
        for signature in self.signatures:
            if signature.matches(lowered):
                return signature.category
        return PageCategory.CUSTOM
