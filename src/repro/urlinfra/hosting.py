"""Hosting registry: which provider serves which domain (Sec 6.1).

The paper traces the indirection websites to their hosting
infrastructure and finds a third of them on ``amazonaws.com``.  Table 3
similarly ranks the domains hosting the redirect URIs of malicious
apps.  This registry is the simulation's miniature DNS/whois.
"""

from __future__ import annotations

from collections import Counter

from repro.urlinfra.url import domain_of, registered_domain

__all__ = ["HostingRegistry"]

AWS_PROVIDER = "amazonaws.com"


class HostingRegistry:
    """Maps registered domains to the provider hosting them."""

    def __init__(self) -> None:
        self._provider_of: dict[str, str] = {}

    def assign(self, domain: str, provider: str) -> None:
        self._provider_of[registered_domain(domain)] = provider

    def provider_of_domain(self, domain: str) -> str:
        return self._provider_of.get(registered_domain(domain), "unknown")

    def provider_of_url(self, url: str) -> str:
        domain = domain_of(url)
        return self.provider_of_domain(domain) if domain else "unknown"

    def provider_histogram(self, urls: list[str]) -> Counter[str]:
        """Provider → count over a list of URLs (Sec 6.1's AWS share)."""
        return Counter(self.provider_of_url(u) for u in urls)
