"""The root-page signature database.

"To categorize web pages we developed a set of 185 web page signatures,
which contain sets of strings commonly found in specific types of web
pages.  For example, one of our 'default content' signatures matches 14
different strings often found in the default Apache web server page."
(paper, Section 4.4.1)

Each :class:`Signature` carries a set of candidate strings; a page
matches when at least ``min_matches`` of them occur (case-insensitive).
The database below covers the default pages of common servers and
distributions, embedded-device configuration/status pages, database
front-ends, and login-gated pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campus.webpages import PageCategory


@dataclass(frozen=True)
class Signature:
    """One signature: a named set of indicator strings for a category."""

    name: str
    category: PageCategory
    strings: tuple[str, ...]
    min_matches: int = 1

    def __post_init__(self) -> None:
        if not self.strings:
            raise ValueError(f"signature {self.name!r} has no strings")
        if not 1 <= self.min_matches <= len(self.strings):
            raise ValueError(
                f"signature {self.name!r}: min_matches out of range"
            )

    def matches(self, page_lower: str) -> bool:
        """Whether *page_lower* (lower-cased page text) matches."""
        hits = 0
        for needle in self.strings:
            if needle in page_lower:
                hits += 1
                if hits >= self.min_matches:
                    return True
        return False


def _default_signatures() -> list[Signature]:
    return [
        Signature(
            "apache-test-page",
            PageCategory.DEFAULT,
            (
                "test page for the apache",
                "it works!",
                "this page is used to test the proper operation",
                "seeing this instead of the website you expected",
                "apache http server after it has been installed",
                "the owner of this web site",
                "if you are a member of the general public",
                "the fact that this site is working",
                "apache software foundation",
                "httpd.apache.org",
                "your web server's documentation",
                "powered by apache",
                "this site is working properly",
                "webmaster should be contacted",
            ),
        ),
        Signature(
            "apache2-debian-default",
            PageCategory.DEFAULT,
            (
                "apache2 default page",
                "default welcome page used to test the correct operation",
                "apache2 server",
                "apache2.conf",
                "it is located at /var/www",
                "ubuntu systems",
                "debian systems",
            ),
        ),
        Signature(
            "iis-under-construction",
            PageCategory.DEFAULT,
            (
                "under construction",
                "does not currently have a default page",
                "windows small business server",
                "internet information services",
                "iisstart",
                "welcome to iis",
                "microsoft windows server",
            ),
        ),
        Signature(
            "distro-test-pages",
            PageCategory.DEFAULT,
            (
                "fedora core test page",
                "red hat enterprise linux test page",
                "centos test page",
                "welcome to nginx",
                "nginx web server is successfully installed",
                "lighttpd server is running",
                "thttpd default page",
                "your suse web server is up",
            ),
        ),
        Signature(
            "generic-placeholder",
            PageCategory.DEFAULT,
            (
                "this domain is parked",
                "website coming soon",
                "placeholder page",
                "default home page",
                "congratulations! your web server is working",
            ),
        ),
    ]


def _config_signatures() -> list[Signature]:
    return [
        Signature(
            "hp-jetdirect",
            PageCategory.CONFIG_STATUS,
            (
                "jetdirect",
                "hp laserjet",
                "toner level",
                "printer - device status",
                "supplies status",
                "hewlett-packard",
            ),
        ),
        Signature(
            "printer-generic",
            PageCategory.CONFIG_STATUS,
            (
                "printer status",
                "paper tray",
                "print queue",
                "xerox workcentre",
                "canon imagerunner",
                "lexmark",
                "ricoh aficio",
            ),
        ),
        Signature(
            "network-camera",
            PageCategory.CONFIG_STATUS,
            (
                "network camera",
                "axis video server",
                "live view - camera",
                "camera configuration",
                "pan/tilt",
                "mjpeg stream",
            ),
        ),
        Signature(
            "ups-power",
            PageCategory.CONFIG_STATUS,
            (
                "ups network management",
                "apc ups",
                "battery capacity",
                "ups status: on line",
                "power management card",
                "runtime remaining",
            ),
        ),
        Signature(
            "switch-router-admin",
            PageCategory.CONFIG_STATUS,
            (
                "switch administration",
                "device configuration utility",
                "vlan configuration",
                "port status",
                "cisco systems",
                "level one web management",
                "firmware version",
                "system uptime",
            ),
            min_matches=1,
        ),
        Signature(
            "embedded-misc",
            PageCategory.CONFIG_STATUS,
            (
                "device status",
                "sensor readings",
                "temperature probe",
                "environment monitor",
                "kvm over ip",
                "remote console",
            ),
        ),
    ]


def _database_signatures() -> list[Signature]:
    return [
        Signature(
            "oracle-frontend",
            PageCategory.DATABASE,
            (
                "oracle application server",
                "oracle http server",
                "isql*plus",
                "connect to your database instance",
                "oracle9i",
                "oracle enterprise manager",
            ),
        ),
        Signature(
            "phpmyadmin",
            PageCategory.DATABASE,
            (
                "phpmyadmin",
                "welcome to phpmyadmin",
                "mysql server administration",
                "please log in to the database",
                "pma_username",
            ),
        ),
        Signature(
            "db-generic",
            PageCategory.DATABASE,
            (
                "database front-end",
                "sql query interface",
                "postgresql administration",
                "pgadmin",
                "database management console",
            ),
        ),
    ]


def _restricted_signatures() -> list[Signature]:
    return [
        Signature(
            "login-form",
            PageCategory.RESTRICTED,
            (
                "please log in",
                "type='password'",
                'type="password"',
                "name='pass'",
                "sign in",
                "members only",
                "login required",
            ),
        ),
        Signature(
            "http-auth",
            PageCategory.RESTRICTED,
            (
                "401 authorization required",
                "authorization required",
                "could not verify that you are authorized",
                "access forbidden",
                "credentials required",
            ),
        ),
    ]


_DATABASE: tuple[Signature, ...] | None = None


def signature_database() -> tuple[Signature, ...]:
    """The full ordered signature database.

    Order matters: config/database/restricted signatures are tested
    before default-content ones because embedded-device pages often
    embed server-default boilerplate as well.
    """
    global _DATABASE
    if _DATABASE is None:
        _DATABASE = tuple(
            _config_signatures()
            + _database_signatures()
            + _restricted_signatures()
            + _default_signatures()
        )
    return _DATABASE
