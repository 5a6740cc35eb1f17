"""The HTTP transport of live and record requests, on the standard library.

:func:`resolve` reads an endpoint once: the host and port to dial, the
request target, the headers, and the proxy the environment names, if any.
An :class:`HttpSession` holds one thread's keep-alive connection along that
route.  ``HttpProvider`` imports this module when it is built, so a command
that never reaches the network loads neither it nor ``http.client``.
"""
from __future__ import annotations

import base64
import http.client
import json
import os
import re
import ssl
import urllib.parse
import urllib.request
from typing import NamedTuple

from .errors import ProviderError

#: Bytes that a URL cannot carry as they are; ``urlsplit`` would drop a tab
#: or a newline without a word.
_UNSAFE_URL_RE = re.compile(r"[\x00-\x20\x7f]")

#: ``HttpSession.post`` has a parameter named ``json``.
_dumps = json.dumps


class Route(NamedTuple):
    """Where an endpoint's requests go and what they carry."""

    host: str  # the host dialled: the endpoint's, or its proxy's
    port: int
    context: ssl.SSLContext | None  # for an https endpoint
    tunnel: tuple[str, int, dict[str, str]] | None  # a proxy's CONNECT target
    target: str  # the path, or the absolute URI an http proxy reads
    headers: dict[str, str]


def _split_url(url: str, schemes: tuple[str, ...]):
    """``(parts, port)`` of a URL with a host and one of ``schemes``, the
    port defaulted by scheme when it has none; None for any other text, and
    for port 0, which no server listens on."""
    try:
        parts = urllib.parse.urlsplit(url)
        port = parts.port
    except ValueError:  # an unclosed bracket, or a port that is no port
        return None
    if parts.scheme not in schemes or not parts.hostname or _UNSAFE_URL_RE.search(url):
        return None
    if port is None:
        return parts, 443 if parts.scheme == "https" else 80
    return (parts, port) if port else None


def resolve(endpoint: str, credentials_env: str | None) -> Route:
    """The route of ``endpoint``, through the proxy the environment names
    for its scheme (``https_proxy`` or ``http_proxy``, else ``all_proxy``)
    unless ``no_proxy`` lets it bypass that.  The key in the variable
    ``credentials_env`` names, if set, is sent as a bearer token.  A
    ProviderError when the endpoint or the proxy is not a URL this client
    speaks."""
    split = _split_url(endpoint, ("http", "https"))
    if split is None:
        raise ProviderError(f"endpoint {endpoint!r} is not an http(s) URL")
    parts, port = split
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    headers = {"Content-Type": "application/json", "User-Agent": "fallacylab"}
    if credentials_env:
        key = os.environ.get(credentials_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
    context = ssl.create_default_context() if parts.scheme == "https" else None
    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(parts.hostname):
        return Route(parts.hostname, port, context, None, path, headers)
    split = _split_url(proxy if "://" in proxy else f"http://{proxy}", ("http",))
    if split is None:
        # The URL is not shown: it may hold a password.
        raise ProviderError(f"the {parts.scheme} proxy of the environment is not an http:// URL")
    via, via_port = split
    auth = {}
    if via.username:
        user = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password or '')}"
        auth["Proxy-Authorization"] = f"Basic {base64.b64encode(user.encode()).decode()}"
    if context is not None:
        return Route(via.hostname, via_port, context, (parts.hostname, port, auth), path, headers)
    authority = parts.netloc.rpartition("@")[2]
    return Route(via.hostname, via_port, None, None, f"http://{authority}{path}", headers | auth)


class Reply(NamedTuple):
    status_code: int
    headers: http.client.HTTPMessage  # its ``get`` ignores case
    body: bytes

    def json(self):
        return json.loads(self.body)


class HttpSession:
    """One thread's keep-alive connection along a route.

    ``post(url, json, headers, timeout)`` sends ``json`` to the request
    target ``url`` and returns a reply with ``status_code``, ``headers`` and
    ``json()``, the shape ``HttpProvider`` reads from any session."""

    def __init__(self, route: Route):
        if route.context is None:
            self._conn = http.client.HTTPConnection(route.host, route.port)
        else:
            self._conn = http.client.HTTPSConnection(route.host, route.port, context=route.context)
        if route.tunnel:
            self._conn.set_tunnel(*route.tunnel)

    def post(self, url: str, json: dict, headers: dict[str, str], timeout: float) -> Reply:
        body = _dumps(json).encode()
        self._conn.timeout = timeout  # read when a socket is opened
        reused = self._conn.sock is not None
        try:
            return self._exchange(url, body, headers)
        except ConnectionError:
            if not reused:
                raise
        # The server closed the kept-alive connection: send once more on a
        # fresh one, which is no retry.
        return self._exchange(url, body, headers)

    def _exchange(self, url: str, body: bytes, headers: dict[str, str]) -> Reply:
        try:
            self._conn.request("POST", url, body, headers)
            response = self._conn.getresponse()
            return Reply(response.status, response.headers, response.read())
        except BaseException:
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()
