"""The one HTTP call of the package, shared by the remote embedding provider
and the remote completion client: a JSON POST with bearer auth. Connection
errors, timeouts, HTTP 429 and 5xx are retried, up to ATTEMPTS tries in
all, each after a pause drawn uniformly from [0, min(BACKOFF_CAP_S,
BACKOFF_S * 2**retry)] ("full jitter"); no other failure is retried.
Each client posts through its own `requests.Session` (`RemoteClient`), so
its calls share one connection instead of opening one each."""

import os
import random
from time import sleep

from .errors import ConfigError, ProviderError

ATTEMPTS = 3
BACKOFF_S = 0.5
BACKOFF_CAP_S = 4.0


def backoff(retry: int) -> float:
    return random.uniform(0.0, min(BACKOFF_CAP_S, BACKOFF_S * 2 ** retry))


def post_json(session, url: str, key: str, body: dict, timeout: float, field: str):
    """POST `body` to `url` through the `requests.Session` `session` and
    return `field` of the JSON reply; raise ProviderError when that fails."""
    import requests  # only remote runs pay for importing it

    for attempt in range(ATTEMPTS):
        if attempt:
            sleep(backoff(attempt - 1))
        try:
            resp = session.post(url, json=body, timeout=timeout,
                                headers={"Authorization": f"Bearer {key}"})
        except (requests.ConnectionError, requests.Timeout) as exc:
            failure = exc
            continue
        except requests.RequestException as exc:
            raise ProviderError(f"POST {url} failed: {exc}") from exc
        failure = f"HTTP {resp.status_code}"
        if resp.status_code == 429 or resp.status_code >= 500:
            continue
        if resp.status_code >= 400:
            raise ProviderError(f"POST {url} failed: {failure}")
        try:
            return resp.json()[field]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProviderError(f"POST {url}: no {field!r} in reply: {exc!r}") from exc
    raise ProviderError(f"POST {url} failed {ATTEMPTS} times, last: {failure}")


class RemoteClient:
    """What both remote clients hold: an endpoint, a model, the API key read
    from the environment variable `api_key_env`, and one `requests.Session`,
    opened at the first call and kept until `close`, so each later call
    reuses its TCP connection, and its TLS session on an HTTPS endpoint."""

    TIMEOUT_S: float

    def __init__(self, url: str, model: str, api_key_env: str):
        if api_key_env not in os.environ:
            raise ConfigError(f"credentials env var {api_key_env!r} not set")
        self.url = url
        self.model = model
        self._key = os.environ[api_key_env]
        self._session = None

    def _post(self, body: dict, field: str):
        if self._session is None:
            import requests

            self._session = requests.Session()
        return post_json(self._session, self.url, self._key, body, self.TIMEOUT_S, field)

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None
