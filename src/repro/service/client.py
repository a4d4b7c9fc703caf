"""Stdlib (urllib) client for the DSE service.

Used by the chaos harness's service phase, the ``service`` benchmark
leg and the integration tests — none of which may depend on ``httpx``
or ``requests``.  Every call returns ``(status, body)`` with the JSON
body already decoded; HTTP error statuses are *returns*, not raises
(the service's typed refusals — 429, 503 — are data the callers act
on), while a dead or unreachable server raises the usual
``OSError``/``URLError`` so crash windows are distinguishable from
refusals.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

from repro.service.models import JobState


class ServiceClient:
    """Thin JSON-over-HTTP client bound to one server address.

    :param base_url: e.g. ``http://127.0.0.1:8741``.
    :param client_id: sent as ``X-Client-Id`` so the server's per-client
        rate limiting sees a stable identity.
    :param timeout: per-request socket timeout (seconds).
    """

    def __init__(self, base_url, client_id=None, timeout=30.0):
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout

    def _request(self, method, path, payload=None):
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.status, json.loads(
                    response.read().decode("utf-8")
                )
        except urllib.error.HTTPError as error:
            # Typed refusals (4xx/5xx with a JSON body) are data, not
            # exceptions; unreachable-server errors still raise.
            raw = error.read()
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                body = {"error": raw.decode("utf-8", "replace"),
                        "kind": "non-json-error"}
            return error.code, body
        except http.client.HTTPException as error:
            # A connection severed mid-response (the server was killed
            # under us); normalize to OSError so every caller has one
            # "server unreachable" exception type to ride through.
            raise OSError("connection lost mid-response: {}".format(error))

    # -- submissions ------------------------------------------------------

    def submit(self, experiment, scale=1.0, seed=1, options=None):
        payload = {"experiment": experiment, "scale": scale, "seed": seed}
        if options:
            payload["options"] = options
        return self._request("POST", "/jobs", payload)

    def submit_raw(self, payload):
        """Submit an arbitrary payload (malformed-input testing)."""
        return self._request("POST", "/jobs", payload)

    def submit_sweep(self, experiment, seeds, scale=1.0, options=None):
        payload = {"experiment": experiment, "scale": scale,
                   "seeds": list(seeds)}
        if options:
            payload["options"] = options
        return self._request("POST", "/sweeps", payload)

    # -- polling ----------------------------------------------------------

    def job_status(self, job_id):
        return self._request("GET", "/jobs/{}".format(job_id))

    def job_result(self, job_id):
        return self._request("GET", "/jobs/{}/result".format(job_id))

    def cancel(self, job_id):
        return self._request("DELETE", "/jobs/{}".format(job_id))

    def list_jobs(self):
        return self._request("GET", "/jobs")

    def healthz(self):
        return self._request("GET", "/healthz")

    def readyz(self):
        return self._request("GET", "/readyz")

    def stats(self):
        return self._request("GET", "/stats")

    # -- conveniences -----------------------------------------------------

    def wait_result(self, job_id, timeout=120.0, poll=0.2):
        """Poll until the job settles; returns the final (status, body).

        Raises ``TimeoutError`` if the job is still in flight at the
        deadline — callers decide whether that is a failure (tests) or
        a crash window (chaos harness).
        """
        deadline = time.monotonic() + timeout
        while True:
            status, body = self.job_result(job_id)
            if status != 202:
                return status, body
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    "job {} still {} after {}s".format(
                        job_id, body.get("state"), timeout
                    )
                )
            time.sleep(poll)

    def wait_ready(self, timeout=30.0, poll=0.1):
        """Block until ``/healthz`` answers (server started); True/False.

        Polls liveness, not readiness: a saturated-but-alive server is
        "up" for the callers (they then navigate 429s deliberately).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = self.healthz()
            except OSError:
                time.sleep(poll)
                continue
            if status == 200:
                return True
            time.sleep(poll)
        return False

    def wait_all(self, job_ids, timeout=300.0, poll=0.2):
        """Wait for many jobs; returns ``{job_id: (status, body)}``."""
        results = {}
        deadline = time.monotonic() + timeout
        for job_id in job_ids:
            remaining = max(0.1, deadline - time.monotonic())
            results[job_id] = self.wait_result(
                job_id, timeout=remaining, poll=poll
            )
        return results


def terminal_states():
    """The settled job states, importable without the server stack."""
    return JobState.TERMINAL
