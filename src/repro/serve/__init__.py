"""Tuning-as-a-service: durable session store, daemon, client.

See docs/SERVING.md for the service model.  The public surface:

* :class:`SessionSpec` — the JSON-able identity of one tuning session.
* :class:`SessionStore` — the durable directory-of-journals store.
* :class:`TuningDaemon` — the scheduler daemon (``repro serve``).
* :class:`ServiceClient` — the thin client the CLI verbs wrap.
* :func:`run_session` / :func:`result_payload` — the shared session
  runner that makes served results bit-identical to in-process runs;
  :func:`build_objective`, :func:`build_tuner` and :func:`drive` are
  its steps, which ``repro tune`` calls directly.
"""

from .client import ServiceClient, WaitTimeout
from .daemon import TuningDaemon
from .runner import (CancellableObjective, build_objective, build_tuner,
                     drive, result_payload, run_session)
from .session import (STATES, TERMINAL_STATES, TRANSITIONS, SessionCancelled,
                      SessionSpec, evaluation_digest)
from .store import Claim, SessionStore, StaleClaimError
from .transport import (FileTransport, SocketTransport, Transport,
                        handle_request, parse_address)

__all__ = [
    "STATES", "TERMINAL_STATES", "TRANSITIONS",
    "SessionSpec", "SessionCancelled", "evaluation_digest",
    "SessionStore", "Claim", "StaleClaimError",
    "TuningDaemon",
    "ServiceClient", "WaitTimeout",
    "Transport", "FileTransport", "SocketTransport",
    "handle_request", "parse_address",
    "run_session", "result_payload", "build_objective", "build_tuner",
    "drive", "CancellableObjective",
]
