#!/usr/bin/env python3
"""End-to-end smoke driver for `irma serve` (CI's serve-smoke job).

Usage: serve_smoke.py HOST:PORT

Drives a freshly booted server through the full API surface and asserts
the documented contract at every step:

1. `POST /v1/analyze` with a CSV body mines rules (200, `cached:false`,
   a fingerprint, at least one rule);
2. replaying the identical request answers from the LRU (`cached:true`);
3. a `fp:<fingerprint>` body replays the dataset without re-uploading;
4. `GET /v1/explain/{rule}?fp=` recomputes the explanation from the
   cached analysis (200 with an `explanation`);
5. a malformed request (a non-numeric `min_support`, or a query key no
   knob answers to such as `min_suport`) gets a typed 400 from the
   `serve` stage, not a 5xx;
6. an over-budget request (`x-irma-timeout-ms: 0`) gets the documented
   504 deadline answer;
7. a concurrent burst of analyzes (cold + cache-hit mix) all succeed —
   the bounded queue and worker pool, not threads-per-request, absorb it;
8. `/healthz` is 200 and an unknown route is 404.

The caller owns the server's lifecycle (boot, SIGTERM, exit-code check);
this script only talks HTTP. Exit 0 on pass, 1 on any violation.
"""

import json
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request

CSV = "gpu_util,state\n0,Failed\n0,Failed\n0,Failed\n95,Succeeded\n90,Succeeded\n92,Succeeded\n0,Failed\n91,Succeeded\n"


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def request(base: str, method: str, path: str, body: bytes = b"", headers: dict | None = None):
    """Returns (status, body_text); HTTP errors are data, not exceptions."""
    req = urllib.request.Request(
        f"http://{base}{path}", data=body if method == "POST" else None, method=method
    )
    for k, v in (headers or {}).items():
        req.add_header(k, v)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def analyze(base: str, body: str, headers: dict | None = None, query: str = "?min_support=0.2"):
    return request(base, "POST", f"/v1/analyze{query}", body.encode(), headers)


def main() -> int:
    if len(sys.argv) != 2:
        fail("usage: serve_smoke.py HOST:PORT")
    base = sys.argv[1]

    # 1. Cold analyze mines rules.
    status, text = analyze(base, CSV)
    if status != 200:
        fail(f"cold analyze: want 200, got {status}: {text}")
    doc = json.loads(text)
    if doc["cached"] is not False or doc["degraded"] is not False:
        fail(f"cold analyze flags wrong: {text}")
    if not doc["rules"]:
        fail(f"cold analyze found no rules: {text}")
    fp = doc["fingerprint"]
    rule = doc["rules"][0]["spec"]
    print(f"ok: cold analyze: {doc['rules_total']} rule(s), fingerprint {fp}")

    # 2. Identical replay hits the cache.
    status, text = analyze(base, CSV)
    if status != 200 or not json.loads(text)["cached"]:
        fail(f"replay should hit the cache: {status}: {text}")
    print("ok: replay served from cache")

    # 3. fp:<fingerprint> body replays without re-uploading.
    status, text = analyze(base, f"fp:{fp}")
    if status != 200 or not json.loads(text)["cached"]:
        fail(f"fp replay: want cached 200, got {status}: {text}")
    print("ok: fingerprint replay")

    # 4. Explain over the cached analysis.
    quoted = urllib.parse.quote(rule)
    status, text = request(base, "GET", f"/v1/explain/{quoted}?fp={fp}")
    if status != 200:
        fail(f"explain `{rule}`: want 200, got {status}: {text}")
    if not json.loads(text)["explanation"]:
        fail(f"explain returned an empty explanation: {text}")
    print(f"ok: explain `{rule}`")

    # 5. Malformed request: typed 400.
    status, text = analyze(base, CSV, query="?min_support=bogus")
    if status != 400:
        fail(f"bad min_support: want 400, got {status}: {text}")
    if json.loads(text).get("stage") != "serve":
        fail(f"bad min_support: want stage `serve`, got {text}")
    status, text = analyze(base, CSV, query="?min_suport=0.5")
    if status != 400:
        fail(f"unknown key min_suport: want 400, got {status}: {text}")
    doc = json.loads(text)
    if doc.get("stage") != "serve" or "min_suport" not in doc.get("error", ""):
        fail(f"unknown key min_suport: want a `serve` 400 naming the key, got {text}")
    print("ok: malformed request and unknown query key are typed 400s")

    # 6. Over-budget request: the documented 504 deadline answer. The
    # config is unique to this step — the cache key ignores the budget,
    # so reusing step 1's config would serve a cached 200 before the
    # deadline could ever trip.
    status, text = analyze(
        base,
        CSV,
        headers={"x-irma-timeout-ms": "0", "x-irma-tenant": "over-budget"},
        query="?min_support=0.23",
    )
    if status != 504:
        fail(f"zero deadline: want 504, got {status}: {text}")
    print("ok: over-budget request is a 504")

    # 7. Concurrent burst: cold (unique bodies) + cache-hit mix, all 200.
    results: list = [None] * 8
    def worker(i: int) -> None:
        body = CSV + f"{50 + i},Succeeded\n" if i % 2 else CSV
        results[i] = analyze(base, body, headers={"x-irma-tenant": f"burst-{i}"})
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    bad = [(i, r) for i, r in enumerate(results) if r is None or r[0] != 200]
    if bad:
        fail(f"concurrent burst: non-200 responses: {bad}")
    print(f"ok: concurrent burst of {len(results)} all 200")

    # 8. Health and routing.
    status, text = request(base, "GET", "/healthz")
    if status != 200 or json.loads(text)["status"] != "ok":
        fail(f"healthz: {status}: {text}")
    status, _ = request(base, "GET", "/nope")
    if status != 404:
        fail(f"unknown route: want 404, got {status}")
    print("ok: healthz 200, unknown route 404")

    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
