"""The three benchmark workloads and the independent checks on their outputs.

Each workload has
  setup(seed)            inputs, built after import and before timing;
  run(inputs, lat)       the timed pass; appends (start, end) of every
                         request to `lat` and returns what the checks need;
  check(inputs, out, ref) failures, one string per failed request or check,
                         each tagged "gate:" when an independent route
                         disagrees with the program; a request that raises
                         or a response the checks cannot read is a failure
                         too, so no exception ends a pass;
  reference()            optional expensive oracle, built once per run in its
                         own interpreter and handed to every pass.
A request is one call a tcores user waits for: the whole suite for
suite-full, one verifier for series-deep, one CLI invocation for
core-requests.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import time

SUITE_FULL_CHECKS = 31

# ---------------------------------------------------------------------------
# independent counts


def partition_counts(n: int) -> list[int]:
    """p(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        for k in itertools.count(1):
            sign = 1 if k % 2 else -1
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
        p[m] = total
    return p


def macdonald_term_count(t: int, N: int) -> int:
    """Integer vectors with entry sum 1+..+t, one entry per residue class
    mod t, and exponent (sum a_i^2 - sum i^2)/(2t) at most N; by brute
    force over a box instead of the program's pruned recursion."""
    total = t * (t + 1) // 2
    sq_base = sum(i * i for i in range(1, t + 1))
    bound = sq_base + 2 * t * N
    r = 0
    while (r + 1) ** 2 <= bound:
        r += 1
    count = 0
    for head in itertools.product(range(-r, r + 1), repeat=t - 1):
        last = total - sum(head)
        a = head + (last,)
        sq = sum(x * x for x in a)
        if sq > bound or len({x % t for x in a}) != t:
            continue
        count += 1
    return count


def _raised(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _report_failures(reports) -> list[str]:
    """Status, exact deviation and counter checks on verification reports;
    a request that raised is in `reports` as {"error": ...}."""
    failures = []
    for i, rep in enumerate(reports):
        if isinstance(rep, dict) and "error" in rep:
            failures.append(f"request {i}: raised {rep['error']}")
            continue
        try:
            failures.extend(_check_report(rep.to_dict()))
        except Exception as exc:  # an unreadable report fails, the pass goes on
            failures.append(f"gate: request {i}: report check raised {_raised(exc)}")
    return failures


def _check_report(d: dict) -> list[str]:
    from tcores.coding import cores_from_codings
    tag = f"{d['identity']} {d['params']} N={d['N']}"
    if d["status"] != "pass":
        return [f"{tag}: status {d['status']} deviation {d['deviation']}"]
    failures = []
    if not d["ring"].startswith("CC") and d["deviation"] != "0":
        failures.append(f"gate: {tag}: exact check reports deviation {d['deviation']!r}")
    details, params = d.get("details", {}), d["params"]
    want = None
    if d["identity"] in ("multiset-formula", "exploded-relations"):
        got, want = details.get("cores_checked"), len(
            cores_from_codings(params["t"], params["max_size"]))
    elif d["identity"] == "hook-content":
        got, want = details.get("pairs_checked"), params["max_n"] * sum(
            partition_counts(params["max_size"]))
    elif d["identity"] == "macdonald":
        got, want = details.get("terms_enumerated"), macdonald_term_count(
            params["t"], d["N"])
    if want is not None and got != want:
        failures.append(f"gate: {tag}: counter {got} != independent count {want}")
    return failures


def timed_call(fn, lat, *args, **kwargs):
    """One request: the call, recording its (start, end) in `lat`; a call
    that raises returns {"error": ...} instead."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # one failed request must not end the pass
        return {"error": _raised(exc)}
    finally:
        lat.append((t0, time.perf_counter()))


# ---------------------------------------------------------------------------
# suite-full: the 31 checks of `tcores suite --profile full`


class SuiteFull:
    name = "suite-full"

    def setup(self, seed):
        return {"seed": seed}

    def run(self, inputs, lat):
        from tcores import identities
        return timed_call(identities.run_suite, lat, "full", inputs["seed"])

    def check(self, inputs, reports, ref):
        if isinstance(reports, dict):  # run_suite raised: no check ran
            return [f"run_suite raised {reports['error']}"] * SUITE_FULL_CHECKS
        failures = _report_failures(reports)
        if len(reports) != SUITE_FULL_CHECKS:
            failures.append(f"gate: suite ran {len(reports)} checks, expected {SUITE_FULL_CHECKS}")
        return failures

    def attempted(self, inputs):
        return SUITE_FULL_CHECKS

    reference = None


# ---------------------------------------------------------------------------
# series-deep: exact-ring verifiers at the frontier sizes


class SeriesDeep:
    name = "series-deep"

    def setup(self, seed):
        # verifiers by name: looked up when called, so a tracer sees them
        return {"plan": [
            ("verify_nekrasov_okounkov", (16,), {}),
            ("verify_macdonald", (4, 6), {}),
            ("verify_multiplication", (2, 14), {}),
            ("verify_multiplication", (3, 15), {}),
            ("verify_hook_content", (9, 6), {}),
            ("verify_jacobi", (40,), {}),
            ("verify_poly_s_family", (), {"N": 12, "seed": seed}),
            ("verify_sin_family", (1,), {"t_value": 0, "N": 20}),
        ]}

    def run(self, inputs, lat):
        from tcores import identities
        return [timed_call(getattr(identities, name), lat, *args, **kwargs)
                for name, args, kwargs in inputs["plan"]]

    def check(self, inputs, reports, ref):
        return _report_failures(reports)

    def attempted(self, inputs):
        return len(inputs["plan"])

    reference = None


# ---------------------------------------------------------------------------
# core-requests: one client calling the CLI in process, closed loop

T_RANGE = range(2, 9)
CORE_MAX_SIZE = 45
ENUM_SIZES = range(10, 31)
REQUESTS = 1000
MIX = {"core-map": 0.35, "explode": 0.58}  # enumerate takes the rest

_DELTA_ASCII = re.compile(r"\[\s*\d+\]")
_DELTA_SVG = 'fill="#c8c8c8"'


def _canonical(parts_list) -> str:
    """Order-free digest of a list of partitions given as part tuples."""
    import hashlib  # loaded by CoreRequests.setup, so other workloads skip OpenSSL

    text = "\n".join(",".join(map(str, p)) for p in sorted(parts_list))
    return hashlib.sha256(text.encode()).hexdigest()


def _enum_sizes(n: int) -> list[int]:
    """n max-sizes evenly spread over ENUM_SIZES.

    Enumeration cost grows steeply with max-size, so drawn sizes would make
    request_ms_p99 a function of the seed; an even grid keeps the tail fixed
    while the seed still picks the order, the cores and the formats.
    """
    lo, hi = ENUM_SIZES[0], ENUM_SIZES[-1]
    return [lo + round(k * (hi - lo) / (n - 1)) for k in range(n)] if n > 1 else [hi]


def generate_requests(seed: int, cores: dict) -> list[tuple]:
    """(kind, t, partition or max-size, format) tuples, shuffled by seed."""
    rng = random.Random(seed)
    n_map = round(MIX["core-map"] * REQUESTS)
    n_explode = round(MIX["explode"] * REQUESTS)
    n_enum = REQUESTS - n_map - n_explode
    ts = list(T_RANGE)
    out = []
    for k in range(n_map):
        t = ts[k % len(ts)]
        out.append(("core-map", t, rng.choice(cores[t]), ("text", "json")[k // len(ts) % 2]))
    for k in range(n_explode):
        t = ts[k % len(ts)]
        out.append(("explode", t, rng.choice(cores[t]), ("text", "svg")[k // len(ts) % 2]))
    for i, t in enumerate(ts):
        out.extend(("enumerate", t, m, "text") for m in _enum_sizes(len(range(i, n_enum, len(ts)))))
    rng.shuffle(out)
    return out


def _argv(req) -> list[str]:
    kind, t, arg, fmt = req
    if kind == "enumerate":
        return ["enumerate", "--t", str(t), "--max-size", str(arg), "--via", "codings"]
    return [kind, "--partition", str(arg), "--t", str(t), "--format", fmt]


class CoreRequests:
    name = "core-requests"

    def setup(self, seed):
        # before timing: loaded mid-pass by the first enumerate check, OpenSSL
        # would land at a seed-dependent point of the heap and peak RSS with it
        import hashlib  # noqa: F401
        from tcores.coding import cores_from_codings
        cores = {t: cores_from_codings(t, CORE_MAX_SIZE) for t in T_RANGE}
        return {"requests": [(r, _argv(r)) for r in generate_requests(seed, cores)]}

    def run(self, inputs, lat):
        from tcores import cli
        main = cli.main
        results = []
        for req, argv in inputs["requests"]:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main(argv)
            except Exception as exc:  # one failed request must not end the pass
                rc = _raised(exc)
            lat.append((t0, time.perf_counter()))
            try:
                results.append(self._digest(req, rc, buf.getvalue()))
            except Exception as exc:  # a malformed response fails that request
                results.append({"unreadable": _raised(exc)})
        return results

    @staticmethod
    def _digest(req, rc, text):
        """The facts the checks need, so no response text is kept."""
        kind, t, arg, fmt = req
        if rc != 0:
            return {"error": f"exit {rc}" if isinstance(rc, int) else f"raised {rc}"}
        if kind == "enumerate":
            return {"digest": _canonical(
                tuple(int(x) for x in line.split(",")) if line != "-" else ()
                for line in text.splitlines())}
        if kind == "explode":
            n = text.count(_DELTA_SVG) if fmt == "svg" else len(_DELTA_ASCII.findall(text))
            return {"delta_boxes": n}
        if fmt == "json":
            data = json.loads(text)
            return {"V": data["V"], "size_check": data["size_check"]}
        sizes = [int(line.split()[1]) for line in text.splitlines() if line.startswith("size ")]
        return {"sizes": sizes}

    def check(self, inputs, results, ref):
        failures = []
        for (req, argv), got in zip(inputs["requests"], results):
            kind, t, arg, fmt = req
            tag = " ".join(argv[:5])
            if "error" in got:
                failures.append(f"{tag}: {got['error']}")
                continue
            try:
                failure = self._check_one(req, got, ref)
            except Exception as exc:  # e.g. a V the parser rejects
                failure = f"check raised {_raised(exc)}"
            if failure:
                failures.append(f"gate: {tag}: {failure}")
        return failures

    @staticmethod
    def _check_one(req, got, ref):
        """What is wrong with one response the program produced, or None."""
        from tcores.coding import CoreCoding, coding_to_core
        kind, t, arg, fmt = req
        if "unreadable" in got:
            return f"unreadable response: {got['unreadable']}"
        if kind == "enumerate":
            if got["digest"] != ref[f"{t},{arg}"]:
                return "codings route differs from the filter route"
        elif kind == "explode":
            if got["delta_boxes"] != arg.size:
                return f"{got['delta_boxes']} delta boxes, |lambda|={arg.size}"
        elif fmt == "json":
            if got["size_check"] != arg.size:
                return f"size_check {got['size_check']} != {arg.size}"
            if coding_to_core(CoreCoding.parse(got["V"], t)) != arg:
                return "V does not round-trip"
        elif got["sizes"] != [arg.size, arg.size]:
            return f"sizes {got['sizes']} != {arg.size}"
        return None

    def attempted(self, inputs):
        return len(inputs["requests"])

    @staticmethod
    def reference():
        """Filter-route digests of every (t, max-size) an enumerate request
        can name; independent of the seed."""
        from tcores.partitions import enumerate_t_cores
        ref = {}
        for t in T_RANGE:
            cores = enumerate_t_cores(t, ENUM_SIZES[-1])
            for m in ENUM_SIZES:
                ref[f"{t},{m}"] = _canonical(p.parts for p in cores if p.size <= m)
        return ref


WORKLOADS = {w.name: w for w in (SuiteFull(), SeriesDeep(), CoreRequests())}
