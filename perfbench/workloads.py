"""Inputs, requests and oracles of the threebraid benchmark workloads.

Each workload's input set is fixed by its definition; an order key,
made from the run's seed and the pass number, only shuffles the order in
which a pass sends its requests.  The library sees nothing but the
generated words (or, on partials, the rank).

A pass sends every request once, closed loop: one client, one request
outstanding, the next sent when the previous returns.  Answers come back
as plain JSON-ready values so that the benchmark's parent process can
compare passes and check them against the oracles below, outside every
timed window.
"""

import functools
import random
from collections import Counter
from time import perf_counter

from threebraid import braid, embed, expansions, forms, goeritz

NAMES = ("sweep", "deep", "symmetry", "partials")

# Stage histograms of the two u1 workloads; they are facts about the knots.
SWEEP_STAGES = {"sigma_bound": 118, "search_empty": 142, "witness": 71,
                "change_making": 2, "parity": 1}
DEEP_STAGES = {"search_empty": 110, "witness": 16}
SYMMETRY_OUTCOMES = {"answered": 160, "refused": 8}
PARTIALS_RANK = 7
PARTIALS_COUNTS = {2: 2, 3: 2, 4: 5, 5: 12, 6: 31, 7: 77}
# orthogonal_marked_structure re-derives every kind-1 layer below the
# member's rank, about 2.3 s per rank-7 member, so it runs up to rank 6,
# where 6 members have orthogonal marks
STRUCTURE_MAX_RANK = 6
PARTIALS_STRUCTURES = 6


def alt_knot_words(max_total, exact=False):
    """Canonical alternating 3-braid words whose closure is a knot.

    Total exponent at most max_total, or exactly max_total when exact.
    Returned sorted, so the set does not depend on any seed.
    """
    seen = set()

    def rec(pairs, budget):
        if pairs and (budget == 0 or not exact):
            seen.add(braid.AltBraidWord.canonical(pairs).pairs)
        for a in range(1, budget + 1):
            for b in range(1, budget - a + 1):
                rec(pairs + [(a, b)], budget - a - b)

    rec([], max_total)
    words = (braid.AltBraidWord(p) for p in sorted(seen))
    return [w for w in words if braid.is_knot_closure(w.raw())]


def inputs(name, order):
    """The workload's requests, shuffled by the order key."""
    if name == "sweep":
        items = alt_knot_words(12)
    elif name == "deep":
        # the sigma = -2 mirrors are left out: u1_pipeline mirrors them
        # onto these same searches
        items = [w for w in alt_knot_words(14, exact=True)
                 if goeritz.signature_normal_form(0, w) == 2]
    elif name == "symmetry":
        items = [w for w in alt_knot_words(12) if w.r <= 5
                 and goeritz.determinant(goeritz.goeritz_3braid(w)) > 1]
    elif name == "partials":
        return [PARTIALS_RANK]
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(order).shuffle(items)
    return items


def _symmetry(word):
    try:
        return embed.word_symmetry_obstruction(word)
    except forms.NonCyclicCokernel as exc:
        return exc


def _failure(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def run_pass(name, items, order, tracer=None, host=None):
    """Send every request once; return (timings, answers).

    timings holds one (start, end, busy) per request, busy being end -
    start less the time host-speed probes took inside the request.  A
    request that raises is recorded as an error answer, which the oracles
    count as failed.  With a tracer every request is one traced request,
    numbered by its position in the pass.
    """
    if name == "partials":
        call = functools.partial(_partials_batch, order=order)
    elif name == "symmetry":
        call = _symmetry
    else:
        call = embed.u1_pipeline
    timings, outs = [], []
    for i, item in enumerate(items):
        stolen = host.stolen if host else 0.0
        start = perf_counter()
        if tracer is not None:
            tracer.begin_request(i)
        try:
            out = call(item)
        except Exception as exc:  # request boundary: keep serving
            out = _failure(exc)
        if tracer is not None:
            tracer.end_request()
        end = perf_counter()
        busy = end - start - (host.stolen - stolen if host else 0.0)
        timings.append((start, end, busy))
        outs.append(out)
    return timings, [_encode(name, item, out) for item, out in zip(items, outs)]


def _encode(name, item, out):
    if isinstance(out, embed.PipelineReport):
        return out.to_json()
    if name == "partials":
        return out
    doc = {"word": item.to_json()}
    if isinstance(out, dict):
        doc.update(out)
    elif isinstance(out, forms.NonCyclicCokernel):
        doc["refused"] = list(out.invariant_factors)
    else:
        doc["passed"], doc["sides"] = out
    return doc


def _partials_batch(rank, order):
    """generate_balanced plus the b0 --check checks, as one batch.

    Every member is delivered when the batch ends, so each member's
    latency is the batch's time.
    """
    layers = expansions.generate_balanced(rank)
    members = [pe for ms in layers.values() for pe in ms]
    shuffled = list(range(len(members)))
    random.Random(order).shuffle(shuffled)
    columns = {i: expansions.column_multiset_check(members[i])
               for i in shuffled}
    structures = {}
    for i in shuffled:
        pe = members[i]
        if pe.r <= STRUCTURE_MAX_RANK and pe.pairing(*pe.marked_rows()) == 0:
            st = expansions.orthogonal_marked_structure(pe)
            structures[i] = [st.k, st.l]
    return {"counts": {str(r): len(ms) for r, ms in layers.items()},
            "columns_ok": [columns[i] for i in range(len(members))],
            "structures": [structures[i] for i in sorted(structures)],
            "blocked": expansions.no_orthogonal_completion(rank)}


def requests_per_answer(name):
    """Requests one answer stands for: every member of the batch on partials."""
    return sum(PARTIALS_COUNTS.values()) if name == "partials" else 1


# --- oracles ------------------------------------------------------------


def _excess(actual, expected):
    """Requests that landed in a bucket beyond its expected count."""
    return sum(max(0, n - expected.get(k, 0)) for k, n in actual.items())


def check(name, items, answers):
    """Check one pass's answers; return (failed_requests, messages)."""
    if name == "partials":
        return _check_partials(answers[0])
    if name == "symmetry":
        judge, expected = _check_symmetry, SYMMETRY_OUTCOMES
    else:
        judge = _check_u1
        expected = SWEEP_STAGES if name == "sweep" else DEEP_STAGES
    bad = {}
    hist = Counter()
    for i, word in enumerate(items):
        ans = answers[i] if i < len(answers) else {"error": "no answer"}
        if ans.get("word") != word.to_json():
            bad[i] = "answer is for another word"
            continue
        why = judge(word, ans)
        if why:
            bad[i] = why
        hist[_outcome(ans)] += 1
    msgs = [f"{items[i].pairs}: {why}" for i, why in sorted(bad.items())]
    excess = _excess(hist, expected)
    if excess:
        msgs.append(f"histogram {dict(hist)} != expected {expected}")
    return max(len(bad), excess), msgs


def _outcome(ans):
    """Histogram bucket: the stage on u1 workloads, else answered/refused."""
    if "error" in ans:
        return "error"
    if "refused" in ans:
        return "refused"
    return ans.get("stage", "answered")


def _check_u1(word, ans):
    if "error" in ans:
        return ans["error"]
    for w in ans["witnesses"]:
        if w["crossing"] is None or not w["verified"]:
            return "witness without a verified crossing"
    if ans["determinant"] <= 1:
        return None
    # the rewriting family test decides u = 1 independently of the search
    family = bool(braid.unknotting_crossings(word))
    if (ans["verdict"] == "witness") != family:
        return f"verdict {ans['verdict']} but family test says {family}"
    return None


def _check_symmetry(word, ans):
    if "error" in ans:
        return ans["error"]
    if "refused" in ans:
        factors = forms.coker_map(goeritz.goeritz_3braid(word).matrix)
        if len(factors.invariant_factors) < 2:
            return f"refused a cyclic cokernel {factors.invariant_factors}"
        return None
    if not ans["passed"] and braid.unknotting_crossings(word):
        return "obstruction fired on a word the family test unknots"
    return None


def _check_partials(ans):
    total = sum(PARTIALS_COUNTS.values())
    if "error" in ans:
        return total, [ans["error"]]
    counts = {int(r): n for r, n in ans["counts"].items()}
    if counts != PARTIALS_COUNTS:
        return total, [f"layer counts {counts} != {PARTIALS_COUNTS}"]
    failed = sum(1 for ok in ans["columns_ok"] if not ok)
    msgs = [f"{failed} member(s) fail the column-multiset check"] if failed else []
    bad_structs = sum(1 for k, l in ans["structures"] if k < 1 or l < 1)
    bad_structs += abs(len(ans["structures"]) - PARTIALS_STRUCTURES)
    if bad_structs:
        failed += bad_structs
        msgs.append(f"{bad_structs} staircase structure(s) missing or with an"
                    " empty chain")
    if not ans["blocked"]:
        failed = total
        msgs.append("no_orthogonal_completion found a completion")
    return failed, msgs
