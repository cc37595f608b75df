"""Correctness gate: answers checked against the ``bit-exact-legacy`` oracle.

After the timed phase, a seeded subset of the answered images is re-run
through the per-image legacy simulation at every checkpoint of the
service schedule.  Each checked answer must equal the oracle exactly:

* a full-stream answer (early exit off) equals the oracle at ``N``;
* an early-exit answer reports the exit checkpoint the oracle's scores
  give under the service's stability + margin policy, and the oracle's
  scores there;
* an SSE stream carries one event per checkpoint up to that exit, each
  equal to the oracle's prefix scores (so streamed scores equal the unary
  prefix scores), and ends on the same exit.

Every answer (checked or not) must also report a checkpoint of the
schedule.  Mismatches count as wrong answers in ``failed``.
"""

from __future__ import annotations

import numpy as np

#: Images re-run through the oracle per run (about 0.9 s each at N=1024).
ORACLE_IMAGES = 4


def _subset(calls, seed: int, count: int) -> list[tuple]:
    """Seeded ``(call, position)`` picks, spread over the call kinds."""
    rng = np.random.default_rng([seed, 3])
    by_kind: dict[str, list] = {}
    for call in calls:
        if call.ok:
            for pos in range(len(call.images)):
                by_kind.setdefault(call.kind, []).append((call, pos))
    picks = []
    kinds = sorted(by_kind)
    for i, kind in enumerate(kinds):
        items = by_kind[kind]
        want = count // len(kinds) + (1 if i < count % len(kinds) else 0)
        chosen = rng.choice(len(items), size=min(want, len(items)), replace=False)
        picks.extend(items[j] for j in sorted(chosen))
    return picks


def check_answers(
    artifact: str,
    images: np.ndarray,
    calls,
    seed: int,
    early_exit: bool,
    margin: float = 0.1,
    stable: int = 2,
) -> dict:
    """Check a seeded subset of ``calls`` against the legacy oracle."""
    from repro.api import ScModel
    from repro.backends import create_backend
    from repro.config import resolve_checkpoints
    from repro.serve.progressive import early_exit_from_scores

    model = ScModel.load(artifact)
    schedule = tuple(resolve_checkpoints(model.stream_length))
    malformed = [
        call.images[0]
        for call in calls
        if call.ok
        and (
            len(call.scores) != len(call.images)
            or any(int(e) not in schedule for e in call.exits)
        )
    ]
    picks = _subset(calls, seed, ORACLE_IMAGES)
    if not picks:
        return {"checked": 0, "wrong": len(malformed), "mismatches": malformed}
    legacy = create_backend("bit-exact-legacy", model.mapper())
    batch = np.stack([images[call.images[pos]] for call, pos in picks])
    oracle = np.asarray(legacy.forward_partial(batch, schedule))  # (K, n, C)
    policy = early_exit_from_scores(oracle, schedule, margin, stable)
    mismatches = list(malformed)
    for j, (call, pos) in enumerate(picks):
        if call.kind == "stream":
            k_exit = schedule.index(int(policy.exit_checkpoints[j]))
            streamed = [
                (point, scores[members.index(pos)])
                for point, members, scores in call.events
                if pos in members
            ]
            ok = len(streamed) == k_exit + 1 and all(
                point == schedule[k] and np.array_equal(scores, oracle[k, j])
                for k, (point, scores) in enumerate(streamed)
            )
            ok = ok and int(call.exits[pos]) == schedule[k_exit]
            ok = ok and np.array_equal(call.scores[pos], oracle[k_exit, j])
        elif early_exit:
            ok = int(call.exits[pos]) == int(policy.exit_checkpoints[j])
            ok = ok and np.array_equal(call.scores[pos], policy.scores[j])
        else:
            ok = int(call.exits[pos]) == schedule[-1]
            ok = ok and np.array_equal(call.scores[pos], oracle[-1, j])
        if not ok:
            mismatches.append(call.images[pos])
    return {
        "checked": len(picks),
        "wrong": len(mismatches),
        "mismatches": mismatches,
    }
