"""The rack-selection Markov decision process (paper Sec. V-A, Fig. 6).

Each *rack* is an MDP instance:

* **State** ``⟨ap_r, ar_r⟩`` — the accumulated processing time of the
  rack's picker and of the rack itself.  The joint definition couples the
  rack with its picker, which is what lets the policy sense whether the
  fulfilment bottleneck currently lies in transport or in queuing.
* **Action** — binary: ``1`` = request pickup/delivery/processing now,
  ``0`` = wait for more items to batch.  (The paper chose the per-rack
  binary view precisely to avoid a combinatorial meta-action space.)
* **Transition** — on ``action = 1`` both counters grow by the batch's
  total processing time Σ_{i∈τ_r} i; on ``0`` the state is unchanged.
* **Reward (Eq. 4)** — ``c = −(max{f_p, d(l_r, l_p)} + Σ_{i∈τ_r} i)``:
  the (negated) estimated increment the selection adds to the picker's
  finish time, covering waiting plus processing.

For a *tabular* learner the raw counters are unusable — they increase
monotonically, so every visited state would be fresh (the divergence the
paper fixes with the greedy bootstrap).  We additionally bucket the
counters with a fixed bin width, which keeps the table finite and lets
experience transfer across racks; the bin width is a documented knob
(:class:`~repro.config.QLearningConfig.state_bin_width`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Discretised MDP state: (picker-processing bucket, rack-processing bucket).
RackState = Tuple[int, int]

#: The binary action space of Sec. V-A.
ACTION_WAIT = 0
ACTION_REQUEST = 1
ACTIONS = (ACTION_WAIT, ACTION_REQUEST)


@dataclass(frozen=True)
class RackObservation:
    """Raw, un-bucketed observation of one rack at one timestamp.

    Attributes
    ----------
    picker_accumulated:
        ap_r — ticks the rack's picker has spent processing so far.
    rack_accumulated:
        ar_r — ticks this rack has been processed so far.
    picker_finish_time:
        f_p of Eq. 3 for the rack's picker (remaining + queued work).
    distance_to_picker:
        d(l_r, l_p) — rack home to picker station.
    batch_processing_time:
        Σ_{i∈τ_r} i — total processing time of the pending items.
    n_pending:
        |τ_r| — number of pending items (drives the waiting cost).
    """

    picker_accumulated: int
    rack_accumulated: int
    picker_finish_time: int
    distance_to_picker: int
    batch_processing_time: int
    n_pending: int = 1


def bucketize(observation: RackObservation, bin_width: int) -> RackState:
    """Project a raw observation onto the tabular state space."""
    return (observation.picker_accumulated // bin_width,
            observation.rack_accumulated // bin_width)


def transition(state: RackState, action: int,
               batch_processing_time: int, bin_width: int) -> RackState:
    """Apply the Sec. V-A transition in bucketed space.

    ``ACTION_WAIT`` leaves the state unchanged; ``ACTION_REQUEST`` advances
    both accumulated counters by the batch's processing time.
    """
    if action == ACTION_WAIT:
        return state
    delta = batch_processing_time // bin_width
    return (state[0] + delta, state[1] + delta)


def reward(observation: RackObservation) -> float:
    """Eq. 4: the negated estimated finish-time increment of selecting now.

    ``max{f_p, d(l_r, l_p)}`` is the wait before processing can start —
    whichever of "picker still busy" and "rack still travelling" dominates —
    and the batch processing time is the work itself.  Negated because the
    learner maximises reward while the problem minimises makespan.
    """
    wait = max(observation.picker_finish_time, observation.distance_to_picker)
    return -float(wait + observation.batch_processing_time)


def request_cost(observation: RackObservation) -> float:
    """The decision-relevant part of Eq. 4: −max{f_p, d(l_r, l_p)}.

    Eq. 4's batch term Σ_{i∈τ_r} i is *policy-invariant in total*: every
    item's processing time is paid exactly once whichever batch carries
    it, so including it in the per-selection reward systematically biases
    the comparison against selecting (the WAIT action never pays it).
    The overhead term — the wait before processing can start, whichever
    of "picker still busy" (f_p) and "rack still travelling" (d)
    dominates — is what a selection actually *adds*, so it is what the
    learner optimises.  :func:`reward` keeps the paper's literal Eq. 4
    for reporting and analysis.
    """
    return -float(max(observation.picker_finish_time,
                      observation.distance_to_picker))


def wait_cost(observation: RackObservation, weight: float = 10.0) -> float:
    """The per-decision cost of choosing WAIT for this rack.

    The paper defines rewards only for *selections* (Eq. 4); a tabular
    learner also needs the WAIT action grounded, otherwise the discounted
    bootstrap makes waiting dominate every (negative-valued) selection and
    the policy starves.  Waiting delays the end-to-end completion of every
    pending item on the rack, so the cost scales with −|τ_r| — cheap to
    defer an almost-empty rack, expensive to defer a loaded one.

    ``weight`` converts between the two cost currencies: deferral is paid
    in *item-ticks per tick* while the request overhead (max{f_p, d}) is
    paid in *robot-ticks per selection*.  A selection decision is revisited
    roughly every tick over the learner's ~1/(1 − γ) tick horizon, so the
    default weight of 10 (= 1/(1 − 0.9)) makes one item pending for one
    horizon comparable to one tick of overhead.  The induced dispatch
    boundary is ``|τ_r| ≳ max{f_p, d} / weight``: ~2–4 items when
    transport dominates, deep batches once the picker queue builds — the
    Fig. 13 adaptive behaviour.  This is a reproduction refinement, not
    in the paper's pseudocode (Alg. 2 grounds only selections).
    """
    return -weight * float(observation.n_pending)
