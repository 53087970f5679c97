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
  finish time, covering waiting plus processing.  The learner pays the
  decision-relevant part of it, and grounds WAIT with a deferral cost;
  both costs, and why, are stated once in
  :meth:`~repro.rl.qlearning.QLearningAgent.lookahead`.

For a *tabular* learner the raw counters are unusable — they increase
monotonically, so every visited state would be fresh (the divergence the
paper fixes with the greedy bootstrap).  We additionally bucket the
counters with a fixed bin width, which keeps the table finite and lets
experience transfer across racks; the bin width is a documented knob
(:class:`~repro.config.QLearningConfig.state_bin_width`).

This module holds the state type and the action constants.  The
learner's one input is a rack's facts tuple, which
:meth:`~repro.planners.atp.AdaptiveTaskPlanner.facts` reads off the
rack; the transition and the costs are the arithmetic of
:class:`~repro.rl.qlearning.QLearningAgent`'s ``lookahead`` and ``learn``.
"""

from __future__ import annotations

from typing import Tuple

#: Discretised MDP state: (picker-processing bucket, rack-processing bucket).
RackState = Tuple[int, int]

#: The binary action space of Sec. V-A.
ACTION_WAIT = 0
ACTION_REQUEST = 1
ACTIONS = (ACTION_WAIT, ACTION_REQUEST)
