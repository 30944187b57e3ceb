(** Intended-behaviour specification (Figure 12c).

    The three-band power-capping specification restricts the plant:

    - the chip may stay above the capping threshold for {e at most three
      consecutive control intervals} — the third consecutive [critical]
      without a completed mitigation reaches the forbidden [Threshold]
      state (drawn with a red cross in the paper);
    - while capped (power-oriented gains active), budget {e increases}
      lead to the forbidden state — synthesis must disable those
      controllable events, leaving only [controlPower] bookkeeping and
      [decreaseCriticalPower] cuts — and the supervisor must return to
      QoS gains ([switchQoS]) only after power re-enters the safe region
      ([safePower]).

    Synthesis against {!Plant_model.composed_for} prunes the forbidden state
    and every state that uncontrollably reaches it. *)

open Spectr_automata

val of_platform : Spectr_platform.Platform_desc.t -> Automaton.t
(** The three-band specification generated for a platform description:
    one budget increase/decrease pair per cluster (in description
    order), same band structure.  States: Uncapped (initial, marked),
    C1, C2, Threshold (forbidden), Capped, CapHot, CapSafe.  Memoized
    per platform digest; on [exynos5422] the generated automaton is
    structurally identical to the hand-written figure. *)
