(** High-level plant models of the case study (Figure 12a).

    Two sub-plants are modelled as automata over {!Events} and composed
    with the synchronous product exactly as §4.3.1 does for the Big
    cluster:

    - the QoS-management loop — QoS observations arrive (met / not-met /
      power-safe variants) and the supervisor reacts by moving
      per-cluster power references up or down (or explicitly deciding
      not to, via [holdBudget]).  States: Eval (initial, marked), Raise,
      Lower;
    - the power-capping loop — a power-budget violation ([critical])
      demands a gain switch to the power-oriented set, possibly a deeper
      multiplicative cut ([decreaseCriticalPower], after which the cut
      is assumed deep enough that the next period is no longer critical
      — the hierarchical-consistency assumption that makes the
      three-interval specification enforceable), and a switch back once
      power re-enters the safe region.  States: Safe (initial, marked),
      Watch, Emergency, Capped, StillHot, Cooling, Restore.

    Markings make ⟨Eval, Safe⟩ the single "ideal" state of the composed
    plant, matching Figure 12d. *)

open Spectr_automata

val of_platform : Spectr_platform.Platform_desc.t -> Automaton.t * Automaton.t
(** The (QoS-management, power-capping) sub-plants generated for a
    platform description: the QoS loop reacts with one budget command
    per cluster (in description order), the capping loop is
    cluster-count invariant.  Memoized per platform digest; on
    [exynos5422] the pair is exactly the paper's figures. *)

val composed_for : Spectr_platform.Platform_desc.t -> Automaton.t
(** Synchronous product of {!of_platform}'s pair — the automatically
    generated plant of Figure 12b, handed to synthesis.  Memoized per
    platform digest, like {!of_platform}. *)
