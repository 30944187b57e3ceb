(** The full SPECTR resource manager (Figure 9 / Figure 10): one 2×2 LQG
    leaf controller per cluster, each carrying both QoS- and
    power-oriented gain sets, orchestrated by the synthesized supervisory
    controller.

    The supervisor runs every [supervisor_divisor] controller periods
    (default 2: 100 ms over a 50 ms loop, as in §5) and acts only through
    the two SCT mechanisms of §3.2 — gain scheduling and reference
    (budget) regulation.

    Fault handling is one ladder — healthy → guarded → reconfigured →
    open-loop fallback — run by one per-period step whose rungs are
    present or absent per variant:

    - ["SPECTR"] ({!make}): supervisor period and leaf loop only;
    - ["SPECTR+G"] ({!make} [~guards]): plus the {!Guarded} sensor
      filter, actuation readback watchdog and its open-loop fallback;
    - ["SPECTR+R"] ({!make_reconfigurable}): plus the {!Fdir} detector
      and the reconfiguration rungs (re-synthesis, swap window,
      permanent fallback).

    Until FDIR latches a permanent finding, SPECTR+R runs exactly the
    SPECTR+G program (byte-identical traces). *)

val make :
  ?seed:int64 ->
  ?supervisor_divisor:int ->
  ?gain_scheduling:bool ->
  ?guards:Guarded.t ->
  ?platform:Spectr_platform.Platform_desc.t ->
  unit ->
  Manager.t * Supervisor.t
(** Returns the manager and a handle on its supervisor (for inspecting
    mode, budgets and synthesis statistics).  [gain_scheduling:false]
    builds the ablation variant whose supervisor still regulates budgets
    but never switches gains.

    [platform] (default [Platform_desc.exynos5422]) selects the platform
    description: one leaf controller per cluster, identified through
    {!Design_flow.cluster_subsystem} and supervised by the
    description-derived synthesis.  The Exynos description is no special
    case here: its bit-identity with previous releases rests on the
    excitation windows {!Design_flow.Cluster_2x2} keeps for it.

    [guards] arms the graceful-degradation layer (named ["SPECTR+G"]):
    observations pass through {!Guarded.filter}, actuation readbacks
    feed {!Guarded.note_actuation}, and while {!Guarded.degraded} holds
    the manager pins the minimum-power open-loop fallback with the
    supervisor and every leaf controller frozen.  The guard must have
    been created with [clusters] equal to the platform's cluster count.
    Raises [Invalid_argument] when [supervisor_divisor < 1] or on a
    guard/platform cluster-count mismatch. *)

(** {1 Degraded-mode reconfiguration (SPECTR+R)} *)

(** Handle on the reconfiguration engine of a manager built by
    {!make_reconfigurable}: the current rung of the FDIR ladder, the
    (possibly degraded) supervised description, and the live supervisor
    (which changes identity on every hot-swap — do not cache it). *)
module Reconfig : sig
  type status =
    | Nominal  (** Closed loop on the boot-time description. *)
    | Swapping
        (** Bounded open-loop window (floor actuation) while the
            re-synthesized supervisor is swapped in. *)
    | Reconfigured  (** Closed loop on a degraded description. *)
    | Fallback
        (** Permanent open-loop floor: dead host cluster, blind QoS
            sensor, or a degradation the description cannot express. *)

  val status_label : status -> string
  (** ["nominal"], ["swapping"], ["reconfigured"] or ["fallback"] — the
      strings used in [Decision_log.Reconfig] entries. *)

  type handle

  val status : handle -> status

  val reconfigurations : handle -> int
  (** Completed supervisor hot-swaps. *)

  val platform : handle -> Spectr_platform.Platform_desc.t
  (** The currently supervised description ({!status} [Reconfigured]
      implies it differs from the boot-time description). *)

  val supervisor : handle -> Supervisor.t
  (** The live supervisor.  Replaced on every hot-swap. *)

  val fdir : handle -> Fdir.t
  val guard : handle -> Guarded.t

  val last_resynth_s : handle -> float
  (** Time spent synthesizing the most recent replacement supervisor, in
      wall seconds on the installed {!Spectr_obs.Clock} (0 under the
      default tick clock, and before the first reconfiguration).  Warm
      {!Synth_cache} hits make this well under a second. *)

  val excluded_clusters : handle -> int list
  (** Physical cluster indices removed from the supervised plant,
      ascending. *)
end

val make_reconfigurable :
  ?seed:int64 ->
  ?supervisor_divisor:int ->
  ?gain_scheduling:bool ->
  ?swap_ticks:int ->
  ?guards:Guarded.t ->
  ?platform:Spectr_platform.Platform_desc.t ->
  unit ->
  Manager.t * Reconfig.handle
(** The self-healing variant (named ["SPECTR+R"]): {!make}'s guarded
    step with the remaining rungs switched on — an {!Fdir} detector fed
    the raw sensors, every actuation readback and every controller's
    innovation norm, and a reconfiguration engine walking the ladder
    healthy → guarded → reconfigured → open-loop-fallback.

    On a permanent FDIR verdict the engine derives a degraded
    description ({!Spectr_platform.Platform_desc.degrade}), re-runs
    supervisor synthesis on it (warm through {!Synth_cache}), maps the
    outgoing engine state across with {!Supervisor.adopt}, and resumes
    closed-loop control after a bounded open-loop swap window of
    [swap_ticks] periods (default 4) at floor actuation.  Surviving
    clusters keep their leaf controllers — their physics did not change.
    Dead clusters are never actuated again; live clusters whose power
    sensor died are pinned to their floor OPP; a latched DVFS rail keeps
    its cluster in the plant on a {!Spectr_platform.Platform_desc.Pin_opp}
    description.  Unrecoverable faults (dead host, blind QoS sensor)
    drop to the permanent open-loop floor.

    [guards] defaults to a fresh {!Guarded.create} — the guard is
    integral to the ladder, not optional.  The manager does not support
    checkpointing ([persist = None]): the supervised description itself
    is runtime state.  Raises [Invalid_argument] as {!make}, or when
    [swap_ticks < 1]. *)
