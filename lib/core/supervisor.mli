(** The SPECTR supervisory controller: offline synthesis plus the runtime
    execution engine that drives the leaf controllers.

    Offline, {!synthesize} runs the §4.3 pipeline — compose the
    {!Plant_model} sub-plants, restrict by the {!Spec}, synthesize with
    {!Spectr_automata.Synthesis.supcon} and verify non-blocking and
    controllability — producing the verified supervisor automaton
    (Fig. 12d).  Both models are generated from a
    {!Spectr_platform.Platform_desc.t}, so the pipeline covers any
    cluster count; the default is the paper's Exynos 5422.

    At runtime (every supervisor period, 2× the controller period in
    §5), {!step} translates sensor readings into the uncontrollable
    events of the high-level plant model, walks the supervisor automaton,
    and among the controllable events the supervisor leaves enabled picks
    actions by a budget policy: gain switches and per-cluster power
    reference moves.  The chosen commands are delivered through the
    {!commands} closures, decoupling the supervisor from any particular
    leaf-controller implementation (§4.1: "the flexibility to incorporate
    any pre-verified off-the-shelf controllers"). *)

open Spectr_automata
module Platform_desc = Spectr_platform.Platform_desc

type commands = {
  switch_gains : string -> unit;
      (** Called with ["qos"] or ["power"] on a gain-schedule switch. *)
  set_power_ref : int -> float array -> unit;
      (** [set_power_ref i refs]: the power budget (W) of cluster [i]
          (description order; on exynos5422: 0 = Big, 1 = Little) is now
          [refs.(i)].  [refs] is the supervisor's budget vector, lent
          read-only for the call — passing the vector rather than the
          float keeps the value unboxed on its way to the controller. *)
}

(** One supervisor period's measurements.  All fields are floats, so
    OCaml stores the record flat: the tick path fills it and hands it to
    {!step_sample} without boxing a float. *)
type sample = {
  mutable qos : float;  (** Measured QoS rate. *)
  mutable qos_ref : float;  (** Its reference. *)
  mutable power : float;  (** Measured chip power (W). *)
  mutable envelope : float;  (** Current power envelope (W). *)
}

val sample : unit -> sample
(** A zeroed sample buffer. *)

(** Configuration keeps the paper's Big/Little vocabulary: the [big_*]
    fields govern the {e host} cluster's budget, the [little_*] fields
    every {e secondary} cluster's (each secondary gets its own budget
    between the min and max, moved in [little_budget_step]
    increments). *)
type config = {
  qos_tolerance : float;  (** Relative QoS-met band (default 0.02). *)
  capping_target : float;
      (** Capping-target band edge as a fraction of the envelope
          (default 0.97) — middle band of the three-band algorithm. *)
  uncapping_threshold : float;  (** Lowest band edge (default 0.90). *)
  big_budget_step : float;  (** Budget increment, W (default 0.25). *)
  big_budget_min : float;  (** Floor for the host budget (default 0.8). *)
  little_budget_step : float;  (** Default 0.1. *)
  little_budget_min : float;  (** Default 0.15. *)
  little_budget_max : float;  (** Default 1.0. *)
  critical_cut : float;
      (** Multiplicative emergency cut factor (default 0.9). *)
  max_actions_per_step : int;  (** Command budget per invocation (4). *)
  min_capped_dwell : int;
      (** Uncapping hysteresis: supervisor periods that must elapse in
          power mode before [switchQoS] may fire (default 10 — one
          second at the 100 ms supervisor period).  Prevents gain-switch
          chatter when the capped power level sits below the uncapping
          threshold. *)
}

val default_config : config

val synthesize :
  ?platform:Platform_desc.t -> unit -> Automaton.t * Synthesis.stats
(** Synthesize and verify the supervisor for a platform description
    (default: exynos5422, the case study).  Raises [Failure] if the
    supervisor were empty or failed verification — both are structurally
    impossible for the generated models and covered by tests. *)

type t

val create :
  ?config:config ->
  ?platform:Platform_desc.t ->
  commands:commands ->
  envelope:float ->
  unit ->
  t
(** A runtime supervisor starting in QoS mode with the host budget at
    [envelope] minus the secondary floor and every secondary budget at
    0.3 W.  Synthesis and the table compilation run once per platform
    description; a warm {!create} reuses both.
    Raises [Invalid_argument] when [envelope <= 0]. *)

val step :
  t -> qos:float -> qos_ref:float -> power:float -> envelope:float -> unit
(** One supervisor period: ingest the measured QoS rate, its reference,
    the measured chip power and the current power envelope (which may
    have changed — a thermal emergency), then emit commands.  Command
    closures are invoked synchronously, before [step] returns.

    Non-finite measurements (a failed sensor) are treated as dropped
    samples: the last trustworthy value is substituted, so the band
    logic keeps running instead of silently holding state forever. *)

val step_sample : t -> sample -> unit
(** {!step} on measurements passed in a {!sample}: the allocation-free
    form the managers call every supervisor period ({!step} writes its
    arguments into a supervisor-owned sample and calls this). *)

val state : t -> string
(** Current supervisor-automaton state name (e.g. ["Eval\\.Safe.Uncapped"]
    — the plant component ["Eval.Safe"] is itself a product state, so
    its inner dot is escaped; see
    {!Spectr_automata.Automaton.product_state_name}).  Internally the
    engine tracks the state as an index and steps on the compiled
    {!table}; this accessor is the only point where the index is
    translated back to a name. *)

val gains_mode : t -> string
(** ["qos"] or ["power"]. *)

val platform : t -> Platform_desc.t
val num_clusters : t -> int
val host_cluster : t -> int

val power_ref : t -> int -> float
(** Current power reference of the given cluster index.  Raises
    [Invalid_argument] outside [0, num_clusters). *)

val synthesis_stats : t -> Synthesis.stats
val automaton : t -> Automaton.t

(** {1 Compiled transition table}

    The runtime engine never searches the automaton: the verified
    supervisor is compiled once into a dense table with one row per
    state and one column per event id up to the largest id it uses, and
    every enabledness probe and step of {!step} is one bounds-checked
    read of it.  The table is memoized per platform description, next
    to the synthesis-cache hit in {!create}, so every supervisor of a
    description shares one. *)

type table

val table : t -> table
(** The compiled form of {!automaton} this engine steps on. *)

val table_width : table -> int
(** One past the largest event id of any transition. *)

val table_next : table -> int -> int -> int
(** [table_next tb s eid] is the successor of state index [s] under
    event id [eid], or [-1] when the supervisor disables [eid] in [s] —
    always equal to {!Spectr_automata.Automaton.step_index_raw} on the
    automaton, including for ids outside [0, table_width) (which read as
    [-1]).  [s] must index a state of the automaton: a read outside the
    table raises [Invalid_argument]. *)

(** {1 Checkpoint/restore}

    The runtime engine's full mutable state — automaton state index,
    gain mode, dwell age, the per-cluster budgets and the last
    trustworthy measurements — as an unshared copy.  The synthesized
    automaton itself is {e not} captured: synthesis is deterministic and
    memoized, so a fresh {!create} rebuilds the identical automaton and
    the saved index stays valid. *)

type snapshot = {
  snap_state : int;
  snap_mode : string;
  snap_mode_age : int;
  snap_refs : float array;  (** Per-cluster budgets, description order. *)
  snap_last_qos : float;
  snap_last_qos_ref : float;
  snap_last_power : float;
  snap_last_envelope : float;
}

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Overwrite the engine state.  The command closures are {e not}
    re-invoked — the leaf controllers carry their own snapshots and are
    restored separately; stepping after [restore] continues exactly as
    the snapshotted instance would have.  Raises [Invalid_argument] on a
    state index outside the automaton, an unknown mode, or a budget
    array whose length does not match the platform (a corrupted
    checkpoint must fail loudly, not walk an illegal state). *)

(** {1 Hot-swap state mapping (reconfiguration support)} *)

val adopt : t -> prev:snapshot -> prev_platform:Platform_desc.t -> unit
(** Map the outgoing supervisor's state onto [t], a freshly created
    supervisor synthesized for a (typically degraded) platform whose
    automaton need not share the old state space.  The mapping rule —
    the new automaton starts at its {e initial} state; budgets carry
    over by cluster name (removed clusters drop theirs, survivors are
    re-clamped); "power" gain mode carries over by replaying the
    uncontrollable capping history ([aboveTarget] → [switchPower]) from
    the initial state, keeping the capping dwell age; one ordinary step
    on the last carried measurements then settles the band events — is
    documented in full in DESIGN.md §17.  [restore] is its dual for the
    {e same} automaton; [adopt] is for a {e different} one.  Raises
    [Invalid_argument] when [prev]'s budget count does not match
    [prev_platform]. *)
