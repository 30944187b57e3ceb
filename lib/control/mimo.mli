(** Runtime MIMO tracking controller with gain scheduling.

    This is the low-level "leaf controller" of the SPECTR hierarchy
    (Fig. 9): an LQG regulator executing every control period, exposing
    exactly the two hooks the supervisory controller drives —
    {!switch_gains} (gain scheduling) and {!set_reference} (reference
    regulation).

    The controller operates internally on {e normalized} signals: each
    physical input/output channel carries an [offset]/[scale] pair (from
    the identification experiment's operating point) plus saturation
    limits for actuators.  Actuator saturation is handled with
    conditional-integration anti-windup: integrators freeze on the
    saturated channels. *)

type channel = {
  name : string;
  offset : float;  (** Operating-point value subtracted before control. *)
  scale : float;  (** Normalization divisor (≠ 0). *)
  min : float;  (** Physical lower saturation bound. *)
  max : float;  (** Physical upper saturation bound. *)
}

val channel :
  ?offset:float -> ?scale:float -> ?min:float -> ?max:float -> string -> channel
(** Channel with defaults: offset 0, scale 1, unbounded limits.  Raises
    [Invalid_argument] when [scale = 0] or [min > max]. *)

type kernels
(** Gain sets compiled for the control period: validated together, each
    matrix of the control law (A, B, C, L, Kx, Kz) stored as zero-free
    compressed sparse rows, and the bumpless-transfer Gram matrix of
    each set factored.  Immutable and shareable across controllers and
    domains: compile once per design and build every controller of that
    design from the same value ([Design_flow] memoizes it next to the
    designed gains). *)

val compile : Lqg.gains list -> kernels
(** Compile predesigned gain sets (§3.2: "computing control parameters
    for different policies offline").  Raises [Invalid_argument] when
    the list is empty, labels are duplicated, or any gain set disagrees
    on (m, p, n) or has a matrix of the wrong shape. *)

val gains : kernels -> Lqg.gains list
(** The gain sets [kernels] was compiled from (the very list). *)

type t
(** Mutable controller instance. *)

val create :
  ?z_clamp:float ->
  gains:Lqg.gains list ->
  initial:string ->
  inputs:channel array ->
  outputs:channel array ->
  refs:float array ->
  unit ->
  t
(** [create ~gains ~initial ~inputs ~outputs ~refs ()] builds a
    controller.  [gains] are the predesigned gain sets (§3.2: "computing
    control parameters for different policies offline"); [initial]
    selects the starting mode by label.  [inputs] describe the m actuator
    channels, [outputs] the p sensor channels, [refs] the initial
    physical reference values (length p).  [z_clamp] bounds each
    integrator state to ±z_clamp normalized units (default 20) — the
    anti-windup mechanism: during an infeasible phase integrators wind
    to the clamp, sustaining a maximal command, and unwind in a bounded
    number of periods afterwards.

    [create ~gains] is [of_kernels (compile gains)], with errors
    reported as [Mimo.create]: it raises [Invalid_argument] on anything
    {!compile} rejects, or when [initial] is unknown, array lengths are
    inconsistent, or [z_clamp <= 0]. *)

val of_kernels :
  ?z_clamp:float ->
  kernels ->
  initial:string ->
  inputs:channel array ->
  outputs:channel array ->
  refs:float array ->
  unit ->
  t
(** {!create} over already-compiled gain sets: the controller shares
    [kernels] read-only and allocates only its own state and scratch. *)

val kernels : t -> kernels
(** The compiled gain sets the controller runs on. *)

val step_into : t -> measured:float array -> dst:float array -> unit
(** One control period: consume the physical measurements (length p) and
    write the physical actuator commands, saturated to the channel
    limits, into a caller-owned buffer (length m).  Mirrors the 50 ms
    daemon invocation of §5.  The six matrix–vector products run over
    the compiled sparse rows of {!kernels} with no branch in the loop,
    bit-identical to [Matrix.mul]'s zero-skipping accumulation (same
    terms, same order, from [+0.]).  Every intermediate of the control
    law lands in scratch preallocated at {!create}, so a steady-state
    invocation allocates nothing.  [dst] must not alias [measured]. *)

val switch_gains : t -> string -> unit
(** Gain scheduling: point the controller at a different stored gain set.
    Controller state (estimate and integrators) is preserved, so the
    switch is bumpless and costs O(1) — "changing the coefficient arrays
    at runtime takes effect immediately" (§5.3): the integrators are
    re-solved against a factorization prepared at {!compile}, without
    allocating.  Raises [Invalid_argument] on an unknown label. *)

val current_gains : t -> string
(** Label of the active gain set. *)

val available_gains : t -> string list

val set_reference : t -> index:int -> float -> unit
(** Reference regulation: update one physical reference value (e.g. the
    supervisor lowering a cluster's power budget). *)

val set_reference_at : t -> index:int -> float array -> int -> unit
(** [set_reference_at c ~index src i] is [set_reference c ~index src.(i)]
    with the value read from a float array, so that it crosses the
    module boundary unboxed (the supervisor's rebudget path). *)

val reference : t -> index:int -> float

val reset : t -> unit
(** Zero the estimator state and integrators. *)

val num_inputs : t -> int
val num_outputs : t -> int

val last_command : t -> float array option
(** Most recent actuator command, if any step has executed. *)

val innovation_norm_into : t -> float array -> int -> unit
(** [innovation_norm_into c dst i] writes into [dst.(i)] the
    ‖y − C·x̂‖₂ of the last step's Kalman measurement update, in
    normalized output units — how badly the last measurement surprised
    the identified model.  A persistently large residual means the plant
    no longer matches the model (dead sensor, dead cluster, latched
    actuator); the FDIR layer ([Spectr.Fdir]) watches this.  0 before
    the first step and after {!reset}.  The norm travels in a float
    array, so reading it allocates nothing. *)

(** {1 Checkpoint/restore}

    The controller's full mutable state — active gain label, physical
    references, state estimate, integrators, previous normalized command
    and last physical command — as an unshared copy.  Gains and channel
    descriptions are {e not} captured: restore into a controller built by
    the same design flow.  A restored controller's subsequent [step]s
    are bit-identical to the snapshotted instance's. *)

type snapshot = {
  snap_active : string;
  snap_refs : float array;
  snap_xhat : float array array;
  snap_z : float array array;
  snap_u_prev : float array array;
  snap_last : float array option;
}

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Copies in place, allocating nothing.  Raises [Invalid_argument]
    first when the gain label is unknown to this controller or a
    dimension disagrees (a checkpoint from a different subsystem). *)
