(** Common interface for runtime resource managers.

    A manager owns its leaf controllers (and, for SPECTR, the
    supervisor); the {!Scenario} driver invokes {!step} once per
    controller period with the fresh sensor observation, the current QoS
    reference and the current power envelope (both of which may change
    between phases), and the manager applies its actuation decisions to
    the SoC. *)

open Spectr_platform

type checkpoint = { variant : string; payload : string }
(** An opaque-to-callers manager checkpoint: a variant tag naming the
    manager kind that produced it plus a [Marshal]-ed plain-data payload
    (controller snapshots — see {!Spectr_control.Mimo.snapshot},
    {!Supervisor.snapshot}, {!Guarded.snapshot} — and the tick phase).
    Restoring a checkpoint into a manager of a different variant raises
    [Invalid_argument]. *)

type persist = {
  snapshot : unit -> checkpoint;
      (** Capture the manager's complete mutable state.  Cheap (no
          I/O, a few small copies) — safe to call every period. *)
  restore : checkpoint -> unit;
      (** Overwrite the manager's state from a checkpoint.  After
          [restore], stepping continues bit-identically to the
          snapshotted instance — the checkpoint/resume guarantee the
          chaos soak pins.  Raises [Invalid_argument] on a variant
          mismatch or corrupted payload. *)
}

type t = {
  name : string;
      (** Display name: ["SPECTR"], ["MM-Pow"], ["MM-Perf"], ["FS"]. *)
  step :
    now:float ->
    qos_ref:float ->
    envelope:float ->
    obs:Soc.observation ->
    Soc.t ->
    unit;
  persist : persist option;
      (** Checkpoint/restore capability, when the manager supports it
          (all shipped managers do).  [None] marks a manager that cannot
          be hot-restarted; the soak runner skips kill/restart cells for
          it. *)
}

val require_variant : expect:string -> checkpoint -> unit
(** Helper for [restore] implementations: raise [Invalid_argument]
    unless the checkpoint's variant tag is [expect]. *)

val sanitize_cores : ?max_cores:int -> float -> int
(** The core count a [cores] command resolves to: clamped to
    [1, max_cores] (default 4), NaN conservatively to 1. *)

val apply_command : Soc.t -> int -> float array -> pos:int -> bool
(** [apply_command soc cluster cmd ~pos] applies the command pair
    [cmd.(pos)] (frequency, GHz) and [cmd.(pos + 1)] (core count) to one
    cluster, addressed by its platform description index: sanitize
    (non-finite or negative commands clamp to the nearest legal value,
    NaN conservatively to the low end; core commands clamp to the
    cluster's physical core count), quantize to an OPP and apply.
    Returns whether the cluster obeyed: the frequency and core count
    read back equal the sanitized, quantized request.  Under an actuator
    fault they differ — that is how the guarded manager detects stuck
    actuators.  The tick path's actuator: taking the command as a float
    array, it allocates nothing. *)
