(** Common interface for runtime resource managers.

    A manager owns its leaf controllers (and, for SPECTR, the
    supervisor); the {!Scenario} driver invokes {!step} once per
    controller period with the fresh sensor observation, the current QoS
    reference and the current power envelope (both of which may change
    between phases), and the manager applies its actuation decisions to
    the SoC. *)

open Spectr_control
open Spectr_platform

type checkpoint = private {
  variant : string;  (** The producing manager's {!variant_tag}. *)
  supervisor : Supervisor.snapshot option;
  ctrls : Mimo.snapshot array;  (** LQG leaf controllers. *)
  pids : Pid.snapshot array;
  guard : Guarded.snapshot option;
  phase : int;  (** SPECTR's supervisor-divisor tick phase; 0 otherwise. *)
}
(** A manager checkpoint: a typed in-process copy of every part of the
    manager's mutable state, sharing no mutable storage with it.  Only
    {!persist} makes one, so a checkpoint always has the shape its tag
    names, and one checkpoint may be restored any number of times. *)

type persist = {
  snapshot : unit -> checkpoint;
      (** Capture the manager's complete mutable state.  Cheap (no
          I/O, a few small copies) — safe to call every period. *)
  restore : checkpoint -> unit;
      (** Overwrite the manager's state in place; stepping then
          continues bit-identically to the snapshotted instance.  Raises
          [Invalid_argument] naming both tags, before writing anything,
          on a variant tag, controller count or supervisor/guard
          presence mismatch.  Allocates nothing otherwise. *)
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
          (all but SPECTR+R).  [None] marks a manager that cannot be
          hot-restarted; the soak runner skips kill/restart cells for
          it. *)
}

type parts = {
  supervisor : Supervisor.t option;
  ctrls : Mimo.t array;
  pids : Pid.t array;
  guard : Guarded.t option;
  phase : int ref;
}
(** A manager's live state: the supervisor, the LQG or PID leaf
    controllers, the guard and the tick phase. *)

val leaf_parts : ?ctrls:Mimo.t array -> ?pids:Pid.t array -> unit -> parts
(** The parts of a manager with leaf controllers only (default none). *)

val persist : variant:string -> parts -> persist
(** The one snapshot/restore pair over [parts], tagged [variant]. *)

val variant_tag : string -> Platform_desc.t -> string
(** [name] on the reference platform, [name ^ "@" ^] 12 hex digits of
    the platform digest elsewhere: a checkpoint cannot cross platforms. *)

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
