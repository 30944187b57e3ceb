(** Discrete PID controller — the SISO alternative for leaf controllers
    (Fig. 9 allows "various types of Classic Controllers, such as PID or
    state-space").

    Positional form with clamped integrator (anti-windup):

    {v e  = r − y
   I ← clamp(I + e·dt)
   u  = clamp(Kp·e + Ki·I + Kd·(e − e_prev)/dt) v} *)

type config = {
  kp : float;
  ki : float;
  kd : float;
  dt : float;  (** Control period in seconds (> 0). *)
  u_min : float;
  u_max : float;
}

val config :
  ?u_min:float -> ?u_max:float -> kp:float -> ki:float -> kd:float -> dt:float -> unit -> config
(** Raises [Invalid_argument] when [dt <= 0] or [u_min > u_max]. *)

type t

val create : config -> reference:float -> t
val step : t -> measured:float -> float
(** One control period; returns the saturated command. *)

val set_reference : t -> float -> unit
val reference : t -> float
val set_config : t -> config -> unit
(** Gain scheduling for SISO loops: replace the gains in place (the
    integrator state is preserved). *)

val reset : t -> unit

(** {1 Checkpoint/restore}

    The full mutable state of a PID loop apart from its gains (which the
    owner reconstructs): reference, integrator and previous error, as
    immutable data. *)

type snapshot = {
  snap_reference : float;
  snap_integral : float;
  snap_prev_error : float option;
}

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Overwrite the controller's mutable state; stepping after [restore]
    continues exactly as the snapshotted instance would have
    ([set_config] changes are not captured — restore into a controller
    built with the same config). *)
