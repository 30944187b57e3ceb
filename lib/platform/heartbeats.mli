(** The Heartbeats QoS monitor (Hoffmann et al.), as used in §5: "By
    periodically issuing heartbeats, the application informs the system
    about its current performance.  The user provides a performance
    reference value using the Heartbeats API."

    The application side calls {!beat} with the (possibly fractional)
    number of heartbeats completed during a period; the monitor side
    reads the windowed {!rate}. *)

type t

val create : ?window:float -> reference:float -> unit -> t
(** [window] is the averaging horizon in seconds (default 0.5 — ten 50 ms
    controller periods).  Raises [Invalid_argument] when [window <= 0] or
    [reference <= 0]. *)

val beat : t -> now:float -> count:float -> unit
(** Record [count] heartbeats issued at time [now].  Times must be
    non-decreasing. *)

val rate : t -> now:float -> float
(** Heartbeats per second over the trailing window ending at [now];
    0 before any beat arrives. *)

val observe : t -> Soc.observation -> period:float -> stalled:bool -> unit
(** One controller period of the monitor, as a scenario drives it: the
    application beats at [obs.time] with the [obs.qos_rate *. period]
    heartbeats it completed over the period (no beat when [stalled] —
    a stalled monitor receives none), then [obs.qos_rate] is overwritten
    with the windowed {!rate} the managers observe.  The same {!beat}
    and {!rate}, with the floats kept inside the flat observation
    record: allocation-free. *)

val reference : t -> float
val set_reference : t -> float -> unit
(** The user-updated performance goal (a dynamic reference the
    supervisor may also adjust). *)

val total : t -> float
(** Total heartbeats issued so far. *)
