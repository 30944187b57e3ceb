(** Graceful-degradation layer: sensor sanity filtering, actuation
    clamping and a sensor/actuator watchdog.

    The synthesized supervisor guarantees safety {e given truthful
    measurements and obedient actuators}.  Under the fault classes of
    {!Spectr_platform.Faults} neither holds, so a guarded manager routes
    every measurement through {!filter} and reports every actuation
    readback through {!note_actuation}.  The defense ladder:

    + {e sanity filter} — a sample that is non-finite, outside its
      plausibility range, exactly frozen for several periods (real
      sensors are noisy; bit-identical streaks mean a stuck sensor), or
      an implausible jump is replaced by the last healthy value.  A
      genuine level shift is distinguished from a spike by persistence:
      after [suspect_limit] off-trend samples that agree with each other
      (within [max_step]) the new level is accepted — scattered spikes
      disagree with the genuine readings between them, so a spike is
      never adopted as the new level.
    + {e actuation clamping} — non-finite controller outputs never reach
      the platform (see {!Manager.apply_command}).
    + {e watchdog} — [trip_count] consecutive periods of sensor loss or
      actuator disobedience degrade the manager to a conservative
      open-loop fallback (minimum-power OPP, one core per cluster,
      budgets pinned); [recover_count] consecutive healthy periods
      restore closed-loop control.

    The filter never emits a non-finite value. *)

type channel_config = {
  lo : float;  (** Smallest plausible reading. *)
  hi : float;  (** Largest plausible reading. *)
  max_step : float;  (** Largest plausible change per sample. *)
  stuck_count : int;
      (** Consecutive bit-identical samples that mean "stuck sensor". *)
  suspect_limit : int;
      (** Off-trend samples after which a level shift is accepted. *)
}

type config = {
  qos : channel_config;
  power : channel_config;  (** Shared by every cluster power sensor. *)
  trip_count : int;  (** Consecutive unhealthy periods before degrading. *)
  recover_count : int;  (** Consecutive healthy periods before resuming. *)
}

val default_config : config
(** Tuned for the x264-class scenarios: QoS plausible in [0.2, 400]
    HB/s with steps up to 45, power in [0.02, 15] W with steps up to
    3 W; 8-sample stuck detection, 4-sample spike tolerance; trip after
    6 periods (300 ms at the 50 ms loop), recover after 10. *)

type t

val create : ?config:config -> ?clusters:int -> unit -> t
(** [clusters] (default 2) is the number of per-cluster power channels
    the guard tracks — one per platform cluster, in description order.
    Raises [Invalid_argument] when < 1. *)

val clusters : t -> int

(** {1 Per-period protocol} *)

type filtered = {
  qos : float array;
      (** One entry: the sanitized QoS (a float array, so the guard
          stores it unboxed). *)
  powers : float array;
      (** Per-cluster sanitized powers, description order. *)
  mutable healthy : bool;
      (** No channel needed substitution this period. *)
}

val filter : t -> now:float -> qos:float -> powers:float array -> filtered
(** Sanitize one observation (QoS plus one power reading per cluster)
    and advance the sensor side of the watchdog.  Every returned value
    is finite.  The result is a guard-owned buffer overwritten by the
    next call — read it before then.  Raises [Invalid_argument] when
    [powers] does not have exactly {!clusters} entries. *)

val filter_obs :
  t ->
  now:float ->
  Spectr_platform.Soc.observation ->
  powers:float array ->
  filtered
(** {!filter} with the QoS reading taken from the observation's
    [qos_rate] — the guarded managers' tick path: no float is boxed for
    the call, so it allocates nothing. *)

val note_actuation : t -> now:float -> ok:bool -> unit
(** Report whether the platform applied the last command as expected
    (quantized frequency and core count read back equal to the
    expectation).  Persistent disobedience trips the watchdog exactly
    like sensor loss. *)

(** {1 State and metrics} *)

val degraded : t -> bool
(** In the open-loop fallback? The manager must pin minimum-power
    actuation and freeze its controllers while this holds. *)

val substituted_samples : t -> int
(** Samples replaced by the sanity filter so far. *)

val total_samples : t -> int

val degradation_spans : t -> (float * float option) list
(** Completed and ongoing degradations, oldest first:
    [(entered, exited)] with [exited = None] while still degraded. *)

val recovery_times : t -> float list
(** Durations of the completed degradations, oldest first — the
    recovery-time metric of the robustness bench. *)

val fallback_ticks : t -> int
(** Cumulative control periods spent in open-loop fallback.  Also
    exported as the [guard.fallback_ticks] obs gauge, with per-span tick
    counts in the [guard.fallback_span_ticks] histogram (observed as
    each span closes) — [guard.trips] counts fallbacks, this measures
    how long each one lasted. *)

(** {1 Channel masking (reconfiguration support)}

    After the reconfiguration engine removes a dead cluster from the
    supervised plant, that cluster's power sensor keeps reading 0 —
    which would otherwise trip the watchdog forever.  Masking a channel
    substitutes 0.0 and always counts it healthy; unmasking resets the
    channel's streak state so stale evidence cannot trip on the first
    live reading. *)

val set_power_masked : t -> cluster:int -> bool -> unit
val power_masked : t -> cluster:int -> bool

(** {1 Checkpoint/restore}

    The watchdog's full mutable state — per-channel filter memory,
    streak counters, degradation flag and span history — as an unshared
    copy.  A restored guard continues bit-identically to the
    snapshotted instance: its stuck/spike streaks, trip countdown and
    recovery bookkeeping all survive the manager restart. *)

type channel_snapshot = {
  snap_last_good : float;
  snap_have_good : bool;
  snap_suspects : int;
  snap_suspect_value : float;
  snap_last_raw : float;
  snap_same_streak : int;
  snap_masked : bool;
}

type snapshot = {
  snap_qos : channel_snapshot;
  snap_power : channel_snapshot array;
      (** Per cluster, description order. *)
  snap_sensor_bad_streak : int;
  snap_actuator_bad_streak : int;
  snap_good_streak : int;
  snap_is_degraded : bool;
  snap_spans : (float * float option) list;
  snap_substituted : int;
  snap_total : int;
  snap_fb_ticks : int;
  snap_span_ticks : int;
}

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Copies in place, allocating nothing.  Raises [Invalid_argument]
    first when the power-channel count does not match {!clusters}. *)
