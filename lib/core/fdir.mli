(** Fault detection and isolation (the "FDI" of FDIR).

    Classifies runtime faults as transient-vs-permanent and names the
    failed channel, from sensor-visible evidence only: exact-zero
    streaks on power/QoS/IPS channels, actuation readback mismatches,
    and Kalman innovation residuals ({!Mimo.innovation_norm_into}) as a
    corroborating model-consistency monitor.  Persistence counters
    (which share only the increment-or-reset step with {!Guarded}'s
    streaks) turn evidence into a two-stage verdict:

    - a streak of [transient_ticks] consecutive bad ticks yields a
      {e transient} verdict — logged and counted, no action (the guarded
      layer's clamps and fallback already cover transients);
    - a streak of [permanent_ticks] latches a {e permanent} verdict and
      emits a {!finding} for the reconfiguration engine
      ({!Spectr_manager.make_reconfigurable}).

    Every verdict increments an [fdir.*] counter and appends a
    [Decision_log.Fdir] entry when observability is enabled.  The
    detector is deterministic, allocates nothing until a verdict is
    logged or a finding latched, and never consults the fault schedule
    or any other ground truth. *)

type finding =
  | Cluster_down of int
      (** Cluster's power sensor {e and} its execution witness (IPS
          aggregate; heartbeat rate for the host) are permanently zero:
          the cluster is dead.  [Cluster_down host] is unrecoverable —
          reconfiguration falls back to open loop. *)
  | Power_sensor_down of int
      (** Power sensor permanently zero while the cluster demonstrably
          still executes.  The cluster's power is unobservable, so the
          safe reconfiguration still removes it from the supervised
          plant and pins it to its floor OPP. *)
  | Qos_sensor_down
      (** Heartbeat rate permanently zero while the host cluster still
          draws power.  The supervisor is blind on its primary objective
          — reconfiguration falls back to open loop. *)
  | Dvfs_latched of int
      (** Actuation readback shows the cluster's DVFS rail permanently
          ignoring requests: the plant still runs, pinned wherever the
          rail latched.  Reconfiguration re-synthesizes on a
          {!Platform_desc.Pin_opp}-degraded description. *)

type t

val create :
  ?transient_ticks:int ->
  ?permanent_ticks:int ->
  ?innovation_threshold:float ->
  k:int ->
  host:int ->
  unit ->
  t
(** [transient_ticks] (default 6 — 0.3 s at the 50 ms period) and
    [permanent_ticks] (default 60 — 3.0 s, the detection lag quoted in
    EXPERIMENTS.md) bound the persistence counters;
    [innovation_threshold] (default 4.0, normalized output units) flags
    residual anomalies.  Raises [Invalid_argument] unless
    [1 <= transient_ticks < permanent_ticks]. *)

val observe : t -> qos:float -> powers:float array -> ips:float array -> unit
(** Feed one tick of raw (pre-guard) sensor evidence: the heartbeat
    rate, the [k] per-cluster power readings, and the [k] per-cluster
    IPS aggregates ({!Soc.ips_totals}; the host entry is 0 by
    convention, which is why the host's execution witness is [qos]). *)

val observe_obs :
  t ->
  Spectr_platform.Soc.observation ->
  powers:float array ->
  ips:float array ->
  unit
(** {!observe} with the heartbeat rate taken from the observation's
    [qos_rate] — the manager's tick path: no float is boxed for the
    call, so it allocates nothing. *)

val note_actuation : t -> cluster:int -> ok:bool -> unit
(** Feed one actuation readback comparison (requested OPP applied?). *)

val note_innovation : t -> cluster:int -> norms:float array -> unit
(** Feed one controller's innovation-residual norm for this tick, read
    from [norms.(cluster)] (a float array, so it crosses unboxed). *)

val poll : t -> finding list
(** Newly latched permanent findings since the last poll, oldest first.
    Each finding is emitted exactly once; permanent verdicts never
    un-latch. *)

val residual_flagged : t -> cluster:int -> bool
(** Has the innovation-residual monitor flagged this cluster (transient
    or latched)?  Corroboration for tests and diagnostics. *)
