(* Fault detection and isolation: the sensing half of the FDIR ladder
   (healthy -> guarded -> reconfigured -> open-loop-fallback).

   The detector never consults ground truth.  It watches exactly what a
   runtime daemon on real silicon could watch:

   - {e exact-zero streaks} on the power sensors, the QoS heartbeat rate
     and the per-cluster IPS aggregates.  A live cluster's power reading
     is never exactly 0.0 (uncore and leakage draw are strictly
     positive, and the SoC's multiplicative sensor noise maps nonzero to
     nonzero), so a sustained exact zero is sensor death, line dropout
     or cluster death — never physics;
   - {e actuation mismatches}: the per-cluster readback comparison the
     guarded layer already performs (requested OPP vs. applied OPP);
   - {e Kalman innovation residuals}: ‖y − C·x̂‖₂ from each cluster's
     MIMO controller ({!Mimo.innovation_norm_into}), the
     model-consistency signal that flags a plant that stopped matching
     its identified model.  Residuals corroborate and are surfaced as
     verdicts/counters, but never drive reconfiguration on their own —
     a noisy residual must not amputate a healthy cluster.

   Persistence counters turn raw evidence into a two-stage
   classification.  (They share only the [if hit then n + 1 else 0]
   step with {!Guarded}'s streaks; thresholds, hysteresis and stage
   machines differ, so they are not one module.)  A streak crossing
   [transient_ticks] yields a "transient" verdict (logged, counted, no
   action — the guarded layer's clamps already cover it); a streak
   crossing [permanent_ticks] latches a "permanent" verdict and emits a
   {!finding} for the reconfiguration engine.  Isolation — naming the
   failed channel — disambiguates with cross-channel evidence: a
   permanently-zero power sensor whose cluster still reports instruction
   throughput is a dead {e sensor}; zero power with zero throughput is a
   dead {e cluster}.  With no work placed on a cluster the two are
   indistinguishable from sensors alone, and the detector deliberately
   errs on the safe side (cluster death → the cluster is removed from
   the supervised plant; losing a healthy-but-idle cluster costs
   capacity, never safety).

   Every verdict increments an [fdir.*] counter and, when observability
   is enabled, appends a {!Spectr_obs.Decision_log.Fdir} entry. *)

module Obs = Spectr_obs

let c_transient = Obs.Counters.counter "fdir.transient_verdicts"
let c_permanent = Obs.Counters.counter "fdir.permanent_verdicts"
let c_cleared = Obs.Counters.counter "fdir.cleared_verdicts"

type finding =
  | Cluster_down of int
  | Power_sensor_down of int
  | Qos_sensor_down
  | Dvfs_latched of int

(* Per-channel classification stage: quiet, transient-flagged, or
   permanently latched (permanent never un-latches — recovery is the
   reconfiguration engine's job, not the detector's). *)
let quiet = 0
let flagged = 1
let latched = 2

type t = {
  k : int;
  host : int;
  transient_ticks : int;
  permanent_ticks : int;
  innovation_threshold : float;
  (* Evidence streaks. *)
  pow_zero : int array; (* per cluster: power sensor reads exact 0.0 *)
  ips_zero : int array; (* per cluster: aggregate IPS reads exact 0.0 *)
  mutable qos_zero : int;
  act_bad : int array; (* per cluster: actuation readback mismatches *)
  innov_high : int array; (* per cluster: residual above threshold *)
  (* Classification stage per monitored channel: power 0..k-1, dvfs
     k..2k-1, model (innovation residual) 2k..3k-1, qos 3k. *)
  stage : int array;
  (* Permanent findings awaiting {!poll}; emitted exactly once. *)
  mutable pending : finding list;
}

let[@inline] dvfs_ch t i = t.k + i
let[@inline] model_ch t i = (2 * t.k) + i
let[@inline] qos_ch t = 3 * t.k

let create ?(transient_ticks = 6) ?(permanent_ticks = 60)
    ?(innovation_threshold = 4.0) ~k ~host () =
  if k < 1 then invalid_arg "Fdir.create: k < 1";
  if host < 0 || host >= k then invalid_arg "Fdir.create: host out of range";
  if transient_ticks < 1 || permanent_ticks <= transient_ticks then
    invalid_arg "Fdir.create: want 1 <= transient_ticks < permanent_ticks";
  if not (Float.is_finite innovation_threshold && innovation_threshold > 0.)
  then invalid_arg "Fdir.create: innovation_threshold";
  {
    k;
    host;
    transient_ticks;
    permanent_ticks;
    innovation_threshold;
    pow_zero = Array.make k 0;
    ips_zero = Array.make k 0;
    qos_zero = 0;
    act_bad = Array.make k 0;
    innov_high = Array.make k 0;
    stage = Array.make ((3 * k) + 1) quiet;
    pending = [];
  }

(* The channel's decision-log label, built only when a verdict is
   logged. *)
let channel_name t c =
  if c = qos_ch t then "qos"
  else
    let group = match c / t.k with 0 -> "power" | 1 -> "dvfs" | _ -> "model" in
    group ^ string_of_int (c mod t.k)

let log_verdict t c ~verdict =
  (match verdict with
  | "transient" -> Obs.Counters.incr c_transient
  | "permanent" -> Obs.Counters.incr c_permanent
  | _ -> Obs.Counters.incr c_cleared);
  if Obs.enabled () then
    Obs.Decision_log.record
      (Obs.Decision_log.Fdir { channel = channel_name t c; verdict })

(* The finding a channel's permanent crossing produces ([None] for the
   corroborating-only residual channels). *)
let isolate t c =
  if c = qos_ch t then
    (* Host power also permanently zero means the host cluster is dead
       — the power channel's finding already covers it. *)
    if t.pow_zero.(t.host) >= t.permanent_ticks then None
    else Some Qos_sensor_down
  else
    let i = c mod t.k in
    match c / t.k with
    | 0 ->
        (* Dead sensor vs. dead cluster: does anything else prove the
           cluster is still executing?  The host's execution witness is
           the heartbeat rate (its IPS aggregate is not materialized on
           the hot path); secondaries witness through their IPS sum. *)
        let executing =
          if i = t.host then t.qos_zero < t.permanent_ticks
          else t.ips_zero.(i) < t.permanent_ticks
        in
        if executing then Some (Power_sensor_down i) else Some (Cluster_down i)
    | 1 -> Some (Dvfs_latched i)
    | _ -> None

(* Advance channel [c]'s stage machine given its current streak;
   isolates exactly once, at the permanent crossing. *)
let classify t c streak =
  let stage = t.stage.(c) in
  if stage <> latched then begin
    if streak >= t.permanent_ticks then begin
      t.stage.(c) <- latched;
      log_verdict t c ~verdict:"permanent";
      match isolate t c with
      | None -> ()
      | Some f -> t.pending <- f :: t.pending
    end
    else if streak >= t.transient_ticks then begin
      if stage = quiet then begin
        t.stage.(c) <- flagged;
        log_verdict t c ~verdict:"transient"
      end
    end
    else if streak = 0 && stage = flagged then begin
      t.stage.(c) <- quiet;
      log_verdict t c ~verdict:"cleared"
    end
  end

let[@inline] bump streak hit = if hit then streak + 1 else 0

let[@inline] observe_inline t qos powers ips =
  if Array.length powers <> t.k then invalid_arg "Fdir.observe: powers length";
  if Array.length ips <> t.k then invalid_arg "Fdir.observe: ips length";
  for i = 0 to t.k - 1 do
    t.pow_zero.(i) <- bump t.pow_zero.(i) (powers.(i) = 0.);
    t.ips_zero.(i) <- bump t.ips_zero.(i) (ips.(i) = 0.)
  done;
  t.qos_zero <- bump t.qos_zero (qos = 0.);
  for i = 0 to t.k - 1 do
    classify t i t.pow_zero.(i)
  done;
  classify t (qos_ch t) t.qos_zero

let observe t ~qos ~powers ~ips = observe_inline t qos powers ips

let observe_obs t obs ~powers ~ips =
  observe_inline t obs.Spectr_platform.Soc.qos_rate powers ips

let note_actuation t ~cluster ~ok =
  if cluster < 0 || cluster >= t.k then
    invalid_arg "Fdir.note_actuation: cluster";
  t.act_bad.(cluster) <- bump t.act_bad.(cluster) (not ok);
  classify t (dvfs_ch t cluster) t.act_bad.(cluster)

let note_innovation t ~cluster ~norms =
  if cluster < 0 || cluster >= t.k then
    invalid_arg "Fdir.note_innovation: cluster";
  t.innov_high.(cluster) <-
    bump t.innov_high.(cluster) (norms.(cluster) > t.innovation_threshold);
  classify t (model_ch t cluster) t.innov_high.(cluster)

let poll t =
  match t.pending with
  | [] -> []
  | pending ->
      t.pending <- [];
      List.rev pending

let residual_flagged t ~cluster =
  if cluster < 0 || cluster >= t.k then
    invalid_arg "Fdir.residual_flagged: cluster";
  t.stage.(model_ch t cluster) <> quiet
