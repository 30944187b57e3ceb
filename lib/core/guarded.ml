module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_interventions = Obs.Counters.counter "guard.interventions"
let c_trips = Obs.Counters.counter "guard.trips"

(* How long the watchdog has held the system in open-loop fallback:
   cumulative ticks as a gauge (how much open-loop exposure this run),
   per-span tick counts as a histogram (were the individual fallbacks
   bounded?).  [guard.trips] alone cannot distinguish one 10 s fallback
   from ten 50 ms blips. *)
let g_fallback_ticks = Obs.Counters.gauge "guard.fallback_ticks"
let h_fallback_span = Obs.Histogram.histogram "guard.fallback_span_ticks"

type channel_config = {
  lo : float;
  hi : float;
  max_step : float;
  stuck_count : int;
  suspect_limit : int;
}

type config = {
  qos : channel_config;
  power : channel_config;
  trip_count : int;
  recover_count : int;
}

let default_config =
  {
    qos = { lo = 0.2; hi = 400.; max_step = 45.; stuck_count = 8; suspect_limit = 4 };
    power =
      { lo = 0.02; hi = 15.; max_step = 3.; stuck_count = 8; suspect_limit = 4 };
    trip_count = 6;
    recover_count = 10;
  }

(* A channel's float state, in a record of floats only: OCaml stores it
   flat, so the per-period filter updates it unboxed. *)
type levels = {
  mutable last_good : float;
  mutable suspect_value : float; (* last off-trend candidate level *)
  mutable last_raw : float;
}

type channel = {
  cfg : channel_config;
  lv : levels;
  mutable have_good : bool;
  mutable suspects : int;
  mutable same_streak : int;
  mutable masked : bool;
      (* A masked channel belongs to a cluster the reconfiguration
         engine has removed from the supervised plant: its readings are
         substituted with 0.0 and always count as healthy, so a dead
         sensor cannot pin the watchdog in fallback forever after the
         plant has already been reconfigured around it. *)
}

let make_channel cfg =
  {
    cfg;
    lv = { last_good = 0.; suspect_value = nan; last_raw = nan };
    have_good = false;
    suspects = 0;
    same_streak = 0;
    masked = false;
  }

(* Classify one sample [v]: write the value to hand to the controller
   into [dst.(i)] (always finite once a good sample has been seen) and
   return whether [v] itself was accepted.  Inlined into the filter, so
   [v] is never boxed. *)
let[@inline] channel_filter ch v dst i =
  if ch.masked then begin
    dst.(i) <- 0.;
    true
  end
  else begin
    let cfg = ch.cfg and lv = ch.lv in
    (* Stuck detection: real sensors are noisy, so a long bit-identical
       streak is a fault, not a coincidence. *)
    if Float.is_finite v && v = lv.last_raw then
      ch.same_streak <- ch.same_streak + 1
    else ch.same_streak <- 1;
    lv.last_raw <- v;
    let accepted =
      if not (Float.is_finite v) then false
      else if v < cfg.lo || v > cfg.hi then false
      else if ch.same_streak >= cfg.stuck_count then false
      else if ch.have_good && abs_float (v -. lv.last_good) > cfg.max_step
      then begin
        (* Off-trend but in range: a spike for a few samples, a genuine
           level shift if it persists.  Only samples that agree with the
           previous off-trend candidate count toward acceptance — a real
           shift settles at one new level, while scattered spikes
           disagree with the genuine readings between them and keep
           restarting the count, so a spike is never adopted as the new
           level. *)
        if ch.suspects > 0 && abs_float (v -. lv.suspect_value) <= cfg.max_step
        then ch.suspects <- ch.suspects + 1
        else ch.suspects <- 1;
        lv.suspect_value <- v;
        ch.suspects >= cfg.suspect_limit
      end
      else true
    in
    if accepted then begin
      lv.last_good <- v;
      ch.have_good <- true;
      ch.suspects <- 0;
      dst.(i) <- v
    end
    else
      dst.(i) <-
        (if ch.have_good then lv.last_good
         else Float.max cfg.lo (Float.min cfg.hi 0.));
    accepted
  end

type filtered = {
  qos : float array; (* 1 entry *)
  powers : float array; (* per-cluster, owned by the guard *)
  mutable healthy : bool;
}

type t = {
  config : config;
  qos_ch : channel;
  power_chs : channel array; (* one per cluster, description order *)
  filtered : filtered; (* preallocated result buffer for [filter] *)
  mutable sensor_bad_streak : int;
  mutable actuator_bad_streak : int;
  mutable good_streak : int;
  mutable is_degraded : bool;
  mutable spans : (float * float option) list; (* newest first *)
  mutable substituted : int;
  mutable total : int;
  mutable fb_ticks : int; (* cumulative ticks spent in fallback *)
  mutable span_ticks : int; (* ticks of the span in progress *)
}

let create ?(config = default_config) ?(clusters = 2) () =
  if clusters < 1 then invalid_arg "Guarded.create: clusters < 1";
  {
    config;
    qos_ch = make_channel config.qos;
    power_chs = Array.init clusters (fun _ -> make_channel config.power);
    filtered =
      { qos = [| 0. |]; powers = Array.make clusters 0.; healthy = false };
    sensor_bad_streak = 0;
    actuator_bad_streak = 0;
    good_streak = 0;
    is_degraded = false;
    spans = [];
    substituted = 0;
    total = 0;
    fb_ticks = 0;
    span_ticks = 0;
  }

let clusters t = Array.length t.power_chs

let set_power_masked t ~cluster on =
  if cluster < 0 || cluster >= Array.length t.power_chs then
    invalid_arg "Guarded.set_power_masked: cluster";
  let ch = t.power_chs.(cluster) in
  if ch.masked <> on then begin
    ch.masked <- on;
    (* Unmasking starts the channel clean — stale pre-mask streaks must
       not trip the watchdog on the first live reading. *)
    ch.suspects <- 0;
    ch.same_streak <- 0;
    ch.lv.last_raw <- nan;
    ch.have_good <- false
  end

let power_masked t ~cluster =
  if cluster < 0 || cluster >= Array.length t.power_chs then
    invalid_arg "Guarded.power_masked: cluster";
  t.power_chs.(cluster).masked

let degraded t = t.is_degraded
let substituted_samples t = t.substituted
let total_samples t = t.total
let degradation_spans t = List.rev t.spans

let recovery_times t =
  List.filter_map
    (function enter, Some exit -> Some (exit -. enter) | _, None -> None)
    (degradation_spans t)

let fallback_ticks t = t.fb_ticks

let enter_degraded t ~now =
  if not t.is_degraded then begin
    t.is_degraded <- true;
    t.good_streak <- 0;
    t.spans <- (now, None) :: t.spans;
    Obs.Counters.incr c_trips;
    if Obs.enabled () then
      Obs.Decision_log.record (Obs.Decision_log.Guard_fallback { entered = true })
  end

let exit_degraded t ~now =
  if t.is_degraded then begin
    t.is_degraded <- false;
    t.sensor_bad_streak <- 0;
    t.actuator_bad_streak <- 0;
    (match t.spans with
    | (enter, None) :: rest -> t.spans <- (enter, Some now) :: rest
    | _ -> ());
    Obs.Histogram.observe h_fallback_span t.span_ticks;
    t.span_ticks <- 0;
    if Obs.enabled () then
      Obs.Decision_log.record
        (Obs.Decision_log.Guard_fallback { entered = false })
  end

(* Shared watchdog update: trip on a persistent problem on either path,
   resume only after a sustained run of fully healthy periods. *)
let update_watchdog t ~now =
  let c = t.config in
  if
    t.sensor_bad_streak >= c.trip_count
    || t.actuator_bad_streak >= c.trip_count
  then enter_degraded t ~now
  else if t.is_degraded && t.good_streak >= c.recover_count then
    exit_degraded t ~now

(* Channel order is qos first, then the power channels in cluster
   order — on the 2-cluster platform exactly the old qos/big/little
   sequence, so the per-channel state evolution is unchanged.  The
   result lives in the guard-owned [filtered] buffer: the tick path
   reads it before the next call.  Inlined into both entry points below,
   so the QoS reading reaches the channel filter unboxed. *)
let[@inline] filter_impl t ~now qos powers =
  if Array.length powers <> Array.length t.power_chs then
    invalid_arg "Guarded.filter: power reading count <> cluster count";
  t.total <- t.total + 1;
  let f = t.filtered in
  let all_ok = ref (channel_filter t.qos_ch qos f.qos 0) in
  for i = 0 to Array.length t.power_chs - 1 do
    let ok = channel_filter t.power_chs.(i) powers.(i) f.powers i in
    all_ok := !all_ok && ok
  done;
  let healthy = !all_ok in
  f.healthy <- healthy;
  if not healthy then begin
    t.substituted <- t.substituted + 1;
    Obs.Counters.incr c_interventions
  end;
  if healthy then begin
    t.sensor_bad_streak <- 0;
    (* A period only counts toward recovery when the actuator side is
       quiet too; note_actuation resets the streak on disobedience. *)
    if t.actuator_bad_streak = 0 then t.good_streak <- t.good_streak + 1
  end
  else begin
    t.sensor_bad_streak <- t.sensor_bad_streak + 1;
    t.good_streak <- 0
  end;
  update_watchdog t ~now;
  if t.is_degraded then begin
    t.fb_ticks <- t.fb_ticks + 1;
    t.span_ticks <- t.span_ticks + 1;
    Obs.Counters.set g_fallback_ticks (float_of_int t.fb_ticks)
  end;
  f

let filter t ~now ~qos ~powers = filter_impl t ~now qos powers

let filter_obs t ~now (obs : Spectr_platform.Soc.observation) ~powers =
  filter_impl t ~now obs.Spectr_platform.Soc.qos_rate powers

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
  snap_power : channel_snapshot array; (* per cluster, description order *)
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

let snapshot_channel ch =
  {
    snap_last_good = ch.lv.last_good;
    snap_have_good = ch.have_good;
    snap_suspects = ch.suspects;
    snap_suspect_value = ch.lv.suspect_value;
    snap_last_raw = ch.lv.last_raw;
    snap_same_streak = ch.same_streak;
    snap_masked = ch.masked;
  }

let restore_channel ch s =
  ch.lv.last_good <- s.snap_last_good;
  ch.have_good <- s.snap_have_good;
  ch.suspects <- s.snap_suspects;
  ch.lv.suspect_value <- s.snap_suspect_value;
  ch.lv.last_raw <- s.snap_last_raw;
  ch.same_streak <- s.snap_same_streak;
  ch.masked <- s.snap_masked

let snapshot t =
  {
    snap_qos = snapshot_channel t.qos_ch;
    snap_power = Array.map snapshot_channel t.power_chs;
    snap_sensor_bad_streak = t.sensor_bad_streak;
    snap_actuator_bad_streak = t.actuator_bad_streak;
    snap_good_streak = t.good_streak;
    snap_is_degraded = t.is_degraded;
    snap_spans = t.spans;
    snap_substituted = t.substituted;
    snap_total = t.total;
    snap_fb_ticks = t.fb_ticks;
    snap_span_ticks = t.span_ticks;
  }

let restore t s =
  if Array.length s.snap_power <> Array.length t.power_chs then
    invalid_arg
      (Printf.sprintf "Guarded.restore: %d power channels, guard has %d"
         (Array.length s.snap_power)
         (Array.length t.power_chs));
  restore_channel t.qos_ch s.snap_qos;
  for i = 0 to Array.length s.snap_power - 1 do
    restore_channel t.power_chs.(i) s.snap_power.(i)
  done;
  t.sensor_bad_streak <- s.snap_sensor_bad_streak;
  t.actuator_bad_streak <- s.snap_actuator_bad_streak;
  t.good_streak <- s.snap_good_streak;
  t.is_degraded <- s.snap_is_degraded;
  t.spans <- s.snap_spans;
  t.substituted <- s.snap_substituted;
  t.total <- s.snap_total;
  t.fb_ticks <- s.snap_fb_ticks;
  t.span_ticks <- s.snap_span_ticks

let note_actuation t ~now ~ok =
  if ok then t.actuator_bad_streak <- 0
  else begin
    t.actuator_bad_streak <- t.actuator_bad_streak + 1;
    t.good_streak <- 0
  end;
  update_watchdog t ~now
