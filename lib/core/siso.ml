open Spectr_control
open Spectr_platform

(* Exynos cluster indices: the SISO baseline is a hand-tuned PID chain
   for the reference big.LITTLE platform, not a description-driven
   manager — Scenario rejects it on any other platform. *)
let big = 0
let little = 1

let make ?seed () =
  ignore seed;
  let dt = 0.05 in
  (* QoS -> Big frequency: ~40 FPS of range per GHz near the operating
     point, so a gain of a few hundredths of GHz per FPS of error. *)
  let qos_pid =
    Pid.create
      (Pid.config ~u_min:(-0.8) ~u_max:1.0 ~kp:0.008 ~ki:0.12 ~kd:0. ~dt ())
      ~reference:60.
  in
  (* Big power -> active cores: positive error (below budget) adds
     cores.  Slow outer loop (integral-dominated). *)
  let cores_pid =
    Pid.create
      (Pid.config ~u_min:(-1.5) ~u_max:1.5 ~kp:0.2 ~ki:0.6 ~kd:0. ~dt ())
      ~reference:4.5
  in
  (* Little power -> little frequency. *)
  let little_pid =
    Pid.create
      (Pid.config ~u_min:(-0.4) ~u_max:0.8 ~kp:0.4 ~ki:1.2 ~kd:0. ~dt ())
      ~reference:0.3
  in
  (* Each PID produces a bounded deviation around a mid-range operating
     point (frequency 1.0 GHz, 2.5 cores, little 0.6 GHz). *)
  let cmd = [| 0.; 0.; 0.; 2. |] in
  let step ~now:_ ~qos_ref ~envelope ~obs soc =
    let powers = Soc.sensor_powers soc in
    Pid.set_reference qos_pid qos_ref;
    Pid.set_reference cores_pid (Float.max 0.5 (envelope -. Mm.little_power_budget));
    let freq = 1.0 +. Pid.step qos_pid ~measured:obs.Soc.qos_rate in
    let cores = 2.5 +. Pid.step cores_pid ~measured:powers.(big) in
    cmd.(0) <- Float.max 0.2 (Float.min 2.0 freq);
    cmd.(1) <- Float.max 1. (Float.min 4. cores);
    ignore (Manager.apply_command soc big cmd ~pos:0 : bool);
    let lfreq = 0.6 +. Pid.step little_pid ~measured:powers.(little) in
    cmd.(2) <- Float.max 0.2 (Float.min 1.4 lfreq);
    ignore (Manager.apply_command soc little cmd ~pos:2 : bool)
  in
  let persist =
    Manager.persist ~variant:"SISO"
      (Manager.leaf_parts ~pids:[| qos_pid; cores_pid; little_pid |] ())
  in
  { Manager.name = "SISO"; step; persist = Some persist }
