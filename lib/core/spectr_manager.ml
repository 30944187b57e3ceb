open Spectr_control
open Spectr_platform
module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_steps = Obs.Counters.counter "manager.steps"
let c_degraded = Obs.Counters.counter "manager.degraded_steps"
let c_act_mismatch = Obs.Counters.counter "guard.actuation_mismatches"
let c_reconfigs = Obs.Counters.counter "manager.reconfigurations"
let c_swap_ticks = Obs.Counters.counter "manager.swap_window_ticks"

let controller_or_fail ~seed subsystem goals ~refs =
  match
    Design_flow.leaf_controller ~seed subsystem goals ~initial:"qos" ~refs
  with
  | Ok ctrl -> ctrl
  | Error msg -> failwith ("Spectr_manager: " ^ msg)

module Reconfig = struct
  (* The FDIR ladder's reconfiguration rungs.  [Nominal] and
     [Reconfigured] are both closed-loop (the distinction records whether
     the supervised plant is still the boot-time description);
     [Swapping] is the bounded open-loop window while a re-synthesized
     supervisor is hot-swapped in; [Fallback] is the permanent open-loop
     floor for unrecoverable faults (dead host, blind QoS sensor, or a
     degradation the description cannot express). *)
  type status = Nominal | Swapping | Reconfigured | Fallback

  let status_label = function
    | Nominal -> "nominal"
    | Swapping -> "swapping"
    | Reconfigured -> "reconfigured"
    | Fallback -> "fallback"

  (* The state of one manager, whatever its rungs: SPECTR has neither
     guard nor FDIR, SPECTR+G has the guard, SPECTR+R has both.  Without
     FDIR nothing ever leaves [Nominal], so the description, the
     description->physical map and the supervisor stay the boot-time
     ones. *)
  type handle = {
    host_phys : int; (* host's physical cluster index; never remapped *)
    mutable desc : Platform_desc.t; (* current supervised description *)
    mutable phys : int array; (* description index -> physical cluster *)
    ctrls : Mimo.t array ref; (* description order; shared with commands *)
    mutable sup : Supervisor.t;
    guard : Guarded.t option;
    fdir : Fdir.t option;
    excluded : bool array; (* physical: removed from the supervised plant *)
    dead : bool array; (* physical: believed dead — never actuated again *)
    pinned_freq : int option array; (* physical: DVFS rail latched here *)
    last_applied_freq : int array; (* physical: last actuation readback *)
    mutable status : status;
    mutable swap_left : int;
    mutable reconfigs : int;
    mutable resynth_s : float; (* last re-synthesis, installed clock *)
    tick : int ref; (* controller periods stepped; the checkpoint phase *)
  }

  let status h = h.status
  let reconfigurations h = h.reconfigs
  let platform h = h.desc
  let supervisor h = h.sup
  let fdir h = Option.get h.fdir
  let guard h = Option.get h.guard
  let last_resynth_s h = h.resynth_s

  let excluded_clusters h =
    let acc = ref [] in
    for p = Array.length h.excluded - 1 downto 0 do
      if h.excluded.(p) then acc := p :: !acc
    done;
    !acc

  let log_status h =
    if Obs.enabled () then
      Obs.Decision_log.record
        (Obs.Decision_log.Reconfig
           {
             platform = Platform_desc.name h.desc;
             status = status_label h.status;
           })
end

open Reconfig

(* The one setup path and the one per-period step.  [guards] arms the
   guard rung; [swap_ticks = Some n] arms FDIR and the reconfiguration
   rungs with an [n]-period swap window (SPECTR+R, whose guard rung is
   always present). *)
let ladder ~who ~seed ~supervisor_divisor ~gain_scheduling ~swap_ticks
    ~guards platform =
  if supervisor_divisor < 1 then invalid_arg (who ^ ": supervisor_divisor < 1");
  (match swap_ticks with
  | Some n when n < 1 -> invalid_arg (who ^ ": swap_ticks < 1")
  | _ -> ());
  let k0 = Platform_desc.num_clusters platform in
  let host_phys = Platform_desc.host platform in
  (match guards with
  | Some g when Guarded.clusters g <> k0 ->
      invalid_arg
        (Printf.sprintf
           "%s: guard tracks %d power channels, platform has %d clusters" who
           (Guarded.clusters g) k0)
  | _ -> ());
  let guard =
    match (guards, swap_ticks) with
    | None, Some _ -> Some (Guarded.create ~clusters:k0 ())
    | g, _ -> g
  in
  let goals =
    [
      { Design_flow.label = "qos"; q_y = Mm.qos_weights };
      { Design_flow.label = "power"; q_y = Mm.power_weights };
    ]
  in
  (* In QoS mode the secondary clusters are kept moderately fast so they
     can absorb background interference; in power mode the gain switch
     makes their power budgets the pinned objective. *)
  let refs_for i = if i = host_phys then [| 60.; 4. |] else [| 2.0; 0.3 |] in
  let ctrls =
    ref
      (Array.init k0 (fun i ->
           controller_or_fail ~seed
             (Design_flow.cluster_subsystem platform i)
             goals ~refs:(refs_for i)))
  in
  (* The command closures index through the shared [ctrls] cell, so the
     one closure pair installed at boot keeps working across supervisor
     hot-swaps — the freshly synthesized supervisor pushes its budgets
     into whatever controller array is current. *)
  let commands =
    {
      Supervisor.switch_gains =
        (fun label ->
          if gain_scheduling then
            for j = 0 to Array.length !ctrls - 1 do
              Mimo.switch_gains !ctrls.(j) label
            done);
      set_power_ref =
        (fun i refs -> Mimo.set_reference_at !ctrls.(i) ~index:1 refs i);
    }
  in
  let h =
    {
      host_phys;
      desc = platform;
      phys = Array.init k0 Fun.id;
      ctrls;
      sup = Supervisor.create ~platform ~commands ~envelope:5.0 ();
      guard;
      fdir = Option.map (fun _ -> Fdir.create ~k:k0 ~host:host_phys ()) swap_ticks;
      excluded = Array.make k0 false;
      dead = Array.make k0 false;
      pinned_freq = Array.make k0 None;
      last_applied_freq = Array.make k0 0;
      status = Nominal;
      swap_left = 0;
      reconfigs = 0;
      resynth_s = 0.;
      tick = ref 0;
    }
  in
  let enter_fallback () =
    if h.status <> Fallback then begin
      h.status <- Fallback;
      log_status h
    end
  in
  (* Hot-swap onto [newdesc]: surviving controllers are reused untouched
     (the physics of a surviving cluster did not change, so neither did
     its identified model), only the supervisor is re-synthesized — the
     warm Synth_cache makes this sub-second — and the outgoing engine
     state is carried across via {!Supervisor.adopt}.  The open-loop swap
     window ([swap_ticks] periods of floor actuation) then drains before
     the new closed loop takes over. *)
  let resynthesize newdesc newphys newctrls =
    let prev = Supervisor.snapshot h.sup in
    let prev_platform = h.desc in
    h.desc <- newdesc;
    h.phys <- newphys;
    h.ctrls := newctrls;
    let t0 = Obs.Clock.now_ns () in
    let sup = Supervisor.create ~platform:newdesc ~commands ~envelope:5.0 () in
    h.resynth_s <- Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9;
    Supervisor.adopt sup ~prev ~prev_platform;
    h.sup <- sup;
    h.reconfigs <- h.reconfigs + 1;
    Obs.Counters.incr c_reconfigs;
    h.status <- Swapping;
    h.swap_left <- Option.get swap_ticks;
    log_status h
  in
  let desc_index_of_phys p =
    let r = ref (-1) in
    Array.iteri (fun j q -> if q = p then r := j) h.phys;
    !r
  in
  let without j arr =
    Array.init
      (Array.length arr - 1)
      (fun i -> if i < j then arr.(i) else arr.(i + 1))
  in
  (* Remove physical cluster [p] from the supervised plant.  [believed_dead]
     distinguishes a dead cluster (never actuated again) from a live
     cluster with a dead power sensor (pinned to its floor OPP — running
     it any faster would be unobservable power draw). *)
  let remove_cluster p ~believed_dead =
    if believed_dead then h.dead.(p) <- true;
    if not h.excluded.(p) then begin
      if p = h.host_phys then enter_fallback ()
      else
        match desc_index_of_phys p with
        | -1 -> ()
        | j -> (
            match Platform_desc.degrade h.desc (Platform_desc.Remove_cluster j) with
            | exception Invalid_argument _ -> enter_fallback ()
            | newdesc ->
                h.excluded.(p) <- true;
                Option.iter
                  (fun g -> Guarded.set_power_masked g ~cluster:p true)
                  h.guard;
                resynthesize newdesc (without j h.phys) (without j !(h.ctrls)))
    end
  in
  let handle_finding = function
    | Fdir.Cluster_down p -> remove_cluster p ~believed_dead:true
    | Fdir.Power_sensor_down p -> remove_cluster p ~believed_dead:false
    | Fdir.Qos_sensor_down -> enter_fallback ()
    | Fdir.Dvfs_latched p ->
        if h.pinned_freq.(p) = None && not h.excluded.(p) then begin
          match desc_index_of_phys p with
          | -1 -> ()
          | j -> (
              let f = h.last_applied_freq.(p) in
              match
                Platform_desc.degrade h.desc
                  (Platform_desc.Pin_opp { cluster = j; freq_mhz = f })
              with
              | exception Invalid_argument _ -> enter_fallback ()
              | newdesc ->
                  h.pinned_freq.(p) <- Some f;
                  (* Cluster set unchanged: controllers and the
                     description->physical map carry over as-is. *)
                  resynthesize newdesc h.phys !(h.ctrls))
        end
  in
  (* The one actuation: [u.(0)] GHz / [u.(1)] cores on physical cluster
     [p].  Under a guard the readback comparison feeds the watchdog and,
     with FDIR, the detector.  A cluster whose DVFS rail is known-latched
     is expected to read back its latched frequency — the rail ignoring
     requests is no longer a fault once the plant has been re-synthesized
     around it. *)
  let actuate soc p u ~now =
    let ok = Manager.apply_command soc p u ~pos:0 in
    match h.guard with
    | None -> ()
    | Some g -> (
        let ok =
          match h.pinned_freq.(p) with
          | None -> ok
          | Some f ->
              Soc.frequency soc p = f
              && Soc.active_cores soc p
                 = Manager.sanitize_cores ~max_cores:(Soc.cluster_cores soc p)
                     u.(1)
        in
        if not ok then Obs.Counters.incr c_act_mismatch;
        Guarded.note_actuation g ~now ~ok;
        match h.fdir with
        | None -> ()
        | Some fd ->
            h.last_applied_freq.(p) <- Soc.frequency soc p;
            Fdir.note_actuation fd ~cluster:p ~ok)
  in
  (* Open-loop floor: every cluster not believed dead is pinned to its
     minimum-power configuration.  With every actuator driven to its
     floor, any single surviving actuator keeps chip power inside the
     envelope. *)
  let floor_cmd = [| 0.2; 1. |] in
  let floor_all soc ~now =
    for p = 0 to k0 - 1 do
      if not h.dead.(p) then actuate soc p floor_cmd ~now
    done
  in
  (* Preallocated tick-path buffers, written in place every period: one
     measurement/command pair and one innovation norm per cluster and
     the supervisor's measurement sample — floats cross module
     boundaries only inside them (see DESIGN.md). *)
  let meas = Array.init k0 (fun _ -> [| 0.; 0. |]) in
  let cmd = Array.init k0 (fun _ -> [| 0.; 0. |]) in
  let innov = Array.make k0 0. in
  let sample = Supervisor.sample () in
  let step ~now ~qos_ref ~envelope ~obs soc =
    Obs.Counters.incr c_steps;
    (* SoC-owned per-cluster sensor arrays: read-only here, valid until
       the next platform step. *)
    let raw_powers = Soc.sensor_powers soc in
    let ips = Soc.ips_totals soc in
    (* FDIR watches the raw (pre-guard) evidence: substitution would hide
       exactly the exact-zero streaks it needs to see. *)
    (match h.fdir with
    | Some fd -> Fdir.observe_obs fd obs ~powers:raw_powers ~ips
    | None -> ());
    (* Under a guard, the QoS reading and the powers come from its
       sanitized buffer. *)
    let qos = ref obs.Soc.qos_rate and powers = ref raw_powers in
    (match h.guard with
    | None -> ()
    | Some g ->
        let f = Guarded.filter_obs g ~now obs ~powers:raw_powers in
        qos := f.Guarded.qos.(0);
        powers := f.Guarded.powers);
    let qos = !qos and powers = !powers in
    (match h.fdir with
    | Some fd when h.status <> Fallback -> List.iter handle_finding (Fdir.poll fd)
    | _ -> ());
    let tick = !(h.tick) in
    h.tick := tick + 1;
    match h.status with
    | Fallback -> floor_all soc ~now
    | Swapping ->
        Obs.Counters.incr c_swap_ticks;
        floor_all soc ~now;
        h.swap_left <- h.swap_left - 1;
        if h.swap_left <= 0 then begin
          h.status <- Reconfigured;
          log_status h
        end
    | (Nominal | Reconfigured)
      when match h.guard with Some g -> Guarded.degraded g | None -> false ->
        (* Open-loop fallback: sensors (or actuators) are untrustworthy,
           so pin the floor and freeze the supervisor and all leaf
           controllers (their state resumes unpolluted once readings
           return). *)
        Obs.Counters.incr c_degraded;
        floor_all soc ~now
    | Nominal | Reconfigured ->
        let cs = !(h.ctrls) in
        let k = Array.length cs in
        Mimo.set_reference cs.(Platform_desc.host h.desc) ~index:0 qos_ref;
        (* Supervisor period: every [supervisor_divisor] controller
           periods. *)
        (if tick mod supervisor_divisor = 0 then begin
           let total = ref 0. in
           for j = 0 to k - 1 do
             total := !total +. powers.(h.phys.(j))
           done;
           sample.Supervisor.qos <- qos;
           sample.Supervisor.qos_ref <- qos_ref;
           sample.Supervisor.power <- !total;
           sample.Supervisor.envelope <- envelope;
           Supervisor.step_sample h.sup sample
         end);
        for j = 0 to k - 1 do
          let p = h.phys.(j) in
          let m = meas.(j) in
          let u = cmd.(j) in
          m.(0) <- (if p = host_phys then qos else ips.(p) /. 1e9);
          m.(1) <- powers.(p);
          Mimo.step_into cs.(j) ~measured:m ~dst:u;
          (match h.fdir with
          | None -> ()
          | Some fd ->
              Mimo.innovation_norm_into cs.(j) innov p;
              Fdir.note_innovation fd ~cluster:p ~norms:innov);
          actuate soc p u ~now
        done;
        (* A live cluster removed from the plant (dead power sensor)
           stays pinned to its floor. *)
        for p = 0 to k0 - 1 do
          if h.excluded.(p) && not h.dead.(p) then actuate soc p floor_cmd ~now
        done
  in
  (step, h)

let make ?(seed = 17L) ?(supervisor_divisor = 2) ?(gain_scheduling = true)
    ?guards ?(platform = Platform_desc.exynos5422) () =
  let step, h =
    ladder ~who:"Spectr_manager.make" ~seed ~supervisor_divisor
      ~gain_scheduling ~swap_ticks:None ~guards platform
  in
  let name = match guards with None -> "SPECTR" | Some _ -> "SPECTR+G" in
  (* The checkpoint spans the whole supervisory stack; its tag names the
     rung set, gain scheduling and the platform. *)
  let base = if gain_scheduling then name else name ^ "-nogs" in
  let persist =
    Manager.persist ~variant:(Manager.variant_tag base platform)
      {
        Manager.supervisor = Some h.sup;
        ctrls = !(h.ctrls);
        pids = [||];
        guard = h.guard;
        phase = h.tick;
      }
  in
  ({ Manager.name; step; persist = Some persist }, h.sup)

let make_reconfigurable ?(seed = 17L) ?(supervisor_divisor = 2)
    ?(gain_scheduling = true) ?(swap_ticks = 4) ?guards
    ?(platform = Platform_desc.exynos5422) () =
  let step, h =
    ladder ~who:"Spectr_manager.make_reconfigurable" ~seed
      ~supervisor_divisor ~gain_scheduling ~swap_ticks:(Some swap_ticks)
      ~guards platform
  in
  ({ Manager.name = "SPECTR+R"; step; persist = None }, h)
