open Spectr_control
open Spectr_platform
module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_steps = Obs.Counters.counter "manager.steps"
let c_degraded = Obs.Counters.counter "manager.degraded_steps"
let c_act_mismatch = Obs.Counters.counter "guard.actuation_mismatches"
let c_reconfigs = Obs.Counters.counter "manager.reconfigurations"
let c_swap_ticks = Obs.Counters.counter "manager.swap_window_ticks"

let design_or_fail ~seed subsystem goals =
  match Design_flow.design_gains_for ~seed subsystem goals with
  | Ok gains -> gains
  | Error msg -> failwith ("Spectr_manager: " ^ msg)

let make ?(seed = 17L) ?(supervisor_divisor = 2) ?(gain_scheduling = true)
    ?guards ?(platform = Platform_desc.exynos5422) () =
  if supervisor_divisor < 1 then
    invalid_arg "Spectr_manager.make: supervisor_divisor < 1";
  let k = Platform_desc.num_clusters platform in
  let host = Platform_desc.host platform in
  (match guards with
  | Some g when Guarded.clusters g <> k ->
      invalid_arg
        (Printf.sprintf
           "Spectr_manager.make: guard tracks %d power channels, platform \
            has %d clusters"
           (Guarded.clusters g) k)
  | _ -> ());
  (* The Exynos description keeps the original Big_2x2/Little_2x2
     subsystems (same memo keys, same identification experiments); any
     other description identifies each cluster through the generic
     Cluster_2x2 path. *)
  let is_exynos = Design_flow.is_reference_platform platform in
  let subsystem_for i = Design_flow.cluster_subsystem platform i in
  let idents =
    Array.init k (fun i -> Design_flow.identify ~seed (subsystem_for i))
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
  let refs_for i = if i = host then [| 60.; 4. |] else [| 2.0; 0.3 |] in
  let ctrls =
    Array.init k (fun i ->
        Design_flow.build_mimo idents.(i)
          ~gains:(design_or_fail ~seed (subsystem_for i) goals)
          ~initial:"qos" ~refs:(refs_for i))
  in
  let commands =
    {
      Supervisor.switch_gains =
        (fun label ->
          if gain_scheduling then
            for i = 0 to k - 1 do
              Mimo.switch_gains ctrls.(i) label
            done);
      set_power_ref =
        (fun i refs -> Mimo.set_reference_at ctrls.(i) ~index:1 refs i);
    }
  in
  let sup = Supervisor.create ~platform ~commands ~envelope:5.0 () in
  let tick = ref 0 in
  (* One cluster actuation of [cmd.(0)] GHz / [cmd.(1)] cores, with
     actuator-fault detection when guarded: the applied OPP/core count
     read back from the platform must match the sanitized expectation. *)
  let actuate guard soc cluster cmd ~now =
    let ok = Manager.apply_command soc cluster cmd ~pos:0 in
    match guard with
    | None -> ()
    | Some g ->
        if not ok then Obs.Counters.incr c_act_mismatch;
        Guarded.note_actuation g ~now ~ok
  in
  (* Preallocated tick-path buffers: one measurement/command pair per
     cluster, the fallback's floor command and the supervisor's
     measurement sample, all written in place every period — floats
     cross module boundaries only inside them (see DESIGN.md). *)
  let meas = Array.init k (fun _ -> [| 0.; 0. |]) in
  let cmd = Array.init k (fun _ -> [| 0.; 0. |]) in
  let floor_cmd = [| 0.2; 1. |] in
  let sample = Supervisor.sample () in
  let step ~now ~qos_ref ~envelope ~obs soc =
    Obs.Counters.incr c_steps;
    (* SoC-owned per-cluster sensor array: read-only here, valid until
       the next platform step.  Under a guard, the QoS reading and the
       powers come from its sanitized buffer instead. *)
    let raw_powers = Soc.sensor_powers soc in
    let qos = ref obs.Soc.qos_rate and powers = ref raw_powers in
    (match guards with
    | None -> ()
    | Some g ->
        let f = Guarded.filter_obs g ~now obs ~powers:raw_powers in
        qos := f.Guarded.qos.(0);
        powers := f.Guarded.powers);
    let qos = !qos and powers = !powers in
    match guards with
    | Some g when Guarded.degraded g ->
        (* Open-loop fallback: sensors (or actuators) are untrustworthy,
           so pin the minimum-power configuration and freeze the
           supervisor and all leaf controllers (their state resumes
           unpolluted once readings return).  With every actuator driven
           to its floor, any single surviving actuator keeps chip
           power inside the envelope. *)
        Obs.Counters.incr c_degraded;
        for i = 0 to k - 1 do
          actuate guards soc i floor_cmd ~now
        done;
        incr tick
    | _ ->
        Mimo.set_reference ctrls.(host) ~index:0 qos_ref;
        (* Supervisor period: every [supervisor_divisor] controller
           periods. *)
        (if !tick mod supervisor_divisor = 0 then begin
           let total = ref 0. in
           for i = 0 to k - 1 do
             total := !total +. powers.(i)
           done;
           sample.Supervisor.qos <- qos;
           sample.Supervisor.qos_ref <- qos_ref;
           sample.Supervisor.power <- !total;
           sample.Supervisor.envelope <- envelope;
           Supervisor.step_sample sup sample
         end);
        incr tick;
        let ips = Soc.ips_totals soc in
        for i = 0 to k - 1 do
          let m = meas.(i) in
          let u = cmd.(i) in
          m.(0) <- (if i = host then qos else ips.(i) /. 1e9);
          m.(1) <- powers.(i);
          Mimo.step_into ctrls.(i) ~measured:m ~dst:u;
          actuate guards soc i u ~now
        done
  in
  let name = match guards with None -> "SPECTR" | Some _ -> "SPECTR+G" in
  (* The checkpoint spans the whole supervisory stack: supervisor engine,
     every leaf controller, the supervisor-divisor tick phase and (when
     armed) the watchdog.  The variant tag also encodes gain scheduling
     and — off the reference platform — the platform digest, so a
     checkpoint can't cross ablation variants or platforms. *)
  let variant =
    let base = if gain_scheduling then name else name ^ "-nogs" in
    if is_exynos then base
    else base ^ "@" ^ String.sub (Platform_desc.digest platform) 0 12
  in
  let persist =
    {
      Manager.snapshot =
        (fun () ->
          let state =
            ( Supervisor.snapshot sup,
              Array.map Mimo.snapshot ctrls,
              !tick,
              Option.map Guarded.snapshot guards )
          in
          { Manager.variant; payload = Marshal.to_string state [] });
      restore =
        (fun c ->
          Manager.require_variant ~expect:variant c;
          let ssup, sctrls, stick, sguards =
            (Marshal.from_string c.Manager.payload 0
              : Supervisor.snapshot
                * Mimo.snapshot array
                * int
                * Guarded.snapshot option)
          in
          if Array.length sctrls <> k then
            invalid_arg
              (Printf.sprintf
                 "Spectr_manager.restore: %d controller snapshots, platform \
                  has %d clusters"
                 (Array.length sctrls) k);
          Supervisor.restore sup ssup;
          Array.iteri (fun i s -> Mimo.restore ctrls.(i) s) sctrls;
          tick := stick;
          match (guards, sguards) with
          | Some g, Some s -> Guarded.restore g s
          | None, None -> ()
          | _ ->
              (* require_variant already rules this out ("+G" is part of
                 the tag), but a corrupted payload must not half-restore. *)
              invalid_arg "Spectr_manager.restore: guard state mismatch");
    }
  in
  ({ Manager.name; step; persist = Some persist }, sup)

(* --- degraded-mode reconfiguration ------------------------------------- *)

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

  type handle = {
    host_phys : int; (* host's physical cluster index; never remapped *)
    mutable desc : Platform_desc.t; (* current supervised description *)
    mutable phys : int array; (* description index -> physical cluster *)
    ctrls : Mimo.t array ref; (* description order; shared with commands *)
    mutable sup : Supervisor.t;
    fdir : Fdir.t;
    guard : Guarded.t;
    excluded : bool array; (* physical: removed from the supervised plant *)
    dead : bool array; (* physical: believed dead — never actuated again *)
    pinned_freq : int option array; (* physical: DVFS rail latched here *)
    last_applied_freq : int array; (* physical: last actuation readback *)
    mutable status : status;
    mutable swap_left : int;
    mutable reconfigs : int;
    mutable resynth_s : float; (* last re-synthesis CPU seconds *)
  }

  let status h = h.status
  let reconfigurations h = h.reconfigs
  let platform h = h.desc
  let supervisor h = h.sup
  let fdir h = h.fdir
  let guard h = h.guard
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

let make_reconfigurable ?(seed = 17L) ?(supervisor_divisor = 2)
    ?(gain_scheduling = true) ?(swap_ticks = 4) ?guards
    ?(platform = Platform_desc.exynos5422) () =
  if supervisor_divisor < 1 then
    invalid_arg "Spectr_manager.make_reconfigurable: supervisor_divisor < 1";
  if swap_ticks < 1 then
    invalid_arg "Spectr_manager.make_reconfigurable: swap_ticks < 1";
  let k0 = Platform_desc.num_clusters platform in
  let host_phys = Platform_desc.host platform in
  let guard =
    match guards with
    | Some g ->
        if Guarded.clusters g <> k0 then
          invalid_arg
            (Printf.sprintf
               "Spectr_manager.make_reconfigurable: guard tracks %d power \
                channels, platform has %d clusters"
               (Guarded.clusters g) k0);
        g
    | None -> Guarded.create ~clusters:k0 ()
  in
  let subsystem_for i = Design_flow.cluster_subsystem platform i in
  let idents =
    Array.init k0 (fun i -> Design_flow.identify ~seed (subsystem_for i))
  in
  let goals =
    [
      { Design_flow.label = "qos"; q_y = Mm.qos_weights };
      { Design_flow.label = "power"; q_y = Mm.power_weights };
    ]
  in
  let refs_for i = if i = host_phys then [| 60.; 4. |] else [| 2.0; 0.3 |] in
  let ctrls =
    ref
      (Array.init k0 (fun i ->
           Design_flow.build_mimo idents.(i)
             ~gains:(design_or_fail ~seed (subsystem_for i) goals)
             ~initial:"qos" ~refs:(refs_for i)))
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
            Array.iter (fun c -> Mimo.switch_gains c label) !ctrls);
      set_power_ref =
        (fun i refs -> Mimo.set_reference_at !ctrls.(i) ~index:1 refs i);
    }
  in
  let sup = Supervisor.create ~platform ~commands ~envelope:5.0 () in
  let fdir = Fdir.create ~k:k0 ~host:host_phys () in
  let h =
    {
      Reconfig.host_phys;
      desc = platform;
      phys = Array.init k0 Fun.id;
      ctrls;
      sup;
      fdir;
      guard;
      excluded = Array.make k0 false;
      dead = Array.make k0 false;
      pinned_freq = Array.make k0 None;
      last_applied_freq = Array.make k0 0;
      status = Reconfig.Nominal;
      swap_left = 0;
      reconfigs = 0;
      resynth_s = 0.;
    }
  in
  let enter_fallback () =
    if h.status <> Reconfig.Fallback then begin
      h.status <- Reconfig.Fallback;
      Reconfig.log_status h
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
    let t0 = Sys.time () in
    let sup = Supervisor.create ~platform:newdesc ~commands ~envelope:5.0 () in
    h.resynth_s <- Sys.time () -. t0;
    Supervisor.adopt sup ~prev ~prev_platform;
    h.sup <- sup;
    h.reconfigs <- h.reconfigs + 1;
    Obs.Counters.incr c_reconfigs;
    h.status <- Reconfig.Swapping;
    h.swap_left <- swap_ticks;
    Reconfig.log_status h
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
                Guarded.set_power_masked guard ~cluster:p true;
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
  let tick = ref 0 in
  (* One physical-cluster actuation with readback comparison feeding both
     the watchdog and the FDIR detector.  A cluster whose DVFS rail is
     known-latched is expected to read back its latched frequency — the
     rail ignoring requests is no longer a fault once the plant has been
     re-synthesized around it. *)
  let actuate soc p ~freq_ghz ~cores ~now =
    let applied = Manager.apply_cluster soc p ~freq_ghz ~cores in
    h.last_applied_freq.(p) <- applied.Manager.freq_mhz;
    let table = Soc.opp_table soc p in
    let expected_freq =
      match h.pinned_freq.(p) with
      | Some f -> f
      | None -> Opp.nearest table (Opp.request_mhz table freq_ghz)
    in
    let expected_cores =
      Manager.sanitize_cores ~max_cores:(Soc.cluster_cores soc p) cores
    in
    let ok =
      applied.Manager.freq_mhz = expected_freq
      && applied.Manager.cores = expected_cores
    in
    if not ok then Obs.Counters.incr c_act_mismatch;
    Guarded.note_actuation guard ~now ~ok;
    Fdir.note_actuation fdir ~cluster:p ~ok
  in
  (* Conservative floor sweep: every cluster not believed dead is pinned
     to its minimum-power configuration. *)
  let floor_all soc ~now =
    for p = 0 to k0 - 1 do
      if not h.dead.(p) then actuate soc p ~freq_ghz:0.2 ~cores:1. ~now
    done
  in
  let meas = Array.init k0 (fun _ -> [| 0.; 0. |]) in
  let cmd = Array.init k0 (fun _ -> [| 0.; 0. |]) in
  let sample = Supervisor.sample () in
  let step ~now ~qos_ref ~envelope ~obs soc =
    Obs.Counters.incr c_steps;
    let raw_powers = Soc.sensor_powers soc in
    let ips = Soc.ips_totals soc in
    (* FDIR watches the raw (pre-guard) evidence: substitution would hide
       exactly the exact-zero streaks it needs to see. *)
    Fdir.observe fdir ~qos:obs.Soc.qos_rate ~powers:raw_powers ~ips;
    let f = Guarded.filter_obs guard ~now obs ~powers:raw_powers in
    let qos = f.Guarded.qos.(0) and powers = f.Guarded.powers in
    if h.status <> Reconfig.Fallback then List.iter handle_finding (Fdir.poll fdir);
    incr tick;
    match h.status with
    | Reconfig.Fallback -> floor_all soc ~now
    | Reconfig.Swapping ->
        Obs.Counters.incr c_swap_ticks;
        floor_all soc ~now;
        h.swap_left <- h.swap_left - 1;
        if h.swap_left <= 0 then begin
          h.status <- Reconfig.Reconfigured;
          Reconfig.log_status h
        end
    | Reconfig.Nominal | Reconfig.Reconfigured ->
        if Guarded.degraded guard then begin
          Obs.Counters.incr c_degraded;
          floor_all soc ~now
        end
        else begin
          let k = Array.length h.phys in
          let host_d = Platform_desc.host h.desc in
          let cs = !(h.ctrls) in
          Mimo.set_reference cs.(host_d) ~index:0 qos_ref;
          (if (!tick - 1) mod supervisor_divisor = 0 then begin
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
            m.(0) <- (if p = h.host_phys then qos else ips.(p) /. 1e9);
            m.(1) <- powers.(p);
            Mimo.step_into cs.(j) ~measured:m ~dst:u;
            Fdir.note_innovation fdir ~cluster:p
              ~norm:(Mimo.last_innovation_norm cs.(j));
            actuate soc p ~freq_ghz:u.(0) ~cores:u.(1) ~now
          done;
          (* A live cluster removed from the plant (dead power sensor)
             stays pinned to its floor. *)
          for p = 0 to k0 - 1 do
            if h.excluded.(p) && not h.dead.(p) then
              actuate soc p ~freq_ghz:0.2 ~cores:1. ~now
          done
        end
  in
  ({ Manager.name = "SPECTR+R"; step; persist = None }, h)
