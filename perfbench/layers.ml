(* The per-layer ledger of the traced run.

   Below the manager the program exposes no per-layer hooks, so each
   layer is timed by replaying inputs recorded from a real scenario run
   through a standalone instance built from the layer's public
   constructor.  The ledger then prints the residual: the sum of the
   replayed layers minus the end-to-end Scenario.tick figure.

   Layers a workload does not exercise are still measured, by a small
   probe on that workload's own inputs or on the reference exynos5422
   platform, so every workload reports every per-layer metric; the
   README says which layers lie on each workload's path. *)

open Spectr_platform
module S = Spectr.Scenario

let metric = Common.metric

(* Cost of one [now_ns] pair, subtracted from per-call timings. *)
let clock_overhead_ns =
  lazy
    (let n = 100_000 in
     let acc = ref 0 in
     for _ = 1 to n do
       let t0 = Ledger.now_ns () in
       acc := !acc + (Ledger.now_ns () - t0)
     done;
     float_of_int !acc /. float_of_int n)

(* Mean wall ns per iteration of [f i] over [0, n), plus bytes per
   iteration. *)
let per_call n f =
  let b0 = Ledger.minor_b () in
  let t0 = Ledger.now_ns () in
  for i = 0 to n - 1 do
    f i
  done;
  let dt = Ledger.now_ns () - t0 in
  let bytes = Ledger.minor_b () -. b0 in
  (float_of_int dt /. float_of_int n, bytes /. float_of_int n)

let goals =
  [
    { Spectr.Design_flow.label = "qos"; q_y = Spectr.Mm.qos_weights };
    { Spectr.Design_flow.label = "power"; q_y = Spectr.Mm.power_weights };
  ]

(* Leaf controllers built exactly as the SPECTR manager builds them. *)
let leaf_controllers platform =
  let host = Platform_desc.host platform in
  Array.init (Platform_desc.num_clusters platform) (fun i ->
      let sub = Spectr.Design_flow.cluster_subsystem platform i in
      let ident = Spectr.Design_flow.identify ~seed:17L sub in
      match Spectr.Design_flow.design_gains_for ~seed:17L sub goals with
      | Ok gains ->
          Spectr.Design_flow.build_mimo ident ~gains ~initial:"qos"
            ~refs:(if i = host then [| 60.; 4. |] else [| 2.0; 0.3 |])
      | Error msg -> failwith msg)

(* --- tick path ------------------------------------------------------------ *)

let tick_ledger (ctx : Common.ctx) ~label ~config ~make =
  let platform = config.S.platform in
  let k = Platform_desc.num_clusters platform in
  let host = Platform_desc.host platform in
  let dt = config.S.controller_period in
  let n = S.total_ticks config in
  let overhead = Lazy.force clock_overhead_ns in
  (* 1. The in-situ run: Scenario.tick and Manager.t.step timed per
     call; the inputs every layer saw are recorded. *)
  let now = Array.make n 0. and qos = Array.make n 0. in
  let qos_ref = Array.make n 0. and env = Array.make n 0. in
  let powers = Array.init n (fun _ -> Array.make k 0.) in
  let ips = Array.init n (fun _ -> Array.make k 0.) in
  let mgr : Spectr.Manager.t = make () in
  let step_ns = ref 0 in
  let step_hist = Ledger.Hist.create () in
  let timed =
    let step ~now ~qos_ref ~envelope ~obs soc =
      let t0 = Ledger.now_ns () in
      mgr.Spectr.Manager.step ~now ~qos_ref ~envelope ~obs soc;
      let d = Ledger.now_ns () - t0 in
      step_ns := !step_ns + d;
      Ledger.Hist.record step_hist d
    in
    { mgr with Spectr.Manager.step }
  in
  let runner = S.start config in
  let soc = S.runner_soc runner in
  let tick_ns = ref 0 in
  let rec go t =
    let t0 = Ledger.now_ns () in
    match S.tick runner ~manager:timed with
    | None -> ()
    | Some obs ->
        tick_ns := !tick_ns + (Ledger.now_ns () - t0);
        now.(t) <- obs.Soc.time;
        qos.(t) <- obs.Soc.qos_rate;
        let ph, _ = S.current_phase runner in
        qos_ref.(t) <- config.S.qos_ref;
        env.(t) <- ph.S.envelope;
        Array.blit (Soc.sensor_powers soc) 0 powers.(t) 0 k;
        Array.blit (Soc.ips_totals soc) 0 ips.(t) 0 k;
        go (t + 1)
  in
  go 0;
  let trace = S.trace runner in
  let nf = float_of_int n in
  let tick = (float_of_int !tick_ns /. nf) -. overhead in
  let step = (float_of_int !step_ns /. nf) -. overhead in
  (* 2. Replays through standalone instances. *)
  let cols = Array.of_list (Trace.columns trace) in
  let col name =
    let i = Trace.column_index trace name in
    Trace.column_ix trace i
  in
  let freq = Array.init k (fun i -> col (Platform_desc.cluster_name platform i ^ "_freq_mhz")) in
  let cores = Array.init k (fun i -> col (Platform_desc.cluster_name platform i ^ "_cores")) in
  let background = col "background" in
  let soc_ns, soc_b =
    let soc =
      Soc.create
        ~config:{ (Soc.config_of platform) with Soc.seed = config.S.seed }
        ~platform ~qos:config.S.workload ()
    in
    let obs = Soc.make_observation () in
    let acc = ref 0 in
    let b0 = Ledger.minor_b () in
    for t = 0 to n - 1 do
      Soc.set_background_tasks soc (int_of_float background.(t));
      if t > 0 then
        for i = 0 to k - 1 do
          ignore (Soc.set_frequency soc i freq.(i).(t - 1) : int);
          Soc.set_active_cores soc i (int_of_float cores.(i).(t - 1))
        done;
      let t0 = Ledger.now_ns () in
      Soc.step_into soc ~dt obs;
      acc := !acc + (Ledger.now_ns () - t0)
    done;
    ((float_of_int !acc /. nf) -. overhead, (Ledger.minor_b () -. b0) /. nf)
  in
  let hb_ns, _ =
    let hb = Heartbeats.create ~window:0.25 ~reference:config.S.qos_ref () in
    per_call n (fun t ->
        Heartbeats.beat hb ~now:now.(t) ~count:(qos.(t) *. dt);
        ignore (Heartbeats.rate hb ~now:now.(t) : float))
  in
  let trace_ns, trace_b =
    let rows =
      Array.init n (fun t ->
          Array.map (fun c -> (Trace.column trace c).(t)) cols)
    in
    let tr = Trace.create ~cap:n ~columns:(Array.to_list cols) () in
    per_call n (fun t -> Trace.add tr rows.(t))
  in
  let sup_ns, _ =
    let commands =
      { Spectr.Supervisor.switch_gains = ignore; set_power_ref = (fun _ _ -> ()) }
    in
    let sup = Spectr.Supervisor.create ~platform ~commands ~envelope:5.0 () in
    let total t = Array.fold_left ( +. ) 0. powers.(t) in
    per_call (n / 2) (fun j ->
        let t = 2 * j in
        Spectr.Supervisor.step sup ~qos:qos.(t) ~qos_ref:qos_ref.(t)
          ~power:(total t) ~envelope:env.(t))
  in
  let mimo_ns, _ =
    let ctrls = leaf_controllers platform in
    let meas = [| 0.; 0. |] and dst = [| 0.; 0. |] in
    per_call (n * k) (fun j ->
        let t = j / k and i = j mod k in
        meas.(0) <- (if i = host then qos.(t) else ips.(t).(i) /. 1e9);
        meas.(1) <- powers.(t).(i);
        Spectr_control.Mimo.step_into ctrls.(i) ~measured:meas ~dst)
  in
  let guard_ns, _ =
    let g = Spectr.Guarded.create ~clusters:k () in
    per_call n (fun t ->
        ignore (Spectr.Guarded.filter g ~now:now.(t) ~qos:qos.(t) ~powers:powers.(t)))
  in
  let fdir_ns, _ =
    let f = Spectr.Fdir.create ~k ~host () in
    per_call n (fun t -> Spectr.Fdir.observe f ~qos:qos.(t) ~powers:powers.(t) ~ips:ips.(t))
  in
  let children = step +. soc_ns +. hb_ns +. trace_ns in
  let self = tick -. children in
  let mgr_parts = (sup_ns /. 2.) +. (float_of_int k *. mimo_ns) in
  Printf.printf
    "tick ledger (%s on %s/%s, %d ticks, ns per tick; clock pair %.0f ns \
     subtracted):\n"
    label (Platform_desc.name platform) config.S.workload.Workload.name n
    overhead;
  List.iter
    (fun (name, v) -> Printf.printf "  %-34s %10.1f\n" name v)
    [
      ("Scenario.tick (end to end)", tick);
      ("  Manager.t.step", step);
      ("    Supervisor.step / 2 (replayed)", sup_ns /. 2.);
      (Printf.sprintf "    %d x Mimo.step_into (replayed)" k, float_of_int k *. mimo_ns);
      ("    manager self", step -. mgr_parts);
      ("  Soc.step_into (replayed)", soc_ns);
      ("  Heartbeats.beat+rate (replayed)", hb_ns);
      ("  Trace.add (replayed)", trace_ns);
      ("  Scenario.tick self", self);
      ("residual: layer sum - end to end", children -. tick);
    ];
  Printf.printf "  residual share of Scenario.tick: %.1f %%\n"
    ((children -. tick) /. tick *. 100.);
  Printf.printf "  off-path when unguarded: Guarded.filter %.1f ns, Fdir.observe %.1f ns\n"
    guard_ns fdir_ns;
  Printf.printf "  Manager.t.step latency: p50 %.0f ns, p99 %.0f ns, n=%d\n"
    (Ledger.Hist.percentile step_hist 50.)
    (Ledger.Hist.percentile step_hist 99.)
    (Ledger.Hist.count step_hist);
  metric ctx "scenario.tick_ns" "ns" tick;
  metric ctx "scenario.tick_self_ns" "ns" self;
  metric ctx "manager.step_ns" "ns" step;
  metric ctx "manager.step_self_ns" "ns" (step -. mgr_parts);
  metric ctx "soc.step_into_ns" "ns" soc_ns;
  metric ctx "soc.step_into_b" "B" soc_b;
  metric ctx "heartbeats.beat_rate_ns" "ns" hb_ns;
  metric ctx "trace.add_ns" "ns" trace_ns;
  metric ctx "trace.add_b" "B" trace_b;
  metric ctx "supervisor.step_ns" "ns" sup_ns;
  metric ctx "mimo.step_into_ns" "ns" mimo_ns;
  metric ctx "guarded.filter_ns" "ns" guard_ns;
  metric ctx "fdir.observe_ns" "ns" fdir_ns

(* --- manager construction and checkpoints --------------------------------- *)

let manager_probe (ctx : Common.ctx) =
  let reps = 20 in
  let t0 = Ledger.now_ns () in
  for _ = 1 to reps do
    ignore (Spectr.Spectr_manager.make ())
  done;
  metric ctx "manager.make_warm_ms" "ms"
    (Ledger.secs_since t0 *. 1e3 /. float_of_int reps);
  (* Checkpoint round trip of a SPECTR+G manager mid-scenario. *)
  let mgr, _, _, _ = Spectr_chaos.Campaign.make_manager Spectr_chaos.Campaign.Spectr_g in
  let cfg = S.default_config ~seed:(Common.mix ctx.Common.seed 7) Benchmarks.x264 in
  let runner = S.start cfg in
  for _ = 1 to 100 do
    ignore (S.tick runner ~manager:mgr)
  done;
  match mgr.Spectr.Manager.persist with
  | None -> ()
  | Some p ->
      let cp = ref (p.Spectr.Manager.snapshot ()) in
      let snap, _ = per_call 1000 (fun _ -> cp := p.Spectr.Manager.snapshot ()) in
      let rest, _ = per_call 1000 (fun _ -> p.Spectr.Manager.restore !cp) in
      metric ctx "persist.snapshot_us" "us" (snap /. 1e3);
      metric ctx "persist.restore_us" "us" (rest /. 1e3)

(* --- chaos layers ----------------------------------------------------------- *)

(* Arena checkouts and Engine.run_cell on this domain, for the given
   cells (the chaos workload passes some of its own). *)
let chaos_probe (ctx : Common.ctx) cells =
  let arena = Spectr_chaos.Arena.create () in
  let variants = List.sort_uniq compare (List.map (fun c -> c.Spectr_chaos.Campaign.variant) cells) in
  let checkout v =
    Common.span ctx "arena.checkout" (fun () ->
        ignore (Spectr_chaos.Arena.checkout arena v))
  in
  List.iter checkout variants;
  let reps = 50 in
  let t0 = Ledger.now_ns () in
  for _ = 1 to reps do
    List.iter checkout variants
  done;
  metric ctx "arena.checkout_us" "us"
    (Ledger.secs_since t0 *. 1e6 /. float_of_int (reps * List.length variants));
  let t0 = Ledger.now_ns () in
  List.iter
    (fun c ->
      Common.span ctx "engine.run_cell" (fun () ->
          ignore (Spectr_chaos.Engine.run_cell ~arena c)))
    cells;
  metric ctx "engine.run_cell_ms" "ms"
    (Ledger.secs_since t0 *. 1e3 /. float_of_int (List.length cells))

let probe_cells seed n =
  let spec =
    Spectr_chaos.Campaign.default_spec ~seed ~cells:n
      ~variants:Spectr_chaos.Campaign.[ Spectr_g; Spectr_r ]
      ~kill_prob:0.25 ~reconfig_prob:0.5 ()
  in
  Spectr_chaos.Campaign.generate spec

(* --- fleet layers ------------------------------------------------------------ *)

let fleet_platforms = [| Platform_desc.exynos5422; Platform_desc.pixel8pro |]

(* Nodes ticked for one epoch, then the coordinator and placer replayed
   on their reports; node.tick timed per call. *)
let fleet_probe (ctx : Common.ctx) ~nodes =
  let cfg = Spectr_fleet.Node.default_config in
  let ns =
    Array.init nodes (fun i ->
        let all = Array.of_list Benchmarks.all_qos in
        Spectr_fleet.Node.create ~config:cfg
          ~platform:fleet_platforms.(i mod 2) ~id:i
          ~seed:(Common.mix ctx.Common.seed i)
          ~workload:all.(i mod Array.length all) ())
  in
  Array.iter (fun n -> Spectr_fleet.Node.warm_up n) ns;
  let ticks = 50 in
  let node_ns, _ =
    per_call (nodes * ticks) (fun j ->
        Spectr_fleet.Node.tick ns.(j mod nodes) ~dt:0.05)
  in
  let reports = Array.map Spectr_fleet.Node.report ns in
  let reps = 200 in
  let cap = 1.5 *. float_of_int nodes in
  let rebudget_ns, _ =
    per_call reps (fun _ ->
        ignore
          (Spectr_fleet.Coordinator.rebudget
             ~policy:Spectr_fleet.Coordinator.Water_filling ~global_cap:cap
             ~config:cfg ~epoch_s:(0.05 *. float_of_int ticks) reports))
  in
  let items =
    Spectr_fleet.Arrivals.generate ~seed:ctx.Common.seed ~epoch:0
      ~rate:(float_of_int nodes /. 16.)
  in
  let assign_ns, _ =
    per_call reps (fun _ -> ignore (Spectr_fleet.Placer.assign ~reports items))
  in
  metric ctx "node.tick_ns" "ns" node_ns;
  metric ctx "coordinator.rebudget_us" "us" (rebudget_ns /. 1e3);
  metric ctx "placer.assign_us" "us" (assign_ns /. 1e3)

(* Epoch latency from the program's own fleet.epoch_ns histogram
   (monotonic clock installed): the workload's traced window when it
   ran fleet epochs, else a short fleet run. *)
let fleet_epochs (ctx : Common.ctx) (spec : Spectr_fleet.Fleet.spec) =
  let module H = Spectr_obs.Histogram in
  let hist () = List.assoc "fleet.epoch_ns" (H.snapshot ()) in
  if H.count (hist ()) = 0 then
    Common.span ctx "fleet.run" (fun () ->
        ignore (Spectr_fleet.Fleet.run spec : Spectr_fleet.Fleet.result));
  let h = hist () in
  let p q = float_of_int (Spectr_obs.Histogram.percentile h q) /. 1e6 in
  metric ctx "fleet.epoch_ms_p50" "ms" (p 50.);
  metric ctx "fleet.epoch_ms_p99" "ms" (p 99.)

(* --- automata layers ---------------------------------------------------------- *)

type synth_sample = {
  compose_s : float;
  supcon_s : float;
  modular_s : float;
  verify_s : float;
  product_states : int;
  iterations : int;
  cache_ms : float;
}

let synth_metrics (ctx : Common.ctx) s =
  metric ctx "compose.all_s" "s" s.compose_s;
  metric ctx "synthesis.supcon_s" "s" s.supcon_s;
  metric ctx "synthesis.modular_s" "s" s.modular_s;
  metric ctx "verify_s" "s" s.verify_s;
  metric ctx "synthesis.product_states" "count" (float_of_int s.product_states);
  metric ctx "synthesis.iterations" "count" (float_of_int s.iterations);
  metric ctx "synthesis.states_per_s" "1/s"
    (float_of_int s.product_states /. s.supcon_s);
  metric ctx "synth_cache.synthesis_ms" "ms" s.cache_ms

let timed f =
  let t0 = Ledger.now_ns () in
  let v = f () in
  (v, Ledger.secs_since t0)

(* Cold synthesis of a platform's own supervisor plant/spec — the work
   that lands in set-up on the tick workloads.  Median of [reps]. *)
let synth_of_platform (ctx : Common.ctx) platform =
  let open Spectr_automata in
  let qm, pc = Spectr.Plant_model.of_platform platform in
  let spec = Spectr.Spec.of_platform platform in
  let one () =
    let span name f = Common.span ctx name f in
    let plant, compose_s =
      timed (fun () -> span "compose.all" (fun () -> Compose.all [ qm; pc ]))
    in
    let r, supcon_s =
      timed (fun () ->
          span "synthesis.supcon" (fun () -> Synthesis.supcon ~plant ~spec))
    in
    let m, modular_s =
      timed (fun () ->
          span "synthesis.supcon_modular" (fun () ->
              Synthesis.supcon_modular ~plants:[ qm; pc ] ~spec ()))
    in
    Spectr_exec.Synth_cache.clear ();
    let _, cache_s =
      timed (fun () ->
          span "synth_cache.supcon" (fun () ->
              Spectr_exec.Synth_cache.supcon ~plant ~spec))
    in
    match (r, m) with
    | Ok (sup, st), Ok _ ->
        let ok, verify_s =
          timed (fun () ->
              span "verify" (fun () ->
                  Verify.is_nonblocking sup
                  && Verify.is_controllable ~plant ~supervisor:sup))
        in
        if not ok then Ledger.wrong ctx.Common.r "synthesis of %s failed verification" (Platform_desc.name platform);
        {
          compose_s;
          supcon_s;
          modular_s;
          verify_s;
          product_states = st.Synthesis.product_states;
          iterations = st.Synthesis.iterations;
          cache_ms = cache_s *. 1e3;
        }
    | _ -> failwith "platform supervisor synthesis returned empty"
  in
  let samples = List.init 5 (fun _ -> one ()) in
  let med f = Ledger.median (List.map f samples) in
  synth_metrics ctx
    {
      (List.hd samples) with
      compose_s = med (fun s -> s.compose_s);
      supcon_s = med (fun s -> s.supcon_s);
      modular_s = med (fun s -> s.modular_s);
      verify_s = med (fun s -> s.verify_s);
      cache_ms = med (fun s -> s.cache_ms);
    }

(* --- the whole ledger ------------------------------------------------------------ *)

(* The heterogeneous water-filling fleet shape of fleet-waterfill. *)
let fleet_spec ~seed ~nodes ~epochs : Spectr_fleet.Fleet.spec =
  {
    Spectr_fleet.Fleet.default_spec with
    nodes;
    epochs;
    seed;
    global_cap = 1.5 *. float_of_int nodes;
    arrival_rate = float_of_int nodes /. 16.;
    kill_rate = float_of_int nodes /. 512.;
    platforms = fleet_platforms;
  }

let small_fleet = (64, 4)

(* Every per-layer metric not read from the workload's own traced
   window. *)
let ledger (ctx : Common.ctx) ~label ~config ~make ~cells ~fleet:(nodes, epochs)
    ~synth =
  tick_ledger ctx ~label ~config ~make;
  manager_probe ctx;
  chaos_probe ctx cells;
  fleet_probe ctx ~nodes;
  fleet_epochs ctx (fleet_spec ~seed:ctx.Common.seed ~nodes ~epochs);
  match synth with
  | `Platform p -> synth_of_platform ctx p
  | `Sample s -> synth_metrics ctx s

(* --- pool scaling -------------------------------------------------------------- *)

(* Wall time of [f] on a 1-job pool and on an nproc-job pool. *)
let scaling (ctx : Common.ctx) name f =
  let run jobs =
    let pool = Spectr_exec.Pool.create ~jobs () in
    let t0 = Ledger.now_ns () in
    f pool;
    let dt = Ledger.secs_since t0 in
    Spectr_exec.Pool.shutdown pool;
    dt
  in
  let t1 = run 1 in
  let tn = run ctx.Common.nproc in
  let speedup = t1 /. tn in
  Printf.printf
    "scaling %s: jobs=1 %.3f s, jobs=%d %.3f s -> speedup %.2fx, efficiency \
     %.2f\n"
    name t1 ctx.Common.nproc tn speedup
    (speedup /. float_of_int ctx.Common.nproc);
  metric ctx "pool.speedup" "x" speedup;
  metric ctx "pool.efficiency" "ratio" (speedup /. float_of_int ctx.Common.nproc)
