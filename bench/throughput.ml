(* Tick-kernel and batch throughput (ROADMAP item 2).

   Three layers, measured separately so a regression is attributable:

   - the zero-allocation kernels themselves (Soc.step_into,
     Supervisor.step, Mimo.step_into — the latter two replaying the
     measurements of a recorded exynos5422 x264 run): steady-state
     bytes allocated per call must be exactly zero, and the call cost
     is a few hundred nanoseconds; so
     must a whole warm SPECTR, SPECTR+G and SPECTR+R run through
     Scenario.tick on each built-in platform shape (0 B/tick);
   - the one-shot scenario loop (platform + manager + trace): ticks/s
     and bytes/tick on a single domain;
   - the batch arena: many scenario cells fanned out across the domain
     pool through one warm Spectr_chaos.Arena (managers built once per
     domain per variant, reset between cells), reported as aggregate
     ticks/s.

   In --smoke mode the timing columns are suppressed (CI must not gate
   on wall clock) and the deterministic properties are enforced hard:
   the kernel allocation budgets (0 B/call) and batch-vs-one-shot trace
   digest agreement for every variant.  A breach exits nonzero. *)

open Spectr_platform

let smoke = ref false

(* Bytes allocated per iteration of [f], after [f] has already been run
   to steady state by the caller.  The Gc.allocated_bytes calls box a
   float each; amortized over the iteration count they contribute far
   below the 1 B/iter failure threshold. *)
let bytes_per_iter iters f =
  let b0 = Gc.allocated_bytes () in
  f iters;
  let b1 = Gc.allocated_bytes () in
  (b1 -. b0) /. float_of_int iters

let seconds_per_iter iters f =
  let t0 = Util.now_s () in
  f iters;
  let t1 = Util.now_s () in
  (t1 -. t0) /. float_of_int iters

let gate_alloc name per_iter =
  if per_iter >= 1.0 then
    failwith
      (Printf.sprintf
         "throughput: %s allocates %.2f B/call in steady state (budget: 0)"
         name per_iter);
  Printf.printf "  %-18s %5.2f B/call  (budget 0)  PASS\n" name per_iter

(* --- kernel microbenches ---------------------------------------------- *)

let run_config config mgr =
  let r = Spectr.Scenario.start config in
  let rec go () =
    match Spectr.Scenario.tick r ~manager:mgr with
    | Some _ -> go ()
    | None -> ()
  in
  go ();
  Spectr.Scenario.trace r

(* Recorded traffic for the supervisor and leaf-controller microbenches:
   what a SPECTR manager saw over one default x264 run on exynos5422,
   read back from the run's trace — its [qos] column is the windowed
   heartbeat rate the manager observes, its [<cluster>_power] columns
   the sensor readings it sums (in description order) into the
   supervisor's chip power.  The supervisor runs on every second
   controller period, so its samples are the even ticks. *)
type recorded = {
  qos : float array; (* per supervisor period *)
  qos_ref : float array;
  power : float array;
  envelope : float array;
  meas : float array array; (* per controller period: host [qos; power] *)
}

let recorded_run () =
  let platform = Platform_desc.exynos5422 in
  let mgr, _ = Spectr.Spectr_manager.make ~platform () in
  let tr =
    run_config (Spectr.Scenario.default_config ~platform Benchmarks.x264) mgr
  in
  let col = Trace.column tr in
  let powers =
    List.init (Platform_desc.num_clusters platform) (fun i ->
        col (Platform_desc.cluster_name platform i ^ "_power"))
  in
  let qos = col "qos" in
  let host_power = List.nth powers (Platform_desc.host platform) in
  let even a = Array.init ((Array.length a + 1) / 2) (fun i -> a.(2 * i)) in
  {
    qos = even qos;
    qos_ref = even (col "qos_ref");
    power =
      even
        (Array.init (Trace.length tr) (fun t ->
             List.fold_left (fun acc p -> acc +. p.(t)) 0. powers));
    envelope = even (col "envelope");
    meas = Array.mapi (fun t q -> [| q; host_power.(t) |]) qos;
  }

(* A whole x264 run of a warm SPECTR, SPECTR+G or SPECTR+R manager
   through Scenario.tick, counting minor-heap words over the ticks only:
   the budget is exactly zero. *)
let scenario_gate variant platform =
  let make () =
    let clusters = Platform_desc.num_clusters platform in
    match variant with
    | "SPECTR" -> fst (Spectr.Spectr_manager.make ~platform ())
    | "SPECTR+G" ->
        let guards = Spectr.Guarded.create ~clusters () in
        fst (Spectr.Spectr_manager.make ~guards ~platform ())
    | "SPECTR+R" ->
        fst (Spectr.Spectr_manager.make_reconfigurable ~platform ())
    | v -> invalid_arg ("scenario_gate: " ^ v)
  in
  ignore (make ());
  let manager = make () in
  let r =
    Spectr.Scenario.start
      (Spectr.Scenario.default_config ~platform Benchmarks.x264)
  in
  let w0 = Gc.minor_words () in
  while Option.is_some (Spectr.Scenario.tick r ~manager) do
    ()
  done;
  let w1 = Gc.minor_words () in
  let per_tick =
    (w1 -. w0) *. float_of_int (Sys.word_size / 8)
    /. float_of_int (Spectr.Scenario.ticks_done r)
  in
  let name =
    Printf.sprintf "Scenario.tick (%s, %s)" variant
      (Platform_desc.name platform)
  in
  if w1 -. w0 <> 0. then
    failwith
      (Printf.sprintf "throughput: %s allocates %.2f B/tick (budget: 0)" name
         per_tick);
  Printf.printf "  %-36s %5.2f B/tick  (budget 0)  PASS\n" name per_tick

let kernel_section () =
  Util.subheading "tick kernel, steady state";
  let iters = if !smoke then 50_000 else 1_000_000 in
  (* SoC under load: background tasks keep every per-core loop busy. *)
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  Soc.set_background_tasks soc 16;
  let obs = Soc.make_observation () in
  for _ = 1 to 1_000 do
    Soc.step_into soc ~dt:0.05 obs
  done;
  let soc_step n =
    for _ = 1 to n do
      Soc.step_into soc ~dt:0.05 obs
    done
  in
  gate_alloc "Soc.step_into" (bytes_per_iter iters soc_step);
  let traffic = recorded_run () in
  let commands =
    {
      Spectr.Supervisor.switch_gains = (fun _ -> ());
      set_power_ref = (fun _ _ -> ());
    }
  in
  let sup = Spectr.Supervisor.create ~commands ~envelope:5.0 () in
  (* The recorded samples, replayed cyclically through the sample the
     managers use: literal float arguments would be statically
     allocated boxes and hide the boxing a real caller pays. *)
  let sample = Spectr.Supervisor.sample () in
  let periods = Array.length traffic.qos in
  let sup_step n =
    let j = ref 0 in
    for _ = 1 to n do
      let t = !j in
      sample.Spectr.Supervisor.qos <- traffic.qos.(t);
      sample.Spectr.Supervisor.qos_ref <- traffic.qos_ref.(t);
      sample.Spectr.Supervisor.power <- traffic.power.(t);
      sample.Spectr.Supervisor.envelope <- traffic.envelope.(t);
      Spectr.Supervisor.step_sample sup sample;
      j := if t + 1 = periods then 0 else t + 1
    done
  in
  sup_step 1_000;
  gate_alloc "Supervisor.step" (bytes_per_iter iters sup_step);
  (* The host cluster's leaf controller, built as the manager builds it
     and fed the recorded host measurements cyclically. *)
  let ctrl =
    match
      Spectr.Design_flow.leaf_controller
        (Spectr.Design_flow.cluster_subsystem Platform_desc.exynos5422
           (Platform_desc.host Platform_desc.exynos5422))
        [
          { Spectr.Design_flow.label = "qos"; q_y = Spectr.Mm.qos_weights };
          { Spectr.Design_flow.label = "power"; q_y = Spectr.Mm.power_weights };
        ]
        ~initial:"qos" ~refs:[| 60.; 4. |]
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  let u = [| 0.; 0. |] in
  let ticks = Array.length traffic.meas in
  let mimo_step n =
    let j = ref 0 in
    for _ = 1 to n do
      let t = !j in
      Spectr_control.Mimo.step_into ctrl ~measured:traffic.meas.(t) ~dst:u;
      j := if t + 1 = ticks then 0 else t + 1
    done
  in
  mimo_step 1_000;
  gate_alloc "Mimo.step_into" (bytes_per_iter iters mimo_step);
  List.iter
    (fun variant ->
      List.iter (scenario_gate variant)
        [
          Platform_desc.exynos5422;
          Platform_desc.pixel8pro;
          Platform_desc.k_cluster 4;
        ])
    [ "SPECTR"; "SPECTR+G"; "SPECTR+R" ];
  if not !smoke then begin
    Printf.printf "  %-18s %6.0f ns/call\n" "Soc.step_into"
      (seconds_per_iter iters soc_step *. 1e9);
    Printf.printf "  %-18s %6.0f ns/call\n" "Supervisor.step"
      (seconds_per_iter iters sup_step *. 1e9);
    Printf.printf "  %-18s %6.0f ns/call\n" "Mimo.step_into"
      (seconds_per_iter iters mimo_step *. 1e9)
  end

(* --- scenario loop ----------------------------------------------------- *)

(* The default scenario is 300 ticks; for rate measurements stretch the
   phases so per-run start cost (SoC + trace construction) amortizes
   away and the number reflects the tick path. *)
let long_config seed =
  let cfg = Spectr.Scenario.default_config ~seed Benchmarks.x264 in
  {
    cfg with
    Spectr.Scenario.phases =
      List.map
        (fun p ->
          { p with Spectr.Scenario.duration_s = p.Spectr.Scenario.duration_s *. 10. })
        cfg.Spectr.Scenario.phases;
  }

let one_shot_section () =
  Util.subheading "scenario loop (SPECTR on x264, one domain)";
  let cfg = long_config 42L in
  let ticks = Spectr.Scenario.total_ticks cfg in
  let mgr, _sup = Spectr.Spectr_manager.make () in
  ignore (run_config cfg mgr : Trace.t);
  let reps = if !smoke then 1 else 20 in
  let b0 = Gc.allocated_bytes () in
  let t0 = Util.now_s () in
  for _ = 1 to reps do
    ignore (run_config cfg mgr : Trace.t)
  done;
  let dt = Util.now_s () -. t0 in
  let bytes = Gc.allocated_bytes () -. b0 in
  let total = float_of_int (reps * ticks) in
  if !smoke then Printf.printf "  %d ticks/run  (timings suppressed)\n" ticks
  else
    Printf.printf "  %8.0f ticks/s   %6.0f B/tick   %5.0f ns/tick\n"
      (total /. dt) (bytes /. total)
      (dt *. 1e9 /. total);
  total /. dt

(* --- batch arena -------------------------------------------------------- *)

let variants =
  Spectr_chaos.Campaign.
    [ Spectr; Mm_pow; Mm_perf; Siso; Fs ]

(* Digest agreement: a warm arena checkout must drive a scenario to the
   byte-identical trace a freshly built manager produces.  Checked per
   variant on the default (short) config. *)
let digest_section arena =
  Util.subheading "batch-vs-one-shot digest agreement";
  List.iter
    (fun v ->
      let cfg = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
      let fresh, _, _, _ = Spectr_chaos.Campaign.make_manager v in
      let d_fresh = Trace.digest (run_config cfg fresh) in
      let warm, _, _, _ = Spectr_chaos.Arena.checkout arena v in
      (* Second checkout exercises the reset path, not first build. *)
      let warm, _, _, _ =
        ignore (run_config cfg warm : Trace.t);
        Spectr_chaos.Arena.checkout arena v
      in
      let d_warm = Trace.digest (run_config cfg warm) in
      if d_fresh <> d_warm then
        failwith
          (Printf.sprintf
             "throughput: %s batch trace diverged from one-shot (%s vs %s)"
             (Spectr_chaos.Campaign.variant_name v)
             d_warm d_fresh);
      Printf.printf "  %-8s %s  PASS\n"
        (Spectr_chaos.Campaign.variant_name v)
        d_fresh)
    variants

(* The batch regime the engine exists for: many SHORT cells (default
   300-tick scenarios, the chaos-campaign / grid-bench shape), where
   before this refactor every cell rebuilt its managers and paid the
   full LQG/robustness gain-design pipeline.  The pre-refactor per-cell
   cost is measured live against the still-public uncached
   Design_flow.design_gains, so the reported speedup tracks this
   machine, not a hardcoded baseline. *)
let batch_section one_shot_rate =
  Util.subheading "batch arena (parallel cells, warm managers)";
  let arena = Spectr_chaos.Arena.create () in
  digest_section arena;
  if not !smoke then begin
    let jobs = Spectr_exec.Parmap.jobs () in
    let cfg = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
    let ticks = Spectr.Scenario.total_ticks cfg in
    let cells = 64 * jobs in
    let run_cell _i =
      let mgr, _, _, _ =
        Spectr_chaos.Arena.checkout arena Spectr_chaos.Campaign.Spectr
      in
      ignore (run_config cfg mgr : Trace.t)
    in
    (* Warm every domain's slot (and the shared design cache) before
       the timed sweep. *)
    Spectr_exec.Parmap.iter run_cell (List.init jobs (fun i -> i));
    let t0 = Util.now_s () in
    Spectr_exec.Parmap.iter run_cell (List.init cells (fun i -> i));
    let dt = Util.now_s () -. t0 in
    let warm_rate = float_of_int (cells * ticks) /. dt in
    Printf.printf
      "  warm arena:    %4d cells x %d ticks on %d job%s: %8.0f ticks/s \
       aggregate\n"
      cells ticks jobs
      (if jobs = 1 then "" else "s")
      warm_rate;
    (* Pre-refactor shape: fresh managers per cell, gain design
       uncached.  One emulated cell is enough — design dominates. *)
    let goals =
      [
        { Spectr.Design_flow.label = "qos"; q_y = Spectr.Mm.qos_weights };
        { Spectr.Design_flow.label = "power"; q_y = Spectr.Mm.power_weights };
      ]
    in
    let ident_big, ident_little =
      let ident i =
        Spectr.Design_flow.identify
          (Spectr.Design_flow.cluster_subsystem Platform_desc.exynos5422 i)
      in
      (ident 0, ident 1)
    in
    let t0 = Util.now_s () in
    ignore (Spectr.Design_flow.design_gains ident_big goals);
    ignore (Spectr.Design_flow.design_gains ident_little goals);
    let mgr, _sup = Spectr.Spectr_manager.make () in
    ignore (run_config cfg mgr : Trace.t);
    let cold_dt = Util.now_s () -. t0 in
    let cold_rate = float_of_int ticks /. cold_dt in
    Printf.printf
      "  pre-refactor:  fresh managers, uncached gain design: %.0f ms/cell \
       -> %8.0f ticks/s effective\n"
      (cold_dt *. 1e3) cold_rate;
    Printf.printf "  batch speedup: %.0fx  (one-shot long-run loop: %.1fx)\n"
      (warm_rate /. cold_rate)
      (warm_rate /. one_shot_rate);
    Printf.printf "  arena checkouts: %d\n"
      (Spectr_chaos.Arena.checkouts arena)
  end

let run () =
  Util.heading "Tick-kernel and batch throughput";
  kernel_section ();
  let rate = one_shot_section () in
  batch_section rate;
  Printf.printf "\nthroughput: all gates passed\n"
