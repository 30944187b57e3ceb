(* Zero-allocation tick-kernel regression tests.

   Four properties keep the steady-state tick path honest:

   - allocation budgets: Soc.step_into and Supervisor.step must
     allocate EXACTLY zero bytes per call once warm, and so must a whole
     warm SPECTR / SPECTR+G / SPECTR+R run through Scenario.tick and a
     warm checkpoint restore — a boxed float or a closure creeping back
     into the hot path fails here;
   - byte-identity: the hot-path rewrites (index-native supervisor,
     in-place MIMO step, buffer-reusing scenario loop, memoized gain
     design) must not change any trace — scenario CSV digests are
     pinned to their pre-refactor values;
   - the fused LQG kernel (Mimo.step_into) must be bit-identical to a
     naive reference built from the allocating matrix algebra;
   - batch equivalence: a warm Arena checkout must behave exactly like
     a freshly built manager.

   Plus the boundary pins for the two intentionally different power
   thresholds (Metrics.power_allowance 1.02 vs the chaos invariants'
   0.05 safety guardband). *)

open Spectr_platform
open Spectr_control
open Spectr_linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* Bytes per iteration after the caller has warmed [f] to steady state.
   The Gc.allocated_bytes calls themselves box a float each; amortized
   over the iteration count they stay far below the 1-byte threshold,
   so "< 1.0 B/iter" distinguishes exactly-zero from any real per-call
   allocation (the smallest possible box is 16 bytes). *)
let bytes_per_iter iters f =
  let b0 = Gc.allocated_bytes () in
  f iters;
  let b1 = Gc.allocated_bytes () in
  (b1 -. b0) /. float_of_int iters

let test_soc_step_into_zero_alloc () =
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  Soc.set_background_tasks soc 16;
  let obs = Soc.make_observation () in
  for _ = 1 to 500 do
    Soc.step_into soc ~dt:0.05 obs
  done;
  let per_iter =
    bytes_per_iter 100_000 (fun n ->
        for _ = 1 to n do
          Soc.step_into soc ~dt:0.05 obs
        done)
  in
  check_bool
    (Printf.sprintf "Soc.step_into steady state: %.3f B/call" per_iter)
    true (per_iter < 1.0)

(* Literal float arguments are statically allocated boxes, so a loop
   that passes constants never sees the boxing a real caller pays.  The
   managers drive the supervisor through [step_sample] with measurements
   computed at run time; that path must allocate nothing, and the
   labelled [step] must add nothing beyond its caller's boxes. *)
let test_supervisor_step_zero_alloc () =
  let commands =
    {
      Spectr.Supervisor.switch_gains = (fun _ -> ());
      set_power_ref = (fun _ _ -> ());
    }
  in
  let sup = Spectr.Supervisor.create ~commands ~envelope:2.0 () in
  let s = Spectr.Supervisor.sample () in
  (* Measurements that sweep the power bands, so the budget policy
     fires rebudget and gain-switch actions along the way. *)
  let drive n =
    for i = 1 to n do
      let x = float_of_int (i land 63) in
      s.Spectr.Supervisor.qos <- 25. +. (0.2 *. x);
      s.Spectr.Supervisor.qos_ref <- 30.;
      s.Spectr.Supervisor.power <- 1.2 +. (0.02 *. x);
      s.Spectr.Supervisor.envelope <- (if i land 512 = 0 then 2.0 else 1.6);
      Spectr.Supervisor.step_sample sup s
    done
  in
  drive 500;
  (* Exact count: an action that boxes only now and then would hide
     below a bytes-per-call threshold. *)
  let w0 = Gc.minor_words () in
  drive 100_000;
  let w1 = Gc.minor_words () in
  if w1 -. w0 <> 0. then
    Alcotest.failf
      "Supervisor.step_sample, run-time inputs: %.0f minor words over 100000 \
       calls"
      (w1 -. w0);
  let per_iter =
    bytes_per_iter 100_000 (fun n ->
        for _ = 1 to n do
          Spectr.Supervisor.step sup ~qos:30.0 ~qos_ref:30.0 ~power:1.5
            ~envelope:2.0
        done)
  in
  check_bool
    (Printf.sprintf "Supervisor.step, constant inputs: %.3f B/call" per_iter)
    true (per_iter < 1.0)

(* Construction, warm: identification, gain design and supervisor
   synthesis are memoized, and so are the compiled forms the tick runs
   on (the leaf controllers' sparse gain kernels, the supervisor's
   transition table), so a second SPECTR manager allocates only its own
   state.  The budget is what this test measured on exynos5422 before
   the compiled forms were memoized, 26,416 minor bytes, so it can only
   go down. *)
let warm_make_budget_b = 26_416.

let test_warm_make_alloc () =
  let platform = Platform_desc.exynos5422 in
  let _, sup1 = Spectr.Spectr_manager.make ~platform () in
  let w0 = Gc.minor_words () in
  let _, sup2 = Spectr.Spectr_manager.make ~platform () in
  let w1 = Gc.minor_words () in
  let bytes = (w1 -. w0) *. float_of_int (Sys.word_size / 8) in
  if bytes > warm_make_budget_b then
    Alcotest.failf "warm Spectr_manager.make: %.0f minor bytes (budget %.0f)"
      bytes warm_make_budget_b;
  (* Reuse, not rebuild: both supervisors step on one table, and the
     leaf controllers a manager builds share one set of kernels. *)
  check_bool "supervisor table shared" true
    (Spectr.Supervisor.table sup1 == Spectr.Supervisor.table sup2);
  let goals =
    [
      { Spectr.Design_flow.label = "qos"; q_y = Spectr.Mm.qos_weights };
      { Spectr.Design_flow.label = "power"; q_y = Spectr.Mm.power_weights };
    ]
  in
  let leaf () =
    match
      Spectr.Design_flow.leaf_controller
        (Spectr.Design_flow.cluster_subsystem platform 0)
        goals ~initial:"qos" ~refs:[| 60.; 4. |]
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let c1 = leaf () and c2 = leaf () in
  check_bool "gain kernels shared" true (Mimo.kernels c1 == Mimo.kernels c2);
  check_bool "controller state private" true (c1 != c2)

(* The three rung sets of the manager ladder, one builder each. *)
let spectr platform () = fst (Spectr.Spectr_manager.make ~platform ())

let spectr_g platform () =
  let clusters = Platform_desc.num_clusters platform in
  let guards = Spectr.Guarded.create ~clusters () in
  fst (Spectr.Spectr_manager.make ~guards ~platform ())

let spectr_r platform () =
  fst (Spectr.Spectr_manager.make_reconfigurable ~platform ())

(* Restore, warm: every part of a checkpoint is copied back in place, so
   resetting a manager (an arena checkout, a kill drill's restart)
   allocates nothing.  Exact count over repeated restores of one
   checkpoint, taken mid-run so the controllers hold a last command and
   the supervisor has left its initial state. *)
let restore_cases =
  let exynos = Platform_desc.exynos5422 and pixel = Platform_desc.pixel8pro in
  [
    ("SPECTR", spectr exynos, exynos);
    ("SPECTR+G", spectr_g exynos, exynos);
    ("MM-Pow", (fun () -> Spectr.Mm.make_pow ()), exynos);
    ("MM-Perf", (fun () -> Spectr.Mm.make_perf ()), exynos);
    ("FS", (fun () -> Spectr.Fs.make ()), exynos);
    ("SISO", (fun () -> Spectr.Siso.make ()), exynos);
    ("SPECTR+G", spectr_g pixel, pixel);
  ]

let test_restore_zero_alloc () =
  List.iter
    (fun (name, make, platform) ->
      let manager = make () in
      let p = Option.get manager.Spectr.Manager.persist in
      let r =
        Spectr.Scenario.start
          (Spectr.Scenario.default_config ~platform Benchmarks.x264)
      in
      for _ = 1 to 100 do
        ignore (Spectr.Scenario.tick r ~manager : Soc.observation option)
      done;
      let c = p.Spectr.Manager.snapshot () in
      p.Spectr.Manager.restore c;
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        p.Spectr.Manager.restore c
      done;
      let w1 = Gc.minor_words () in
      if w1 -. w0 <> 0. then
        Alcotest.failf "%s on %s: %.0f minor words over 1000 restores" name
          (Platform_desc.name platform) (w1 -. w0))
    restore_cases

(* End to end: a warm manager driven through [Scenario.tick] for a whole
   run.  Minor-heap words over the ticks only (the runner and manager
   are built first), required to be exactly zero: any boxed float, option
   or closure on the tick path shows up as a nonzero count. *)
let minor_words_over_ticks ~manager cfg =
  let r = Spectr.Scenario.start cfg in
  let w0 = Gc.minor_words () in
  while Option.is_some (Spectr.Scenario.tick r ~manager) do
    ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0, Spectr.Scenario.ticks_done r)

let zero_alloc_platforms =
  [ Platform_desc.exynos5422; Platform_desc.pixel8pro; Platform_desc.k_cluster 4 ]

let check_zero_alloc_ticks (name, make) platform =
  (* Warm: gain design and supervisor synthesis are memoized. *)
  ignore (make platform ());
  let cfg = Spectr.Scenario.default_config ~platform Benchmarks.x264 in
  let words, ticks = minor_words_over_ticks ~manager:(make platform ()) cfg in
  check_int "whole run ticked" (Spectr.Scenario.total_ticks cfg) ticks;
  if words <> 0. then
    Alcotest.failf "%s on %s: %.0f minor words over %d ticks (%.2f B/tick)"
      name (Platform_desc.name platform) words ticks
      (words *. float_of_int (Sys.word_size / 8) /. float_of_int ticks)

let zero_alloc_ticks variant () =
  List.iter (check_zero_alloc_ticks variant) zero_alloc_platforms

(* ------------------------------------------------------------------ *)
(* Scenario CSV byte-identity pins                                     *)
(* ------------------------------------------------------------------ *)

(* MD5 digests of scenario CSVs, recorded before the refactors they
   guard landed.  Any hot-path change that shifts a single float
   expression — noise draw order, accumulation order, a skipped clamp,
   a rung of the manager ladder running out of turn — changes these.
   The first three are the default x264 scenario (seed 42, 300 rows)
   recorded before the zero-allocation refactor.  The rest were
   recorded before SPECTR, SPECTR+G and SPECTR+R became one step loop:
   fault-free x264 on three platform shapes for every rung set, the
   guarded fallback under a dead cluster and a 2 s latched rail, and
   SPECTR+R through every permanent-fault rung (isolation,
   re-synthesis, swap window, pinned rail, open-loop fallback). *)
let x264 platform =
  Spectr.Scenario.default_config ~seed:42L ~platform Benchmarks.x264

(* Healthy 8 s phase with one fault, then a 4 s background disturbance
   (the reconfiguration tests' scenario). *)
let faulted_cfg ?(bg = 0) ?(platform = Platform_desc.exynos5422) injection =
  let phase name ~duration_s ~background_tasks ~faults =
    {
      Spectr.Scenario.phase_name = name;
      duration_s;
      envelope = 5.0;
      background_tasks;
      phase_faults = faults;
    }
  in
  {
    (Spectr.Scenario.default_config ~platform Benchmarks.x264) with
    Spectr.Scenario.phases =
      [
        phase "healthy-then-fault" ~duration_s:8. ~background_tasks:bg
          ~faults:[ injection ];
        phase "disturb" ~duration_s:4. ~background_tasks:8 ~faults:[];
      ];
  }

let permanent ?bg fault = faulted_cfg ?bg (Faults.permanent fault ~start_s:2.0)
let exynos = Platform_desc.exynos5422
let pixel = Platform_desc.pixel8pro
let k4 = Platform_desc.k_cluster 4

let pinned =
  [
    ( "spectr",
      "ab3b5b5ef6ec4920c18d5f0a4117cbc1",
      spectr exynos,
      x264 exynos );
    ( "mm-pow",
      "96be8102f7bac038240ca64962ed878b",
      (fun () -> Spectr.Mm.make_pow ()),
      x264 exynos );
    ( "siso",
      "d599bdd2e64cbd24c48b6fd21efaf08a",
      (fun () -> Spectr.Siso.make ()),
      x264 exynos );
    ( "spectr pixel8pro",
      "817c44759c3f8322c3ead7d40e2b6d79",
      spectr pixel,
      x264 pixel );
    ("spectr k4", "548f0dfc03f8b60c796acc1e2a8361bd", spectr k4, x264 k4);
    ( "spectr+g exynos5422",
      "ab3b5b5ef6ec4920c18d5f0a4117cbc1",
      spectr_g exynos,
      x264 exynos );
    ( "spectr+g pixel8pro",
      "817c44759c3f8322c3ead7d40e2b6d79",
      spectr_g pixel,
      x264 pixel );
    ("spectr+g k4", "548f0dfc03f8b60c796acc1e2a8361bd", spectr_g k4, x264 k4);
    ( "spectr+r exynos5422",
      "ab3b5b5ef6ec4920c18d5f0a4117cbc1",
      spectr_r exynos,
      x264 exynos );
    ( "spectr+r pixel8pro",
      "817c44759c3f8322c3ead7d40e2b6d79",
      spectr_r pixel,
      x264 pixel );
    ("spectr+r k4", "548f0dfc03f8b60c796acc1e2a8361bd", spectr_r k4, x264 k4);
    ( "spectr cluster-dead:1",
      "8223c44ca0ad170795a01f9b699750a3",
      spectr exynos,
      permanent (Faults.Cluster_dead 1) );
    ( "spectr+g cluster-dead:1",
      "5f5ec0de7d684796e4f2a890c35e3b8a",
      spectr_g exynos,
      permanent (Faults.Cluster_dead 1) );
    ( "spectr+g dvfs-stuck 2s",
      "d32b9a866166d3b6cdf803aa9d5a91ed",
      spectr_g exynos,
      faulted_cfg (Faults.injection Faults.Dvfs_stuck ~start_s:2.0 ~stop_s:4.0)
    );
    ( "spectr+r cluster-dead:1",
      "046e96b1567d24604d0e9d1cfe413655",
      spectr_r exynos,
      permanent (Faults.Cluster_dead 1) );
    ( "spectr+r cluster-dead:0",
      "d1b1f6b2a5a10b9eced25600ec9fa8b1",
      spectr_r exynos,
      permanent (Faults.Cluster_dead 0) );
    ( "spectr+r sensor-dead:power1",
      "36284101196fe0baba1c9f100c66ecc1",
      spectr_r exynos,
      permanent ~bg:8 (Faults.Sensor_dead (Faults.Power_cluster 1)) );
    ( "spectr+r dvfs-stuck-permanent",
      "ac5e7a945742f396fdea3d38c1951ea1",
      spectr_r exynos,
      permanent Faults.Dvfs_stuck_permanent );
    ( "spectr+r sensor-dead:qos",
      "30ace74a6eb88ec6ed1ee145fbaa6dd2",
      spectr_r exynos,
      permanent (Faults.Sensor_dead Faults.Qos) );
  ]

let trace_digest make cfg =
  let trace = Spectr.Scenario.run ~manager:(make ()) cfg in
  check_int "pinned run length" (Spectr.Scenario.total_ticks cfg)
    (Trace.length trace);
  Trace.digest trace

let test_pinned_digests () =
  List.iter
    (fun (name, digest, make, cfg) ->
      check_string (name ^ " CSV digest") digest (trace_digest make cfg))
    pinned

(* The SPECTR / SPECTR+G checkpoint after a whole x264 run: supervisor
   engine, leaf controllers, tick phase and (guarded) the watchdog.  The
   digests were recorded when a checkpoint carried these parts as one
   marshalled (supervisor, controllers, phase, guard) tuple; the test
   marshals the typed checkpoint's parts in that order, so the pins
   still cover every captured value bit for bit. *)
let pinned_checkpoints =
  [
    ( "spectr",
      "SPECTR c57e15998ca2c3800383fc2959e72b25",
      spectr exynos,
      exynos );
    ( "spectr+g",
      "SPECTR+G 85d30419e94ebf34943d996bee6b33ca",
      spectr_g exynos,
      exynos );
    ( "spectr+g pixel8pro",
      "SPECTR+G@d59644c878d1 bfd02b2ed3898e9f4f9c89631c93b16c",
      spectr_g pixel,
      pixel );
  ]

let test_pinned_checkpoints () =
  List.iter
    (fun (name, digest, make, platform) ->
      let manager = make () in
      ignore (Spectr.Scenario.run ~manager (x264 platform) : Trace.t);
      let c = (Option.get manager.Spectr.Manager.persist).snapshot () in
      let parts =
        ( Option.get c.Spectr.Manager.supervisor,
          c.Spectr.Manager.ctrls,
          c.Spectr.Manager.phase,
          c.Spectr.Manager.guard )
      in
      check_string (name ^ " checkpoint digest") digest
        (c.Spectr.Manager.variant ^ " "
        ^ Digest.to_hex (Digest.string (Marshal.to_string parts []))))
    pinned_checkpoints

(* The Exynos identification experiments: ARX parameters plus every
   channel's offset, scale and saturation, hex-exact.  These guard the
   reference-platform excitation windows of [Design_flow.Cluster_2x2]
   directly, not only through the traces built on them. *)
let pinned_identifications =
  [
    (0, "bfbaebdb67b8c744ac7fc1d416db8ca6");
    (1, "b20baf2cd2c44dfe82372988d5ad85c1");
  ]

let identified_digest (id : Spectr.Design_flow.identified) =
  let b = Buffer.create 1024 in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  let m = id.Spectr.Design_flow.model in
  Buffer.add_string b
    (Printf.sprintf "%d %d %d %d|" m.Spectr_sysid.Arx.na m.nb m.num_inputs
       m.num_outputs);
  for i = 0 to Matrix.rows m.theta - 1 do
    for j = 0 to Matrix.cols m.theta - 1 do
      f (Matrix.get m.theta i j)
    done
  done;
  let channel (c : Mimo.channel) =
    Buffer.add_string b (c.name ^ ":");
    List.iter f [ c.offset; c.scale; c.min; c.max ]
  in
  Array.iter channel id.input_channels;
  Array.iter channel id.output_channels;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_identifications () =
  List.iter
    (fun (i, digest) ->
      let sub = Spectr.Design_flow.cluster_subsystem exynos i in
      check_string
        (Spectr.Design_flow.subsystem_name sub ^ " identified model")
        digest
        (identified_digest (Spectr.Design_flow.identify sub)))
    pinned_identifications

(* SPECTR+G is SPECTR+R with the reconfiguration rungs switched off:
   until FDIR latches a permanent finding the two run the same program,
   so under transient-only faults (each shorter than FDIR's 3 s
   permanence threshold) their traces are byte-identical. *)
let test_transient_r_equals_g () =
  List.iter
    (fun platform ->
      List.iter
        (fun (fault, duration) ->
          let cfg =
            faulted_cfg ~platform
              (Faults.injection fault ~start_s:2.0 ~stop_s:(2.0 +. duration))
          in
          check_string
            (Printf.sprintf "%s on %s" (Faults.kind_to_string fault)
               (Platform_desc.name platform))
            (trace_digest (spectr_g platform) cfg)
            (trace_digest (spectr_r platform) cfg))
        [
          (Faults.Dropout Faults.Power, 1.0);
          (Faults.Dvfs_stuck, 1.25);
          (Faults.Stuck_at_last Faults.Qos, 1.5);
        ])
    [ exynos; pixel ]

(* ------------------------------------------------------------------ *)
(* Batch arena equivalence                                             *)
(* ------------------------------------------------------------------ *)

let test_arena_checkout_equals_fresh () =
  let arena = Spectr_chaos.Arena.create () in
  List.iter
    (fun variant ->
      let cfg = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
      let fresh, _, _, _ = Spectr_chaos.Campaign.make_manager variant in
      let d_fresh = Trace.digest (Spectr.Scenario.run ~manager:fresh cfg) in
      (* First checkout builds; run it dirty, then check out again so
         the pristine-reset path is what's under test. *)
      let warm, _, _, _ = Spectr_chaos.Arena.checkout arena variant in
      ignore (Spectr.Scenario.run ~manager:warm cfg : Trace.t);
      let warm, _, _, _ = Spectr_chaos.Arena.checkout arena variant in
      let d_warm = Trace.digest (Spectr.Scenario.run ~manager:warm cfg) in
      check_string
        (Spectr_chaos.Campaign.variant_name variant ^ " arena digest")
        d_fresh d_warm)
    Spectr_chaos.Campaign.[ Spectr; Spectr_g; Mm_pow; Mm_perf; Siso; Fs ]

let test_arena_cells_equal_cold_cells () =
  let spec = Spectr_chaos.Campaign.default_spec ~seed:11 ~cells:6 () in
  let cells = Spectr_chaos.Campaign.generate spec in
  let arena = Spectr_chaos.Arena.create () in
  List.iter
    (fun cell ->
      let cold = Spectr_chaos.Engine.run_cell cell in
      let warm = Spectr_chaos.Engine.run_cell ~arena cell in
      check_string "cell digest" cold.Spectr_chaos.Engine.digest
        warm.Spectr_chaos.Engine.digest;
      check_int "cell violations"
        (List.length cold.Spectr_chaos.Engine.violations)
        (List.length warm.Spectr_chaos.Engine.violations))
    cells

(* ------------------------------------------------------------------ *)
(* Memoized gain design                                                *)
(* ------------------------------------------------------------------ *)

let test_design_gains_for_cached () =
  let goals = [ { Spectr.Design_flow.label = "power"; q_y = [| 0.1; 30. |] } ] in
  let a = Spectr.Design_flow.design_gains_for Spectr.Design_flow.Fs_4x2 goals in
  let b = Spectr.Design_flow.design_gains_for Spectr.Design_flow.Fs_4x2 goals in
  (match (a, b) with
  | Ok ga, Ok gb ->
      (* Single-flight: the very same list comes back, not a re-run. *)
      check_bool "same gains list shared" true (ga == gb)
  | _ -> Alcotest.fail "design_gains_for failed");
  (* And it matches the uncached pipeline bit for bit. *)
  let ident = Spectr.Design_flow.identify Spectr.Design_flow.Fs_4x2 in
  match (a, Spectr.Design_flow.design_gains ident goals) with
  | Ok ga, Ok gu ->
      List.iter2
        (fun g1 g2 ->
          check_string "gain label" g1.Lqg.label g2.Lqg.label;
          check_bool "gain matrices equal" true
            (Matrix.to_arrays g1.Lqg.kx = Matrix.to_arrays g2.Lqg.kx))
        ga gu
  | _ -> Alcotest.fail "uncached design failed"

(* ------------------------------------------------------------------ *)
(* Fused LQG kernel against a naive matrix reference                   *)
(* ------------------------------------------------------------------ *)

(* The control law written the obvious way, from the allocating
   [Matrix] algebra, [Kalman.correct] and [Float.min]/[Float.max]: the
   oracle that fixes what [Mimo.step_into]'s flat kernel must compute,
   bit for bit, including NaN, infinities and signed zeros. *)
module Naive = struct
  type t = {
    sets : (string * Lqg.gains) list;
    mutable g : Lqg.gains;
    inputs : Mimo.channel array;
    outputs : Mimo.channel array;
    refs : float array;
    z_clamp : float;
    mutable xhat : Matrix.t;
    mutable z : Matrix.t;
    mutable u_prev : Matrix.t;
    mutable innov : float;
    mutable last : float array option;
  }

  let create ~sets ~initial ~inputs ~outputs ~refs ~z_clamp =
    let n, m, p =
      let model = (List.assoc initial sets).Lqg.model in
      ( Statespace.order model,
        Statespace.num_inputs model,
        Statespace.num_outputs model )
    in
    {
      sets;
      g = List.assoc initial sets;
      inputs;
      outputs;
      refs = Array.copy refs;
      z_clamp;
      xhat = Matrix.zeros ~rows:n ~cols:1;
      z = Matrix.zeros ~rows:p ~cols:1;
      u_prev = Matrix.zeros ~rows:m ~cols:1;
      innov = 0.;
      last = None;
    }

  let normalize (ch : Mimo.channel) v = (v -. ch.offset) /. ch.scale

  (* Returns the Kalman-corrected state along with the command. *)
  let step t measured =
    let g = t.g in
    let model = g.Lqg.model in
    let y =
      Matrix.col_vector (Array.mapi (fun i v -> normalize t.outputs.(i) v) measured)
    in
    let r =
      Matrix.col_vector (Array.mapi (fun i v -> normalize t.outputs.(i) v) t.refs)
    in
    let xf = Kalman.correct ~l:g.Lqg.l ~c:model.Statespace.c ~xhat:t.xhat ~y in
    let e = Matrix.sub y (Matrix.mul model.Statespace.c t.xhat) in
    t.innov <-
      Float.sqrt (Array.fold_left (fun s v -> s +. (v *. v)) 0. (Matrix.col e 0));
    let zc = Matrix.add (Matrix.scale g.Lqg.leak t.z) (Matrix.sub r y) in
    let u = Matrix.neg (Matrix.add (Matrix.mul g.Lqg.kx xf) (Matrix.mul g.Lqg.kz zc)) in
    let cmd =
      Array.mapi
        (fun i v ->
          let ch = t.inputs.(i) in
          Float.min ch.Mimo.max (Float.max ch.Mimo.min ((v *. ch.Mimo.scale) +. ch.Mimo.offset)))
        (Matrix.col u 0)
    in
    t.u_prev <- Matrix.col_vector (Array.mapi (fun i v -> normalize t.inputs.(i) v) cmd);
    t.z <- Matrix.map (fun v -> Float.max (-.t.z_clamp) (Float.min t.z_clamp v)) zc;
    t.xhat <-
      Matrix.add (Matrix.mul model.Statespace.a xf) (Matrix.mul model.Statespace.b t.u_prev);
    t.last <- Some cmd;
    (cmd, xf)

  (* The bumpless transfer of [Mimo.switch_gains], same algebra. *)
  let switch_gains t label =
    let g = List.assoc label t.sets in
    if g != t.g then begin
      let contribution = Matrix.mul t.g.Lqg.kz t.z in
      let kzt = Matrix.transpose g.Lqg.kz in
      let gram =
        Matrix.add (Matrix.mul kzt g.Lqg.kz)
          (Matrix.scale 1e-9 (Matrix.identity (Matrix.rows t.z)))
      in
      (match Matrix.solve gram (Matrix.mul kzt contribution) with
      | z -> t.z <- z
      | exception Failure _ -> ());
      t.g <- g
    end

  let restore t (s : Mimo.snapshot) =
    t.g <- List.assoc s.Mimo.snap_active t.sets;
    Array.blit s.Mimo.snap_refs 0 t.refs 0 (Array.length t.refs);
    t.xhat <- Matrix.of_arrays s.Mimo.snap_xhat;
    t.z <- Matrix.of_arrays s.Mimo.snap_z;
    t.u_prev <- Matrix.of_arrays s.Mimo.snap_u_prev;
    t.last <- Option.map Array.copy s.Mimo.snap_last
end

(* Bit equality, except that any two NaNs agree: on x86 the payload a
   NaN operand passes through a commutative [+.] or [*.] depends on
   which operand the register allocator put first, not on the source
   order.  Signed zeros, infinities and NaN-versus-number are exact.
   (No NaN the controller computes reaches a trace: commands are
   sanitized before actuation.) *)
let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

(* These run ~100k times per case, so they fail loudly but log nothing
   on success. *)
let check_bits what a b =
  if not (same_bits a b) then
    Alcotest.failf "%s: %h (naive) <> %h (fused)" what a b

let check_bits_array what a b =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: length %d <> %d" what (Array.length a) (Array.length b);
  Array.iteri (fun i v -> check_bits (Printf.sprintf "%s.(%d)" what i) v b.(i)) a

let check_column what mat rows =
  check_bits_array what (Matrix.col mat 0) (Array.map (fun r -> r.(0)) rows)

let check_agrees what (nv : Naive.t) c =
  let s = Mimo.snapshot c in
  if nv.Naive.g.Lqg.label <> s.Mimo.snap_active then
    Alcotest.failf "%s: active set %s <> %s" what nv.Naive.g.Lqg.label
      s.Mimo.snap_active;
  let innov = [| nan |] in
  Mimo.innovation_norm_into c innov 0;
  check_bits (what ^ " innovation norm") nv.Naive.innov innov.(0);
  check_bits_array (what ^ " refs") nv.Naive.refs s.Mimo.snap_refs;
  check_column (what ^ " xhat") nv.Naive.xhat s.Mimo.snap_xhat;
  check_column (what ^ " z") nv.Naive.z s.Mimo.snap_z;
  check_column (what ^ " u_prev") nv.Naive.u_prev s.Mimo.snap_u_prev;
  match (nv.Naive.last, s.Mimo.snap_last) with
  | None, None -> ()
  | Some a, Some b -> check_bits_array (what ^ " last") a b
  | _ -> Alcotest.failf "%s: last command presence differs" what

(* A matrix with roughly a third of its entries exactly zero (signed
   either way), the rest uniform in ±[span]. *)
let random_matrix st ~rows ~cols ~span =
  Matrix.init ~rows ~cols (fun _ _ ->
      match Random.State.int st 6 with
      | 0 | 1 -> 0.
      | 2 -> -0.
      | _ -> Random.State.float st (2. *. span) -. span)

let random_gains st ~label ~n ~m ~p ~identity_a =
  let a =
    if identity_a then Matrix.identity n
    else random_matrix st ~rows:n ~cols:n ~span:(0.9 /. float_of_int n)
  in
  let b =
    if identity_a then Matrix.zeros ~rows:n ~cols:m
    else random_matrix st ~rows:n ~cols:m ~span:1.
  in
  {
    Lqg.label;
    model = Statespace.create ~a ~b ~c:(random_matrix st ~rows:p ~cols:n ~span:1.) ();
    kx = random_matrix st ~rows:m ~cols:n ~span:1.;
    kz = random_matrix st ~rows:m ~cols:p ~span:0.5;
    l = random_matrix st ~rows:n ~cols:p ~span:0.5;
    leak = (if Random.State.bool st then 1. else 0.9 +. Random.State.float st 0.1);
  }

let specials = [| nan; infinity; neg_infinity; 0.; -0. |]

(* One seeded case: a random controller stepped 120 periods beside its
   naive twin, with special measurements, mid-run gain switches and
   restores of an earlier snapshot (which also clears any NaN a special
   measurement left in the state). *)
let kernel_case seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 10 in
  let m = 1 + Random.State.int st 3 in
  let p = 1 + Random.State.int st 3 in
  (* Some cases use A = I, B = 0, where the next predicted state is the
     Kalman-corrected state itself: then [snapshot] exposes the fused
     kernel's measurement update for direct comparison with
     [Kalman.correct]. *)
  let identity_a = seed mod 4 = 0 in
  let labels = [ "g0"; "g1"; "g2" ] in
  let sets =
    List.map (fun label -> (label, random_gains st ~label ~n ~m ~p ~identity_a)) labels
  in
  let inputs =
    Array.init m (fun i ->
        let offset = Random.State.float st 2. -. 1. in
        let scale = (if Random.State.bool st then 1. else -1.) *. (0.5 +. Random.State.float st 2.) in
        (* Every other actuator saturates tightly around its offset. *)
        let half = if i mod 2 = 0 then 0.05 else 50. in
        Mimo.channel ~offset ~scale ~min:(offset -. half) ~max:(offset +. half)
          (Printf.sprintf "u%d" i))
  in
  let outputs =
    Array.init p (fun i ->
        Mimo.channel ~offset:(Random.State.float st 4.)
          ~scale:(0.5 +. Random.State.float st 3.)
          (Printf.sprintf "y%d" i))
  in
  let refs = Array.init p (fun _ -> Random.State.float st 5.) in
  let z_clamp = 0.5 +. Random.State.float st 3. in
  let fused =
    Mimo.create ~z_clamp ~gains:(List.map snd sets) ~initial:"g0" ~inputs ~outputs ~refs ()
  in
  let naive = Naive.create ~sets ~initial:"g0" ~inputs ~outputs ~refs ~z_clamp in
  let what t = Printf.sprintf "seed %d (n=%d m=%d p=%d) step %d" seed n m p t in
  let saved = ref (Mimo.snapshot fused) in
  let dst = Array.make m 0. in
  for t = 0 to 119 do
    let measured =
      Array.init p (fun _ ->
          if Random.State.int st 10 = 0 then
            specials.(Random.State.int st (Array.length specials))
          else Random.State.float st 8. -. 2.)
    in
    let cmd, xf = Naive.step naive measured in
    Mimo.step_into fused ~measured ~dst;
    check_bits_array (what t ^ " command") cmd dst;
    check_agrees (what t) naive fused;
    (* With A = I and B = 0 the time update is x' = (0 + 1·x_f) + 0,
       which is x_f with -0 turned to +0 — i.e. [v +. 0.]. *)
    if identity_a then
      check_bits_array (what t ^ " Kalman-corrected state")
        (Array.map (fun v -> v +. 0.) (Matrix.col xf 0))
        (Array.map (fun r -> r.(0)) (Mimo.snapshot fused).Mimo.snap_xhat);
    (match t mod 30 with
    | 9 ->
        let label = List.nth labels (Random.State.int st 3) in
        Naive.switch_gains naive label;
        Mimo.switch_gains fused label;
        check_agrees (what t ^ " after switch") naive fused
    | 19 ->
        Naive.restore naive !saved;
        Mimo.restore fused !saved;
        check_agrees (what t ^ " after restore") naive fused
    | 24 ->
        Mimo.set_reference fused ~index:(t mod p) 3.;
        naive.Naive.refs.(t mod p) <- 3.
    | _ -> ());
    if t mod 40 = 5 then saved := Mimo.snapshot fused
  done

let test_fused_kernel_matches_naive () =
  for seed = 1 to 200 do
    kernel_case seed
  done

(* The supervisor's compiled transition table must answer exactly what
   the automaton's CSR search answers: every state, every event id of
   the table, and ids on both sides of it (negative, and past the
   width).  Checked on the built-in shapes and on the degraded
   descriptions SPECTR+R re-synthesizes for. *)
let test_supervisor_table_agrees () =
  let commands =
    {
      Spectr.Supervisor.switch_gains = (fun _ -> ());
      set_power_ref = (fun _ _ -> ());
    }
  in
  let pixel = Platform_desc.pixel8pro in
  let host = Platform_desc.host pixel in
  let secondary = if host = 0 then 1 else 0 in
  let platforms =
    [
      Platform_desc.exynos5422;
      pixel;
      Platform_desc.k_cluster 4;
      Platform_desc.degrade pixel (Platform_desc.Remove_cluster secondary);
      Platform_desc.degrade pixel
        (Platform_desc.Pin_opp
           {
             cluster = secondary;
             freq_mhz = 1000;
           });
    ]
  in
  List.iter
    (fun platform ->
      let sup = Spectr.Supervisor.create ~commands ~platform ~envelope:5.0 () in
      let auto = Spectr.Supervisor.automaton sup in
      let tb = Spectr.Supervisor.table sup in
      let width = Spectr.Supervisor.table_width tb in
      (* Past the table and past every id of the alphabet. *)
      let top =
        Spectr_automata.Event.Set.fold
          (fun e acc -> max acc (Spectr_automata.Event.id e))
          (Spectr_automata.Automaton.alphabet auto)
          width
        + 3
      in
      let disagreements = ref 0 in
      for st = 0 to Spectr_automata.Automaton.num_states auto - 1 do
        for eid = -3 to top do
          if
            Spectr.Supervisor.table_next tb st eid
            <> Spectr_automata.Automaton.step_index_raw auto st eid
          then incr disagreements
        done
      done;
      check_int (Platform_desc.name platform ^ ": disagreements") 0
        !disagreements;
      (* A warm create steps on the very table the first one compiled. *)
      let again = Spectr.Supervisor.create ~commands ~platform ~envelope:5.0 () in
      check_bool
        (Platform_desc.name platform ^ ": table memoized")
        true
        (Spectr.Supervisor.table again == tb))
    platforms

(* ------------------------------------------------------------------ *)
(* Power-threshold boundaries: metrics 1.02 vs invariants 1.05         *)
(* ------------------------------------------------------------------ *)

let test_threshold_constants_distinct () =
  check_float "metrics allowance" 1.02 Spectr.Metrics.power_allowance;
  check_float "invariants guardband" 0.05
    Spectr_chaos.Invariants.default_limits.Spectr_chaos.Invariants.guardband;
  (* The difference is intentional (metrology tolerance vs safety
     margin); collapsing one onto the other is a regression. *)
  check_bool "allowance below guardbanded cap" true
    (Spectr.Metrics.power_allowance
    < 1. +. Spectr_chaos.Invariants.default_limits.Spectr_chaos.Invariants.guardband)

let test_metrics_allowance_boundary () =
  let envelope = 2.0 in
  let limit = envelope *. Spectr.Metrics.power_allowance in
  (* Exactly at the allowance: compliant from the start. *)
  check_bool "at limit complies" true
    (Spectr.Metrics.recovery_time ~envelope ~dt:0.05 ~after:0
       [| limit; limit; limit |]
    = Some 0.0);
  (* A hair above: first sample violates, recovery starts one dt later. *)
  check_bool "above limit delays recovery" true
    (Spectr.Metrics.recovery_time ~envelope ~dt:0.05 ~after:0
       [| limit +. 1e-9; limit; limit |]
    = Some 0.05);
  (* Never re-complying yields None, not a large number. *)
  check_bool "never complies" true
    (Spectr.Metrics.recovery_time ~envelope ~dt:0.05 ~after:0
       [| limit; limit; limit +. 1e-9 |]
    = None)

(* The invariants' cap arithmetic: violations begin strictly above
   envelope × (1 + guardband), so power between the metrics allowance
   and the guardband is non-compliant for evaluation purposes yet safe
   for the soak invariant — the gap the two constants exist to express. *)
let test_guardband_boundary () =
  let envelope = 2.0 in
  let lim = Spectr_chaos.Invariants.default_limits in
  let cap = envelope *. (1. +. lim.Spectr_chaos.Invariants.guardband) in
  let allowance = envelope *. Spectr.Metrics.power_allowance in
  check_bool "gap exists" true (allowance < cap);
  (* 2.06 W: fails the metric, passes the invariant. *)
  let between = 2.06 in
  check_bool "between thresholds" true (between > allowance && between <= cap);
  check_bool "metric rejects" true
    (Spectr.Metrics.recovery_time ~envelope ~dt:0.05 ~after:0
       [| between; between |]
    = None)

(* ------------------------------------------------------------------ *)
(* Temperature fault channel and noise config                          *)
(* ------------------------------------------------------------------ *)

let test_temp_noise_config () =
  check_float "default temp noise" 0.01 Soc.default_config.Soc.temp_noise;
  (* With the temperature sensor's noise zeroed, the observation reads
     the true die temperature exactly. *)
  let config = { Soc.default_config with Soc.temp_noise = 0. } in
  let soc = Soc.create ~config ~qos:Benchmarks.x264 () in
  let obs = Soc.make_observation () in
  for _ = 1 to 20 do
    Soc.step_into soc ~dt:0.05 obs
  done;
  check_float "noiseless temp sensor" (Soc.temperature soc)
    obs.Soc.temperature_c

let test_faults_apply_temp () =
  let f =
    Faults.create
      [ Faults.injection (Faults.Stuck_at_last Faults.Temp) ~start_s:1.0 ~stop_s:2.0 ]
  in
  (* Healthy before the window; the reading passes through and is
     recorded as last-healthy. *)
  check_float "healthy passes through" 50.0 (Faults.apply_temp f ~now:0.5 50.0);
  (* Inside the window the sensor repeats the last healthy reading. *)
  check_float "stuck repeats last" 50.0 (Faults.apply_temp f ~now:1.5 70.0);
  (* Healthy again after clearance. *)
  check_float "recovers" 72.0 (Faults.apply_temp f ~now:2.5 72.0)

(* ------------------------------------------------------------------ *)
(* Trace preallocation and index accessors                             *)
(* ------------------------------------------------------------------ *)

let test_trace_cap_and_index () =
  let t = Trace.create ~cap:2 ~columns:[ "a"; "b" ] () in
  (* cap is a hint, not a limit: growth past it still works. *)
  for i = 1 to 5 do
    Trace.add t [| float_of_int i; float_of_int (10 * i) |]
  done;
  check_int "length past cap" 5 (Trace.length t);
  let ib = Trace.column_index t "b" in
  check_int "column index" 1 ib;
  check_float "last_ix agrees" (Trace.last t "b") (Trace.last_ix t ib);
  check_bool "column_ix agrees" true (Trace.column t "b" = Trace.column_ix t ib)

(* ------------------------------------------------------------------ *)
(* Prng hot-path entry points                                          *)
(* ------------------------------------------------------------------ *)

let test_skip_gaussian_stream_equivalence () =
  let g1 = Prng.create 7L in
  let g2 = Prng.create 7L in
  ignore (Prng.gaussian g1 ~mu:0. ~sigma:1. : float);
  Prng.skip_gaussian g2;
  (* Skipping must consume exactly the draws a real gaussian does, so
     the streams stay aligned. *)
  check_bool "streams aligned" true (Prng.int64 g1 = Prng.int64 g2)

let test_noisy_into_equivalence () =
  let g1 = Prng.create 9L in
  let g2 = Prng.create 9L in
  let buf = [| 2.0; 3.0; 4.0 |] in
  Prng.noisy_into g1 ~sigma:0.1 ~dst:buf ~pos:0 ~len:3 ;
  let expect =
    Array.map (fun v -> v *. (1. +. Prng.gaussian g2 ~mu:0. ~sigma:0.1))
      [| 2.0; 3.0; 4.0 |]
  in
  Array.iteri (fun i v -> check_float "noisy value" expect.(i) v) buf

let test_prng_blit () =
  let g = Prng.create 21L in
  ignore (Prng.int64 g : int64);
  let snap = Prng.create 0L in
  Prng.blit ~src:g ~dst:snap;
  let a = Prng.int64 g in
  let b = Prng.int64 snap in
  check_bool "blit restores stream" true (a = b)

let () =
  Alcotest.run "spectr_kernel"
    [
      ( "allocation",
        [
          Alcotest.test_case "Soc.step_into zero-alloc" `Quick
            test_soc_step_into_zero_alloc;
          Alcotest.test_case "Supervisor.step zero-alloc" `Quick
            test_supervisor_step_zero_alloc;
          Alcotest.test_case "Scenario.tick SPECTR 0 B/tick" `Quick
            (zero_alloc_ticks ("SPECTR", spectr));
          Alcotest.test_case "Scenario.tick SPECTR+G 0 B/tick" `Quick
            (zero_alloc_ticks ("SPECTR+G", spectr_g));
          Alcotest.test_case "Scenario.tick SPECTR+R 0 B/tick" `Quick
            (zero_alloc_ticks ("SPECTR+R", spectr_r));
          Alcotest.test_case "warm Spectr_manager.make" `Quick
            test_warm_make_alloc;
          Alcotest.test_case "persist.restore zero-alloc" `Quick
            test_restore_zero_alloc;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "pinned scenario digests" `Slow
            test_pinned_digests;
          Alcotest.test_case "SPECTR+R = SPECTR+G under transient faults"
            `Slow test_transient_r_equals_g;
          Alcotest.test_case "pinned checkpoint payloads" `Slow
            test_pinned_checkpoints;
          Alcotest.test_case "pinned exynos identifications" `Slow
            test_pinned_identifications;
        ] );
      ( "batch-arena",
        [
          Alcotest.test_case "checkout equals fresh" `Slow
            test_arena_checkout_equals_fresh;
          Alcotest.test_case "chaos cells equal" `Slow
            test_arena_cells_equal_cold_cells;
          Alcotest.test_case "gain design memoized" `Slow
            test_design_gains_for_cached;
        ] );
      ( "into-variants",
        [
          Alcotest.test_case "fused kernel = naive reference" `Quick
            test_fused_kernel_matches_naive;
          Alcotest.test_case "supervisor table = step_index_raw" `Quick
            test_supervisor_table_agrees;
        ] );
      ( "thresholds",
        [
          Alcotest.test_case "constants distinct" `Quick
            test_threshold_constants_distinct;
          Alcotest.test_case "metrics allowance boundary" `Quick
            test_metrics_allowance_boundary;
          Alcotest.test_case "guardband gap" `Quick test_guardband_boundary;
        ] );
      ( "platform",
        [
          Alcotest.test_case "temp noise config" `Quick test_temp_noise_config;
          Alcotest.test_case "apply_temp channel" `Quick test_faults_apply_temp;
          Alcotest.test_case "trace cap and index" `Quick
            test_trace_cap_and_index;
          Alcotest.test_case "skip_gaussian stream" `Quick
            test_skip_gaussian_stream_equivalence;
          Alcotest.test_case "noisy_into" `Quick test_noisy_into_equivalence;
          Alcotest.test_case "prng blit" `Quick test_prng_blit;
        ] );
    ]
