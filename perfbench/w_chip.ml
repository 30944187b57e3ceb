(* chip-steady: the paper's three-phase scenario, stretched, for every
   QoS application on the 2-cluster exynos5422 and the 3-cluster
   pixel8pro.  One domain, no faults, a fresh SPECTR manager per
   scenario run.

   Op: one simulated controller period (Scenario.tick).  A failed op is
   a tick of a run that raised; a run whose trace digest differs from
   Scenario.run on the same config makes the result incorrect. *)

open Spectr_platform
module S = Spectr.Scenario

let stretch = 10.

let platforms = [ Platform_desc.exynos5422; Platform_desc.pixel8pro ]

(* The 16 scenario configs of one round, seeded from the run seed. *)
let configs seed =
  List.concat_map
    (fun platform ->
      List.map
        (fun w ->
          let cfg = S.default_config ~platform w in
          (platform, { cfg with S.seed = Common.mix seed (Hashtbl.hash (Platform_desc.name platform, w.Workload.name)); phases = Common.stretched stretch cfg.S.phases }))
        Benchmarks.all_qos)
    platforms

(* Time every Manager.t.step call into a preallocated histogram.  The
   wrapper allocates nothing, so allocation per tick is the program's. *)
let timed_manager hist (m : Spectr.Manager.t) =
  let step ~now ~qos_ref ~envelope ~obs soc =
    let t0 = Ledger.now_ns () in
    m.Spectr.Manager.step ~now ~qos_ref ~envelope ~obs soc;
    Ledger.Hist.record hist (Ledger.now_ns () - t0)
  in
  { m with Spectr.Manager.step }

let make_manager platform = fst (Spectr.Spectr_manager.make ~platform ())

let drive runner mgr =
  while Option.is_some (S.tick runner ~manager:mgr) do
    ()
  done

(* The host's speed flickers at millisecond scale, so a run is timed in
   segments of [seg] ticks (about 0.4 ms) plus its manager construction,
   and each (config, segment) is a kind of unit for best-of-N. *)
let seg = 100

let digest tr = Digest.to_hex (Digest.string (Trace.to_csv tr))

type state = {
  cfgs : (Platform_desc.t * S.config) array;
  hist : Ledger.Hist.t;
  digests : (int, string) Hashtbl.t;  (** Config index -> timed-run digest. *)
}

let setup (ctx : Common.ctx) =
  let cfgs = Array.of_list (configs ctx.Common.seed) in
  (* Cold construction of one manager per platform: gain design and
     supervisor synthesis are memoized process-wide, so every later
     manager construction is warm. *)
  List.iter
    (fun p -> ignore (Common.span ctx "manager.make" (fun () -> make_manager p)))
    platforms;
  { cfgs; hist = Ledger.Hist.create (); digests = Hashtbl.create 16 }

(* One timed scenario run.  Writes the wall ns of manager construction
   and scenario start into [ns.(0)] and of tick segment [j] into
   [ns.(j)], allocating nothing for it; returns ticks run and bytes
   allocated. *)
let run_one ctx st i ns =
  let platform, cfg = st.cfgs.(i) in
  let b0 = Ledger.domain_alloc_b () in
  let t0 = Ledger.now_ns () in
  let mgr =
    timed_manager st.hist
      (Common.span ctx "manager.make" (fun () -> make_manager platform))
  in
  let runner = S.start cfg in
  let last = ref (Ledger.now_ns ()) and n = ref 0 in
  ns.(0) <- !last - t0;
  let mark () =
    let t = Ledger.now_ns () in
    ns.((!n + seg - 1) / seg) <- t - !last;
    last := t
  in
  Common.span ctx "scenario.run" (fun () ->
      while Option.is_some (S.tick runner ~manager:mgr) do
        incr n;
        if !n mod seg = 0 then mark ()
      done;
      if !n mod seg <> 0 then mark ());
  let bytes = Ledger.domain_alloc_b () -. b0 in
  let d = digest (S.trace runner) in
  (match Hashtbl.find_opt st.digests i with
  | Some d0 when d0 <> d ->
      Ledger.wrong ctx.Common.r "chip-steady: config %d digest changed between runs" i
  | _ -> Hashtbl.replace st.digests i d);
  (!n, bytes)

(* Whole rounds over every config, so every window covers the same
   mix.  Kind [1000 i + j] is segment [j] of config [i]; kind
   [1000 i] is its construction, which counts no ops. *)
let window ctx st ~seconds =
  let r = ctx.Common.r in
  let ns =
    Array.map (fun (_, cfg) -> Array.make ((S.total_ticks cfg + seg - 1) / seg + 1) 0) st.cfgs
  in
  Common.timed_window ~seconds (fun () ->
      let bytes = ref 0. and samples = ref [] in
      Array.iteri
        (fun i (_, cfg) ->
          let n = S.total_ticks cfg in
          r.Ledger.attempted <- r.Ledger.attempted + n;
          match run_one ctx st i ns.(i) with
          | ticks, b ->
              bytes := !bytes +. b;
              Array.iteri
                (fun j d ->
                  let ops = if j = 0 then 0 else min seg (ticks - ((j - 1) * seg)) in
                  if j = 0 || ops > 0 then
                    samples := ((1000 * i) + j, ops, float_of_int d /. 1e9) :: !samples)
                ns.(i)
          | exception e ->
              Ledger.fail r (Common.exn_name e);
              r.Ledger.failed <- r.Ledger.failed + n - 1)
        st.cfgs;
      (!samples, !bytes))

(* Output checks after the timed window: every config's timed digest
   equals Scenario.run with a fresh manager, and the latency wrapper
   leaves allocation per tick unchanged.  Also computes the simulated
   outcome metrics from ground-truth chip power. *)
let verify ctx st =
  let r = ctx.Common.r in
  let attain = ref 0. and samples = ref 0 and violations = ref 0 in
  Array.iteri
    (fun i (platform, cfg) ->
      let reference = digest (S.run ~manager:(make_manager platform) cfg) in
      (match Hashtbl.find_opt st.digests i with
      | Some d when d <> reference ->
          Ledger.wrong r "chip-steady: config %d digest %s <> Scenario.run %s" i d reference
      | _ -> ());
      let runner = S.start cfg in
      let mgr = make_manager platform in
      let soc = S.runner_soc runner in
      let rec go () =
        match S.tick runner ~manager:mgr with
        | None -> ()
        | Some obs ->
            let ph, _ = S.current_phase runner in
            attain := !attain +. Float.min 1. (obs.Soc.qos_rate /. cfg.S.qos_ref);
            incr samples;
            if Soc.true_chip_power soc > ph.S.envelope *. Spectr.Metrics.power_allowance
            then incr violations;
            go ()
      in
      go ())
    st.cfgs;
  (* Minor-heap allocation per tick with and without the latency
     wrapper, same config (the wrapper could only allocate small
     values, and the minor counter is exact). *)
  let platform, cfg = st.cfgs.(0) in
  let alloc wrap =
    let mgr = make_manager platform in
    let mgr = if wrap then timed_manager (Ledger.Hist.create ()) mgr else mgr in
    let runner = S.start cfg in
    let b0 = Ledger.minor_b () in
    drive runner mgr;
    (Ledger.minor_b () -. b0) /. float_of_int (S.ticks_done runner)
  in
  let plain = alloc false and wrapped = alloc true in
  Printf.printf
    "minor B/tick: %.3f with the decide-latency wrapper, %.3f without\n"
    wrapped plain;
  if wrapped <> plain then
    Ledger.wrong r
      "chip-steady: decide-latency wrapper changes allocation (%.3f vs %.3f B/tick)"
      wrapped plain;
  (!attain /. float_of_int !samples, !violations)

let run (ctx : Common.ctx) =
  let st = setup ctx in
  Common.setup_done ctx;
  if ctx.Common.trace then begin
    Common.traced_halves ctx (window ctx st);
    Common.obs_metrics ctx;
    let platform, config = st.cfgs.(0) in
    Layers.ledger ctx ~label:"SPECTR" ~config
      ~make:(fun () -> make_manager platform)
      ~cells:(Layers.probe_cells ctx.Common.seed 4) ~fleet:Layers.small_fleet
      ~synth:(`Platform platform);
    Layers.scaling ctx "chip-steady (scenario runs)" (fun pool ->
        let n = min (Array.length st.cfgs) (4 * ctx.Common.nproc) in
        let runs = Array.to_list (Array.sub st.cfgs 0 n) in
        ignore
          (Spectr_exec.Parmap.map ~pool
             (fun (p, c) -> S.run ~manager:(make_manager p) c)
             runs))
  end
  else begin
    let w = window ctx st ~seconds:ctx.Common.seconds in
    let h = st.hist in
    let qos, viol = verify ctx st in
    Common.e2e ctx w;
    Printf.printf "ticks_per_s %.1f 1/s (simulated periods per host second)\n"
      (Common.rate w);
    Printf.printf "alloc_b_per_tick %.3f B\n" (w.Common.bytes /. float_of_int w.Common.ops);
    Printf.printf "decide_us_p50 %.3f us, decide_us_p99 %.3f us over %d samples"
      (Ledger.Hist.percentile h 50. /. 1e3)
      (Ledger.Hist.percentile h 99. /. 1e3)
      (Ledger.Hist.count h);
    (match Ledger.Hist.tail h with
    | Some (p, v) ->
        Printf.printf "; tail p%.5f = %.3f us (10 samples beyond)\n" p (v /. 1e3)
    | None -> print_newline ());
    Printf.printf
      "qos_attainment %.6f (simulated), cap_violation_ticks %d (simulated)\n" qos
      viol
  end
