(* fleet-waterfill: Fleet.run with water-filling over an interleaved
   [exynos5422; pixel8pro] fleet of 1024 nodes, with arrivals and
   kills, on the default pool.  The same spec is run repeatedly for the
   whole window.

   Op: one node-tick.  A fleet run fails (all its node-ticks) when it
   raises; the result is incorrect when a run has fleet power over
   global cap x Metrics.power_allowance on any tick, or when its digest
   differs from the first run's. *)

module F = Spectr_fleet.Fleet

let nodes = 1024
let epochs = 4

let run (ctx : Common.ctx) =
  let r = ctx.Common.r in
  let spec = Layers.fleet_spec ~seed:ctx.Common.seed ~nodes ~epochs in
  let jobs = Spectr_exec.Parmap.jobs () in
  (* Cold gain design and supervisor synthesis for each platform of the
     fleet: the work the first epoch would otherwise absorb. *)
  Array.iter
    (fun platform -> ignore (Spectr.Spectr_manager.make ~platform ()))
    spec.F.platforms;
  Common.setup_done ctx;
  let per_run = spec.F.nodes * spec.F.epochs * spec.F.ticks_per_epoch in
  let digest = ref None in
  let results = ref [] in
  (* Unit of work: one Fleet.run. *)
  let window ~seconds =
    Common.timed_window ~seconds (fun () ->
      r.Ledger.attempted <- r.Ledger.attempted + per_run;
      let b0 = Ledger.alloc_b () in
      let t0 = Ledger.now_ns () in
      match Common.span ctx "fleet.run" (fun () -> F.run spec) with
      | res ->
          let busy = Ledger.secs_since t0 in
          let bytes = Ledger.alloc_b () -. b0 in
          results := res :: !results;
          if res.F.violation_ticks > 0 then
            Ledger.wrong r "fleet-waterfill: %d ticks over the global cap"
              res.F.violation_ticks;
          (match !digest with
          | None -> digest := Some res.F.digest
          | Some d when d <> res.F.digest ->
              Ledger.wrong r "fleet-waterfill: digest changed between repeats"
          | Some _ -> ());
          ([ (0, per_run, busy) ], bytes)
      | exception e ->
          Ledger.fail r (Common.exn_name e);
          r.Ledger.failed <- r.Ledger.failed + per_run - 1;
          ([], 0.))
  in
  if ctx.Common.trace then begin
    Common.traced_halves ctx window;
    Common.obs_metrics ctx;
    let config =
      Spectr.Scenario.default_config ~seed:(Common.mix ctx.Common.seed 0)
        (List.hd Spectr_platform.Benchmarks.all_qos)
    in
    Layers.ledger ctx ~label:"SPECTR" ~config
      ~make:(fun () -> fst (Spectr.Spectr_manager.make ()))
      ~cells:(Layers.probe_cells ctx.Common.seed 4)
      ~fleet:(nodes, 2)
      ~synth:(`Platform Spectr_platform.Platform_desc.pixel8pro);
    Layers.scaling ctx "fleet-waterfill" (fun pool ->
        ignore (F.run ~pool { spec with F.epochs = 2 }))
  end
  else begin
    let w = window ~seconds:ctx.Common.seconds in
    Common.e2e ctx w;
    Printf.printf "ticks_per_s %.1f 1/s (node-ticks per host second, %d domains)\n"
      (Common.rate w) jobs;
    match !results with
    | [] -> ()
    | res :: _ ->
        Printf.printf
          "qos_attainment %.6f (simulated), cap_violation_ticks %d (simulated), \
           %d runs of %d node-ticks\n"
          res.F.qos_attainment res.F.violation_ticks (List.length !results)
          per_run
  end
