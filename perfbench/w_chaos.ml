(* chaos-campaign: Campaign.generate cells (SPECTR+G and SPECTR+R, every
   transient fault kind, up to 3 faults, kill drills at 0.25,
   reconfiguration drills at 0.5) through one warm Arena, fanned out
   with Parmap over the default pool.

   Op: one cell.  It fails when Engine.run_cell raises (the exception is
   caught here, counted and tallied by name — it is not retried and
   nothing is warmed up beforehand to avoid it) or when the outcome
   violates an invariant. *)

module C = Spectr_chaos.Campaign
module E = Spectr_chaos.Engine

let chunk = 32

let spec seed =
  C.default_spec ~seed ~cells:1_000_000 ~variants:[ C.Spectr_g; C.Spectr_r ]
    ~kinds:C.all_kinds ~max_faults:3 ~kill_prob:0.25 ~reconfig_prob:0.5 ()

type cell_result =
  | Done of E.outcome * int  (** Outcome and cell wall ns. *)
  | Raised of string

let run_cells ?pool arena cells =
  Spectr_exec.Parmap.map ?pool
    (fun cell ->
      let t0 = Ledger.now_ns () in
      match E.run_cell ~arena cell with
      | o -> Done (o, Ledger.now_ns () - t0)
      | exception e -> Raised (Common.exn_name e))
    cells

(* swap_ms: Manager.t.step wall time on the ticks where a SPECTR+R
   hot-swap completes, over the reconfiguration-drill cells given. *)
let swap_latencies cells =
  List.concat_map
    (fun cell ->
      let m, _, _, handle = C.make_manager cell.C.variant in
      match handle with
      | None -> []
      | Some h ->
          let lat = ref [] in
          let step ~now ~qos_ref ~envelope ~obs soc =
            let before = Spectr.Spectr_manager.Reconfig.reconfigurations h in
            let t0 = Ledger.now_ns () in
            m.Spectr.Manager.step ~now ~qos_ref ~envelope ~obs soc;
            let d = Ledger.now_ns () - t0 in
            if Spectr.Spectr_manager.Reconfig.reconfigurations h > before then
              lat := (float_of_int d /. 1e6) :: !lat
          in
          let mgr = { m with Spectr.Manager.step } in
          let runner = Spectr.Scenario.start (C.config_of_cell cell) in
          while Option.is_some (Spectr.Scenario.tick runner ~manager:mgr) do
            ()
          done;
          !lat)
    cells

let run (ctx : Common.ctx) =
  let r = ctx.Common.r in
  let spec = spec ctx.Common.seed in
  let arena = Spectr_chaos.Arena.create () in
  let jobs = Spectr_exec.Parmap.jobs () in
  Common.setup_done ctx;
  let next = ref 0 in
  let lat = Ledger.Hist.create () in
  let first = ref [] in
  (* Unit of work: one parallel batch of [chunk] cells. *)
  let window ~seconds =
    Common.timed_window ~seconds (fun () ->
        let batch = List.init chunk (fun i -> C.cell_of_spec spec (!next + i)) in
        next := !next + chunk;
        let b0 = Ledger.alloc_b () in
        let t0 = Ledger.now_ns () in
        let results = run_cells arena batch in
        let busy = Ledger.secs_since t0 in
        let bytes = Ledger.alloc_b () -. b0 in
        List.iter2
          (fun cell res ->
            r.Ledger.attempted <- r.Ledger.attempted + 1;
            match res with
            | Raised name -> Ledger.fail r name
            | Done (o, ns) ->
                Ledger.Hist.record lat ns;
                if List.length !first < 8 then first := (cell, o) :: !first;
                if E.violates o then Ledger.fail r "invariant-violation")
          batch results;
        ([ (0, chunk, busy) ], bytes))
  in
  if ctx.Common.trace then begin
    Common.traced_halves ctx window;
    Common.obs_metrics ctx;
    let probe = List.init 8 (fun i -> C.cell_of_spec spec i) in
    let guarded = List.find (fun c -> c.C.variant = C.Spectr_g) probe in
    Layers.ledger ctx ~label:"SPECTR+G" ~config:(C.config_of_cell guarded)
      ~make:(fun () ->
        let m, _, _, _ = C.make_manager C.Spectr_g in
        m)
      ~cells:probe ~fleet:Layers.small_fleet
      ~synth:(`Platform Spectr_platform.Platform_desc.exynos5422);
    Layers.scaling ctx "chaos-campaign" (fun pool ->
        let cells = List.init (8 * jobs) (fun i -> C.cell_of_spec spec (!next + i)) in
        ignore (run_cells ~pool (Spectr_chaos.Arena.create ()) cells))
  end
  else begin
    let w = window ~seconds:ctx.Common.seconds in
    (* Determinism: the first cells re-run without the arena must give
       the byte-identical trace the warm arena gave. *)
    List.iter
      (fun (cell, o) ->
        match E.run_cell cell with
        | o' when o'.E.digest <> o.E.digest ->
            Ledger.wrong r "chaos-campaign: cell %d digest differs without the arena" cell.C.index
        | _ -> ()
        | exception e ->
            Ledger.wrong r "chaos-campaign: cell %d re-run raised %s" cell.C.index
              (Common.exn_name e))
      !first;
    let drills =
      List.filter
        (fun c -> c.C.variant = C.Spectr_r)
        (List.init 16 (fun i -> C.cell_of_spec spec i))
    in
    let swaps = swap_latencies drills in
    Common.e2e ctx w;
    Printf.printf "cells_per_s %.3f 1/s over %d cells on %d domains\n"
      (Common.rate w) w.Common.ops jobs;
    Printf.printf "cell_ms_p50 %.3f ms, cell_ms_p99 %.3f ms over %d completed cells\n"
      (Ledger.Hist.percentile lat 50. /. 1e6)
      (Ledger.Hist.percentile lat 99. /. 1e6)
      (Ledger.Hist.count lat);
    Printf.printf "swap_ms_p50 %.3f ms over %d hot-swaps\n" (Ledger.median swaps)
      (List.length swaps)
  end
