(* Run context and helpers shared by the workloads. *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  nproc : int;  (** Domains the benchmark may use (= the default pool). *)
  r : Ledger.result;
  t_start : int;  (** Process start, monotonic ns. *)
}

(* SplitMix-style seed derivation: the same (seed, i) always gives the
   same scenario seed. *)
let mix seed i =
  let z =
    Int64.add
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (i + 1)))
      (Int64.mul 0xBF58476D1CE4E5B9L (Int64.of_int (seed + 1)))
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let stretched factor phases =
  List.map
    (fun p ->
      { p with Spectr.Scenario.duration_s = p.Spectr.Scenario.duration_s *. factor })
    phases

(* Spans are recorded only in the traced run. *)
let span ctx name f = if ctx.trace then Ledger.Span.record name f else f ()

(* End of set-up: the first timed operation starts now.  A set-up-only
   child process prints its figure and exits here. *)
let setup_s = ref nan

let setup_done ctx =
  setup_s := Ledger.secs_since ctx.t_start;
  if ctx.setup_only then begin
    Printf.printf "setup_s %.9f\n%!" !setup_s;
    exit 0
  end

let enable_obs () =
  Spectr_obs.enable ~now_ns:Monotonic_clock.now ();
  Spectr_obs.reset ()

let metric ctx = Ledger.metric ctx.r

(* One timed window.  Work is done in units of many kinds (a segment
   of a chip scenario, one synthesis size and engine); a kind's time is
   that of its fastest unit, and the window's throughput is the ops of
   one unit of every kind over the sum of those times.  The host's
   speed flickers by up to 2x at millisecond scale as other tenants load
   it, so units are kept to a few milliseconds and best-of-N measures
   the program, not the neighbours.  Only the best is kept per kind, so
   the harness adds nothing to the program's heap. *)
type kind = { unit_ops : int; mutable best_s : float; mutable count : int }

type window = {
  ops : int;  (** Ops completed in the window. *)
  kinds : (int, kind) Hashtbl.t;
  bytes : float;
}

let rate w =
  let ops, secs =
    Hashtbl.fold
      (fun _ k (o, t) -> (o + k.unit_ops, t +. k.best_s))
      w.kinds (0, 0.)
  in
  float_of_int ops /. secs

(* Run [step] until [seconds] have elapsed.  Each call does some units
   of work and returns their (kind, ops, seconds) samples and the bytes
   allocated. *)
let timed_window ~seconds step =
  let ops = ref 0 and bytes = ref 0. in
  let kinds = Hashtbl.create 1024 in
  let deadline = Ledger.now_ns () + int_of_float (seconds *. 1e9) in
  while Ledger.now_ns () < deadline do
    let samples, b = step () in
    bytes := !bytes +. b;
    List.iter
      (fun (kind, n, secs) ->
        ops := !ops + n;
        match Hashtbl.find_opt kinds kind with
        | Some k ->
            k.count <- k.count + 1;
            if secs < k.best_s then k.best_s <- secs
        | None -> Hashtbl.replace kinds kind { unit_ops = n; best_s = secs; count = 1 })
      samples
  done;
  { ops = !ops; kinds; bytes = !bytes }

(* Untraced half, traced half; records obs.overhead_pct. *)
let traced_halves ctx run =
  let untraced = rate (run ~seconds:(ctx.seconds /. 2.)) in
  enable_obs ();
  let traced = rate (run ~seconds:(ctx.seconds /. 2.)) in
  Printf.printf "obs overhead: %.1f ops/s untraced, %.1f ops/s traced\n"
    untraced traced;
  metric ctx "obs.overhead_pct" "%" ((untraced /. traced -. 1.) *. 100.)

(* The end-to-end metrics every workload reports (spectr_bench.ml adds
   setup_s). *)
let e2e ctx w =
  let units, best_s =
    Hashtbl.fold (fun _ k (u, b) -> (u + k.count, b +. k.best_s)) w.kinds (0, 0.)
  in
  Printf.printf "ops_per_s: %d units of %d kinds, one unit of each %.6f s\n"
    units (Hashtbl.length w.kinds) best_s;
  metric ctx "ops_per_s" "1/s" (rate w);
  metric ctx "alloc_b_per_op" "B" (w.bytes /. float_of_int w.ops);
  metric ctx "peak_heap_mb" "MB" (Ledger.peak_heap_mb ())

(* Counters and histograms of the program's own observability layer,
   read after the traced window. *)
let obs_metrics ctx =
  let module C = Spectr_obs.Counters in
  let module H = Spectr_obs.Histogram in
  let count name = float_of_int (Option.value ~default:0 (C.by_name name)) in
  let hist name = List.assoc_opt name (H.snapshot ()) in
  let hist_mean name =
    match hist name with Some h when H.count h > 0 -> H.mean_ns h | _ -> 0.
  in
  List.iter
    (fun (m, c) -> metric ctx m "count" (count c))
    [
      ("supervisor.events_fired", "supervisor.events_fired");
      ("guard.trips", "guard.trips");
      ("fdir.permanent", "fdir.permanent_verdicts");
      ("fdir.transient", "fdir.transient_verdicts");
      ("reconfig.swaps", "manager.reconfigurations");
      ("synth_cache.hits", "synth_cache.hits");
      ("synth_cache.misses", "synth_cache.misses");
      ("pool.tasks", "pool.tasks");
      ("fleet.cap_moves", "fleet.rebudget_moves");
    ];
  (* The guard records its fallback spans in controller periods. *)
  metric ctx "guard.fallback_span_ticks" "ticks"
    (hist_mean "guard.fallback_span_ticks")

(* Exception name of a failed op. *)
let exn_name e =
  let s = Printexc.to_string e in
  match String.index_opt s '(' with Some i -> String.sub s 0 i | None -> s
