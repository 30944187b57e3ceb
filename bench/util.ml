(* Shared helpers for the benchmark harness.

   Parallel-execution discipline: every experiment computes first —
   fanning its scenario grid out with [Spectr_exec.Parmap.map], whose
   results come back in submission order — and prints second, from the
   main domain only.  Tasks construct their managers from scratch (a
   manager is stateful; sharing one across scenarios would make results
   depend on execution order) and never touch shared mutable state, so
   tables and traces are byte-identical for any SPECTR_JOBS value. *)

(* Wall-clock seconds from the monotonic clock — never [Sys.time], which
   is process CPU time summed over every domain and so turns a parallel
   speedup into an apparent slowdown. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* [f ()] and its wall-clock duration in seconds. *)
let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let heading title =
  Printf.printf "\n=============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=============================================================\n"

let subheading title = Printf.printf "\n--- %s\n" title

(* Print a time series subsampled to at most [points] rows plus the final
   one: the stride loop alone would leave the steady-state value shown in
   figures up to stride-1 steps stale. *)
let print_series ~columns ~time rows =
  let n = Array.length time in
  let points = 30 in
  let stride = max 1 (n / points) in
  Printf.printf "%8s" "time";
  List.iter (fun c -> Printf.printf " %10s" c) columns;
  print_newline ();
  let emit i =
    Printf.printf "%8.2f" time.(i);
    List.iter (fun v -> Printf.printf " %10.3f" v.(i)) rows;
    print_newline ()
  in
  let i = ref 0 in
  while !i < n do
    emit !i;
    i := !i + stride
  done;
  (* The loop's last emitted index was !i - stride. *)
  if n > 0 && !i - stride <> n - 1 then emit (n - 1)

(* The four resource managers of the evaluation, as constructors: each
   parallel task builds its own fresh instance.  (The pre-parallel
   harness reused manager instances across scenario runs, leaking
   controller and supervisor state from one run into the next.) *)
let manager_specs () : (string * (unit -> Spectr.Manager.t)) list =
  [
    ("SPECTR", fun () -> fst (Spectr.Spectr_manager.make ()));
    ("MM-Pow", fun () -> Spectr.Mm.make_pow ());
    ("MM-Perf", fun () -> Spectr.Mm.make_perf ());
    ("FS", fun () -> Spectr.Fs.make ());
  ]

(* The evaluation-grid columns: every (manager, platform) pair a cell
   runs.  The four exynos columns above, plus SPECTR driving the
   3-cluster pixel8pro description — each new platform is a new column
   axis, not a new harness. *)
let grid_specs () :
    (string * Spectr_platform.Platform_desc.t * (unit -> Spectr.Manager.t))
    list =
  let exynos = Spectr_platform.Platform_desc.exynos5422 in
  let p8p = Spectr_platform.Platform_desc.pixel8pro in
  List.map (fun (name, mk) -> (name, exynos, mk)) (manager_specs ())
  @ [
      ( "SPECTR-3c",
        p8p,
        fun () -> fst (Spectr.Spectr_manager.make ~platform:p8p ()) );
    ]

(* Run one scenario per (label, constructor) pair, fanned out across the
   pool; results are in input order. *)
let run_scenarios ~config specs =
  Spectr_exec.Parmap.map
    (fun (name, make_manager) ->
      (name, Spectr.Scenario.run ~manager:(make_manager ()) config))
    specs
