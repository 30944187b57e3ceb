(* Spectr_obs — the observability layer.

   Off by default: every recording entry point checks one atomic flag
   and is an allocation-free no-op while disabled, so the instrumented
   hot paths (Supervisor.step, Soc.step_into, Pool, Synth_cache, …) leave
   pinned traces and bench stdout byte-identical.  Enabling costs a few
   atomic ops per sample and a mutexed ring append per decision. *)

module Clock = Clock
module Counters = Counters
module Histogram = Histogram
module Decision_log = Decision_log

let enabled () = Atomic.get State.enabled

let enable ?now_ns () =
  (match now_ns with Some f -> Clock.use_monotonic f | None -> ());
  Atomic.set State.enabled true

let disable () = Atomic.set State.enabled false

let reset () =
  Counters.reset ();
  Histogram.reset ();
  Decision_log.reset ();
  Clock.reset ()

(* Elapsed nanoseconds of [f ()], recorded into [h] when enabled. *)
let time h f =
  if not (enabled ()) then f ()
  else begin
    let t0 = Clock.now_ns () in
    let finish () =
      Histogram.observe h (Int64.to_int (Int64.sub (Clock.now_ns ()) t0))
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let summary () =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "== observability summary ==\n";
  (match Counters.snapshot () with
  | [] -> ()
  | cs ->
      pf "counters:\n";
      List.iter (fun (n, v) -> pf "  %-40s %d\n" n v) cs);
  (match Counters.gauge_snapshot () with
  | [] -> ()
  | gs ->
      pf "gauges:\n";
      List.iter (fun (n, v) -> pf "  %-40s %.6g\n" n v) gs);
  let live =
    List.filter (fun (_, h) -> Histogram.count h > 0) (Histogram.snapshot ())
  in
  (match live with
  | [] -> ()
  | hs ->
      pf "histograms (ns):\n";
      List.iter
        (fun (n, h) ->
          pf "  %-28s count=%-8d p50=%-8d p95=%-8d p99=%-8d max=%-8d mean=%.1f\n"
            n (Histogram.count h)
            (Histogram.percentile h 50.)
            (Histogram.percentile h 95.)
            (Histogram.percentile h 99.)
            (Histogram.max_ns h) (Histogram.mean_ns h))
        hs);
  pf "decisions: logged=%d retained=%d dropped=%d\n" (Decision_log.total ())
    (Decision_log.length ()) (Decision_log.dropped ());
  List.iter (fun (k, n) -> pf "  %-40s %d\n" k n) (Decision_log.kind_counts ());
  Buffer.contents b
