(* Time source for histograms and the decision log.

   Two backings:
   - [Ticks] (the default): a process-global counter advanced explicitly
     by the simulation ([Soc.step_into] ticks once per controller period when
     instrumentation is on).  Deterministic — two runs of the same
     scenario stamp identical timestamps — which is what the obs
     determinism tests pin.
   - [Monotonic f]: a caller-supplied monotonic nanosecond clock (the
     bench harness and the CLI install bechamel's CLOCK_MONOTONIC stub),
     for real latency percentiles. *)

type source = Ticks | Monotonic of (unit -> int64)

let source = Atomic.make Ticks
let ticks = Atomic.make 0

(* One simulated tick is stamped as 1 ms of "time" in tick mode; the
   absolute scale is arbitrary, only determinism matters. *)
let ns_per_tick = 1_000_000L

let use_ticks () = Atomic.set source Ticks
let use_monotonic f = Atomic.set source (Monotonic f)
let is_ticks () = match Atomic.get source with Ticks -> true | Monotonic _ -> false
let tick () = ignore (Atomic.fetch_and_add ticks 1)

let now_ns () =
  match Atomic.get source with
  | Ticks -> Int64.mul (Int64.of_int (Atomic.get ticks)) ns_per_tick
  | Monotonic f -> f ()

let reset () = Atomic.set ticks 0
