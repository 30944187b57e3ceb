(* Measurement primitives shared by every workload: one monotonic
   wall clock, an allocation-free latency histogram, in-memory spans,
   allocation/heap probes, and the result line.

   Every timing in this benchmark is CLOCK_MONOTONIC wall time read
   through [now_ns].  Nothing reads CPU time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* --- allocation and heap ----------------------------------------------- *)

(* Bytes the calling domain allocated on the minor heap since start-up:
   exact at any instant, blind to other domains and to direct major-heap
   allocations. *)
let minor_b () = Gc.minor_words () *. float_of_int (Sys.word_size / 8)

(* Bytes allocated by every domain of the process (minor + direct major
   allocations).  The runtime publishes these tallies at collections,
   so a reading lags by up to one minor heap per domain (2 MB) —
   negligible over a whole measurement window, too coarse for one
   short run. *)
let alloc_b () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* Bytes allocated by the calling domain, exact at any instant: the
   live minor counter plus direct major-heap allocations.  For work
   that runs on one domain only. *)
let domain_alloc_b () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* --- latency histogram -------------------------------------------------- *)

(* Log-linear buckets: 64 sub-buckets per power of two (1.6 % width),
   preallocated, so [record] never allocates — the decide-latency probe
   must not show up in the allocation figures it sits next to. *)
module Hist = struct
  let sub_bits = 6
  let sub = 1 lsl sub_bits
  let levels = 48

  type t = { counts : int array; mutable n : int; mutable max : int }

  let create () = { counts = Array.make (levels * sub) 0; n = 0; max = 0 }

  let index v =
    if v < sub then v
    else begin
      let rec msb v i = if v <= 1 then i else msb (v lsr 1) (i + 1) in
      let e = msb v 0 in
      let shift = e - sub_bits in
      let i = ((shift + 1) lsl sub_bits) + ((v lsr shift) land (sub - 1)) in
      if i >= levels * sub then (levels * sub) - 1 else i
    end

  (* Midpoint of a bucket, in the recorded unit. *)
  let value_of i =
    if i < sub then float_of_int i
    else begin
      let shift = (i lsr sub_bits) - 1 in
      let lo = (sub + (i land (sub - 1))) lsl shift in
      float_of_int lo +. (float_of_int (1 lsl shift) /. 2.)
    end

  let record h v =
    let v = if v < 0 then 0 else v in
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1;
    if v > h.max then h.max <- v

  let count h = h.n

  let percentile h p =
    if h.n = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int h.n))) in
      let rec go i acc =
        if i >= Array.length h.counts then float_of_int h.max
        else
          let acc = acc + h.counts.(i) in
          if acc >= rank then Float.min (value_of i) (float_of_int h.max)
          else go (i + 1) acc
      in
      go 0 0
    end

  (* The highest percentile with at least ten samples beyond it: the
     deepest tail the sample count supports.  [None] below 11 samples. *)
  let tail h =
    if h.n < 11 then None
    else
      let p = 100. *. (1. -. (10. /. float_of_int h.n)) in
      Some (p, percentile h p)
end

(* Exact quantiles of a small float sample (latencies of whole runs). *)
let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- spans ---------------------------------------------------------------- *)

(* In-memory spans around calls into the program's layers, recorded by
   the traced run only.  Each span has a name, a parent (the span open
   when it started) and a duration; the summary reports per-name count,
   total time and self time (total minus the time its child spans
   cover). *)
module Span = struct
  type agg = {
    mutable calls : int;
    mutable total_ns : int;
    mutable child_ns : int;
    parent : string;
  }

  let table : (string, agg) Hashtbl.t = Hashtbl.create 32
  let stack : (string * int) Stack.t = Stack.create ()

  let find name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let parent =
          match Stack.top_opt stack with Some (p, _) -> p | None -> "-"
        in
        let a = { calls = 0; total_ns = 0; child_ns = 0; parent } in
        Hashtbl.replace table name a;
        a

  let record name f =
    let a = find name in
    Stack.push (name, now_ns ()) stack;
    let finish () =
      let _, t0 = Stack.pop stack in
      let d = now_ns () - t0 in
      a.calls <- a.calls + 1;
      a.total_ns <- a.total_ns + d;
      match Stack.top_opt stack with
      | Some (p, _) -> (
          match Hashtbl.find_opt table p with
          | Some pa -> pa.child_ns <- pa.child_ns + d
          | None -> ())
      | None -> ()
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e

  let print () =
    let rows = Hashtbl.fold (fun n a acc -> (n, a) :: acc) table [] in
    let rows = List.sort compare rows in
    Printf.printf "spans (name, parent, calls, total ms, self ms):\n";
    List.iter
      (fun (n, a) ->
        Printf.printf "  %-28s %-22s %9d %11.3f %11.3f\n" n a.parent a.calls
          (float_of_int a.total_ns /. 1e6)
          (float_of_int (a.total_ns - a.child_ns) /. 1e6))
      rows
end

(* --- results -------------------------------------------------------------- *)

type result = {
  mutable metrics : (string * float * string) list;  (** Reverse order. *)
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable errors : (string * int) list;
}

let result () =
  { metrics = []; attempted = 0; failed = 0; correct = true; errors = [] }

let metric r name unit_ value = r.metrics <- (name, value, unit_) :: r.metrics

(* A failed operation: counted, and tallied by exception name. *)
let fail r name =
  r.failed <- r.failed + 1;
  r.errors <-
    (match List.assoc_opt name r.errors with
    | Some n -> (name, n + 1) :: List.remove_assoc name r.errors
    | None -> (name, 1) :: r.errors)

(* A broken output check: the run is not correct. *)
let wrong r fmt =
  Printf.ksprintf
    (fun msg ->
      r.correct <- false;
      Printf.printf "CHECK FAILED: %s\n%!" msg)
    fmt

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Human-readable table of every metric, then the one-line JSON result
   (always the last line of stdout). *)
let emit r =
  let ms = List.rev r.metrics in
  Printf.printf "ops: %d attempted, %d failed\n" r.attempted r.failed;
  List.iter
    (fun (n, k) -> Printf.printf "  failure %s: %d\n" n k)
    (List.rev r.errors);
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-34s %16.6f %s\n" n v u)
    ms;
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
          (json_float v) (json_string u))
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " fields)
