(* Samples live in a circular buffer of parallel (time, count) float
   arrays.  The predecessor kept a newest-first cons list, which
   allocated a pair and a cons cell on every beat and rebuilt the list
   on every [rate] call; the ring makes both operations allocation-free
   in steady state (the buffer only grows when more samples than ever
   before are simultaneously inside the window).  [rate] reproduces the
   list version bit-for-bit: expired samples are dropped from the old
   end, and the sum is accumulated newest-to-oldest in the same float
   addition order as the fold over the newest-first list. *)

(* The monitor's scalars, in a record of floats only: OCaml stores it
   flat, so the beat/rate path updates them unboxed (a float field of a
   mixed record is a pointer to a box, and every store allocates one). *)
type scalars = {
  window : float;
  mutable reference : float;
  mutable total : float;
  mutable last_time : float;
}

type t = {
  sc : scalars;
  mutable times : float array; (* circular, parallel to counts *)
  mutable counts : float array;
  mutable head : int; (* index of the oldest live sample *)
  mutable len : int; (* live samples *)
}

let initial_cap = 64

let create ?(window = 0.5) ~reference () =
  if window <= 0. then invalid_arg "Heartbeats.create: window <= 0";
  if reference <= 0. then invalid_arg "Heartbeats.create: reference <= 0";
  {
    sc = { window; reference; total = 0.; last_time = neg_infinity };
    times = Array.make initial_cap 0.;
    counts = Array.make initial_cap 0.;
    head = 0;
    len = 0;
  }

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. in
  let counts = Array.make (2 * cap) 0. in
  for k = 0 to t.len - 1 do
    let i = (t.head + k) mod cap in
    times.(k) <- t.times.(i);
    counts.(k) <- t.counts.(i)
  done;
  t.times <- times;
  t.counts <- counts;
  t.head <- 0

(* [push] and [windowed] are the implementation; they are inlined into
   each entry point below, so a caller that has its floats unboxed
   ([observe]) never boxes them for a call. *)
let[@inline] push t now count =
  if now < t.sc.last_time then
    invalid_arg "Heartbeats.beat: time went backwards";
  t.sc.last_time <- now;
  t.sc.total <- t.sc.total +. count;
  if t.len = Array.length t.times then grow t;
  let i = (t.head + t.len) mod Array.length t.times in
  t.times.(i) <- now;
  t.counts.(i) <- count;
  t.len <- t.len + 1

let[@inline] windowed t now =
  let cutoff = now -. t.sc.window in
  let cap = Array.length t.times in
  (* Beat times are non-decreasing, so expired samples form a prefix at
     the old end. *)
  while t.len > 0 && t.times.(t.head) <= cutoff do
    t.head <- (t.head + 1) mod cap;
    t.len <- t.len - 1
  done;
  let sum = ref 0. in
  for k = t.len - 1 downto 0 do
    sum := !sum +. t.counts.((t.head + k) mod cap)
  done;
  !sum /. t.sc.window

let beat t ~now ~count = push t now count
let rate t ~now = windowed t now

let observe t (obs : Soc.observation) ~period ~stalled =
  let now = obs.Soc.time in
  if not stalled then push t now (obs.Soc.qos_rate *. period);
  obs.Soc.qos_rate <- windowed t now

let reference t = t.sc.reference

let set_reference t r =
  if r <= 0. then invalid_arg "Heartbeats.set_reference: reference <= 0";
  t.sc.reference <- r

let total t = t.sc.total
