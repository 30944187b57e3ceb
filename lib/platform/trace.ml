(* Column-major storage in growable contiguous arrays (the Intvec
   doubling pattern, per column, for floats).  The predecessor kept a
   newest-first row list and rebuilt a full n-element array on every
   [column] call, which made [Metrics.per_phase] O(phases x columns x n);
   here [column_slice] copies just the slice and [last] is O(1).  Column
   lookup by name goes through a hash table built in [create] — the old
   linear string scan sat on the guard/supervisor tick path via [last] —
   and hot callers can resolve the index once ([column_index]) and use
   the [_ix] accessors.  The CSV output is byte-identical to the
   row-list implementation (pinned by test). *)

type t = {
  names : string array;
  by_name : (string, int) Hashtbl.t; (* name -> column index *)
  mutable cols : float array array; (* one buffer per column, length cap *)
  mutable cap : int;
  mutable n : int;
}

let initial_cap = 256

let create ?cap ~columns () =
  if columns = [] then invalid_arg "Trace.create: no columns";
  let names = Array.of_list columns in
  let sorted = List.sort_uniq compare columns in
  if List.length sorted <> Array.length names then
    invalid_arg "Trace.create: duplicate column";
  let by_name = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.add by_name name i) names;
  let initial_cap =
    match cap with None -> initial_cap | Some c -> max 1 c
  in
  {
    names;
    by_name;
    cols = Array.map (fun _ -> Array.make initial_cap 0.) names;
    cap = initial_cap;
    n = 0;
  }

let add t row =
  if Array.length row <> Array.length t.names then
    invalid_arg "Trace.add: row width mismatch";
  if t.n = t.cap then begin
    let cap = 2 * t.cap in
    t.cols <-
      Array.map
        (fun col ->
          let bigger = Array.make cap 0. in
          Array.blit col 0 bigger 0 t.n;
          bigger)
        t.cols;
    t.cap <- cap
  end;
  (* Plain loop: Array.iteri's closure would put an allocation on the
     per-tick path. *)
  let n = t.n in
  for i = 0 to Array.length row - 1 do
    t.cols.(i).(n) <- row.(i)
  done;
  t.n <- n + 1

let length t = t.n
let columns t = Array.to_list t.names
let width t = Array.length t.names

let index t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Trace: unknown column %S" name)

let column_index = index

let check_column_index t i =
  if i < 0 || i >= Array.length t.names then
    invalid_arg (Printf.sprintf "Trace: column index %d out of range" i)

let column_ix t i =
  check_column_index t i;
  Array.sub t.cols.(i) 0 t.n

let last_ix t i =
  check_column_index t i;
  if t.n = 0 then invalid_arg "Trace.last: empty trace";
  t.cols.(i).(t.n - 1)

let column t name = Array.sub t.cols.(index t name) 0 t.n

let column_slice t name ~from ~upto =
  if from < 0 || upto > t.n || from >= upto then
    invalid_arg "Trace.column_slice: bad range";
  Array.sub t.cols.(index t name) from (upto - from)

let last t name =
  if t.n = 0 then invalid_arg "Trace.last: empty trace";
  t.cols.(index t name).(t.n - 1)

(* What [Printf.sprintf "%.6g"] ends in: the same bytes for every float,
   without interpreting a format per cell. *)
external format_float : string -> float -> string = "caml_format_float"

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (Array.to_list t.names));
  Buffer.add_char buf '\n';
  let k = Array.length t.names in
  for r = 0 to t.n - 1 do
    for c = 0 to k - 1 do
      if c > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (format_float "%.6g" t.cols.(c).(r))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let digest t = Digest.to_hex (Digest.string (to_csv t))
