(* Open-addressing int-keyed table (linear probing, power-of-two
   capacity, load factor at most 1/2): the state map of the index-native
   algorithms.  No boxing, no polymorphic hash, no bucket cells — a
   [Hashtbl] allocates a cons per add and generic-hashes every probe. *)

type t = {
  mutable keys : int array; (* -1 = empty; keys are >= 0 *)
  mutable vals : int array;
  mutable mask : int;
  mutable count : int;
}

let create ?(capacity = 4096) () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := 2 * !cap
  done;
  {
    keys = Array.make !cap (-1);
    vals = Array.make !cap 0;
    mask = !cap - 1;
    count = 0;
  }

let hash key =
  let h = key lxor (key lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = max 16 (2 * Array.length old_keys) in
  let keys = Array.make cap (-1) and vals = Array.make cap 0 in
  let mask = cap - 1 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = ref (hash k land mask) in
        while keys.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        keys.(!j) <- k;
        vals.(!j) <- old_vals.(i)
      end)
    old_keys;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask

let put t key v =
  if key < 0 then invalid_arg "Inttbl.put: negative key";
  if 2 * (t.count + 1) > Array.length t.keys then grow t;
  let mask = t.mask in
  let keys = t.keys in
  let j = ref (hash key land mask) in
  let res = ref min_int in
  while !res = min_int do
    let k = keys.(!j) in
    if k = key then res := t.vals.(!j)
    else if k < 0 then begin
      keys.(!j) <- key;
      t.vals.(!j) <- v;
      t.count <- t.count + 1;
      res := -1
    end
    else j := (!j + 1) land mask
  done;
  !res

let find t key =
  if key < 0 then invalid_arg "Inttbl.find: negative key";
  if t.count = 0 then -1
  else begin
    let mask = t.mask in
    let keys = t.keys in
    let j = ref (hash key land mask) in
    let res = ref (-2) in
    while !res = -2 do
      let k = keys.(!j) in
      if k = key then res := t.vals.(!j)
      else if k < 0 then res := -1
      else j := (!j + 1) land mask
    done;
    !res
  end

let release t =
  t.keys <- [||];
  t.vals <- [||];
  t.count <- 0
