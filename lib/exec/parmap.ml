(* Created on first use (spawning domains at module initialization would
   tax every program linking this library), under a lock: a [lazy] raises
   [CamlinternalLazy.Undefined] when two domains race to force it. *)
let default = ref None
let default_lock = Mutex.create ()

let resolve = function
  | Some pool -> pool
  | None ->
      Mutex.protect default_lock (fun () ->
          match !default with
          | Some pool -> pool
          | None ->
              let pool = Pool.create () in
              at_exit (fun () -> Pool.shutdown pool);
              default := Some pool;
              pool)

let jobs () = Pool.jobs (resolve None)
let map ?pool f xs = Pool.map (resolve pool) f xs

let mapi ?pool f xs =
  map ?pool (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) xs)

let map_array ?pool f xs = Pool.map_array (resolve pool) f xs
let iter ?pool f xs = ignore (map ?pool f xs : unit list)
