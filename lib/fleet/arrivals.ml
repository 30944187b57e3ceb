open Spectr_linalg
open Spectr_platform

type item = { a_tasks : int; a_duration : int; a_kind : string }

(* Eager: [generate] runs on fleet pool workers, and a [lazy] forced
   from two domains at once raises [CamlinternalLazy.Undefined]. *)
let kinds =
  Array.of_list (List.map (fun w -> w.Workload.name) Benchmarks.all_qos)

let mix seed epoch =
  Int64.add
    (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (epoch + 1)))
    (Int64.mul 0xBF58476D1CE4E5B9L (Int64.of_int seed))

let generate ~seed ~epoch ~rate =
  if rate < 0. then invalid_arg "Arrivals.generate: negative rate";
  let g = Prng.create (mix seed epoch) in
  let base = int_of_float rate in
  let frac = rate -. float_of_int base in
  let count = base + (if Prng.float g < frac then 1 else 0) in
  List.init count (fun _ ->
      {
        a_tasks = 1 + Prng.int g 3;
        a_duration = 50 + Prng.int g 200;
        a_kind = kinds.(Prng.int g (Array.length kinds));
      })
