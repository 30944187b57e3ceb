(* Fleet-scale hierarchical supervision (ROADMAP item 1).

   One level above the paper's per-chip hierarchy: a datacenter
   coordinator re-budgets per-node power caps under a global cap each
   epoch, while every node's own synthesized SCT supervisor stays the
   enforcement mechanism.  The table compares three policies on the same
   deterministic fleet:

   - uncoordinated: every node at its chip TDP — the per-node-only
     baseline that violates the global cap;
   - static: an even global_cap/n split — compliant but need-blind;
   - waterfill: demand-driven water-filling over epoch reports —
     compliant and need-aware.

   In --smoke mode the compliance and determinism properties are
   enforced hard (a breach exits nonzero): the water-filling fleet must
   hold the global cap where the uncoordinated baseline breaks it, and
   a forced 4-job pool must reproduce the 1-job digest bit-for-bit.
   `make fleet-smoke` additionally diffs whole-process stdout across
   SPECTR_JOBS values.  Wall-clock goes to stderr: stdout carries only
   deterministic fields. *)

module F = Spectr_fleet.Fleet
module Coordinator = Spectr_fleet.Coordinator
module Pool = Spectr_exec.Pool

let smoke = ref false

let spec ~nodes ~epochs ~ticks ~policy =
  {
    F.nodes;
    epochs;
    ticks_per_epoch = ticks;
    dt = 0.05;
    seed = 42;
    (* 1.5 W per node: 30 % of the 5 W chip TDP — tight enough that an
       uncoordinated fleet running near TDP breaks it. *)
    global_cap = 1.5 *. float_of_int nodes;
    policy;
    node_config = Spectr_fleet.Node.default_config;
    arrival_rate = float_of_int nodes /. 16.;
    kill_rate = float_of_int nodes /. 512.;
    down_epochs = 2;
    shard_size = 64;
    platforms = [| Spectr_platform.Platform_desc.exynos5422 |];
  }

let policies =
  [
    Coordinator.Uncoordinated; Coordinator.Static_split;
    Coordinator.Water_filling;
  ]

let print_row name cap (r : F.result) =
  Printf.printf "  %-14s %8.1f %8.1f %8.1f %6d/%-6d %7.4f %10.1f  %s\n" name
    cap r.F.peak_fleet_power r.F.mean_fleet_power r.F.violation_ticks
    r.F.total_ticks r.F.qos_attainment r.F.total_debt r.F.digest

let comparison_section ~nodes ~epochs ~ticks =
  Util.subheading
    (Printf.sprintf "policy comparison: %d nodes, %d epochs x %d ticks" nodes
       epochs ticks);
  Printf.printf "  %-14s %8s %8s %8s %13s %7s %10s  %s\n" "policy" "cap W"
    "peak W" "mean W" "violations" "qos" "debt s" "digest";
  let results =
    List.map
      (fun p ->
        let s = spec ~nodes ~epochs ~ticks ~policy:p in
        let r = F.run s in
        print_row (Coordinator.string_of_policy p) s.F.global_cap r;
        (p, r))
      policies
  in
  let get p = List.assoc p results in
  let unco = get Coordinator.Uncoordinated in
  let water = get Coordinator.Water_filling in
  if !smoke then begin
    if unco.F.violation_ticks = 0 then
      failwith
        "fleet: the uncoordinated baseline never violated the global cap — \
         the comparison is vacuous";
    if water.F.violation_ticks > 0 then
      failwith
        (Printf.sprintf
           "fleet: water-filling violated the global cap on %d ticks"
           water.F.violation_ticks);
    Printf.printf "  compliance gate: PASS (baseline %d violations, \
                   waterfill 0)\n"
      unco.F.violation_ticks
  end

let determinism_section ~nodes ~epochs ~ticks =
  Util.subheading "determinism: forced 1-job vs 4-job pools, same process";
  let s = spec ~nodes ~epochs ~ticks ~policy:Coordinator.Water_filling in
  let digest_with jobs =
    let pool = Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> (F.run ~pool s).F.digest)
  in
  let d1 = digest_with 1 in
  let d4 = digest_with 4 in
  Printf.printf "  jobs=1  %s\n  jobs=4  %s\n" d1 d4;
  if d1 <> d4 then
    failwith "fleet: digest differs between 1-job and 4-job pools";
  Printf.printf "  determinism gate: PASS\n"

let scale_section () =
  (* The 10k x 10k headline: 10 000 nodes, 10 000 controller ticks each
     (100 epochs x 100 ticks), one hundred million node-ticks through
     the full SoC + manager + supervisor stack. *)
  let nodes, epochs, ticks = (10_000, 100, 100) in
  Util.subheading
    (Printf.sprintf "scale: %d nodes x %d ticks (%d epochs)" nodes
       (epochs * ticks) epochs);
  let s = spec ~nodes ~epochs ~ticks ~policy:Coordinator.Water_filling in
  let t0 = Util.now_s () in
  let r = F.run s in
  let dt_s = Util.now_s () -. t0 in
  Printf.printf "  %-14s %8s %8s %8s %13s %7s %10s  %s\n" "policy" "cap W"
    "peak W" "mean W" "violations" "qos" "debt s" "digest";
  print_row "waterfill" s.F.global_cap r;
  let node_ticks = float_of_int (nodes * r.F.total_ticks) in
  Printf.eprintf "fleet scale: %.0f node-ticks in %.1f s (%.0f kticks/s)\n%!"
    node_ticks dt_s
    (node_ticks /. dt_s /. 1e3)

let run () =
  Util.heading "fleet";
  let nodes, epochs, ticks = if !smoke then (32, 8, 25) else (256, 40, 50) in
  comparison_section ~nodes ~epochs ~ticks;
  determinism_section ~nodes ~epochs ~ticks;
  if not !smoke then scale_section ()
